"""decimal_str against str, and ExactInt inside canonical_json."""

import gc
import json
import random
import sys

import pytest

from logk3 import digits
from logk3.cache import ExactInt, canonical_json
from logk3.digits import DIRECT_BITS, LEAF_BITS, decimal_str

# the references below are printed by the quadratic str
sys.set_int_max_str_digits(0)


def edge_values():
    yield 0
    yield 1
    for k in (LEAF_BITS, DIRECT_BITS, 2 * DIRECT_BITS, 3 * DIRECT_BITS + 7):
        yield from (2**k - 1, 2**k, 2**k + 1)
    for k in (1000, 1233, 1234, 5000, 20000):
        yield from (10**k - 1, 10**k, 10**k + 1)


@pytest.mark.parametrize("n", list(edge_values()))
def test_edge_values(n):
    assert decimal_str(n) == str(n)


def test_recursion_below_the_direct_cut(monkeypatch):
    # with the str shortcut off, the recursion must hold down to its leaves
    monkeypatch.setattr(digits, "DIRECT_BITS", 0)
    rng = random.Random(5)
    for bits in (1, LEAF_BITS, LEAF_BITS + 1, 2 * LEAF_BITS, 2 * LEAF_BITS + 1, 5000):
        for n in (2**bits - 1, 2**bits, 2**bits + 1, rng.getrandbits(bits)):
            assert decimal_str(n) == str(n)


@pytest.mark.parametrize("digits", [10_000, 37_001, 200_000])
def test_seeded_random_values(digits):
    rng = random.Random(digits)
    text = str(rng.randint(1, 9)) + "".join(
        rng.choice("0123456789") for _ in range(digits - 1)
    )
    n = int(text)
    assert decimal_str(n) == text


def test_conversion_leaves_no_cyclic_garbage():
    # garbage in a cycle would hold the cached powers until a collection
    n = 7**20_000
    gc.collect()
    gc.disable()
    try:
        assert decimal_str(n) == str(n)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_negative_is_refused():
    with pytest.raises(ValueError):
        decimal_str(-1)


def test_exact_ints_print_as_plain_ints():
    big = 3**40_000
    plain = {"z": [big, 1], "a": {"x": 7, "y": big + 1}, "s": "text"}
    wrapped = {
        "z": [ExactInt(big), 1],
        "a": {"x": ExactInt(7), "y": ExactInt(big + 1)},
        "s": "text",
    }
    assert canonical_json(wrapped) == canonical_json(plain)
    assert json.loads(canonical_json(wrapped))["a"]["x"] == 7


def test_other_objects_are_still_refused():
    with pytest.raises(TypeError):
        canonical_json({"a": object()})
