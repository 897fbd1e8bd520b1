"""Effective torsion bounds and the uniform order bound."""

from math import prod

import pytest

from logk3.bounds import (
    FEASIBLE_PRIME_CAP,
    MAX_VALUE_DIGITS,
    BoundConfig,
    FeasibilityError,
    _is_prime,
    _product,
    _sieve,
    brauer_uniform_bound,
    merel_prime_bound,
    parent_prime_power_bound,
    torsion_bound,
)


def test_merel_values():
    assert merel_prime_bound(1) == 1
    assert merel_prime_bound(2) == 4096  # 2^(3*4)
    assert merel_prime_bound(3) == 3**27
    with pytest.raises(ValueError):
        merel_prime_bound(0)


def test_parent_values():
    # 65 * (3^m - 1) * (2m)^6 for p > 3
    assert parent_prime_power_bound(1, 5).value == 8320
    assert parent_prime_power_bound(2, 7).value == 2129920
    assert parent_prime_power_bound(1, 5).unverified_constant is False
    with pytest.raises(ValueError):
        parent_prime_power_bound(1, 4)
    with pytest.raises(ValueError):
        parent_prime_power_bound(0, 5)


def test_parent_small_prime_flags_and_overrides():
    assert parent_prime_power_bound(1, 2).unverified_constant is True
    assert parent_prime_power_bound(1, 3).unverified_constant is True
    cfg = BoundConfig(parent_constant_p2=1000, parent_constant_p3=500)
    two = parent_prime_power_bound(1, 2, cfg)
    assert (two.value, two.unverified_constant) == (1000, False)
    three = parent_prime_power_bound(1, 3, cfg)
    assert (three.value, three.unverified_constant) == (500, False)
    # the override only affects its own prime
    assert parent_prime_power_bound(1, 5, cfg).value == 8320
    with pytest.raises(ValueError):
        BoundConfig(parent_constant_p2=0)


def test_prime_helpers():
    assert _sieve(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert _sieve(1) == []
    for n, want in [(2, True), (9, False), (8191, True), (8320, False)]:
        assert _is_prime(n) is want
    assert _product([]) == 1
    assert _product([3, 5, 7, 11]) == 1155


def test_torsion_bound_descriptor():
    nb = torsion_bound(1)
    assert nb.prime_cap == 8320
    assert nb.evaluable
    assert nb.max_power(2) == 8192
    assert nb.max_power(3) == 6561
    assert nb.max_power(5) == 3125
    assert nb.max_power(7) == 2401
    assert nb.max_power(8297) == 8297  # a prime inside the window
    assert set(nb.flags) == {"p2-constant-unverified", "p3-constant-unverified"}
    cfg = BoundConfig(parent_constant_p2=4, parent_constant_p3=9)
    assert torsion_bound(1, cfg).flags == ()
    assert torsion_bound(1, cfg).max_power(2) == 4
    assert torsion_bound(1, cfg).max_power(3) == 9


def test_torsion_bound_value_m1():
    value = torsion_bound(1).evaluate()
    # every per-prime factor divides the product
    for p in (2, 3, 5, 7, 11, 8297):
        assert value % torsion_bound(1).max_power(p) == 0
    assert value % 8192 == 0 and value % (2 * 8192) != 0
    # decimal size via bit length, avoiding a huge str conversion
    assert 3600 <= value.bit_length() * 30103 // 100000 + 1 <= 3630
    # restricted windows multiply up consistently
    nb = torsion_bound(1)
    small = nb.evaluate(restrict_cap=10)
    assert small == nb.max_power(2) * nb.max_power(3) * nb.max_power(5) * nb.max_power(7)
    assert nb.evaluate(restrict_cap=7) == small
    # a cap past the prime cap is the whole window
    assert nb.evaluate(restrict_cap=20011) == value


def test_torsion_bound_feasibility_refusal():
    nb = torsion_bound(3)
    assert nb.prime_cap == 65 * 26 * 6**6
    assert nb.prime_cap > FEASIBLE_PRIME_CAP
    assert not nb.evaluable
    with pytest.raises(FeasibilityError):
        nb.evaluate()
    # a restricted window still works: 101 is its largest prime, capped at 101^3
    window = nb.evaluate(restrict_cap=101)
    assert window == prod(nb.max_power(p) for p in _sieve(101))
    assert window % 101**3 == 0 and window % 101**4 != 0


def test_value_size_refusal():
    bound = brauer_uniform_bound(1)
    # under the prime cap, but the product would have millions of digits
    with pytest.raises(FeasibilityError):
        bound.torsion.evaluate(restrict_cap=FEASIBLE_PRIME_CAP)
    # the torsion value fits; its square with the constant does not
    torsion = bound.torsion.evaluate(restrict_cap=60_000)
    assert torsion.bit_length() * 30103 // 100000 < MAX_VALUE_DIGITS
    with pytest.raises(FeasibilityError):
        bound.evaluate(restrict_cap=60_000)
    # a huge overridden constant counts against the limit too
    heavy = torsion_bound(1, BoundConfig(parent_constant_p2=10**MAX_VALUE_DIGITS))
    with pytest.raises(FeasibilityError):
        heavy.evaluate(restrict_cap=2)
    # the same windows pass with the stated constant
    assert torsion_bound(1).evaluate(restrict_cap=2) == 2**13
    assert torsion_bound(1).evaluate(restrict_cap=5) == 2**13 * 3**8 * 5**5


def test_uniform_bound_identity():
    for m in (1, 2, 3):
        bound = brauer_uniform_bound(m)
        assert bound.identity_holds()
        assert bound.constant == 2**14 == 64 * 256
        assert bound.exponent == 2
        assert bound.extension_degree == 240 * m
        # exact integer identity on a window small enough to materialise
        window = bound.torsion.evaluate(restrict_cap=1000)
        assert bound.evaluate(restrict_cap=1000) == 2**14 * window**2
    # a tampered descriptor fails the identity
    from logk3.bounds import UniformBound

    bad = UniformBound(1, 240, 2**13, 2, torsion_bound(240))
    assert not bad.identity_holds()
    with pytest.raises(ValueError):
        brauer_uniform_bound(0)


def test_uniform_bound_json():
    data = brauer_uniform_bound(2).as_json_dict()
    assert data["extension_degree"] == 480
    assert data["constant"] == 16384
    assert data["torsion_bound"]["m"] == 480
    assert data["torsion_bound"]["evaluable"] is False


def test_monotonicity_certificate():
    # N̂(m) grows with m: the prime window and every per-prime cap grow, so
    # each factor of the smaller product divides one of the larger
    for m1, m2 in [(m, m + 1) for m in range(1, 7)] + [(2, 5), (1, 100)]:
        a, b = torsion_bound(m1), torsion_bound(m2)
        assert a.prime_cap <= b.prime_cap
        for p in (2, 3, 5, 7):
            assert b.max_power(p) % a.max_power(p) == 0


def test_monotone_agrees_with_direct_evaluation_where_possible():
    # m = 1 and m = 2 are the only fully evaluable cases; check the claim
    a = torsion_bound(1)
    b = torsion_bound(2)
    window = 2000  # direct full evaluation of m=2 takes seconds; window it
    assert a.evaluate(restrict_cap=window) <= b.evaluate(restrict_cap=window)
