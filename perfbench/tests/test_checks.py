"""Each benchmark checker accepts the program's real output and rejects a corrupted one.

    python3 -m pytest perfbench/tests
"""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from logk3.cli import main  # noqa: E402
from logk3.zcohomology import cocycle_oracle_h1  # noqa: E402


def run(argv):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        assert main(argv) == 0
    return out.getvalue()


def edit(text, change):
    data = json.loads(text)
    change(data)
    return json.dumps(data)


@pytest.fixture(scope="module")
def tables(tmp_path_factory):
    cache = str(tmp_path_factory.mktemp("cache"))
    return {d: run(workloads.table_argv(d, 1, cache)) for d in ("6", "5")}


# ── tables ─────────────────────────────────────────────────────────────────


def test_real_tables_pass(tables):
    for degree, text in tables.items():
        assert checks.check_table(degree, text) == []


def test_changed_row_is_rejected(tables):
    def drop_option(data):
        data["rows"][0]["bru_possibilities"].pop()

    def add_row(data):
        data["rows"].append({"brx": [2], "bru_possibilities": [[2]]})

    for change in (drop_option, add_row):
        assert checks.check_table("6", edit(tables["6"], change))


def test_class_count_off_by_one_is_rejected(tables):
    def bump(data):
        data["class_count"] += 1

    assert any("subgroup classes" in p for p in checks.check_table("5", edit(tables["5"], bump)))


def test_order_bound_is_enforced(tables):
    def huge(data):
        data["rows"][0]["bru_possibilities"].append([2, 2, 2, 2, 2, 2, 2, 2, 2])

    assert any("> 256" in p for p in checks.check_table("5", edit(tables["5"], huge)))


def test_other_degree_and_bytes_are_rejected(tables):
    assert checks.check_table("5", tables["6"])
    assert checks.check_same_bytes("x", tables["5"], tables["5"]) == []
    assert checks.check_same_bytes("x", tables["5"], tables["5"] + " ")


# ── h1 queries ─────────────────────────────────────────────────────────────


SYSTEMS = {d: workloads.root_system(d) for d in workloads.H1_DEGREES}


def query_output(degree, roots):
    return run(workloads.H1Query(degree, tuple(roots)).argv())


def test_real_query_passes_every_check():
    roots = (0, 3)
    text = query_output(5, roots)
    assert checks.check_h1_output(5, roots, text) == []
    vectors = [SYSTEMS[5].roots[k] for k in roots]
    expectation = checks.oracle_expectation(vectors, cocycle_oracle_h1)
    assert expectation is not None
    assert checks.check_h1_oracle(text, expectation) == []


@pytest.mark.parametrize("change", [
    lambda d: d.update(injective=False),
    lambda d: d.update(exponent_divides=False),
    lambda d: d.update(coker_exponent=7),
    lambda d: d.update(h1_lattice=[3], h1_quotient=[2]),
    lambda d: d.update(h1_quotient=[2] * 9),
    lambda d: d.update(h1_lattice=[4, 2]),
    lambda d: d.update(generator_roots=[0, 4]),
    lambda d: d.update(order=0),
])
def test_lemma_violations_are_rejected(change):
    text = query_output(5, (0, 3))
    assert checks.check_h1_output(5, (0, 3), edit(text, change))


def test_oracle_disagreement_is_rejected():
    roots = (0, 3)
    text = query_output(5, roots)
    expectation = checks.oracle_expectation(
        [SYSTEMS[5].roots[k] for k in roots], cocycle_oracle_h1
    )
    wrong = edit(text, lambda d: d.update(h1_quotient=d["h1_quotient"] + [5]))
    assert checks.check_h1_oracle(wrong, expectation)
    # a small order printed for a group the oracle found too large
    assert checks.check_h1_oracle(edit(text, lambda d: d.update(order=2)), None)


def test_conjugate_pairs():
    query, image = workloads.h1_stream(0, SYSTEMS)[0]
    a, b = run(query.argv()), run(image.argv())
    assert checks.check_conjugates(a, b) == []
    other = edit(b, lambda d: d.update(h1_lattice=d["h1_lattice"] + [2]))
    assert checks.check_conjugates(a, other)


def test_stream_names_the_programs_roots():
    roots = json.loads(run(["roots", "--degree", "3", "--format", "json"]))["roots"]
    assert [tuple(r) for r in roots] == list(SYSTEMS[3].roots)


# ── bounds ─────────────────────────────────────────────────────────────────


@pytest.fixture(scope="module")
def bound_text():
    return run(workloads.bound_argv(1, 2000))


def replace_value(text, key, new_digits):
    head, _, rest = text.partition(f'"{key}":')
    digits = rest[: len(rest) - len(rest.lstrip("0123456789"))]
    return head + f'"{key}":' + new_digits + rest[len(digits):]


def value(text, key):
    rest = text.partition(f'"{key}":')[2]
    return rest[: len(rest) - len(rest.lstrip("0123456789"))]


def test_real_bound_passes(bound_text):
    assert checks.check_bound_output(1, 2000, bound_text) == []
    assert checks.check_bound_output(2, None, run(workloads.bound_argv(2, None))) == []


@pytest.mark.parametrize("key", ["torsion", "bound"])
def test_value_times_a_prime_is_rejected(bound_text, key):
    wrong = str(int(value(bound_text, key)) * 2003)
    assert checks.check_bound_output(1, 2000, replace_value(bound_text, key, wrong))


def test_value_over_a_smaller_window_is_rejected(bound_text):
    # the torsion product over primes up to 1999 omits the factor 1999^k
    smaller = run(workloads.bound_argv(1, 1998))
    wrong = replace_value(bound_text, "torsion", value(smaller, "torsion"))
    assert checks.check_bound_output(1, 2000, wrong)


@pytest.mark.parametrize("key, new", [
    ("identity_holds", "false"),
    ("constant", "16383"),
    ("extension_degree", "480"),
    ("m", "2"),
])
def test_descriptor_corruptions_are_rejected(bound_text, key, new):
    head, _, rest = bound_text.partition(f'"{key}":')
    old = rest.split(",", 1)[0].split("}", 1)[0]
    wrong = head + f'"{key}":' + new + rest[len(old):]
    assert checks.check_bound_output(1, 2000, wrong)


def test_missing_window_is_rejected():
    descriptor = run(workloads.bound_argv(1, None))
    assert checks.check_bound_output(1, 2000, descriptor)


def test_independent_residues_match_exact_arithmetic():
    # small enough to evaluate directly: primes up to 50 at m = 1
    limit = checks.parent_cap(240)
    torsion = 1
    for p in checks.primes_up_to(50):
        power = 1
        while power * p <= limit:
            power *= p
        torsion *= power
    want_t, want_b = checks.expected_residues(1, 50)
    assert checks.decimal_residues(str(torsion)) == want_t
    assert checks.decimal_residues(str(2**14 * torsion**2)) == want_b
