"""Correctness checks on the program's outputs, run outside the timed region.

Each checker takes the text the command printed and returns a list of
problems, empty when the output is right.  The reference values are kept
here, apart from the program: the table of (Br1 X, Br1 U) pairs per degree,
the subgroup class counts, the order bounds and an independent evaluation of
the torsion bound.  ``check_h1_oracle`` compares against
``cocycle_oracle_h1``, the program's explicit-cocycle computation, which
shares no code with the fast H1 path; the caller passes it in.
"""

from __future__ import annotations

import json
import re
from math import prod

from workloads import canonical_class, reflection_matrix

# (Br1 X invariant factors) -> every Br1 U seen with it, per degree; the
# paper's table for the exhaustive tier
EXPECTED_TABLES = {
    "8b": {(): {()}},
    "7": {(): {()}},
    "6": {(): {(), (2,), (3,), (6,)}},
    "5": {(): {(), (5,)}},
    "4": {
        (): {(), (2,), (2, 2), (2, 2, 2), (2, 2, 2, 2), (4,), (2, 4)},
        (2,): {(2,), (2, 2), (2, 2, 2), (2, 2, 2, 2), (2, 4)},
        (2, 2): {(2, 2, 2), (2, 2, 2, 2), (2, 2, 4)},
    },
}

# subgroup conjugacy classes of the Weyl groups: trivial, C2, S3 x C2, S5,
# W(D5)
EXPECTED_CLASS_COUNTS = {"8b": 1, "7": 2, "6": 10, "5": 19, "4": 197}

LATTICE_SIDE_BOUND = 64
QUOTIENT_SIDE_BOUND = 256
UNIFORM_CONSTANT = 2**14
LINES_MAX = 240
# a reflection group on at most six roots has order at most |W(E6)|
MAX_H1_QUERY_ORDER = 51840
ORACLE_MAX_ORDER = 24

# large primes the printed integers are reduced modulo, all above any cap
RESIDUE_MODULI = (2**61 - 1, 2**89 - 1, 2**107 - 1, 2**127 - 1)
_CHUNK = 1000


def _factors_problem(label: str, factors) -> str | None:
    if not isinstance(factors, list) or not all(
        isinstance(f, int) and f >= 2 for f in factors
    ):
        return f"{label}: not a list of invariant factors: {factors!r}"
    if any(b % a for a, b in zip(factors, factors[1:])):
        return f"{label}: {factors} is not a divisibility chain"
    return None


# ── tables ─────────────────────────────────────────────────────────────────


def check_table(degree: str, text: str) -> list[str]:
    """One ``table --format json`` output against the paper's table."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        return [f"degree {degree}: output is not JSON ({err})"]
    problems = []
    if data.get("degree") != degree:
        problems.append(f"degree {degree}: output names degree {data.get('degree')!r}")
    if data.get("class_count") != EXPECTED_CLASS_COUNTS[degree]:
        problems.append(
            f"degree {degree}: {data.get('class_count')} subgroup classes, "
            f"expected {EXPECTED_CLASS_COUNTS[degree]}"
        )
    got = {}
    for row in data.get("rows", []):
        brx = row.get("brx")
        options = row.get("bru_possibilities", [])
        for label, factors in [("brx", brx)] + [("bru", f) for f in options]:
            bad = _factors_problem(f"degree {degree} {label}", factors)
            if bad:
                problems.append(bad)
        if problems:
            continue
        if prod(brx) > LATTICE_SIDE_BOUND:
            problems.append(f"degree {degree}: lattice-side order {prod(brx)} > 64")
        for f in options:
            if prod(f) > QUOTIENT_SIDE_BOUND:
                problems.append(f"degree {degree}: quotient-side order {prod(f)} > 256")
        got[tuple(brx)] = {tuple(f) for f in options}
    if not problems and got != EXPECTED_TABLES[degree]:
        problems.append(f"degree {degree}: rows {got} differ from the paper's table")
    return problems


def check_same_bytes(label: str, a: str, b: str) -> list[str]:
    if a == b:
        return []
    return [f"{label}: outputs differ ({len(a)} vs {len(b)} characters)"]


# ── h1 queries ─────────────────────────────────────────────────────────────


def check_h1_output(degree: int, roots: tuple[int, ...], text: str) -> list[str]:
    """The induced-map lemma and the order bounds for one query."""
    where = f"h1 degree {degree} roots {','.join(map(str, roots))}"
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        return [f"{where}: output is not JSON ({err})"]
    problems = []
    if data.get("degree") != str(degree) or data.get("generator_roots") != list(roots):
        problems.append(f"{where}: output describes another query")
    for label in ("h1_lattice", "h1_quotient"):
        bad = _factors_problem(f"{where} {label}", data.get(label))
        if bad:
            problems.append(bad)
    if problems:
        return problems
    order = data.get("order")
    if not isinstance(order, int) or not 1 <= order <= MAX_H1_QUERY_ORDER:
        return [f"{where}: group order {order!r} outside 1..{MAX_H1_QUERY_ORDER}"]
    brx, bru = data["h1_lattice"], data["h1_quotient"]
    if data.get("injective") is not True:
        problems.append(f"{where}: induced map not injective")
    if data.get("exponent_divides") is not True:
        problems.append(f"{where}: cokernel exponent does not divide delta")
    coker, delta = data.get("coker_exponent"), data.get("delta")
    if not (isinstance(coker, int) and isinstance(delta, int) and coker >= 1
            and delta % coker == 0):
        problems.append(f"{where}: cokernel exponent {coker!r} does not divide {delta!r}")
    if prod(bru) % prod(brx):
        problems.append(f"{where}: |H1 lattice| {prod(brx)} does not divide {prod(bru)}")
    if prod(brx) > LATTICE_SIDE_BOUND or prod(bru) > QUOTIENT_SIDE_BOUND:
        problems.append(f"{where}: orders {prod(brx)}, {prod(bru)} exceed 64, 256")
    if any(order % f for f in brx + bru):
        problems.append(f"{where}: an invariant factor does not divide |G| = {order}")
    return problems


_CONJUGATION_INVARIANT = (
    "order", "h1_lattice", "h1_quotient", "injective", "coker_exponent", "delta",
)


def check_conjugates(text_a: str, text_b: str) -> list[str]:
    """A query and its conjugate must describe isomorphic cohomology."""
    a, b = json.loads(text_a), json.loads(text_b)
    return [
        f"conjugate queries {a.get('generator_roots')} / {b.get('generator_roots')} "
        f"disagree on {key}: {a.get(key)!r} vs {b.get(key)!r}"
        for key in _CONJUGATION_INVARIANT
        if a.get(key) != b.get(key)
    ]


def _mat_mul(a, b):
    cols = list(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a)


def small_group(generators, cap: int = ORACLE_MAX_ORDER):
    """Elements of the matrix group the generators span, or None above ``cap``."""
    rank = len(generators[0])
    identity = tuple(tuple(int(i == j) for j in range(rank)) for i in range(rank))
    elements = [identity]
    seen = {identity}
    head = 0
    while head < len(elements):
        x = elements[head]
        head += 1
        for g in generators:
            y = _mat_mul(x, g)
            if y not in seen:
                if len(elements) >= cap:
                    return None
                seen.add(y)
                elements.append(y)
    return elements


def quotient_action(matrix):
    """Action on Pic / ZK in the basis e_0 .. e_(r-2).

    K has last coordinate 1, so x -> (x_i - x_(r-1) K_i) for i < r-1 has
    kernel ZK and the first r-1 unit vectors as a section.
    """
    rank = len(matrix)
    k = canonical_class(rank)
    last = matrix[rank - 1]
    return tuple(
        tuple(matrix[i][j] - last[j] * k[i] for j in range(rank - 1))
        for i in range(rank - 1)
    )


def oracle_expectation(root_vectors, oracle):
    """(order, H1 lattice factors, H1 quotient factors) of a small group.

    None when the group generated by the reflections has more than
    ORACLE_MAX_ORDER elements.
    """
    elements = small_group([reflection_matrix(r) for r in root_vectors])
    if elements is None:
        return None
    index = {m: k for k, m in enumerate(elements)}
    quotients = [quotient_action(m) for m in elements]

    def mult(i, j):
        return index[_mat_mul(elements[i], elements[j])]

    ids = list(range(len(elements)))
    lattice = oracle(ids, mult, lambda i: elements[i])
    quotient = oracle(ids, mult, lambda i: quotients[i])
    return len(elements), list(lattice.invariant_factors), list(quotient.invariant_factors)


def check_h1_oracle(text: str, expectation) -> list[str]:
    """A query's output against ``oracle_expectation`` (None: not small)."""
    data = json.loads(text)
    where = f"h1 degree {data.get('degree')} roots {data.get('generator_roots')}"
    if expectation is None:
        if data.get("order", 0) <= ORACLE_MAX_ORDER:
            return [f"{where}: order {data.get('order')} but the group is larger"]
        return []
    got = (data.get("order"), data.get("h1_lattice"), data.get("h1_quotient"))
    if got != tuple(expectation):
        return [f"{where}: (order, H1 lattice, H1 quotient) {got} but oracle {expectation}"]
    return []


# ── the uniform bound ──────────────────────────────────────────────────────


def parent_cap(extension_degree: int) -> int:
    """Parent's cap 65 (3^e - 1) (2e)^6 on prime-power torsion over degree e."""
    e = extension_degree
    return 65 * (3**e - 1) * (2 * e) ** 6


def primes_up_to(n: int) -> list[int]:
    if n < 2:
        return []
    composite = [False] * (n + 1)
    out = []
    for p in range(2, n + 1):
        if not composite[p]:
            out.append(p)
            for q in range(p * p, n + 1, p):
                composite[q] = True
    return out


def expected_residues(m: int, cap: int) -> tuple[list[int], list[int]]:
    """Torsion product and 2^14 * torsion^2 modulo each RESIDUE_MODULI prime."""
    limit = parent_cap(LINES_MAX * m)
    exponents = []
    for p in primes_up_to(cap):
        k, power = 0, p
        while power <= limit:
            k, power = k + 1, power * p
        exponents.append((p, k))
    torsion = []
    for q in RESIDUE_MODULI:
        t = 1
        for p, k in exponents:
            t = t * pow(p, k, q) % q
        torsion.append(t)
    bound = [UNIFORM_CONSTANT * t * t % q for t, q in zip(torsion, RESIDUE_MODULI)]
    return torsion, bound


def decimal_residues(digits: str) -> list[int]:
    """A decimal string modulo each RESIDUE_MODULI prime, read in chunks."""
    out = [0] * len(RESIDUE_MODULI)
    for start in range(0, len(digits), _CHUNK):
        chunk = digits[start:start + _CHUNK]
        value, shift = int(chunk), 10 ** len(chunk)
        out = [(r * shift + value) % q for r, q in zip(out, RESIDUE_MODULI)]
    return out


_HUGE = re.compile(r'"(torsion|bound)":(\d+)')


def check_bound_output(m: int, cap: int | None, text: str, residues=None) -> list[str]:
    """One ``bound --format json`` output.

    ``residues`` may carry ``expected_residues(m, cap)`` computed once.
    """
    where = f"bound -m {m}" + (f" --evaluate-cap {cap}" if cap is not None else "")
    digits = {}

    def stash(match):
        digits[match.group(1)] = match.group(2)
        return f'"{match.group(1)}":"{match.group(1)}"'

    try:
        data = json.loads(_HUGE.sub(stash, text))
    except json.JSONDecodeError as err:
        return [f"{where}: output is not JSON ({err})"]
    problems = []
    e = LINES_MAX * m
    want = {
        "m": m,
        "extension_degree": e,
        "constant": UNIFORM_CONSTANT,
        "exponent": 2,
        "lattice_side_bound": LATTICE_SIDE_BOUND,
        "quotient_side_bound": QUOTIENT_SIDE_BOUND,
        "identity_holds": True,
    }
    for key, value in want.items():
        if data.get(key) != value:
            problems.append(f"{where}: {key} is {data.get(key)!r}, expected {value!r}")
    torsion = data.get("torsion_bound", {})
    if torsion.get("m") != e or torsion.get("prime_cap") != parent_cap(e):
        problems.append(f"{where}: torsion descriptor {torsion} is not N(240m)")
    window = data.get("value_with_prime_cap")
    if cap is None:
        if window is not None:
            problems.append(f"{where}: evaluated without a cap")
        return problems
    if not isinstance(window, dict) or window.get("cap") != cap or set(digits) != {
        "torsion", "bound"
    }:
        return problems + [f"{where}: no evaluation over the prime window"]
    torsion_want, bound_want = residues or expected_residues(m, cap)
    for key, expect in (("torsion", torsion_want), ("bound", bound_want)):
        if digits[key].startswith("0") or decimal_residues(digits[key]) != expect:
            problems.append(f"{where}: printed {key} value is wrong")
    return problems
