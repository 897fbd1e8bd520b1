"""Weyl groups as fully enumerated permutation groups on the lines."""

import random

import pytest

from logk3.lattice import build_picard_lattice
from logk3.subgroups import _Enumerator
from logk3.weyl import (
    BudgetExceeded,
    generate_group,
    invert_perm,
    is_isometry,
    mult_perm,
    perm_order,
    reflection,
    weyl_group,
)
from logk3.zcohomology import identity_matrix, mat_mul, mat_vec

WEYL_ORDERS = {"8b": 1, "7": 2, "6": 12, "5": 120, "4": 1920}


@pytest.fixture(scope="module")
def groups():
    return {d: weyl_group(build_picard_lattice(d)) for d in WEYL_ORDERS}


def test_orders(groups):
    for degree, expected in WEYL_ORDERS.items():
        assert groups[degree].order == expected, degree


def test_degree3_order():
    assert weyl_group(build_picard_lattice(3)).order == 51840


def test_reflection_properties():
    lat = build_picard_lattice(4)
    for root in lat.roots()[:10]:
        s = reflection(lat, root)
        assert mat_mul(s, s) == identity_matrix(lat.rank)
        assert mat_vec(s, root) == tuple(-c for c in root)
        assert mat_vec(s, lat.canonical) == lat.canonical
        assert is_isometry(lat, s)


def test_identity_first_and_index_inverts(groups):
    g = groups["5"]
    lines = g.lattice.lines()
    assert g.elements[0] == bytes(range(len(lines)))
    for i in (0, 1, g.order // 2, g.order - 1):
        assert g.index[g.elements[i]] == i


def test_mult_matches_matrices(groups):
    g = groups["5"]
    rng = random.Random(5)
    for _ in range(25):
        i, j = rng.randrange(g.order), rng.randrange(g.order)
        k = g.mult(i, j)
        assert mat_mul(g.matrix_of(i), g.matrix_of(j)) == g.matrix_of(k)


def test_inverse_and_conjugate(groups):
    g = groups["6"]
    for i in range(g.order):
        assert g.mult(i, g.inverse(i)) == 0
        assert g.mult(g.inverse(i), i) == 0
    # the subgroup enumerator conjugates by one lookup array per generator
    arrays = _Enumerator(g).conj_arrays
    assert len(arrays) == len(g.generator_indices)
    for by, arr in zip(g.generator_indices, arrays):
        for x in range(g.order):
            assert arr[x] == g.mult(by, g.mult(x, g.inverse(by)))


def test_elements_are_isometries(groups):
    g = groups["4"]
    lat = g.lattice
    rng = random.Random(4)
    for _ in range(15):
        m = g.matrix_of(rng.randrange(g.order))
        assert is_isometry(lat, m)
        assert mat_vec(m, lat.canonical) == lat.canonical


def test_matrix_of_identity_where_lines_do_not_span(groups):
    g = groups["8b"]
    # degree 8b has a single line, so K completes the spanning set
    assert len(g.lines) == 1
    assert g.matrix_of(0) == identity_matrix(g.lattice.rank)


def test_matrix_of_matches_generator_products():
    g = weyl_group(build_picard_lattice(3))
    rng = random.Random(3)
    gens = range(len(g.generator_indices))
    for _ in range(25):
        index, matrix = 0, identity_matrix(g.lattice.rank)
        for w in rng.choices(gens, k=rng.randint(1, 15)):
            index = g.mult(index, g.generator_indices[w])
            matrix = mat_mul(matrix, g.generator_matrices[w])
        assert g.matrix_of(index) == matrix


def test_matrix_perm_round_trip(groups):
    g = groups["5"]
    rng = random.Random(55)
    for _ in range(15):
        i = rng.randrange(g.order)
        assert g.perm_of_matrix(g.matrix_of(i)) == g.elements[i]


def test_perm_helpers():
    p = bytes((2, 0, 1))
    q = bytes((1, 0, 2))
    assert perm_order(p) == 3
    assert perm_order(bytes(range(5))) == 1
    assert mult_perm(p, invert_perm(p)) == bytes(range(3))
    # mult_perm(a, b) applies b first
    assert mult_perm(p, q) == bytes((0, 2, 1))


def test_order_of_matches_perm_order(groups):
    g = groups["6"]
    for i in range(g.order):
        k = g.order_of(i)
        assert k == perm_order(g.elements[i])
        acc = 0
        for _ in range(k):
            acc = g.mult(acc, i)
        assert acc == 0


def test_budget_refusal():
    lat = build_picard_lattice(4)
    with pytest.raises(BudgetExceeded):
        weyl_group(lat, budget=100)


def test_generate_group_subgroup():
    lat = build_picard_lattice(6)
    roots = lat.roots()
    g = generate_group(lat, (reflection(lat, roots[0]),))
    assert g.order == 2
