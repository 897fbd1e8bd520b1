"""Picard lattices: pairing, lines, roots, quotient, delta invariant.

Line and root sets come from a reflection-orbit closure; the bounded
coefficient search is an independent oracle and the two must agree.
"""

import pytest

from logk3.lattice import (
    OrbitCapExceeded,
    bounded_class_search,
    build_picard_lattice,
    normalize_degree,
)
from logk3.zcohomology import identity_matrix, mat_mul, mat_vec

LINE_COUNTS = {"1": 240, "2": 56, "3": 27, "4": 16, "5": 10, "6": 6, "7": 3, "8b": 1}
ROOT_COUNTS = {"1": 240, "2": 126, "3": 72, "4": 40, "5": 20, "6": 8, "7": 2, "8b": 0}


def test_normalize_degree():
    assert normalize_degree(5) == "5"
    assert normalize_degree("8b") == "8b"
    for bad in (0, 8, 9, 10, "8a", "x", -1):
        with pytest.raises(ValueError):
            normalize_degree(bad)


def test_lattice_shape():
    lat = build_picard_lattice(3)
    assert lat.rank == 7
    assert lat.canonical == (-3, 1, 1, 1, 1, 1, 1)
    assert lat.intersect(lat.canonical, lat.canonical) == 3
    lat8 = build_picard_lattice("8b")
    assert lat8.rank == 2
    assert lat8.intersect(lat8.canonical, lat8.canonical) == 8


@pytest.mark.parametrize("degree", list(LINE_COUNTS))
def test_line_and_root_counts(degree):
    lat = build_picard_lattice(degree)
    lines = lat.lines()
    roots = lat.roots()
    assert len(lines) == LINE_COUNTS[degree]
    assert len(roots) == ROOT_COUNTS[degree]
    for v in lines:
        assert lat.intersect(v, v) == -1
        assert lat.intersect(v, lat.canonical) == -1
    for v in roots:
        assert lat.intersect(v, v) == -2
        assert lat.intersect(v, lat.canonical) == 0
    # sorted and duplicate-free by construction
    assert list(lines) == sorted(set(lines))
    assert list(roots) == sorted(set(roots))


@pytest.mark.parametrize("degree", ["3", "4", "5", "6", "7", "8b"])
def test_orbit_agrees_with_bounded_search(degree):
    # every line/root coefficient for these degrees is within ±3
    lat = build_picard_lattice(degree)
    assert lat.lines() == bounded_class_search(lat, -1, -1, 3)
    assert lat.roots() == bounded_class_search(lat, -2, 0, 3)


def test_degree2_search_agreement():
    lat = build_picard_lattice(2)
    assert lat.lines() == bounded_class_search(lat, -1, -1, 3)


def test_reflect_is_an_involution():
    lat = build_picard_lattice(4)
    roots = lat.roots()
    lines = lat.lines()
    r = roots[0]
    for x in lines[:5] + roots[:5] + (lat.canonical,):
        assert lat.reflect(r, lat.reflect(r, x)) == x
    assert lat.reflect(r, r) == tuple(-c for c in r)
    assert lat.reflect(r, lat.canonical) == lat.canonical


def test_quotient_presentation():
    for degree in ("3", "5", "7", "8b"):
        lat = build_picard_lattice(degree)
        q = lat.quotient_mod_canonical()
        assert q.rank == lat.rank - 1
        assert mat_vec(q.projection, lat.canonical) == (0,) * q.rank
        assert mat_mul(q.projection, q.section) == identity_matrix(q.rank)


def test_quotient_push_is_functorial():
    from logk3.weyl import reflection

    lat = build_picard_lattice(4)
    q = lat.quotient_mod_canonical()
    roots = lat.roots()
    a = reflection(lat, roots[0])
    b = reflection(lat, roots[7])
    assert q.push(identity_matrix(lat.rank)) == identity_matrix(q.rank)
    assert q.push(mat_mul(a, b)) == mat_mul(q.push(a), q.push(b))


def test_delta_invariant():
    lat = build_picard_lattice(5)
    # the full lattice pairs with K with gcd 1
    full = tuple(
        tuple(1 if i == j else 0 for j in range(lat.rank)) for i in range(lat.rank)
    )
    assert lat.delta_invariant(full) == 1
    # the rank-one sublattice ZK pairs with gcd |K.K| = degree
    assert lat.delta_invariant((lat.canonical,)) == 5
    with pytest.raises(ValueError):
        lat.delta_invariant(((1, 0, 0, 0, 0),))  # does not contain K
    with pytest.raises(ValueError):
        lat.delta_invariant(())


def test_bounded_search_respects_bound():
    lat = build_picard_lattice(1)
    # bound 1 misses the high-coefficient lines of the rank-9 lattice
    partial = bounded_class_search(lat, -1, -1, 1)
    assert 0 < len(partial) < 240
    assert all(all(abs(c) <= 1 for c in v) for v in partial)
