"""Integer linear algebra and group cohomology kernel.

The h1 fast path is cross-checked against the explicit cocycle oracle on
every subgroup of the two smallest Weyl groups (acting both on the full
lattice and on the quotient) plus a corpus of small matrix groups.
"""

import random
from itertools import combinations, permutations
from math import prod

import pytest

from logk3.lattice import build_picard_lattice
from logk3.subgroups import enumerate_subgroup_classes
from logk3.weyl import weyl_group
from logk3.zcohomology import (
    AbelianGroupStructure,
    FiniteAbelianMap,
    GModule,
    H1Result,
    cocycle_oracle_h1,
    columns_of,
    determinant,
    h1,
    h1_induced_map,
    identity_matrix,
    kernel_basis,
    mat_mul,
    mat_vec,
    smith_normal_form,
    solve_exact,
    transpose,
)


def random_matrix(rng, rows, cols, lo=-9, hi=9):
    return tuple(tuple(rng.randint(lo, hi) for _ in range(cols)) for _ in range(rows))


# ── Smith normal form ────────────────────────────────────────────────────────


def check_snf(a):
    form = smith_normal_form(a)
    rows, cols = len(a), len(a[0]) if a else 0
    product = mat_mul(mat_mul(form.left, a), form.right)
    for i in range(rows):
        for j in range(cols):
            want = form.diagonal[i] if i == j and i < len(form.diagonal) else 0
            assert product[i][j] == want
    # divisibility chain, nonnegative entries
    diag = [d for d in form.diagonal if d]
    assert all(d > 0 for d in diag)
    for x, y in zip(diag, diag[1:]):
        assert y % x == 0
    assert form.rank == len(diag)
    # the recorded inverses really invert
    assert mat_mul(form.left, form.left_inv) == identity_matrix(rows)
    assert mat_mul(form.right, form.right_inv) == identity_matrix(cols)


def test_snf_random_shapes():
    rng = random.Random(7)
    for trial in range(60):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        check_snf(random_matrix(rng, rows, cols))


def test_snf_structured():
    check_snf(((0, 0), (0, 0)))
    check_snf(((2, 4), (6, 8)))
    check_snf(((1, 0, 0),))
    check_snf(((360,),))
    # needs more than diagonal gcd bookkeeping
    check_snf(((2, 0), (0, 3)))
    form = smith_normal_form(((2, 0), (0, 3)))
    assert form.diagonal == (1, 6)


def leibniz_determinant(a):
    n = len(a)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i, j in combinations(range(n), 2))
        total += (-1) ** inversions * prod(a[i][perm[i]] for i in range(n))
    return total


def test_determinant_matches_leibniz_and_the_smith_diagonal():
    rng = random.Random(11)
    for trial in range(80):
        n = rng.randint(1, 7)
        # small entries, so zero pivots and singular matrices occur
        a = random_matrix(rng, n, n, -2, 2)
        det = determinant(a)
        assert abs(det) == prod(smith_normal_form(a).diagonal)
        if n <= 5:
            assert det == leibniz_determinant(a)
    assert determinant(((0, 1), (1, 0))) == -1
    assert determinant(((1, 2), (2, 4))) == 0
    assert determinant(()) == 1


def test_gmodule_rejects_a_non_unimodular_action():
    with pytest.raises(ValueError, match="not unimodular"):
        GModule(2, (((2, 0), (0, 1)),))
    with pytest.raises(ValueError, match="not unimodular"):
        GModule(2, (((1, 2), (2, 4)),))
    GModule(2, (((0, 1), (1, 0)), ((2, 1), (1, 1))))


def test_kernel_and_solve():
    rng = random.Random(11)
    for trial in range(40):
        a = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5), -4, 4)
        for v in kernel_basis(a):
            assert all(x == 0 for x in mat_vec(a, v))
        # a known solvable system round-trips
        x = tuple((rng.randint(-3, 3),) for _ in range(len(a[0])))
        b = mat_mul(a, x)
        got = solve_exact(a, b)
        assert mat_mul(a, got) == b


def test_solve_exact_rejects_non_integral():
    with pytest.raises(ValueError):
        solve_exact(((2,),), ((1,),))


# ── abelian group structures ────────────────────────────────────────────────


def test_structure_validation():
    assert AbelianGroupStructure().order == 1
    assert AbelianGroupStructure((2, 2, 4)).order == 16
    assert AbelianGroupStructure((2, 6)).exponent == 6
    assert str(AbelianGroupStructure((2, 2, 4))) == "2^2·4"
    assert str(AbelianGroupStructure()) == "1"
    with pytest.raises(ValueError):
        AbelianGroupStructure((1, 2))
    with pytest.raises(ValueError):
        AbelianGroupStructure((2, 3))
    assert AbelianGroupStructure.from_diagonal((1, 1, 2, 6)).invariant_factors == (2, 6)


def test_finite_abelian_map_extremes():
    dom = AbelianGroupStructure((2, 4))
    ident = FiniteAbelianMap(dom, dom, ((1, 0), (0, 1)), (2, 4), (2, 4))
    assert ident.is_injective()
    assert ident.cokernel() == AbelianGroupStructure()
    zero = FiniteAbelianMap(dom, dom, ((0, 0), (0, 0)), (2, 4), (2, 4))
    assert not zero.is_injective()
    assert zero.cokernel().invariant_factors == (2, 4)
    # x mod 2 -> 2x mod 4 is injective but not surjective
    emb = FiniteAbelianMap(
        AbelianGroupStructure((2,)), AbelianGroupStructure((4,)), ((2,),), (2,), (4,)
    )
    assert emb.is_injective()
    assert emb.cokernel().invariant_factors == (2,)
    assert emb.is_injective(emb.cokernel())
    # x mod 4 -> x mod 2 is surjective but not injective
    red = FiniteAbelianMap(
        AbelianGroupStructure((4,)), AbelianGroupStructure((2,)), ((1,),), (4,), (2,)
    )
    assert red.cokernel() == AbelianGroupStructure()
    assert not red.is_injective()
    assert not red.is_injective(red.cokernel())


# ── h1 on pencil-and-paper cases ────────────────────────────────────────────


def cyclic_elements(matrix, order):
    out = [identity_matrix(len(matrix))]
    for _ in range(order - 1):
        out.append(mat_mul(matrix, out[-1]))
    return out


def test_h1_known_small_actions():
    # sign action of C2 on Z: H^1 = Z/2
    sign = ((-1,),)
    res = h1(GModule(1, (sign,)), 2)
    assert res.structure.invariant_factors == (2,)
    oracle = cocycle_oracle_h1(
        [0, 1], lambda a, b: (a + b) % 2, lambda e: identity_matrix(1) if e == 0 else sign
    )
    assert oracle.invariant_factors == (2,)

    # swap action of C2 on Z^2 is a permutation module: H^1 = 0
    swap = ((0, 1), (1, 0))
    assert h1(GModule(2, (swap,)), 2).structure == AbelianGroupStructure()

    # trivial action: H^1 = Hom(G, Z) = 0
    assert h1(GModule(3, ()), 5).structure == AbelianGroupStructure()

    # C4 rotation on Z^2: the norm vanishes, so H^1 = Z^2/(g-1)Z^2 = Z/2
    rot = ((0, -1), (1, 0))
    assert h1(GModule(2, (rot,)), 4).structure.invariant_factors == (2,)

    # C2 acting as -1 on Z^3: H^1 = (Z/2)^3
    minus = tuple(tuple(-1 if i == j else 0 for j in range(3)) for i in range(3))
    assert h1(GModule(3, (minus,)), 2).structure.invariant_factors == (2, 2, 2)


def test_h1_annihilator_presentation_consistency():
    # lattice_basis columns reduced by to_invariant must present the structure
    lat = build_picard_lattice(6)
    group = weyl_group(lat)
    mats = tuple(group.matrix_of(i) for i in group.generator_indices)
    res = h1(GModule(lat.rank, mats), group.order)
    assert isinstance(res, H1Result)
    nontrivial = tuple(a for a in res.annihilators if a > 1)
    assert nontrivial == res.structure.invariant_factors
    # to_invariant and its recorded inverse are mutually inverse
    n = len(res.annihilators)
    assert mat_mul(res.to_invariant, res.to_invariant_inv) == identity_matrix(n)


def test_fixed_sublattice_saturated():
    swap = ((0, 1), (1, 0))
    fixed = h1(GModule(2, (swap,)), 2).fixed_basis
    assert fixed == ((1, 1),)
    # trivial action fixes everything
    assert len(h1(GModule(4, ()), 3).fixed_basis) == 4


# ── oracle corpus: every subgroup of the two smallest Weyl groups ───────────


def weyl_subgroup_cases(degree):
    lat = build_picard_lattice(degree)
    group = weyl_group(lat)
    quotient = lat.quotient_mod_canonical()
    cases = []
    for cls in enumerate_subgroup_classes(group):
        els = list(cls.element_set)
        pos = {e: k for k, e in enumerate(els)}
        mult = lambda a, b, g=group, p=pos, e=els: p[g.mult(e[a], e[b])]
        mats = [group.matrix_of(e) for e in els]
        cases.append((els, mult, mats, quotient, lat.rank, cls.order))
    return cases


@pytest.mark.parametrize("degree", ["7", "6"])
def test_h1_matches_cocycle_oracle_on_weyl_subgroups(degree):
    checked = 0
    for els, mult, mats, quotient, rank, order in weyl_subgroup_cases(degree):
        gen_count = min(len(els), 3)
        # h1 needs generators only; the closure being the whole list is
        # guaranteed by construction, any spanning subset works
        for module_rank, matrix_of in (
            (rank, lambda k, m=mats: m[k]),
            (rank - 1, lambda k, m=mats, q=quotient: q.push(m[k])),
        ):
            all_matrices = [matrix_of(k) for k in range(len(els))]
            gens = tuple(all_matrices[1:]) if len(els) > 1 else ()
            fast = h1(GModule(module_rank, gens), order)
            slow = cocycle_oracle_h1(
                list(range(len(els))), mult, lambda k, a=all_matrices: a[k]
            )
            assert fast.structure == slow, (degree, order, module_rank)
            checked += 2
    assert checked >= (4 if degree == "7" else 20)


def conjugated_module(mats, conjugator):
    inv = solve_exact(conjugator, identity_matrix(len(conjugator)))
    return tuple(mat_mul(conjugator, mat_mul(m, inv)) for m in mats)


def test_h1_conjugation_invariance():
    lat = build_picard_lattice(5)
    group = weyl_group(lat)
    rng = random.Random(3)
    classes = enumerate_subgroup_classes(group)
    for trial in range(10):
        cls = rng.choice(classes)
        mats = tuple(group.matrix_of(i) for i in cls.generators)
        g = group.matrix_of(rng.randrange(group.order))
        conj = conjugated_module(mats, g)
        a = h1(GModule(lat.rank, mats), cls.order).structure
        b = h1(GModule(lat.rank, conj), cls.order).structure
        assert a == b


# ── fixed corpus of small matrix groups for the oracle comparison ───────────


def dihedral_case(n, rep_rot, rep_flip):
    """Order-2n dihedral group as pairs (k, s) with explicit matrices."""
    els = [(k, s) for s in (0, 1) for k in range(n)]

    def mult(a, b):
        (k, s), (l, t) = a, b
        return ((k + (l if s == 0 else -l)) % n, s ^ t)

    def matrix_of(e):
        k, s = e
        m = identity_matrix(len(rep_rot))
        for _ in range(k):
            m = mat_mul(rep_rot, m)
        if s:
            m = mat_mul(m, rep_flip)
        return m

    return els, mult, matrix_of


SMALL_CORPUS = []

# C_n acting by a signed permutation or rotation, various ranks
for mat, order in [
    (((-1,),), 2),
    (((0, -1), (1, 0)), 4),
    (((0, -1), (1, -1)), 3),
    (((0, 1), (1, 0)), 2),
    (((1, 1), (0, -1)), 2),
    (((0, 0, 1), (1, 0, 0), (0, 1, 0)), 3),
    (((0, -1, 0), (1, 0, 0), (0, 0, -1)), 4),
    (((-1, 0, 0), (0, 0, 1), (0, 1, 0)), 2),
    (((2, 1), (1, 1)), 0),  # infinite order: rejected below, not a case
]:
    if order:
        SMALL_CORPUS.append(("cyclic", mat, order))

DIHEDRAL_REPS = [
    (3, ((0, -1), (1, -1)), ((0, 1), (1, 0))),
    (4, ((0, -1), (1, 0)), ((1, 0), (0, -1))),
    (6, ((1, -1), (1, 0)), ((0, 1), (1, 0))),
]


def test_oracle_corpus_cyclic():
    checked = 0
    for _, mat, order in SMALL_CORPUS:
        els = cyclic_elements(mat, order)
        index = {m: i for i, m in enumerate(els)}
        assert mat_mul(mat, els[-1]) == els[0], "representation order mismatch"
        fast = h1(GModule(len(mat), (mat,)), order)
        slow = cocycle_oracle_h1(
            list(range(order)),
            lambda a, b: (a + b) % order,
            lambda k: els[k],
        )
        assert fast.structure == slow
        checked += 1
    assert checked == 8


def test_oracle_corpus_dihedral():
    for n, rot, flip in DIHEDRAL_REPS:
        els, mult, matrix_of = dihedral_case(n, rot, flip)
        fast = h1(GModule(len(rot), (rot, flip)), 2 * n)
        slow = cocycle_oracle_h1(els, mult, matrix_of)
        assert fast.structure == slow


def test_oracle_rejects_large_groups():
    with pytest.raises(ValueError):
        cocycle_oracle_h1(list(range(25)), lambda a, b: (a + b) % 25, lambda k: ((1,),))


# ── induced maps ────────────────────────────────────────────────────────────


def test_induced_map_requires_equivariance():
    sign = ((-1,),)
    src = h1(GModule(1, (sign,)), 2)
    tgt = h1(GModule(1, (((1,),),)), 2)
    with pytest.raises(ValueError):
        h1_induced_map(src, tgt, ((1,),))


def test_induced_map_identity_is_isomorphism():
    minus = tuple(tuple(-1 if i == j else 0 for j in range(2)) for i in range(2))
    res = h1(GModule(2, (minus,)), 2)
    induced = h1_induced_map(res, res, identity_matrix(2))
    assert induced.is_injective()
    assert induced.cokernel() == AbelianGroupStructure()


def test_columns_transpose_helpers():
    a = ((1, 2, 3), (4, 5, 6))
    assert transpose(transpose(a)) == a
    assert columns_of(a) == ((1, 4), (2, 5), (3, 6))
