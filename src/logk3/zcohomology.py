"""Exact integer linear algebra and first cohomology of finite group actions.

All arithmetic uses plain Python ints, so nothing here ever overflows or
rounds.  Matrices are tuples of row tuples at API boundaries and lists of
row lists while being mutated.

The two cohomology routines are deliberately independent of each other:
``h1`` goes through the fixed-points-mod-n identity, ``cocycle_oracle_h1``
builds explicit cocycles on a generating set, and the test suite plays
them against each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, prod
from typing import Callable, Iterable, Sequence

Vector = tuple[int, ...]
Matrix = tuple[tuple[int, ...], ...]


# ── basic exact matrix helpers ──────────────────────────────────────────────


def identity_matrix(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> Matrix:
    rows_b = len(b)
    if rows_b == 0:
        return tuple(() for _ in a)
    cols_b = len(b[0])
    out = []
    for row in a:
        if len(row) != rows_b:
            raise ValueError("matrix dimension mismatch in product")
        out.append(
            tuple(sum(row[k] * b[k][j] for k in range(rows_b)) for j in range(cols_b))
        )
    return tuple(out)


def mat_vec(a: Sequence[Sequence[int]], v: Sequence[int]) -> Vector:
    if a and len(a[0]) != len(v):
        raise ValueError("matrix/vector dimension mismatch")
    return tuple(sum(row[k] * v[k] for k in range(len(v))) for row in a)


def mat_sub(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> Matrix:
    return tuple(
        tuple(x - y for x, y in zip(ra, rb, strict=True))
        for ra, rb in zip(a, b, strict=True)
    )


def transpose(a: Sequence[Sequence[int]]) -> Matrix:
    if not a:
        return ()
    return tuple(tuple(row[j] for row in a) for j in range(len(a[0])))


def from_columns(cols: Sequence[Sequence[int]], rows: int | None = None) -> Matrix:
    if not cols:
        return tuple(() for _ in range(rows or 0))
    return transpose(tuple(tuple(c) for c in cols))


def columns_of(a: Sequence[Sequence[int]]) -> tuple[Vector, ...]:
    return transpose(a)


def stack_rows(blocks: Iterable[Sequence[Sequence[int]]]) -> tuple[list[int], ...]:
    out: list[list[int]] = []
    for block in blocks:
        out.extend(list(row) for row in block)
    return tuple(out)


# ── Smith normal form ───────────────────────────────────────────────────────


@dataclass(frozen=True)
class SmithForm:
    """Factorisation left @ A @ right = diag(diagonal), transforms unimodular."""

    diagonal: tuple[int, ...]
    left: Matrix
    right: Matrix
    left_inv: Matrix
    right_inv: Matrix
    rank: int


def smith_normal_form(matrix: Sequence[Sequence[int]]) -> SmithForm:
    """Diagonalise an integer matrix with unimodular row and column transforms.

    Pivots are chosen as the smallest nonzero absolute value, ties broken in
    row-major order, so the output is reproducible.  The diagonal comes out
    nonnegative with each entry dividing the next.
    """
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    s = [list(row) for row in matrix]
    for row in s:
        if len(row) != n:
            raise ValueError("ragged matrix")
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    uinv = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    vinv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def swap_rows(i: int, j: int) -> None:
        s[i], s[j] = s[j], s[i]
        u[i], u[j] = u[j], u[i]
        for r in range(m):
            uinv[r][i], uinv[r][j] = uinv[r][j], uinv[r][i]

    def addmul_row(i: int, j: int, c: int) -> None:
        # row_i += c * row_j; inverse tracks the opposite column shear
        si, sj = s[i], s[j]
        for k in range(n):
            si[k] += c * sj[k]
        ui, uj = u[i], u[j]
        for k in range(m):
            ui[k] += c * uj[k]
        for r in range(m):
            uinv[r][j] -= c * uinv[r][i]

    def negate_row(i: int) -> None:
        s[i] = [-x for x in s[i]]
        u[i] = [-x for x in u[i]]
        for r in range(m):
            uinv[r][i] = -uinv[r][i]

    def swap_cols(i: int, j: int) -> None:
        for r in range(m):
            s[r][i], s[r][j] = s[r][j], s[r][i]
        for r in range(n):
            v[r][i], v[r][j] = v[r][j], v[r][i]
        vinv[i], vinv[j] = vinv[j], vinv[i]

    def addmul_col(j: int, k: int, c: int) -> None:
        # col_j += c * col_k
        for r in range(m):
            s[r][j] += c * s[r][k]
        for r in range(n):
            v[r][j] += c * v[r][k]
        vk, vj = vinv[k], vinv[j]
        for r in range(n):
            vk[r] -= c * vj[r]

    t = 0
    limit = min(m, n)
    while t < limit:
        best: tuple[int, int, int] | None = None
        for i in range(t, m):
            row = s[i]
            for j in range(t, n):
                val = row[j]
                if val and (best is None or abs(val) < best[0]):
                    best = (abs(val), i, j)
        if best is None:
            break
        _, bi, bj = best
        if bi != t:
            swap_rows(t, bi)
        if bj != t:
            swap_cols(t, bj)
        if s[t][t] < 0:
            negate_row(t)
        while True:
            rework = False
            for i in range(t + 1, m):
                val = s[i][t]
                if val:
                    q = val // s[t][t]
                    if q:
                        addmul_row(i, t, -q)
                    if s[i][t]:
                        swap_rows(i, t)
                        rework = True
            for j in range(t + 1, n):
                val = s[t][j]
                if val:
                    q = val // s[t][t]
                    if q:
                        addmul_col(j, t, -q)
                    if s[t][j]:
                        swap_cols(t, j)
                        rework = True
            if not rework:
                if all(s[i][t] == 0 for i in range(t + 1, m)) and all(
                    s[t][j] == 0 for j in range(t + 1, n)
                ):
                    break
        pivot = s[t][t]
        offender = None
        for i in range(t + 1, m):
            row = s[i]
            for j in range(t + 1, n):
                if row[j] % pivot:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            addmul_row(t, offender, 1)
            continue
        t += 1

    diagonal = tuple(s[i][i] for i in range(limit))
    rank = sum(1 for d in diagonal if d)
    for a, b in zip(diagonal, diagonal[1:]):
        if a and b % a:
            raise AssertionError("invariant factor chain broken")
        if b and not a:
            raise AssertionError("zero before nonzero on diagonal")
    freeze = lambda rows: tuple(tuple(r) for r in rows)
    return SmithForm(diagonal, freeze(u), freeze(v), freeze(uinv), freeze(vinv), rank)


def determinant(matrix: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square integer matrix by fraction-free
    (Bareiss) elimination, in which every division is exact."""
    n = len(matrix)
    a = [list(row) for row in matrix]
    sign, previous = 1, 1
    for k in range(n - 1):
        if not a[k][k]:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        row_k = a[k]
        pivot = row_k[k]
        for row in a[k + 1 :]:
            lead = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - lead * row_k[j]) // previous
        previous = pivot
    return sign * a[-1][-1] if n else 1


def kernel_basis(matrix: Sequence[Sequence[int]]) -> tuple[Vector, ...]:
    """Basis of the integer kernel {x : A x = 0}.  Saturated by construction."""
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    if n == 0:
        return ()
    if m == 0:
        return columns_of(identity_matrix(n))
    form = smith_normal_form(matrix)
    cols = columns_of(form.right)
    free = [j for j in range(n) if j >= len(form.diagonal) or form.diagonal[j] == 0]
    return tuple(cols[j] for j in free)


def solve_exact(
    matrix: Sequence[Sequence[int]], rhs: Sequence[Sequence[int]]
) -> Matrix:
    """Integer solution X of A X = B, or ValueError when none exists."""
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    if len(rhs) != m:
        raise ValueError("right-hand side has wrong height")
    k = len(rhs[0]) if rhs else 0
    form = smith_normal_form(matrix)
    y = mat_mul(form.left, rhs) if m else ()
    x_prime = [[0] * k for _ in range(n)]
    for i in range(m):
        d = form.diagonal[i] if i < len(form.diagonal) else 0
        for j in range(k):
            val = y[i][j]
            if d == 0:
                if val:
                    raise ValueError("no integral solution")
            else:
                q, r = divmod(val, d)
                if r:
                    raise ValueError("no integral solution")
                if i < n:
                    x_prime[i][j] = q
    return mat_mul(form.right, x_prime) if n else tuple()


# ── finite abelian groups ───────────────────────────────────────────────────


@dataclass(frozen=True)
class AbelianGroupStructure:
    """Finite abelian group as an ascending chain of invariant factors.

    The trivial group is the empty tuple.  ``str`` renders the conventional
    compact form, e.g. Z/2 x Z/2 x Z/4 prints as ``2^2·4``.
    """

    invariant_factors: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        fs = self.invariant_factors
        for f in fs:
            if f < 2:
                raise ValueError("invariant factors must be at least 2")
        for a, b in zip(fs, fs[1:]):
            if b % a:
                raise ValueError("invariant factors must form a divisibility chain")

    @property
    def order(self) -> int:
        return prod(self.invariant_factors)

    @property
    def exponent(self) -> int:
        return self.invariant_factors[-1] if self.invariant_factors else 1

    @classmethod
    def from_diagonal(cls, diagonal: Iterable[int]) -> "AbelianGroupStructure":
        return cls(tuple(d for d in diagonal if d > 1))

    def as_json(self) -> list[int]:
        return list(self.invariant_factors)

    def __str__(self) -> str:
        if not self.invariant_factors:
            return "1"
        parts = []
        i = 0
        fs = self.invariant_factors
        while i < len(fs):
            j = i
            while j < len(fs) and fs[j] == fs[i]:
                j += 1
            count = j - i
            parts.append(f"{fs[i]}^{count}" if count > 1 else f"{fs[i]}")
            i = j
        return "·".join(parts)


def structure_sort_key(s: AbelianGroupStructure) -> tuple[int, tuple[int, ...]]:
    return (s.order, s.invariant_factors)


# ── modules with a finite group action ──────────────────────────────────────


@dataclass(frozen=True)
class GModule:
    """Free Z-module of finite rank with an action given on group generators.

    ``action[i]`` is the matrix of the i-th generator in the standard basis.
    Matrices must be unimodular; the module itself stays implicit as Z^rank.
    """

    rank: int
    action: tuple[Matrix, ...]

    def __post_init__(self) -> None:
        for g in self.action:
            if len(g) != self.rank or any(len(row) != self.rank for row in g):
                raise ValueError("action matrix has wrong shape")
            if abs(determinant(g)) != 1:
                raise ValueError("action matrix is not unimodular")


# ── H^1 via the fixed-points-mod-n identity ─────────────────────────────────


@dataclass(frozen=True)
class H1Result:
    """H^1(G, M) together with the presentation used to compute it.

    ``lattice_basis`` columns span L = {x : g x = x mod n for all generators};
    L/(M^G + nM) is the cohomology group.  ``to_invariant`` maps L-coordinates
    to the invariant-factor coordinates recorded in ``annihilators`` (length
    rank, entries including the trivial 1 factors), which is what induced
    maps are written against.  ``fixed_basis`` is a saturated basis of M^G.
    """

    structure: AbelianGroupStructure
    module: GModule
    group_order: int
    lattice_basis: Matrix
    to_invariant: Matrix
    to_invariant_inv: Matrix
    annihilators: tuple[int, ...]
    fixed_basis: tuple[Vector, ...]


def h1(module: GModule, group_order: int) -> H1Result:
    """First cohomology of a finite group on a free module, exactly over Z.

    Multiplication by n = |G| kills H^1(G, M), and for torsion-free M the
    long exact sequence of 0 -> M -n-> M -> M/nM -> 0 collapses to

        H^1(G, M)  =  (M/nM)^G / image(M^G).

    Fixed points mod n are solved by Smith reduction of the stacked
    generator conditions; the quotient is then a cokernel computation.
    Only the generator matrices are needed since the conditions propagate
    to products.
    """
    if group_order < 1:
        raise ValueError("group order must be positive")
    r = module.rank
    n = group_order
    if not module.action:
        # trivial acting set: L = M, M^G = M, quotient vanishes
        ident = identity_matrix(r)
        return H1Result(
            AbelianGroupStructure(),
            module,
            n,
            ident,
            ident,
            ident,
            (1,) * r,
            columns_of(ident),
        )
    ident = identity_matrix(r)
    stacked = stack_rows(mat_sub(g, ident) for g in module.action)
    form = smith_normal_form(stacked)
    diag = list(form.diagonal) + [0] * (r - len(form.diagonal))
    scale = [n // gcd(d, n) for d in diag]
    v_cols = columns_of(form.right)
    lattice_basis = from_columns(
        [tuple(scale[j] * x for x in v_cols[j]) for j in range(r)], rows=r
    )
    fixed_cols = tuple(v_cols[j] for j in range(r) if diag[j] == 0)
    # relations of L/(M^G + nM) in lattice_basis coordinates:
    # fixed columns are standard basis vectors there, nM contributes
    # (n / scale_i) times the rows of right_inv.
    rel_cols: list[list[int]] = []
    for j in range(r):
        if diag[j] == 0:
            col = [0] * r
            col[j] = 1
            rel_cols.append(col)
    for j in range(r):
        col = []
        for i in range(r):
            num = n * form.right_inv[i][j]
            q, rem = divmod(num, scale[i])
            if rem:
                raise AssertionError("relation matrix not integral")
            col.append(q)
        rel_cols.append(col)
    relations = from_columns(rel_cols, rows=r)
    rel_form = smith_normal_form(relations)
    annihilators = tuple(rel_form.diagonal)
    if len(annihilators) != r or any(d == 0 for d in annihilators):
        raise AssertionError("cohomology group came out infinite")
    for d in annihilators:
        if n % d:
            raise AssertionError("invariant factor does not divide the group order")
    return H1Result(
        AbelianGroupStructure.from_diagonal(annihilators),
        module,
        n,
        lattice_basis,
        rel_form.left,
        rel_form.left_inv,
        annihilators,
        fixed_cols,
    )


# ── induced maps between cohomology groups ──────────────────────────────────


@dataclass(frozen=True)
class FiniteAbelianMap:
    """Homomorphism between finite abelian groups in invariant coordinates.

    Coordinate i of the domain is Z modulo ``domain_annihilators[i]`` and
    likewise for the codomain; ``matrix`` acts on column vectors.

    Only the cokernel is computed.  For finite groups the exact sequence
    0 -> ker -> A -> B -> coker -> 0 gives |ker| = |A|·|coker| / |B|, so the
    map is injective exactly when |A|·|coker| = |B|.
    """

    domain: AbelianGroupStructure
    codomain: AbelianGroupStructure
    matrix: Matrix
    domain_annihilators: tuple[int, ...]
    codomain_annihilators: tuple[int, ...]

    def cokernel(self) -> AbelianGroupStructure:
        rows = len(self.codomain_annihilators)
        if rows == 0:
            return AbelianGroupStructure()
        bordered = [
            list(self.matrix[i])
            + [self.codomain_annihilators[i] if j == i else 0 for j in range(rows)]
            for i in range(rows)
        ]
        form = smith_normal_form(bordered)
        if form.rank != rows:
            raise AssertionError("cokernel of a finite-target map came out infinite")
        return AbelianGroupStructure.from_diagonal(form.diagonal)

    def is_injective(self, cokernel: AbelianGroupStructure | None = None) -> bool:
        """Trivial kernel, read off the orders; ``cokernel`` may pass in the
        map's own cokernel when the caller has it already."""
        coker = self.cokernel() if cokernel is None else cokernel
        return prod(self.domain_annihilators) * coker.order == prod(
            self.codomain_annihilators
        )


def h1_induced_map(
    source: H1Result, target: H1Result, matrix: Sequence[Sequence[int]]
) -> FiniteAbelianMap:
    """Map on H^1 induced by an equivariant lattice map ``matrix``.

    The generators of source and target modules must correspond pairwise:
    matrix @ g_source == g_target @ matrix is checked for each pair.
    """
    if source.group_order != target.group_order:
        raise ValueError("induced map requires one group acting on both sides")
    if len(source.module.action) != len(target.module.action):
        raise ValueError("generator lists have different lengths")
    phi = tuple(tuple(row) for row in matrix)
    if len(phi) != target.module.rank or (
        phi and len(phi[0]) != source.module.rank
    ):
        raise ValueError("map has wrong shape")
    for g_src, g_tgt in zip(source.module.action, target.module.action):
        if mat_mul(phi, g_src) != mat_mul(g_tgt, phi):
            raise ValueError("map is not equivariant for the given actions")
    carried = solve_exact(target.lattice_basis, mat_mul(phi, source.lattice_basis))
    full = mat_mul(target.to_invariant, mat_mul(carried, source.to_invariant_inv))
    # well-definedness: each domain annihilator lands in the codomain relations
    reduced = []
    for i, row in enumerate(full):
        mod = target.annihilators[i]
        for j, entry in enumerate(row):
            if (entry * source.annihilators[j]) % mod:
                raise AssertionError("induced map is not well defined")
        reduced.append(tuple(entry % mod for entry in row))
    return FiniteAbelianMap(
        source.structure,
        target.structure,
        tuple(reduced),
        source.annihilators,
        target.annihilators,
    )


# ── independent oracle: explicit cocycles ───────────────────────────────────

ORACLE_MAX_ORDER = 24


def cocycle_oracle_h1(
    elements: Sequence,
    mult: Callable,
    matrix_of: Callable,
) -> AbelianGroupStructure:
    """H^1 by explicit integral cocycles; slow, for cross-checking ``h1``.

    A cocycle is determined by its values on a generating set: values on the
    rest of the group propagate along a spanning tree of the Cayley graph,
    and every non-tree edge contributes the linear condition
    c(x s) = c(x) + x.c(s).  Cocycles are the integer kernel of those
    conditions, coboundaries the image of x -> ((s_i - 1) x), and H^1 their
    quotient, all over Z with no reduction mod anything.

    ``elements`` must list the whole group, ``mult`` multiplies two
    elements, ``matrix_of`` gives the module action of an element.
    """
    order = len(elements)
    if order > ORACLE_MAX_ORDER:
        raise ValueError(f"oracle limited to groups of order {ORACLE_MAX_ORDER}")
    if order == 0:
        raise ValueError("empty element list")
    identity = None
    for x in elements:
        if mult(x, x) == x:
            identity = x
            break
    if identity is None:
        raise ValueError("no identity element found")
    rank = len(matrix_of(identity))
    if order == 1:
        return AbelianGroupStructure()

    generators: list = []
    reached = {identity}
    for x in elements:
        if x in reached:
            continue
        generators.append(x)
        frontier = list(reached)
        while frontier:
            y = frontier.pop()
            for g in generators:
                z = mult(y, g)
                if z not in reached:
                    reached.add(z)
                    frontier.append(z)
        if len(reached) == order:
            break
    k = len(generators)
    width = k * rank

    def block(mat: Matrix, idx: int) -> list[list[int]]:
        out = [[0] * width for _ in range(rank)]
        for i in range(rank):
            for j in range(rank):
                out[i][idx * rank + j] = mat[i][j]
        return out

    def madd(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
        return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]

    def msub(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
        return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]

    ident_block = identity_matrix(rank)
    value: dict = {identity: [[0] * width for _ in range(rank)]}
    bfs = [identity]
    conditions: list[tuple[int, ...]] = []
    seen_rows: set[tuple[int, ...]] = set()
    head = 0
    while head < len(bfs):
        x = bfs[head]
        head += 1
        rho_x = matrix_of(x)
        for idx, s in enumerate(generators):
            y = mult(x, s)
            step = madd(value[x], block(rho_x, idx))
            if y not in value:
                value[y] = step
                bfs.append(y)
            else:
                for row in msub(value[y], step):
                    key = tuple(row)
                    if any(key) and key not in seen_rows:
                        seen_rows.add(key)
                        conditions.append(key)
    if len(value) != order:
        raise ValueError("multiplication does not close over the element list")

    cocycles = kernel_basis(conditions) if conditions else columns_of(
        identity_matrix(width)
    )
    coboundary_cols = []
    for j in range(rank):
        col = []
        for s in generators:
            rho = matrix_of(s)
            col.extend(rho[i][j] - ident_block[i][j] for i in range(rank))
        coboundary_cols.append(col)
    z_matrix = from_columns(cocycles, rows=width)
    b_matrix = from_columns(coboundary_cols, rows=width)
    if not cocycles:
        if any(any(row) for row in b_matrix):
            raise AssertionError("coboundary outside the cocycle lattice")
        return AbelianGroupStructure()
    quotient = solve_exact(z_matrix, b_matrix)
    form = smith_normal_form(quotient)
    if form.rank != len(cocycles):
        raise AssertionError("cocycles modulo coboundaries came out infinite")
    return AbelianGroupStructure.from_diagonal(form.diagonal)
