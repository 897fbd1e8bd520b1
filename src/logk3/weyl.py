"""Weyl groups of del Pezzo Picard lattices as explicit permutation groups.

Group elements act on the lattice by unimodular matrices that preserve the
pairing and fix the canonical class.  Since the lines span the lattice
rationally and every isometry permutes them, the action on the sorted line
list is faithful; elements are therefore stored as permutations packed into
``bytes`` (at most 240 lines, so one byte per image), which makes products
a single ``bytes.translate`` call.  Matrices are rebuilt from the line
permutation on demand, through the inverse of one spanning set of classes
computed once per group.
"""

from __future__ import annotations

from math import lcm, prod
from typing import Iterable

from .lattice import PicardLattice
from .zcohomology import (
    Matrix,
    Vector,
    from_columns,
    mat_mul,
    mat_vec,
    smith_normal_form,
    transpose,
)

# most elements a fully enumerated group may have
GROUP_BUDGET = 10**7


class BudgetExceeded(RuntimeError):
    """Raised when a group closure outgrows ``GROUP_BUDGET`` elements."""


def reflection(lattice: PicardLattice, root: Vector) -> Matrix:
    """Matrix of x -> x + (x.root) root; requires an honest (-2)-root."""
    if lattice.intersect(root, root) != -2:
        raise ValueError("reflection requires a class of self-pairing -2")
    if lattice.intersect(root, lattice.canonical) != 0:
        raise ValueError("reflection requires a class orthogonal to K")
    cols = []
    for j in range(lattice.rank):
        e = tuple(1 if i == j else 0 for i in range(lattice.rank))
        cols.append(lattice.reflect(root, e))
    return from_columns(cols, rows=lattice.rank)


def is_isometry(lattice: PicardLattice, matrix: Matrix) -> bool:
    """Check pairing preservation and that K is fixed."""
    if mat_vec(matrix, lattice.canonical) != lattice.canonical:
        return False
    g = lattice.gram_diagonal
    mt = transpose(matrix)
    for i, row_i in enumerate(mt):
        for j, row_j in enumerate(mt):
            val = sum(row_i[k] * g[k] * row_j[k] for k in range(lattice.rank))
            expect = g[i] if i == j else 0
            if val != expect:
                return False
    return True


_PAD = bytes(range(256))


def pad_table(p: bytes) -> bytes:
    """Extend an n-point permutation to the 256-byte translate table."""
    return p + _PAD[len(p):]


def mult_perm(a: bytes, b: bytes) -> bytes:
    """Permutation of the product: apply b's matrix first, then a's."""
    return b.translate(pad_table(a))


def invert_perm(p: bytes) -> bytes:
    out = bytearray(len(p))
    for i, img in enumerate(p):
        out[img] = i
    return bytes(out)


def perm_order(p: bytes) -> int:
    n = len(p)
    seen = [False] * n
    order = 1
    for start in range(n):
        if seen[start]:
            continue
        length = 0
        i = start
        while not seen[i]:
            seen[i] = True
            i = p[i]
            length += 1
        order = lcm(order, length)
    return order


def line_permutations(
    lines: tuple[Vector, ...], matrices: Iterable[Matrix]
) -> list[bytes]:
    """The permutation each matrix induces on ``lines``, one byte per image."""
    line_index = {line: k for k, line in enumerate(lines)}
    perms = []
    for m in matrices:
        out = bytearray(len(lines))
        for k, line in enumerate(lines):
            image = line_index.get(mat_vec(m, line))
            if image is None:
                raise ValueError("matrix does not permute the lines")
            out[k] = image
        perms.append(bytes(out))
    return perms


def closure_of_perms(
    generator_perms: list[bytes], cap: int | None = None
) -> list[bytes] | None:
    """Breadth-first closure of permutations; None when past ``cap`` elements.

    The identity comes first and the rest follow in discovery order, with
    the generators applied in the given order, so the listing is
    reproducible.
    """
    npts = len(generator_perms[0]) if generator_perms else 0
    identity = bytes(range(npts))
    seen = {identity}
    queue = [identity]
    head = 0
    while head < len(queue):
        table = pad_table(queue[head])
        head += 1
        for gp in generator_perms:
            product = gp.translate(table)
            if product not in seen:
                if cap is not None and len(seen) >= cap:
                    return None
                seen.add(product)
                queue.append(product)
    return queue


class _ChainLevel:
    """One level of a stabilizer chain: a base point, the strong generators
    that fix the earlier base points (as padded tables), and the orbit of
    the base point under them.  ``coset[x]`` is (u, table of u⁻¹) with
    u(point) = x; entries are only ever added, never replaced."""

    __slots__ = ("point", "gens", "orbit", "coset", "verified")

    def __init__(self, point: int, identity: bytes):
        self.point = point
        self.gens: list[bytes] = []
        self.orbit = [point]
        self.coset = {point: (identity, pad_table(identity))}
        # (orbit position, generator position) pairs whose Schreier
        # generator sifted to the identity through the deeper levels
        self.verified: set[tuple[int, int]] = set()

    def add_generator(self, table: bytes) -> None:
        """Append a strong generator and regrow the orbit over all of them."""
        self.gens.append(table)
        coset = self.coset
        for x in self.orbit:  # also visits the points appended below
            u = coset[x][0]
            for s in self.gens:
                image = s[x]
                if image not in coset:
                    v = u.translate(s)
                    coset[image] = (v, pad_table(invert_perm(v)))
                    self.orbit.append(image)


def perm_group_order(generator_perms: list[bytes]) -> int:
    """Order of the group the permutations generate, without listing it.

    Deterministic Schreier–Sims (Sims 1970; Seress, *Permutation Group
    Algorithms*, 2003, ch. 4): a base and strong generating set are grown
    until every Schreier generator of every level sifts to the identity
    through the levels below it; the order is then the product of the
    basic orbit lengths.  Each new base point is the first point the
    residue moves, and a residue that fixes b₀…b_{l−1} joins every level
    ≤ l.  The empty list and the identity generate the trivial group.
    """
    npts = len(generator_perms[0]) if generator_perms else 0
    identity = bytes(range(npts))
    levels: list[_ChainLevel] = []

    def sift(g: bytes, start: int) -> tuple[bytes, int]:
        for depth in range(start, len(levels)):
            entry = levels[depth].coset.get(g[levels[depth].point])
            if entry is None:
                return g, depth
            g = g.translate(entry[1])
        return g, len(levels)

    def add_residue(h: bytes, depth: int) -> None:
        if depth == len(levels):
            moved = next(i for i, img in enumerate(h) if img != i)
            levels.append(_ChainLevel(moved, identity))
        table = pad_table(h)
        for level in levels[: depth + 1]:
            level.add_generator(table)

    def first_residue(depth: int) -> tuple[bytes, int] | None:
        level = levels[depth]
        for i, x in enumerate(level.orbit):
            u = level.coset[x][0]
            for j, s in enumerate(level.gens):
                if (i, j) in level.verified:
                    continue
                # the Schreier generator u_{s(x)}⁻¹ · s · u_x fixes b₀…b_depth
                schreier = u.translate(s).translate(level.coset[s[x]][1])
                h, drop = sift(schreier, depth + 1)
                if h != identity:
                    return h, drop
                level.verified.add((i, j))
        return None

    for g in generator_perms:
        h, depth = sift(g, 0)
        if h != identity:
            add_residue(h, depth)
    depth = len(levels) - 1
    while depth >= 0:
        residue = first_residue(depth)
        if residue is None:
            depth -= 1
        else:
            add_residue(*residue)
            depth = residue[1]
    return prod(len(level.orbit) for level in levels)


class PermGroupTable:
    """Fully enumerated permutation group, as the subgroup enumerator reads it.

    ``elements`` is the closure of the generators in discovery order, so
    ``elements[0]`` is the identity; ``index`` inverts the listing and
    ``tables[i]`` is element i padded for ``bytes.translate``.  Past
    ``GROUP_BUDGET`` elements the closure stops with BudgetExceeded.
    """

    def __init__(self, generator_perms: list[bytes]):
        if not generator_perms:
            raise ValueError("need at least one permutation (use the identity)")
        elements = closure_of_perms(generator_perms, cap=GROUP_BUDGET)
        if elements is None:
            raise BudgetExceeded(f"group closure exceeded budget {GROUP_BUDGET}")
        self.elements: list[bytes] = elements
        self.tables: list[bytes] = [pad_table(p) for p in elements]
        self.index: dict[bytes, int] = {p: k for k, p in enumerate(elements)}
        self.generator_indices = tuple(self.index[p] for p in generator_perms)
        self._inverse: list[int] | None = None

    @property
    def order(self) -> int:
        return len(self.elements)

    def mult(self, i: int, j: int) -> int:
        return self.index[self.elements[j].translate(self.tables[i])]

    def inverse(self, i: int) -> int:
        if self._inverse is None:
            self._inverse = [self.index[invert_perm(p)] for p in self.elements]
        return self._inverse[i]


class MatrixGroup(PermGroupTable):
    """Matrix group of a Picard lattice, enumerated by its action on the lines.

    ``matrix_of`` rebuilds an element's matrix as (images of the spanning
    classes) times the inverse of their matrix.  The spanning classes are
    the first lines, in sorted order, that are rationally independent; the
    canonical class stands in where the lines do not span (degree 8b has a
    single line), which is sound because every element fixes it.
    """

    def __init__(self, lattice: PicardLattice, generator_matrices: tuple[Matrix, ...]):
        for g in generator_matrices:
            if not is_isometry(lattice, g):
                raise ValueError("generator is not an isometry fixing K")
        self.lattice = lattice
        self.lines = lattice.lines()
        perms = line_permutations(self.lines, generator_matrices)
        # without generators the identity alone seeds the closure
        super().__init__(perms or [bytes(range(len(self.lines)))])
        self.generator_indices = tuple(self.index[p] for p in perms)
        # index len(lines) is K: every padded table fixes it, as every element does
        self._classes = self.lines + (lattice.canonical,)
        self._span, self._span_inverse, self._denominator = self._spanning_inverse()

    def _spanning_inverse(self) -> tuple[tuple[int, ...], Matrix, int]:
        """Spanning class indices S, and d with d·S⁻¹ integral."""
        chosen: list[int] = []
        for idx, v in enumerate(self._classes):
            probe = [self._classes[c] for c in chosen] + [v]
            if smith_normal_form(from_columns(probe)).rank == len(probe):
                chosen.append(idx)
                if len(chosen) == self.lattice.rank:
                    break
        else:
            raise AssertionError("lines and K fail to span the lattice")
        # left @ S @ right = diag(D), so d·S⁻¹ = right @ diag(d / D) @ left
        form = smith_normal_form(from_columns([self._classes[c] for c in chosen]))
        d = form.diagonal[-1]
        scaled = tuple(
            tuple(x * (d // form.diagonal[r]) for x in row)
            for r, row in enumerate(form.left)
        )
        return tuple(chosen), mat_mul(form.right, scaled), d

    def matrix_of(self, i: int) -> Matrix:
        table = self.tables[i]
        images = from_columns([self._classes[table[c]] for c in self._span])
        product = mat_mul(images, self._span_inverse)
        d = self._denominator
        if d == 1:
            return product
        if any(x % d for row in product for x in row):
            raise AssertionError(f"element {i} does not act integrally")
        return tuple(tuple(x // d for x in row) for row in product)


def generate_group(
    lattice: PicardLattice, generators: tuple[Matrix, ...]
) -> MatrixGroup:
    """Breadth-first closure of the generators inside the isometry group.

    Deterministic: elements are numbered in discovery order with the
    generator list applied in the given order, so indices are reproducible.
    Raises BudgetExceeded past ``GROUP_BUDGET`` elements.
    """
    group = MatrixGroup(lattice, generators)
    # every element must be a K-fixing isometry: check all when small,
    # a deterministic sample when reconstruction would dominate runtime
    if group.order <= 10_000:
        to_check = range(group.order)
    else:
        stride = group.order // 32 or 1
        to_check = range(0, group.order, stride)
    for i in to_check:
        if not is_isometry(lattice, group.matrix_of(i)):
            raise AssertionError(f"element {i} is not an isometry")
    return group


def weyl_group(lattice: PicardLattice) -> MatrixGroup:
    """The full Weyl group, generated by reflections in the simple roots."""
    gens = tuple(reflection(lattice, r) for r in lattice.simple_roots())
    return generate_group(lattice, gens)
