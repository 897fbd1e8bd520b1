"""Picard lattices of del Pezzo surfaces and their anticanonical quotients.

A surface of degree d in 1..7 has Picard lattice Z^(10-d) with pairing
diag(1, -1, ..., -1) in the basis (hyperplane class, exceptional classes)
and canonical class K = (-3, 1, ..., 1).  The degree label "8b" is the
rank-two blow-up type with K = (-3, 1).  Degrees 8 (quadric type) and 9
are rejected: removing the anticanonical curve there leaves a class group
with torsion, so the free-module machinery below does not apply.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .zcohomology import (
    Matrix,
    Vector,
    columns_of,
    from_columns,
    mat_mul,
    smith_normal_form,
    solve_exact,
)

SUPPORTED_DEGREES = ("1", "2", "3", "4", "5", "6", "7", "8b")

ORBIT_CAP = 10**6


class OrbitCapExceeded(RuntimeError):
    """An orbit closure outgrew the safety cap; almost surely a misuse."""


def normalize_degree(degree_spec: int | str) -> str:
    label = str(degree_spec).strip().lower()
    if label in ("8", "9"):
        raise ValueError(
            f"degree {label} is unsupported: the complement of the anticanonical "
            "curve has torsion in its class group there, which these free-module "
            "computations cannot represent (supported: 1-7 and the blow-up type 8b)"
        )
    if label not in SUPPORTED_DEGREES:
        raise ValueError(
            f"unrecognised degree {degree_spec!r}; supported: 1-7 and 8b"
        )
    return label


@dataclass(frozen=True)
class QuotientPresentation:
    """Coordinates for Pic modulo the canonical class.

    ``projection`` is a (rank-1) x rank matrix sending K to zero whose rows
    extend to a basis of the dual, ``section`` a right inverse, so that
    projection @ section is the identity on the quotient.
    """

    projection: Matrix
    section: Matrix
    rank: int

    def push(self, isometry: Matrix) -> Matrix:
        """Matrix induced on the quotient by an isometry fixing K."""
        return mat_mul(self.projection, mat_mul(isometry, self.section))


class PicardLattice:
    """Odd unimodular lattice of a del Pezzo surface with its canonical class."""

    def __init__(self, degree_spec: int | str):
        label = normalize_degree(degree_spec)
        self.degree_label = label
        self.degree = 8 if label == "8b" else int(label)
        self.rank = 10 - self.degree
        self.canonical: Vector = (-3,) + (1,) * (self.rank - 1)
        self.gram_diagonal: Vector = (1,) + (-1,) * (self.rank - 1)
        self._roots: tuple[Vector, ...] | None = None
        self._lines: tuple[Vector, ...] | None = None
        self._line_index: dict[Vector, int] | None = None
        self._reflection_perms: dict[int, bytes] = {}
        self._reflection_matrices: dict[int, Matrix] = {}
        self._quotient: QuotientPresentation | None = None

    def __repr__(self) -> str:
        return f"PicardLattice(degree={self.degree_label!r}, rank={self.rank})"

    def intersect(self, u: Vector, v: Vector) -> int:
        if len(u) != self.rank or len(v) != self.rank:
            raise ValueError("vector length does not match the lattice rank")
        return u[0] * v[0] - sum(u[i] * v[i] for i in range(1, self.rank))

    def reflect(self, root: Vector, x: Vector) -> Vector:
        # s_r(x) = x + (x.r) r for a (-2)-class r
        c = self.intersect(x, root)
        return tuple(a + c * b for a, b in zip(x, root))

    def simple_roots(self) -> tuple[Vector, ...]:
        out = []
        for i in range(1, self.rank - 1):
            v = [0] * self.rank
            v[i], v[i + 1] = 1, -1
            out.append(tuple(v))
        if self.rank >= 4:
            v = [1, -1, -1, -1] + [0] * (self.rank - 4)
            out.append(tuple(v))
        return tuple(out)

    def _orbit_closure(self, seeds: tuple[Vector, ...]) -> tuple[Vector, ...]:
        mirrors = self.simple_roots()
        seen = set(seeds)
        frontier = list(seeds)
        while frontier:
            x = frontier.pop()
            for r in mirrors:
                y = self.reflect(r, x)
                if y not in seen:
                    if len(seen) >= ORBIT_CAP:
                        raise OrbitCapExceeded("orbit closure exceeded safety cap")
                    seen.add(y)
                    frontier.append(y)
        return tuple(sorted(seen))

    def roots(self) -> tuple[Vector, ...]:
        """All classes r with r.r = -2 and r.K = 0, sorted lexicographically."""
        if self._roots is None:
            self._roots = self._orbit_closure(self.simple_roots())
        return self._roots

    def lines(self) -> tuple[Vector, ...]:
        """All classes L with L.L = L.K = -1, sorted lexicographically."""
        if self._lines is None:
            seeds = []
            if self.rank >= 2:
                e1 = [0] * self.rank
                e1[1] = 1
                seeds.append(tuple(e1))
            if self.rank >= 3:
                v = [1, -1, -1] + [0] * (self.rank - 3)
                seeds.append(tuple(v))
            self._lines = self._orbit_closure(tuple(seeds))
        return self._lines

    def reflection_permutation(self, k: int) -> bytes:
        """The permutation of ``lines()`` by the reflection in ``roots()[k]``,
        one byte per image; each root's is computed once."""
        perm = self._reflection_perms.get(k)
        if perm is None:
            lines = self.lines()
            if self._line_index is None:
                self._line_index = {line: i for i, line in enumerate(lines)}
            root = self.roots()[k]
            perm = bytes(self._line_index[self.reflect(root, line)] for line in lines)
            self._reflection_perms[k] = perm
        return perm

    def reflection_matrix(self, k: int) -> Matrix:
        """The matrix of the reflection in ``roots()[k]``, built by
        ``weyl.reflection`` once per root."""
        matrix = self._reflection_matrices.get(k)
        if matrix is None:
            from . import weyl  # weyl builds on this module

            matrix = weyl.reflection(self, self.roots()[k])
            self._reflection_matrices[k] = matrix
        return matrix

    def quotient_mod_canonical(self) -> QuotientPresentation:
        """Present Pic modulo ZK by extending K to a basis via Smith reduction."""
        if self._quotient is None:
            column = tuple((c,) for c in self.canonical)
            form = smith_normal_form(column)
            if form.diagonal != (1,):
                raise AssertionError("canonical class is not primitive")
            basis = [list(col) for col in columns_of(form.left_inv)]
            lead = tuple(form.right_inv[0][0] * x for x in basis[0])
            if lead != self.canonical:
                raise AssertionError("basis extension lost the canonical class")
            projection = tuple(tuple(form.left[i]) for i in range(1, self.rank))
            section = from_columns(
                [tuple(basis[j]) for j in range(1, self.rank)], rows=self.rank
            )
            self._quotient = QuotientPresentation(projection, section, self.rank - 1)
        return self._quotient

    def delta_invariant(self, sublattice_basis: tuple[Vector, ...]) -> int:
        """gcd of pairings of a sublattice with K; the basis must span K."""
        if not sublattice_basis:
            raise ValueError("empty sublattice basis")
        matrix = from_columns(sublattice_basis, rows=self.rank)
        try:
            solve_exact(matrix, tuple((c,) for c in self.canonical))
        except ValueError:
            raise ValueError("sublattice does not contain the canonical class")
        d = 0
        for b in sublattice_basis:
            d = gcd(d, self.intersect(b, self.canonical))
        if d == 0:
            raise AssertionError("canonical pairing vanished on a lattice containing K")
        return d


_LATTICES: dict[str, PicardLattice] = {}


def build_picard_lattice(degree_spec: int | str) -> PicardLattice:
    """The shared lattice of a degree, so its lines, roots and quotient
    presentation are computed once per process."""
    label = normalize_degree(degree_spec)
    lattice = _LATTICES.get(label)
    if lattice is None:
        lattice = _LATTICES[label] = PicardLattice(label)
    return lattice


def bounded_class_search(
    lattice: PicardLattice,
    self_pairing: int,
    canonical_pairing: int,
    bound: int,
) -> tuple[Vector, ...]:
    """All classes with prescribed self and canonical pairings, coefficients
    bounded by ``bound`` in absolute value.

    Exhaustive depth-first search with partial-sum pruning; independent of
    the reflection-orbit computation in ``roots``/``lines`` on purpose so the
    two can be compared.
    """
    r = lattice.rank
    results: list[Vector] = []
    for a in range(-bound, bound + 1):
        # a^2 - sum(b_i^2) = self_pairing, -3a - sum(b_i) = canonical_pairing
        square_target = a * a - self_pairing
        sum_target = -canonical_pairing - 3 * a
        if square_target < 0:
            continue
        coords = [0] * (r - 1)

        def descend(pos: int, sum_left: int, square_left: int) -> None:
            remaining = r - 1 - pos
            if remaining == 0:
                if sum_left == 0 and square_left == 0:
                    results.append((a, *coords))
                return
            if sum_left * sum_left > remaining * square_left:
                return
            if abs(sum_left) > remaining * bound:
                return
            for b in range(-bound, bound + 1):
                sq = square_left - b * b
                if sq < 0:
                    continue
                coords[pos] = b
                descend(pos + 1, sum_left - b, sq)
            coords[pos] = 0

        descend(0, sum_target, square_target)
    return tuple(sorted(results))
