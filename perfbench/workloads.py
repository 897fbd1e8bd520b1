"""Seeded inputs for the benchmark workloads.

Nothing here imports the program.  Every workload input is an argv list for
``logk3.cli.main``, built from the seed alone.  The h1 query stream needs
the root system of each degree to conjugate a query by a Weyl-group
element; it is computed here from the pairing diag(1, -1, ..., -1) and the
canonical class (-3, 1, ..., 1), sorted the way the program numbers roots
(lexicographically), so a conjugate query names the image roots by index.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# the exhaustive tier: what ``verify-paper`` sweeps by default
TABLE_DEGREES = ("8b", "7", "6", "5", "4")

# degree 8b has no roots, so h1 queries draw from 1..7
H1_DEGREES = (1, 2, 3, 4, 5, 6, 7)
# six roots span a root subsystem of rank <= 6, so the generated reflection
# group has order <= 51840 (that of E6), under the command's default cap
H1_MAX_ROOTS = 6
# 6 blocks of 42 query pairs give 504 queries per pass; a run makes at
# least two passes, which leave 10 samples above the 99th percentile
H1_BLOCKS = 6

# (m, evaluate cap or None); 8320 is the m = 1 prime cap the README uses
BOUND_CALLS = (
    (1, None),
    (2, None),
    (3, None),
    (1, 2000),
    (1, 8320),
    (2, 2000),
    (3, 1000),
)

Vector = tuple[int, ...]


def _rng(seed: int, workload: str) -> random.Random:
    return random.Random(f"{workload}:{seed}")


# ── root systems of the Picard lattices ────────────────────────────────────


def pairing(u: Vector, v: Vector) -> int:
    return u[0] * v[0] - sum(a * b for a, b in zip(u[1:], v[1:]))


def reflect(root: Vector, x: Vector) -> Vector:
    """Reflection in a (-2)-class: x -> x + (x.r) r."""
    c = pairing(x, root)
    return tuple(a + c * b for a, b in zip(x, root))


def canonical_class(rank: int) -> Vector:
    return (-3,) + (1,) * (rank - 1)


def simple_roots(rank: int) -> tuple[Vector, ...]:
    """e_i - e_(i+1) and, from rank 4 on, h - e_1 - e_2 - e_3."""
    out = []
    for i in range(1, rank - 1):
        v = [0] * rank
        v[i], v[i + 1] = 1, -1
        out.append(tuple(v))
    if rank >= 4:
        out.append(tuple([1, -1, -1, -1] + [0] * (rank - 4)))
    return tuple(out)


@dataclass(frozen=True)
class RootSystem:
    degree: int
    rank: int
    simple: tuple[Vector, ...]
    roots: tuple[Vector, ...]
    index: dict

    def apply_word(self, word: list[int], x: Vector) -> Vector:
        """Image of x under the product of simple reflections in ``word``."""
        for i in reversed(word):
            x = reflect(self.simple[i], x)
        return x


def root_system(degree: int) -> RootSystem:
    rank = 10 - degree
    simple = simple_roots(rank)
    seen = set(simple)
    frontier = list(simple)
    while frontier:
        x = frontier.pop()
        for r in simple:
            y = reflect(r, x)
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    roots = tuple(sorted(seen))
    return RootSystem(degree, rank, simple, roots, {r: k for k, r in enumerate(roots)})


def reflection_matrix(root: Vector) -> tuple[tuple[int, ...], ...]:
    """Matrix of the reflection in ``root`` in the standard basis."""
    rank = len(root)
    cols = [reflect(root, tuple(int(i == j) for i in range(rank))) for j in range(rank)]
    return tuple(tuple(cols[j][i] for j in range(rank)) for i in range(rank))


# ── workload inputs ────────────────────────────────────────────────────────


def table_order(seed: int) -> list[str]:
    """The exhaustive degrees in a seeded order."""
    order = list(TABLE_DEGREES)
    _rng(seed, "tables").shuffle(order)
    return order


def table_argv(degree: str, jobs: int, cache_dir: str) -> list[str]:
    return [
        "table", "--degree", degree, "--format", "json",
        "--jobs", str(jobs), "--cache-dir", cache_dir,
    ]


@dataclass(frozen=True)
class H1Query:
    degree: int
    roots: tuple[int, ...]

    def argv(self) -> list[str]:
        return [
            "h1", "--degree", str(self.degree),
            "--subgroup", ",".join(map(str, self.roots)), "--format", "json",
        ]


def _random_word(rng: random.Random, system: RootSystem) -> list[int]:
    return [rng.randrange(len(system.simple)) for _ in range(rng.randint(1, 3 * system.rank))]


def _image(system: RootSystem, roots: tuple[int, ...], word: list[int]) -> tuple[int, ...]:
    return tuple(sorted(system.index[system.apply_word(word, system.roots[i])] for i in roots))


def h1_shapes(systems: dict[int, RootSystem]) -> list[tuple[int, tuple[int, ...]]]:
    """The fixed list of (degree, root set) shapes behind every stream.

    Every block holds one shape per (degree, root count) cell.  The shapes
    come from a fixed seed, so every stream asks about the same groups up to
    conjugacy and the mix of group orders does not change with the seed.
    """
    rng = random.Random("h1-shapes")
    shapes = []
    for _ in range(H1_BLOCKS):
        for degree in H1_DEGREES:
            for k in range(1, H1_MAX_ROOTS + 1):
                count = len(systems[degree].roots)
                shapes.append((degree, tuple(sorted(rng.sample(range(count), min(k, count))))))
    return shapes


def h1_stream(seed: int, systems: dict[int, RootSystem]) -> list[tuple[H1Query, H1Query]]:
    """Query pairs in a seeded order: a seeded Weyl conjugate of each shape,
    then its image under a second random Weyl-group element."""
    rng = _rng(seed, "h1")
    shapes = h1_shapes(systems)
    rng.shuffle(shapes)
    pairs = []
    for degree, roots in shapes:
        system = systems[degree]
        first = _image(system, roots, _random_word(rng, system))
        second = _image(system, first, _random_word(rng, system))
        pairs.append((H1Query(degree, first), H1Query(degree, second)))
    return pairs


def bound_argv(m: int, cap: int | None) -> list[str]:
    argv = ["bound", "-m", str(m), "--format", "json"]
    if cap is not None:
        argv += ["--evaluate-cap", str(cap)]
    return argv


def bound_calls(seed: int) -> list[tuple[int, int | None]]:
    """The fixed call list in a seeded order."""
    calls = list(BOUND_CALLS)
    _rng(seed, "bound").shuffle(calls)
    return calls
