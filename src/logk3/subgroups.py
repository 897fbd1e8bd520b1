"""Conjugacy classes of subgroups of a fully enumerated permutation group.

The enumeration is layered generator augmentation: seed with one cyclic
subgroup per conjugacy class of elements, then repeatedly extend each class
representative H by a single new generator and reduce modulo conjugacy,
until no new classes appear.  Three facts keep this complete and affordable:

* <H, g> only depends on the double coset HgH, so one candidate per double
  coset suffices (plain cosets are used for small parents where labelling
  double cosets costs more than it saves);
* every subgroup is generated by its elements of prime power order, so
  double cosets containing none can be skipped;
* <H, g> is a union of right cosets Hx, namely those the coset H reaches
  under right multiplication by the generators, so the closure walks the
  cosets of H instead of the elements; a proper subgroup holds at most
  half of them, so a walk that passes half is the whole group and stops.

Conjugacy classes are identified by a canonical element set, the
lexicographically smallest sorted element-index set among all conjugates.
The full conjugation orbit is walked once per class and every member set's
digest is remembered, which makes later candidates a dictionary hit.
"""

from __future__ import annotations

import multiprocessing
import random
import time
from array import array
from dataclasses import dataclass
from hashlib import blake2b
from itertools import chain
from typing import NamedTuple

from .lattice import build_picard_lattice
from .weyl import (
    Matrix,
    closure_of_perms,
    mult_perm,
    perm_order,
)
from .zcohomology import mat_mul

# group-order limit per tier, cheapest tier first; the key order is the
# tier order everywhere
TIER_LIMITS = {"exhaustive": 2_000, "extended": 60_000, "stretch": 3_000_000}
# parents up to this order extend by plain cosets, larger ones by normalizer
# orbits of double cosets and, with jobs > 1, in forked workers
DOUBLE_COSET_THRESHOLD = 500
# fewest and most generators of a sampled subgroup
SAMPLE_GENERATOR_COUNTS = (2, 5)
# sampled closures past this order are redrawn, at most this many draws
# per requested sample
SAMPLE_ORDER_CAP = 5000
SAMPLE_RETRY_FACTOR = 50


class TierExceeded(RuntimeError):
    """The requested tier does not admit a group of this order."""


class DeadlineExceeded(RuntimeError):
    """Enumeration ran out of its time budget.

    ``classes_found`` and ``layers_completed`` report the progress made."""

    def __init__(self, message: str, classes_found: int, layers_completed: int):
        super().__init__(message)
        self.classes_found = classes_found
        self.layers_completed = layers_completed


class SampleError(RuntimeError):
    """Sampling could not reach the requested count within its retry budget."""


@dataclass(frozen=True)
class SubgroupClass:
    """One conjugacy class of subgroups of an enumerated parent group.

    ``element_set`` is the canonical representative: the lexicographically
    smallest sorted element-index set among the conjugates.
    """

    generators: tuple[int, ...]
    element_set: tuple[int, ...]
    order: int


def closure_indices(group, generator_indices) -> tuple[int, ...]:
    """Smallest subgroup containing the given elements, as sorted indices."""
    elements, tables, index = group.elements, group.tables, group.index
    seen = {0}
    queue = [0]
    for g in generator_indices:
        if g not in seen:
            seen.add(g)
            queue.append(g)
    head = 0
    while head < len(queue):
        table = tables[queue[head]]
        head += 1
        for g in generator_indices:
            y = index[elements[g].translate(table)]
            if y not in seen:
                seen.add(y)
                queue.append(y)
    assert group.order % len(seen) == 0, "closure violates Lagrange"
    return tuple(sorted(seen))


class RightCosets(NamedTuple):
    """The right cosets Hx of a subgroup H, numbered from H itself (coset 0).

    ``ids[x]`` is the coset of element x, ``reps[c]`` the smallest element
    of coset c and ``members[c]`` its elements.
    """

    ids: array
    reps: list[int]
    members: list[list[int]]


def _is_prime_power(n: int) -> bool:
    if n < 2:
        return False
    p = 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            return n == 1
        p += 1
    return True


def _set_digest(els: tuple[int, ...]) -> bytes:
    return blake2b(array("i", els).tobytes(), digest_size=16).digest()


class _Enumerator:
    """Shared state of one enumeration run over a fixed parent group."""

    def __init__(self, group):
        self.group = group
        self.n = group.order
        self.elements = group.elements
        self.tables = group.tables
        self.index = group.index
        # conjugation by each generator as a plain index array
        self.conj_arrays: list[array] = []
        for gi in group.generator_indices:
            gtable = group.tables[gi]
            ginv_perm = group.elements[group.inverse(gi)]
            arr = array("i", bytes(4) * self.n)
            for x in range(self.n):
                # x·g⁻¹ then left-multiply by g
                step = ginv_perm.translate(self.tables[x])
                arr[x] = self.index[step.translate(gtable)]
            self.conj_arrays.append(arr)
        self.prime_power_elements = [
            x for x, p in enumerate(self.elements) if _is_prime_power(perm_order(p))
        ]
        self.digests: dict[bytes, int] = {}
        # the canonical element set of each class, indexed by class id
        self.records: list[tuple[int, ...]] = []
        # generator keys whose closure was already taken this run
        self.closure_seen: set[tuple[int, ...]] = set()

    def lookup(self, els: tuple[int, ...]) -> int | None:
        return self.digests.get(_set_digest(els))

    def register(self, els: tuple[int, ...]) -> tuple[int, bool]:
        dg = _set_digest(els)
        known = self.digests.get(dg)
        if known is not None:
            return known, False
        cid = len(self.records)
        if len(els) == self.n:
            # the whole group is its own conjugacy class
            self.digests[dg] = cid
            self.records.append(els)
            return cid, True
        seen = {dg}
        queue = [els]
        best = els
        self.digests[dg] = cid
        head = 0
        while head < len(queue):
            current = queue[head]
            head += 1
            for arr in self.conj_arrays:
                conj = tuple(sorted(arr[x] for x in current))
                cdg = _set_digest(conj)
                if cdg not in seen:
                    seen.add(cdg)
                    self.digests[cdg] = cid
                    queue.append(conj)
                    if conj < best:
                        best = conj
        self.records.append(best)
        return cid, True

    def element_classes(self) -> list[int]:
        """Conjugacy class id per element; ids follow the smallest member."""
        ids = [-1] * self.n
        next_id = 0
        for start in range(self.n):
            if ids[start] >= 0:
                continue
            ids[start] = next_id
            frontier = [start]
            while frontier:
                x = frontier.pop()
                for arr in self.conj_arrays:
                    y = arr[x]
                    if ids[y] < 0:
                        ids[y] = next_id
                        frontier.append(y)
            next_id += 1
        return ids

    def cyclic_seeds(self) -> list[tuple[int, ...]]:
        """The cyclic subgroup of one element per conjugacy class of elements."""
        reps: list[int] = []
        for x, cid in enumerate(self.element_classes()):
            if cid == len(reps):
                reps.append(x)
        out = []
        for rep in reps:
            powers = [0]
            cur = rep
            while cur != 0:
                powers.append(cur)
                cur = self.group.mult(cur, rep)
            out.append(tuple(sorted(powers)))
        return out

    def right_cosets(self, els: tuple[int, ...]) -> RightCosets:
        """The right cosets of the subgroup H = ``els``."""
        elements, tables, index = self.elements, self.tables, self.index
        ids = array("i", [-1]) * self.n
        reps: list[int] = []
        members: list[list[int]] = []
        for x in range(self.n):
            if ids[x] >= 0:
                continue
            cid = len(reps)
            xperm = elements[x]
            coset = [index[xperm.translate(tables[h])] for h in els]
            for y in coset:
                ids[y] = cid
            reps.append(x)
            members.append(coset)
        return RightCosets(ids, reps, members)

    def coset_closure(
        self, cosets: RightCosets, gens: tuple[int, ...]
    ) -> tuple[int, ...] | None:
        """<gens> as sorted indices, for ``gens`` generating a group that
        contains H, the subgroup whose right cosets ``cosets`` lists.

        G acts on the right cosets by right multiplication, so <gens> is the
        union of the cosets that H reaches under ``gens``.  A proper subgroup
        holds at most half of the cosets, so once the walk passes half it
        stops and returns None: the closure is the whole group.
        """
        ids, reps, members = cosets
        elements, tables, index = self.elements, self.tables, self.index
        ncosets = len(reps)
        half = ncosets // 2
        gen_perms = [elements[g] for g in gens]
        seen = bytearray(ncosets)
        seen[0] = 1
        reached = [0]
        # the loop also visits the cosets appended while it runs
        for current in reached:
            table = tables[reps[current]]
            for gperm in gen_perms:
                c = ids[index[gperm.translate(table)]]
                if not seen[c]:
                    if len(reached) >= half:
                        return None
                    seen[c] = 1
                    reached.append(c)
        assert ncosets % len(reached) == 0, "closure violates Lagrange"
        return tuple(sorted(chain.from_iterable(members[c] for c in reached)))

    def extension_candidates(self, cosets: RightCosets, gens: tuple[int, ...]):
        """Extension elements for a representative H generated by ``gens``,
        reduced by symmetry.

        One candidate per right coset for small parents.  For large parents
        cosets are merged into orbits under right multiplication by H and
        conjugation by the normalizer of H: extending by two elements of one
        orbit yields conjugate subgroups, so a single representative keeps
        the enumeration complete while shrinking the candidate count by a
        factor of up to |N(H)|.
        """
        n = self.n
        elements, tables, index = self.elements, self.tables, self.index
        coset_id, coset_reps, members = cosets
        ncosets = len(coset_reps)
        coset_pp = bytearray(ncosets)
        for y in self.prime_power_elements:
            coset_pp[coset_id[y]] = 1
        # coset 0 is H itself
        if n <= DOUBLE_COSET_THRESHOLD or not gens:
            for c in range(1, ncosets):
                if coset_pp[c]:
                    yield coset_reps[c]
            return
        inverse = self.group.inverse
        # the normalizer is a union of cosets; test one representative each
        norm_reps = []
        for r in coset_reps[1:]:
            rtab = tables[r]
            rinv = elements[inverse(r)]
            if all(
                coset_id[index[rinv.translate(tables[s]).translate(rtab)]] == 0
                for s in gens
            ):
                norm_reps.append(r)
        ngens = list(gens)
        covered = set(members[0])
        for r in norm_reps:
            if r in covered:
                continue
            ngens.append(r)
            covered = set(closure_indices(self.group, tuple(ngens)))
            if len(covered) == n:
                break
        conj_movers = [(elements[inverse(m)], tables[m]) for m in ngens]
        visited = bytearray(ncosets)
        visited[0] = 1
        for c in range(1, ncosets):
            if visited[c]:
                continue
            orbit = [c]
            visited[c] = 1
            has_pp = coset_pp[c]
            head = 0
            while head < len(orbit):
                rep_el = coset_reps[orbit[head]]
                head += 1
                for h in gens:
                    y = coset_id[index[elements[h].translate(tables[rep_el])]]
                    if not visited[y]:
                        visited[y] = 1
                        orbit.append(y)
                        has_pp = has_pp or coset_pp[y]
                rep_tab = tables[rep_el]
                for minv, mtab in conj_movers:
                    y = coset_id[index[minv.translate(rep_tab).translate(mtab)]]
                    if not visited[y]:
                        visited[y] = 1
                        orbit.append(y)
                        has_pp = has_pp or coset_pp[y]
            if has_pp:
                yield coset_reps[orbit[0]]

    def small_generating_set(self, els: tuple[int, ...]) -> tuple[int, ...]:
        if len(els) == 1:
            return ()
        gens: list[int] = []
        covered: tuple[int, ...] = (0,)
        covered_set = {0}
        for x in els:
            if x in covered_set:
                continue
            gens.append(x)
            covered = closure_indices(self.group, tuple(gens))
            covered_set = set(covered)
            if len(covered) == len(els):
                break
        if len(covered) != len(els):
            raise AssertionError("generating set construction failed")
        return tuple(gens)


def _extend_batch(enum: _Enumerator, reps, deadline: float | None):
    """Unregistered closures of each representative plus one candidate.

    The one extension loop: called directly for serial layers and inside
    forked workers for parallel ones.  Returns None once ``deadline``
    passes, checked before every representative; a worker cannot send
    DeadlineExceeded itself, since that exception does not unpickle.
    """
    out: set[tuple[int, ...]] = set()
    for els, gens in reps:
        if deadline is not None and time.monotonic() > deadline:
            return None
        cosets = enum.right_cosets(els)
        for g in enum.extension_candidates(cosets, gens):
            key = tuple(sorted((*gens, g)))
            if key in enum.closure_seen:
                continue
            enum.closure_seen.add(key)
            closed = enum.coset_closure(cosets, gens + (g,))
            # None is the whole group, registered before the first layer
            if closed is not None and enum.lookup(closed) is None:
                out.add(closed)
    return out


# worker state for the fork-based parallel path
_WORKER: dict = {}


def _extend_forked(reps):
    # the fork carries the enumerator with every class registered so far
    return _extend_batch(_WORKER["enum"], reps, _WORKER["deadline"])


def enumerate_subgroup_classes(
    group,
    tier: str = "exhaustive",
    jobs: int = 1,
    budget_seconds: float | None = None,
    checkpoint=None,
) -> list[SubgroupClass]:
    """All subgroups of ``group`` up to conjugacy, sorted deterministically.

    ``tier`` guards against accidentally launching an enumeration the
    caller did not budget for: exhaustive admits orders up to 2e3, extended
    6e4, stretch 3e6.  ``jobs`` > 1 distributes extension work over forked
    workers; the result does not depend on it.  ``checkpoint`` may provide
    ``load()`` and ``save(state)`` for resumable layer snapshots.
    ``budget_seconds`` is checked before every layer and before every
    representative, in forked workers too; expiry raises DeadlineExceeded.
    """
    if tier not in TIER_LIMITS:
        raise ValueError(f"unknown tier {tier!r}")
    if group.order > TIER_LIMITS[tier]:
        raise TierExceeded(
            f"order {group.order} exceeds the {tier} tier limit "
            f"{TIER_LIMITS[tier]}"
        )
    deadline = None if budget_seconds is None else time.monotonic() + budget_seconds
    enum = _Enumerator(group)
    n = enum.n

    frontier_sets: list[tuple[int, ...]]
    layer = 0
    state = checkpoint.load() if checkpoint is not None else None
    if state is not None and state.get("order") == n:
        layer = state["layer"]
        for els in state["classes"]:
            enum.register(tuple(els))
        frontier_sets = [tuple(els) for els in state["frontier"]]
    else:
        enum.register((0,))
        enum.register(tuple(range(n)))
        seeds = sorted(enum.cyclic_seeds(), key=lambda s: (len(s), s))
        fresh = []
        for els in seeds:
            cid, new = enum.register(els)
            if new:
                fresh.append(enum.records[cid])
        frontier_sets = sorted(fresh, key=lambda s: (len(s), s))

    def out_of_time() -> DeadlineExceeded:
        found = len(enum.records)
        return DeadlineExceeded(
            f"subgroup enumeration ran out of time: {found} classes found, "
            f"{layer} layers completed",
            found,
            layer,
        )

    parallel = jobs > 1 and n > DOUBLE_COSET_THRESHOLD
    ctx = multiprocessing.get_context("fork") if parallel else None
    try:
        while frontier_sets:
            if deadline is not None and time.monotonic() > deadline:
                raise out_of_time()
            reps = [
                (els, enum.small_generating_set(els))
                for els in frontier_sets
                if len(els) < n
            ]
            if parallel and len(reps) > 1:
                chunks = [reps[i::jobs] for i in range(jobs) if reps[i::jobs]]
                # a fresh pool per layer forks the current enumerator state
                _WORKER["enum"] = enum
                _WORKER["deadline"] = deadline
                with ctx.Pool(len(chunks)) as pool:
                    parts = pool.map(_extend_forked, chunks)
            else:
                parts = [_extend_batch(enum, reps, deadline)]
            if any(part is None for part in parts):
                raise out_of_time()
            candidates = set().union(*parts)
            fresh = []
            for els in sorted(candidates, key=lambda s: (len(s), s)):
                cid, new = enum.register(els)
                if new:
                    fresh.append(enum.records[cid])
            frontier_sets = sorted(fresh, key=lambda s: (len(s), s))
            layer += 1
            if checkpoint is not None:
                checkpoint.save(
                    {
                        "order": n,
                        "layer": layer,
                        "classes": [list(els) for els in enum.records],
                        "frontier": [list(els) for els in frontier_sets],
                    }
                )
    finally:
        _WORKER.clear()

    out = [
        SubgroupClass(
            generators=enum.small_generating_set(els),
            element_set=els,
            order=len(els),
        )
        for els in enum.records
    ]
    out.sort(key=lambda c: (c.order, c.element_set))
    return out


# ── seeded random reflection subgroups for the big degrees ─────────────────


@dataclass(frozen=True)
class SampledSubgroup:
    """A reflection subgroup drawn at random, carried by generator matrices."""

    degree_label: str
    order: int
    generator_matrices: tuple[Matrix, ...]
    ident: str


def sample_subgroups(
    degree_spec: int | str, count: int, seed: int
) -> list[SampledSubgroup]:
    """Random reflection subgroups of the degree-1 or degree-2 Weyl group.

    Each sample is generated by a few reflections in randomly chosen roots,
    conjugated by short random words in further reflections; closures that
    exceed ``SAMPLE_ORDER_CAP`` are discarded and redrawn.  Deterministic
    for a fixed seed.
    """
    lattice = build_picard_lattice(degree_spec)
    if lattice.degree_label not in ("1", "2"):
        raise ValueError("sampling is intended for degrees 1 and 2")
    roots = lattice.roots()

    rng = random.Random(seed)
    lo, hi = SAMPLE_GENERATOR_COUNTS
    samples: list[SampledSubgroup] = []
    attempts = 0
    max_attempts = max(1, SAMPLE_RETRY_FACTOR * count)
    while len(samples) < count:
        if attempts >= max_attempts:
            raise SampleError(
                f"drew {attempts} candidates but only {len(samples)} of "
                f"{count} fit under order cap {SAMPLE_ORDER_CAP}"
            )
        attempts += 1
        k = rng.randint(lo, hi)
        gen_mats: list[Matrix] = []
        gen_perms: list[bytes] = []
        for _ in range(k):
            base = rng.randrange(len(roots))
            word = [rng.randrange(len(roots)) for _ in range(rng.randint(0, 3))]
            mat = lattice.reflection_matrix(base)
            perm = lattice.reflection_permutation(base)
            for w in reversed(word):
                s, p = lattice.reflection_matrix(w), lattice.reflection_permutation(w)
                mat = mat_mul(s, mat_mul(mat, s))
                perm = mult_perm(p, mult_perm(perm, p))
            gen_mats.append(mat)
            gen_perms.append(perm)
        closed = closure_of_perms(gen_perms, cap=SAMPLE_ORDER_CAP)
        if closed is None:
            continue
        digest = blake2b(
            b"".join(sorted(closed)), digest_size=12
        ).hexdigest()
        samples.append(
            SampledSubgroup(
                degree_label=lattice.degree_label,
                order=len(closed),
                generator_matrices=tuple(gen_mats),
                ident=digest,
            )
        )
    return samples
