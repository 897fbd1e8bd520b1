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
* a proper subgroup has at most half the parent's elements, so a closure
  that grows past n/2 is the whole group and can stop early.

Conjugacy classes are identified by a canonical fingerprint, the
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

from .lattice import build_picard_lattice
from .weyl import (
    Matrix,
    closure_of_perms,
    line_permutations,
    mult_perm,
    perm_order,
    reflection,
)
from .zcohomology import mat_mul

TIER_LIMITS = {"exhaustive": 2_000, "extended": 60_000, "stretch": 3_000_000}
DOUBLE_COSET_THRESHOLD = 500


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

    The representative is stored in canonical form, so ``element_set`` and
    ``fingerprint`` coincide; both are kept to make the contract explicit.
    ``orbit_size`` is the number of conjugates, i.e. the normalizer index.
    ``parent_degree`` is the degree label when the parent group acts on a
    Picard lattice, None for detached permutation groups.
    """

    parent_degree: str | None
    generators: tuple[int, ...]
    element_set: tuple[int, ...]
    order: int
    fingerprint: tuple[int, ...]
    orbit_size: int


def closure_indices(
    group, generator_indices, abort_above: int | None = None
) -> tuple[int, ...] | None:
    """Smallest subgroup containing the given elements, as sorted indices.

    Returns None as soon as the closure would grow past ``abort_above``
    elements.
    """
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
                if abort_above is not None and len(seen) >= abort_above:
                    return None
                seen.add(y)
                queue.append(y)
    assert group.order % len(seen) == 0, "closure violates Lagrange"
    return tuple(sorted(seen))


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
        self.orders = [perm_order(p) for p in self.elements]
        self.prime_power = [_is_prime_power(o) for o in self.orders]
        self.double_coset_threshold = DOUBLE_COSET_THRESHOLD
        self.digests: dict[bytes, int] = {}
        self.records: list[tuple[tuple[int, ...], int, int]] = []
        # records: (fingerprint set, order, orbit size)
        # generator keys whose closure was already taken this run
        self.closure_seen: set[tuple[int, ...]] = set()
        self.degree_label = getattr(
            getattr(group, "lattice", None), "degree_label", None
        )

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
            self.records.append((els, self.n, 1))
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
        self.records.append((best, len(els), len(queue)))
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

    def extension_candidates(self, els: tuple[int, ...], gens: tuple[int, ...]):
        """Extension elements for a representative, reduced by symmetry.

        One candidate per right coset for small parents.  For large parents
        cosets are merged into orbits under right multiplication by H and
        conjugation by the normalizer of H: extending by two elements of one
        orbit yields conjugate subgroups, so a single representative keeps
        the enumeration complete while shrinking the candidate count by a
        factor of up to |N(H)|.
        """
        n = self.n
        elements, tables, index = self.elements, self.tables, self.index
        member = bytearray(n)
        for x in els:
            member[x] = 1
        coset_id = array("i", [-1]) * n
        coset_reps: list[int] = []
        coset_pp: list[bool] = []
        prime_power = self.prime_power
        for x in range(n):
            if coset_id[x] >= 0:
                continue
            cid = len(coset_reps)
            coset_reps.append(x)
            has_pp = False
            for h in els:
                y = index[elements[x].translate(tables[h])]
                coset_id[y] = cid
                if prime_power[y]:
                    has_pp = True
            coset_pp.append(has_pp)
        ncosets = len(coset_reps)
        home = coset_id[0]
        if n <= self.double_coset_threshold or not gens:
            for c in range(ncosets):
                if c != home and coset_pp[c]:
                    yield coset_reps[c]
            return
        inverse = self.group.inverse
        # the normalizer is a union of cosets; test one representative each
        norm_reps = []
        for c in range(ncosets):
            if c == home:
                continue
            r = coset_reps[c]
            rtab = tables[r]
            rinv = elements[inverse(r)]
            if all(
                member[index[rinv.translate(tables[s]).translate(rtab)]]
                for s in gens
            ):
                norm_reps.append(r)
        ngens = list(gens)
        covered = set(els)
        for r in norm_reps:
            if r in covered:
                continue
            ngens.append(r)
            covered = set(closure_indices(self.group, tuple(ngens)))
            if len(covered) == n:
                break
        conj_movers = [(elements[inverse(m)], tables[m]) for m in ngens]
        visited = bytearray(ncosets)
        visited[home] = 1
        for c in range(ncosets):
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
    half = enum.n // 2
    whole = tuple(range(enum.n))
    for els, gens in reps:
        if deadline is not None and time.monotonic() > deadline:
            return None
        for g in enum.extension_candidates(els, gens):
            key = tuple(sorted((*gens, g)))
            if key in enum.closure_seen:
                continue
            enum.closure_seen.add(key)
            closed = closure_indices(enum.group, gens + (g,), abort_above=half)
            if closed is None:
                closed = whole
            if enum.lookup(closed) is None:
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
    double_coset_threshold: int = DOUBLE_COSET_THRESHOLD,
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
    enum.double_coset_threshold = double_coset_threshold
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
                fresh.append(enum.records[cid][0])
        frontier_sets = sorted(fresh, key=lambda s: (len(s), s))

    def out_of_time() -> DeadlineExceeded:
        return DeadlineExceeded(
            "subgroup enumeration ran out of time", len(enum.records), layer
        )

    parallel = jobs > 1 and n > double_coset_threshold
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
                    fresh.append(enum.records[cid][0])
            frontier_sets = sorted(fresh, key=lambda s: (len(s), s))
            layer += 1
            if checkpoint is not None:
                checkpoint.save(
                    {
                        "order": n,
                        "layer": layer,
                        "classes": [list(r[0]) for r in enum.records],
                        "frontier": [list(els) for els in frontier_sets],
                    }
                )
    finally:
        _WORKER.clear()

    out = []
    for fingerprint, order, orbit_size in enum.records:
        out.append(
            SubgroupClass(
                parent_degree=enum.degree_label,
                generators=enum.small_generating_set(fingerprint),
                element_set=fingerprint,
                order=order,
                fingerprint=fingerprint,
                orbit_size=orbit_size,
            )
        )
    out.sort(key=lambda c: (c.order, c.fingerprint))
    return out


def is_conjugate(group, a: SubgroupClass, b: SubgroupClass) -> bool:
    """Conjugacy of two classes from the same parent enumeration."""
    for cls in (a, b):
        if cls.element_set and cls.element_set[-1] >= group.order:
            raise ValueError("class does not come from this parent group")
    return a.fingerprint == b.fingerprint


def class_of_subgroup(group, element_indices) -> SubgroupClass:
    """Canonical class record of one concrete subgroup given by its elements."""
    enum = _Enumerator(group)
    els = tuple(sorted(set(element_indices)))
    cid, _ = enum.register(els)
    fingerprint, order, orbit_size = enum.records[cid]
    return SubgroupClass(
        parent_degree=enum.degree_label,
        generators=enum.small_generating_set(fingerprint),
        element_set=fingerprint,
        order=order,
        fingerprint=fingerprint,
        orbit_size=orbit_size,
    )


# ── seeded random reflection subgroups for the big degrees ─────────────────


@dataclass(frozen=True)
class SampledSubgroup:
    """A reflection subgroup drawn at random, carried by generator matrices."""

    degree_label: str
    order: int
    generator_matrices: tuple[Matrix, ...]
    ident: str


def sample_subgroups(
    degree_spec: int | str,
    count: int,
    seed: int,
    order_cap: int = 5000,
    generator_count_range: tuple[int, int] = (2, 5),
    retry_factor: int = 50,
) -> list[SampledSubgroup]:
    """Random reflection subgroups of the degree-1 or degree-2 Weyl group.

    Each sample is generated by a few reflections in randomly chosen roots,
    conjugated by short random words in further reflections; closures that
    exceed ``order_cap`` are discarded and redrawn.  Deterministic for a
    fixed seed.
    """
    lattice = build_picard_lattice(degree_spec)
    if lattice.degree_label not in ("1", "2"):
        raise ValueError("sampling is intended for degrees 1 and 2")
    roots = lattice.roots()
    mats = [reflection(lattice, r) for r in roots]
    perms = line_permutations(lattice.lines(), mats)

    rng = random.Random(seed)
    lo, hi = generator_count_range
    samples: list[SampledSubgroup] = []
    attempts = 0
    max_attempts = max(1, retry_factor * count)
    while len(samples) < count:
        if attempts >= max_attempts:
            raise SampleError(
                f"drew {attempts} candidates but only {len(samples)} of "
                f"{count} fit under order cap {order_cap}"
            )
        attempts += 1
        k = rng.randint(lo, hi)
        gen_mats: list[Matrix] = []
        gen_perms: list[bytes] = []
        for _ in range(k):
            base = rng.randrange(len(roots))
            word = [rng.randrange(len(roots)) for _ in range(rng.randint(0, 3))]
            mat = mats[base]
            perm = perms[base]
            for w in reversed(word):
                mat = mat_mul(mats[w], mat_mul(mat, mats[w]))
                perm = mult_perm(perms[w], mult_perm(perm, perms[w]))
            gen_mats.append(mat)
            gen_perms.append(perm)
        closed = closure_of_perms(gen_perms, cap=order_cap)
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
