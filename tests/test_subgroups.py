"""Subgroup conjugacy class enumeration.

Counts are pinned against a brute-force oracle that closes every pair of
elements and dedupes by explicit whole-group conjugation; the layered
enumerator must agree on classes and orders, and pick the canonical member
of each class.  The brute
force is complete for parents whose subgroups are all 2-generated, which
holds for every group it is applied to here.
"""

import random
import time

import pytest

from logk3 import subgroups
from logk3.lattice import build_picard_lattice
from logk3.subgroups import (
    DeadlineExceeded,
    SampleError,
    TierExceeded,
    _Enumerator,
    closure_indices,
    closure_of_perms,
    enumerate_subgroup_classes,
    sample_subgroups,
)
from logk3.weyl import PermGroupTable, perm_order, weyl_group


def perm_from_cycles(npts, *cycles):
    out = list(range(npts))
    for cycle in cycles:
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            out[a] = b
    return bytes(out)


def symmetric_group(n):
    gens = [perm_from_cycles(n, (0, 1))]
    if n > 2:
        gens.append(perm_from_cycles(n, tuple(range(n))))
    return PermGroupTable(gens)


def cyclic_group(*cycle_lengths):
    npts = sum(cycle_lengths)
    start = 0
    cycles = []
    for length in cycle_lengths:
        cycles.append(tuple(range(start, start + length)))
        start += length
    return PermGroupTable([perm_from_cycles(npts, *cycles)])


# ── independent oracle ───────────────────────────────────────────────────────


def brute_force_subgroups(group):
    """Every subgroup as a frozenset, via closures of all 1- and 2-subsets."""
    n = group.order
    found = {frozenset([0])}
    for i in range(n):
        found.add(frozenset(closure_indices(group, (i,))))
    for i in range(1, n):
        for j in range(i + 1, n):
            found.add(frozenset(closure_indices(group, (i, j))))
    return found


def brute_force_classes(group):
    """Partition the subgroup set into conjugacy orbits, return orbit lists."""
    subgroups = brute_force_subgroups(group)
    remaining = set(subgroups)
    orbits = []
    while remaining:
        seed = remaining.pop()
        orbit = {seed}
        frontier = [seed]
        while frontier:
            current = frontier.pop()
            for g in range(group.order):
                ginv = group.inverse(g)
                image = frozenset(
                    group.mult(g, group.mult(x, ginv)) for x in current
                )
                if image not in orbit:
                    orbit.add(image)
                    frontier.append(image)
        remaining -= orbit
        orbits.append(orbit)
    return orbits


EXPECTED = {
    # (class count, total subgroup count)
    "S3": (4, 6),
    "S4": (11, 30),
    "S5": (19, 156),
    "C6": (4, 4),
}


@pytest.mark.parametrize("name", list(EXPECTED))
def test_class_counts_match_oracle(name):
    if name == "C6":
        group = cyclic_group(2, 3)
    else:
        group = symmetric_group(int(name[1]))
    classes = enumerate_subgroup_classes(group)
    orbits = brute_force_classes(group)
    want_classes, want_total = EXPECTED[name]
    assert len(classes) == want_classes == len(orbits)
    assert sum(len(o) for o in orbits) == want_total

    by_element_set = {frozenset(c.element_set): c for c in classes}
    for orbit in orbits:
        # exactly one enumerated representative per brute-force orbit,
        # carrying the right order, and it is the orbit's smallest member
        reps = [by_element_set[s] for s in orbit if s in by_element_set]
        assert len(reps) == 1
        assert reps[0].order == len(next(iter(orbit)))
        assert reps[0].element_set == min(tuple(sorted(s)) for s in orbit)


def test_classes_are_sorted_and_canonical():
    group = symmetric_group(4)
    classes = enumerate_subgroup_classes(group)
    keys = [(c.order, c.element_set) for c in classes]
    assert keys == sorted(keys)
    for c in classes:
        assert c.element_set == tuple(sorted(c.element_set))
        assert c.order == len(c.element_set)
        assert c.element_set[0] == 0
        assert group.order % c.order == 0
        # stated generators really generate the stored subgroup
        assert closure_indices(group, c.generators) == c.element_set


def test_fingerprint_is_conjugation_invariant():
    group = symmetric_group(5)
    classes = enumerate_subgroup_classes(group)
    # the enumerator's own class lookup: register walks each class's whole
    # conjugation orbit, so every conjugate is found under the class's id
    enum = _Enumerator(group)
    ids = [enum.register(cls.element_set) for cls in classes]
    assert [new for _, new in ids] == [True] * len(classes)
    assert enum.records == [cls.element_set for cls in classes]
    rng = random.Random(9)
    for _ in range(20):
        k = rng.randrange(len(classes))
        g = rng.randrange(group.order)
        ginv = group.inverse(g)
        conjugated = tuple(
            sorted(group.mult(g, group.mult(x, ginv)) for x in classes[k].element_set)
        )
        assert enum.lookup(conjugated) == ids[k][0]
        assert enum.register(conjugated) == (ids[k][0], False)


def test_plain_and_normalizer_paths_agree(monkeypatch):
    for group in (symmetric_group(4), symmetric_group(5)):
        monkeypatch.setattr(subgroups, "DOUBLE_COSET_THRESHOLD", 10**9)
        plain = enumerate_subgroup_classes(group)
        monkeypatch.setattr(subgroups, "DOUBLE_COSET_THRESHOLD", 0)
        reduced = enumerate_subgroup_classes(group)
        assert plain == reduced


def test_parallel_equals_serial(monkeypatch):
    # under the threshold S5 (order 120) would never fork; the forked
    # workers inherit the patched value
    monkeypatch.setattr(subgroups, "DOUBLE_COSET_THRESHOLD", 50)
    group = symmetric_group(5)
    serial = enumerate_subgroup_classes(group, jobs=1)
    twice = enumerate_subgroup_classes(group, jobs=2)
    assert serial == twice



def check_coset_closure(group, samples=None, seed=0):
    """The coset closure of each representative/candidate pair the
    enumeration extends against the element closure: the same sorted set,
    and None exactly when the element closure is the whole group."""
    enum = _Enumerator(group)
    pairs = []
    for cls in enumerate_subgroup_classes(group):
        if cls.order < group.order:
            cosets = enum.right_cosets(cls.element_set)
            for g in enum.extension_candidates(cosets, cls.generators):
                pairs.append((cosets, cls.generators + (g,)))
    if samples is not None:
        pairs = random.Random(seed).sample(pairs, samples)
    outcomes = set()
    for cosets, gens in pairs:
        want = closure_indices(group, gens)
        got = enum.coset_closure(cosets, gens)
        if len(want) == group.order:
            assert got is None
        else:
            assert got == want
        outcomes.add(got is None)
    # both the early stop and proper closures were exercised
    assert outcomes == {True, False}


def test_coset_closure_matches_element_closure(monkeypatch):
    for threshold in (10**9, 0):
        monkeypatch.setattr(subgroups, "DOUBLE_COSET_THRESHOLD", threshold)
        for group in (symmetric_group(4), symmetric_group(5)):
            check_coset_closure(group)


def test_coset_closure_on_weyl_degree4_sample():
    # W(D5), order 1920, extends by normalizer orbits of double cosets
    group = weyl_group(build_picard_lattice(4))
    check_coset_closure(group, samples=400, seed=4)

def test_weyl_degree6_classes():
    group = weyl_group(build_picard_lattice(6))
    classes = enumerate_subgroup_classes(group)
    assert len(classes) == 10
    # W(A2xA1) = S3 x C2 has 16 subgroups, all 2-generated
    orbits = brute_force_classes(group)
    assert len(orbits) == 10
    assert sum(len(o) for o in orbits) == 16
    orders = sorted(c.order for c in classes)
    assert orders == [1, 2, 2, 2, 3, 4, 6, 6, 6, 12]


def test_element_classes():
    group = weyl_group(build_picard_lattice(6))
    enum = _Enumerator(group)
    ids = enum.element_classes()
    # class function: order is constant on classes
    for x in range(group.order):
        for y in range(group.order):
            if ids[x] == ids[y]:
                assert perm_order(group.elements[x]) == perm_order(group.elements[y])
    # W(A2xA1) = S3 x C2 has 6 conjugacy classes, one cyclic seed each
    assert len(set(ids)) == 6
    assert len(enum.cyclic_seeds()) == 6


def test_weyl_degree5_matches_s5():
    group = weyl_group(build_picard_lattice(5))
    classes = enumerate_subgroup_classes(group)
    against = enumerate_subgroup_classes(symmetric_group(5))
    assert len(classes) == len(against) == 19
    assert sorted(c.order for c in classes) == sorted(c.order for c in against)


class RecordingCheckpoint:
    def __init__(self, initial=None):
        self.initial = initial
        self.saved = []

    def load(self):
        return self.initial

    def save(self, state):
        self.saved.append(state)


def test_checkpoint_resume_gives_identical_result():
    group = symmetric_group(5)
    recorder = RecordingCheckpoint()
    full = enumerate_subgroup_classes(group, checkpoint=recorder)
    assert recorder.saved, "no layer snapshots were taken"
    # resume from the earliest snapshot and from the latest
    for state in (recorder.saved[0], recorder.saved[-1]):
        resumed = enumerate_subgroup_classes(
            group, checkpoint=RecordingCheckpoint(initial=state)
        )
        assert resumed == full
    # a snapshot for a different parent is ignored, not misapplied
    foreign = dict(recorder.saved[0], order=7)
    assert enumerate_subgroup_classes(
        group, checkpoint=RecordingCheckpoint(initial=foreign)
    ) == full


def test_budget_refusal_reports_progress():
    group = symmetric_group(5)
    with pytest.raises(DeadlineExceeded) as info:
        enumerate_subgroup_classes(group, budget_seconds=0.0)
    assert info.value.classes_found > 0
    assert info.value.layers_completed == 0


def test_budget_refusal_in_forked_workers():
    group = weyl_group(build_picard_lattice(3))
    start = time.monotonic()
    with pytest.raises(DeadlineExceeded):
        enumerate_subgroup_classes(
            group, tier="extended", jobs=2, budget_seconds=1
        )
    assert time.monotonic() - start < 20


def test_tier_refusal():
    group = cyclic_group(128, 127)  # order 16256
    assert group.order == 16256
    with pytest.raises(TierExceeded):
        enumerate_subgroup_classes(group)
    with pytest.raises(ValueError):
        enumerate_subgroup_classes(group, tier="warp")


def test_closure_of_perms():
    three_cycle = bytes((1, 2, 0))
    closed = closure_of_perms([three_cycle])
    assert len(closed) == 3
    assert closure_of_perms([three_cycle], cap=2) is None


def test_sample_subgroups_deterministic():
    first = sample_subgroups(2, count=6, seed=42)
    second = sample_subgroups(2, count=6, seed=42)
    assert [s.ident for s in first] == [s.ident for s in second]
    assert [s.order for s in first] == [s.order for s in second]
    other = sample_subgroups(2, count=6, seed=43)
    assert [s.ident for s in first] != [s.ident for s in other]
    for s in first:
        assert s.degree_label == "2"
        assert 1 <= s.order <= 5000
        assert s.generator_matrices


def test_sample_subgroups_orders_close():
    lat = build_picard_lattice(2)
    lines = lat.lines()
    line_index = {line: k for k, line in enumerate(lines)}
    for s in sample_subgroups(2, count=4, seed=7):
        perms = []
        for m in s.generator_matrices:
            img = bytearray(len(lines))
            for k, line in enumerate(lines):
                image = tuple(
                    sum(m[i][j] * line[j] for j in range(lat.rank))
                    for i in range(lat.rank)
                )
                img[k] = line_index[image]
            perms.append(bytes(img))
        closed = closure_of_perms(perms)
        assert len(closed) == s.order


def test_sample_subgroups_rejects_enumerv_degrees():
    with pytest.raises(ValueError):
        sample_subgroups(6, count=1, seed=0)


def test_sample_retry_exhaustion(monkeypatch):
    # an order cap of 1 rejects everything except the trivial closure
    monkeypatch.setattr(subgroups, "SAMPLE_ORDER_CAP", 1)
    monkeypatch.setattr(subgroups, "SAMPLE_RETRY_FACTOR", 2)
    with pytest.raises(SampleError, match="drew 6 candidates"):
        sample_subgroups(2, count=3, seed=0)
