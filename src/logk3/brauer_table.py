"""Cohomology pairs over all subgroup classes, aggregated into a table.

For a degree's Picard lattice and each conjugacy class of subgroups G of
its Weyl group, compute H¹(G, Pic) and H¹(G, Pic/ZK) and aggregate the
pairs by the first entry.  The same per-subgroup analysis also carries the
injectivity and δ-divisibility checks for the induced map between the two
cohomology groups, and the bound checks on the resulting group orders.
"""

from __future__ import annotations

from dataclasses import dataclass
from hashlib import blake2b

from .lattice import (
    PicardLattice,
    QuotientPresentation,
    build_picard_lattice,
    normalize_degree,
)
from .subgroups import (
    TIER_LIMITS,
    SubgroupClass,
    TierExceeded,
    enumerate_subgroup_classes,
    sample_subgroups,
)
from .weyl import Matrix, MatrixGroup, weyl_group
from .zcohomology import (
    AbelianGroupStructure,
    GModule,
    Vector,
    h1,
    h1_induced_map,
    mat_vec,
    structure_sort_key,
)

# tiers from the cheapest up; a tier admits every degree of a cheaper one
TIERS = tuple(TIER_LIMITS)
# the tier each tabulated degree needs; degree 1 is sampled, never tabulated
DEGREE_TIER = {
    "8b": "exhaustive",
    "7": "exhaustive",
    "6": "exhaustive",
    "5": "exhaustive",
    "4": "exhaustive",
    "3": "extended",
    "2": "stretch",
}


@dataclass(frozen=True)
class DegreeContext:
    """Lattice, quotient presentation and Weyl group for one degree."""

    lattice: PicardLattice
    quotient: QuotientPresentation
    group: MatrixGroup


def tier_admits(tier: str, degree_label: str) -> bool:
    """Whether ``tier`` covers the enumeration of a tabulated degree."""
    if tier not in TIER_LIMITS:
        raise ValueError(f"unknown tier {tier!r}")
    required = DEGREE_TIER.get(degree_label)
    if required is None:
        raise ValueError(
            f"degree {degree_label} has no table: its Weyl group is never "
            "enumerated; use sampling"
        )
    return TIERS.index(tier) >= TIERS.index(required)


def degree_context(degree_spec, tier: str = "exhaustive") -> DegreeContext:
    """The degree's context, refused before anything is built when ``tier``
    does not cover the degree."""
    label = normalize_degree(degree_spec)
    if not tier_admits(tier, label):
        raise TierExceeded(
            f"degree {label} needs the {DEGREE_TIER[label]} tier, got {tier}"
        )
    lattice = build_picard_lattice(label)
    return DegreeContext(
        lattice=lattice,
        quotient=lattice.quotient_mod_canonical(),
        group=weyl_group(lattice),
    )


@dataclass(frozen=True)
class SubgroupAnalysis:
    """Cohomology pair and induced-map diagnostics for one subgroup."""

    ident: str
    order: int
    brx: AbelianGroupStructure
    bru: AbelianGroupStructure
    injective: bool
    coker: AbelianGroupStructure
    coker_exponent: int
    delta: int
    exponent_divides: bool
    section_multiple: int
    section_ok: bool


def class_ident(cls: SubgroupClass) -> str:
    packed = ",".join(map(str, cls.element_set)).encode()
    return blake2b(packed, digest_size=8).hexdigest()


def _bezout_combination(values: list[int]) -> tuple[int, list[int]]:
    """gcd of the values with certifying coefficients, by folding."""
    g = 0
    coeffs: list[int] = []
    for v in values:
        if g == 0:
            coeffs = [0] * len(coeffs) + [1 if v >= 0 else -1]
            g = abs(v)
            continue
        old_r, r = g, v
        old_x, x = 1, 0
        while r:
            q = old_r // r
            old_r, r = r, old_r - q * r
            old_x, x = x, old_x - q * x
        # old_x*g + y*v = old_r with y recovered from the identity
        y = (old_r - old_x * g) // v if v else 0
        if old_r < 0:
            old_x, y, old_r = -old_x, -y, -old_r
        coeffs = [c * old_x for c in coeffs] + [y]
        g = old_r
    return g, coeffs


def analyze_subgroup(
    lattice: PicardLattice,
    quotient: QuotientPresentation,
    generator_matrices: tuple[Matrix, ...],
    order: int,
    ident: str,
) -> SubgroupAnalysis:
    """Cohomology pair plus injectivity/δ checks for one subgroup."""
    modx = GModule(lattice.rank, generator_matrices)
    modu = GModule(
        lattice.rank - 1,
        tuple(quotient.push(g) for g in generator_matrices),
    )
    hx = h1(modx, order)
    hu = h1(modu, order)
    induced = h1_induced_map(hx, hu, quotient.projection)
    coker = induced.cokernel()
    injective = induced.is_injective(coker)
    delta = lattice.delta_invariant(hx.fixed_basis)

    pairings = [lattice.intersect(b, lattice.canonical) for b in hx.fixed_basis]
    g, coeffs = _bezout_combination(pairings)
    fixed_combo: Vector = tuple(
        sum(c * b[i] for c, b in zip(coeffs, hx.fixed_basis))
        for i in range(lattice.rank)
    )
    section_multiple = abs(lattice.intersect(fixed_combo, lattice.canonical))
    stays_fixed = all(
        mat_vec(m, fixed_combo) == fixed_combo for m in generator_matrices
    )
    section_ok = g == delta and section_multiple == delta and stays_fixed

    return SubgroupAnalysis(
        ident=ident,
        order=order,
        brx=hx.structure,
        bru=hu.structure,
        injective=injective,
        coker=coker,
        coker_exponent=coker.exponent,
        delta=delta,
        exponent_divides=delta % coker.exponent == 0,
        section_multiple=section_multiple,
        section_ok=section_ok,
    )


def _analyze_class(ctx: DegreeContext, cls: SubgroupClass) -> SubgroupAnalysis:
    mats = tuple(ctx.group.matrix_of(i) for i in cls.generators)
    return analyze_subgroup(
        ctx.lattice, ctx.quotient, mats, cls.order, class_ident(cls)
    )


# ── aggregation ─────────────────────────────────────────────────────────────


@dataclass(frozen=True)
class TableRow:
    """All quotient-side structures seen for one lattice-side structure."""

    brx: AbelianGroupStructure
    bru_possibilities: tuple[AbelianGroupStructure, ...]
    realizing: tuple[tuple[str, tuple[str, ...]], ...]

    def __post_init__(self) -> None:
        if not self.bru_possibilities:
            raise ValueError("a row must list at least one possibility")
        for s in self.bru_possibilities:
            if s.order % self.brx.order:
                raise ValueError(
                    f"{s} cannot pair with {self.brx}: order not a multiple"
                )


@dataclass(frozen=True)
class BrauerTable:
    degree_label: str
    tier: str
    class_count: int
    rows: tuple[TableRow, ...]

    def mapping(self) -> dict[tuple[int, ...], frozenset[tuple[int, ...]]]:
        """Row content as plain invariant-factor tuples, for comparisons."""
        return {
            row.brx.invariant_factors: frozenset(
                s.invariant_factors for s in row.bru_possibilities
            )
            for row in self.rows
        }

    def as_json_dict(self) -> dict:
        return {
            "degree": self.degree_label,
            "tier": self.tier,
            "class_count": self.class_count,
            "rows": [
                {
                    "brx": list(row.brx.invariant_factors),
                    "bru_possibilities": [
                        list(s.invariant_factors)
                        for s in row.bru_possibilities
                    ],
                    "realizing": {
                        label: list(idents) for label, idents in row.realizing
                    },
                }
                for row in self.rows
            ],
        }


def table_from_json_dict(data: dict) -> BrauerTable:
    """Rebuild a table from its JSON form (the cache round-trip inverse)."""
    rows = []
    for row in data["rows"]:
        options = tuple(
            AbelianGroupStructure(tuple(f)) for f in row["bru_possibilities"]
        )
        # JSON objects do not carry order; realign with the possibility list
        realizing_map = row.get("realizing", {})
        realizing = tuple(
            (str(s), tuple(realizing_map[str(s)]))
            for s in options
            if str(s) in realizing_map
        )
        rows.append(
            TableRow(
                brx=AbelianGroupStructure(tuple(row["brx"])),
                bru_possibilities=options,
                realizing=realizing,
            )
        )
    return BrauerTable(
        degree_label=data["degree"],
        tier=data["tier"],
        class_count=data["class_count"],
        rows=tuple(rows),
    )


def _aggregate(
    degree_label: str, tier: str, analyses: list[SubgroupAnalysis]
) -> BrauerTable:
    buckets: dict = {}
    for a in analyses:
        bucket = buckets.setdefault(a.brx.invariant_factors, {})
        bucket.setdefault(a.bru.invariant_factors, []).append(a.ident)
    rows = []
    for brx_factors in sorted(
        buckets, key=lambda f: (AbelianGroupStructure(f).order, f)
    ):
        bucket = buckets[brx_factors]
        options = sorted(
            (AbelianGroupStructure(f) for f in bucket),
            key=structure_sort_key,
        )
        realizing = tuple(
            (str(s), tuple(sorted(bucket[s.invariant_factors])))
            for s in options
        )
        rows.append(
            TableRow(
                brx=AbelianGroupStructure(brx_factors),
                bru_possibilities=tuple(options),
                realizing=realizing,
            )
        )
    return BrauerTable(
        degree_label=degree_label,
        tier=tier,
        class_count=len(analyses),
        rows=tuple(rows),
    )


def analyze_degree(
    degree_spec,
    tier: str = "exhaustive",
    jobs: int = 1,
    budget_seconds: float | None = None,
    checkpoint=None,
) -> "tuple[BrauerTable, LemmaReport]":
    """Enumerate one degree once, returning the table and the lemma report.

    The tier is checked before any lattice or group is built: a degree the
    tier does not cover raises TierExceeded, an untabulated one (degree 1)
    ValueError.  ``jobs`` parallelises the subgroup enumeration, which
    dominates the cost; the classes are then analysed in this process.
    Callers needing both views should take them from a single call.
    """
    ctx = degree_context(degree_spec, tier)
    classes = enumerate_subgroup_classes(
        ctx.group,
        tier=tier,
        jobs=jobs,
        budget_seconds=budget_seconds,
        checkpoint=checkpoint,
    )
    analyses = [_analyze_class(ctx, cls) for cls in classes]
    table = _aggregate(ctx.lattice.degree_label, tier, analyses)
    report = LemmaReport(ctx.lattice.degree_label, "enumerated", tuple(analyses))
    return table, report


def compute_table(
    degree_spec,
    tier: str = "exhaustive",
    jobs: int = 1,
    budget_seconds: float | None = None,
    checkpoint=None,
) -> BrauerTable:
    """Aggregate the cohomology pair over every subgroup class of a degree."""
    return analyze_degree(degree_spec, tier, jobs, budget_seconds, checkpoint)[0]


# ── induced-map property report ─────────────────────────────────────────────


@dataclass(frozen=True)
class LemmaReport:
    """Per-subgroup induced-map diagnostics for one degree."""

    degree_label: str
    source: str  # "enumerated" or "sampled"
    records: tuple[SubgroupAnalysis, ...]

    @property
    def all_injective(self) -> bool:
        return all(r.injective for r in self.records)

    @property
    def all_exponents_divide(self) -> bool:
        return all(r.exponent_divides for r in self.records)

    @property
    def all_sections_ok(self) -> bool:
        return all(r.section_ok for r in self.records)

    def as_json_dict(self) -> dict:
        return {
            "degree": self.degree_label,
            "source": self.source,
            "count": len(self.records),
            "all_injective": self.all_injective,
            "all_exponents_divide": self.all_exponents_divide,
            "all_sections_ok": self.all_sections_ok,
            "records": [
                {
                    "ident": r.ident,
                    "order": r.order,
                    "brx": list(r.brx.invariant_factors),
                    "bru": list(r.bru.invariant_factors),
                    "injective": r.injective,
                    "coker_exponent": r.coker_exponent,
                    "delta": r.delta,
                    "exponent_divides": r.exponent_divides,
                    "section_ok": r.section_ok,
                }
                for r in self.records
            ],
        }


def verify_lemma_properties(
    degree_spec,
    tier: str = "exhaustive",
    jobs: int = 1,
    samples: int | None = None,
    seed: int = 0,
) -> LemmaReport:
    """Injectivity and δ-divisibility of the induced map, per subgroup.

    Degrees whose Weyl group is enumerated are checked over every class;
    degrees 1 and 2 fall back to seeded random reflection subgroups unless
    the caller forces enumeration by passing a sufficient tier (degree 2).
    """
    lattice = build_picard_lattice(degree_spec)
    label = lattice.degree_label
    sampled = samples is not None or label == "1" or (
        label == "2" and not tier_admits(tier, label)
    )
    if sampled:
        quotient = lattice.quotient_mod_canonical()
        count = samples if samples is not None else 200
        records = []
        for s in sample_subgroups(label, count, seed):
            records.append(
                analyze_subgroup(
                    lattice, quotient, s.generator_matrices, s.order, s.ident
                )
            )
        return LemmaReport(label, "sampled", tuple(records))
    return analyze_degree(degree_spec, tier=tier, jobs=jobs)[1]


# ── reference fixture ───────────────────────────────────────────────────────

_FIXTURE: dict[str, dict[tuple[int, ...], tuple[tuple[int, ...], ...]]] = {
    "8b": {(): ((),)},
    "7": {(): ((),)},
    "6": {(): ((), (2,), (3,), (6,))},
    "5": {(): ((), (5,))},
    "4": {
        (): ((), (2,), (2, 2), (2, 2, 2), (2, 2, 2, 2), (4,), (2, 4)),
        (2,): ((2,), (2, 2), (2, 2, 2), (2, 2, 2, 2), (2, 4)),
        (2, 2): ((2, 2, 2), (2, 2, 2, 2), (2, 2, 4)),
    },
    "3": {
        (): ((), (3,), (3, 3)),
        (2,): ((2,), (6,)),
        (2, 2): ((2, 2), (2, 6)),
        (3,): ((3,), (3, 3)),
        (3, 3): ((3, 3, 3),),
    },
    "2": {
        (): ((), (2,)),
        (2,): ((2,), (2, 2), (2, 4), (4,)),
        (2, 2): ((2, 2), (2, 2, 2), (2, 4), (2, 2, 4), (4, 4)),
        (2, 2, 2): ((2, 2, 2), (2, 2, 2, 2), (2, 2, 4)),
        (2, 2, 2, 2): ((2, 2, 2, 2), (2, 2, 2, 2, 2), (2, 2, 2, 4)),
        (2, 2, 2, 2, 2): ((2, 2, 2, 2, 2, 2),),
        (2, 2, 2, 2, 2, 2): ((2, 2, 2, 2, 2, 2, 2),),
        (3,): ((3,), (6,)),
        (3, 3): ((3, 3), (3, 6)),
        (2, 4): ((2, 4), (2, 2, 4), (4, 4)),
        (2, 2, 4): ((2, 2, 4), (2, 2, 2, 4)),
        (4,): ((2, 4), (4,)),
        (4, 4): ((2, 4, 4),),
    },
}


def expected_table() -> dict[str, BrauerTable]:
    """The reference table of possible structure pairs, one entry per degree."""
    out = {}
    for label, block in _FIXTURE.items():
        rows = []
        for brx_factors in sorted(
            block, key=lambda f: (AbelianGroupStructure(f).order, f)
        ):
            options = tuple(
                sorted(
                    (AbelianGroupStructure(f) for f in block[brx_factors]),
                    key=structure_sort_key,
                )
            )
            rows.append(
                TableRow(
                    brx=AbelianGroupStructure(brx_factors),
                    bru_possibilities=options,
                    realizing=(),
                )
            )
        out[label] = BrauerTable(
            degree_label=label,
            tier="fixture",
            class_count=0,
            rows=tuple(rows),
        )
    return out


def diff_against_expected(table: BrauerTable) -> list[str]:
    """Human-readable mismatches between a computed table and the fixture."""
    fixture = expected_table().get(table.degree_label)
    if fixture is None:
        return [f"no reference block for degree {table.degree_label}"]
    got = table.mapping()
    want = fixture.mapping()
    problems = []
    for key in sorted(set(got) | set(want)):
        brx = AbelianGroupStructure(key)
        if key not in want:
            problems.append(f"unexpected row {brx}")
        elif key not in got:
            problems.append(f"missing row {brx}")
        elif got[key] != want[key]:
            got_s = sorted(str(AbelianGroupStructure(f)) for f in got[key])
            want_s = sorted(str(AbelianGroupStructure(f)) for f in want[key])
            problems.append(f"row {brx}: computed {got_s}, reference {want_s}")
    return problems


# ── order bound report ──────────────────────────────────────────────────────


@dataclass(frozen=True)
class BoundReport:
    """Maximal group orders over a set of computed tables."""

    max_bru_order: int
    max_brx_order: int
    bru_within_256: bool
    brx_within_64: bool
    per_degree: tuple[tuple[str, int, int], ...]

    def as_json_dict(self) -> dict:
        return {
            "max_bru_order": self.max_bru_order,
            "max_brx_order": self.max_brx_order,
            "bru_within_256": self.bru_within_256,
            "brx_within_64": self.brx_within_64,
            "per_degree": [
                {"degree": d, "max_brx": x, "max_bru": u}
                for d, x, u in self.per_degree
            ],
        }


def verify_prop_bounds(tables) -> BoundReport:
    """Order bounds over computed tables: quotient side 256, lattice side 64."""
    per_degree = []
    max_bru = 1
    max_brx = 1
    for table in tables:
        deg_brx = max((r.brx.order for r in table.rows), default=1)
        deg_bru = max(
            (s.order for r in table.rows for s in r.bru_possibilities),
            default=1,
        )
        per_degree.append((table.degree_label, deg_brx, deg_bru))
        max_brx = max(max_brx, deg_brx)
        max_bru = max(max_bru, deg_bru)
    return BoundReport(
        max_bru_order=max_bru,
        max_brx_order=max_brx,
        bru_within_256=max_bru <= 256,
        brx_within_64=max_brx <= 64,
        per_degree=tuple(per_degree),
    )


# ── rendering ───────────────────────────────────────────────────────────────


def table_text(table: BrauerTable) -> str:
    lines = [
        f"degree {table.degree_label}  "
        f"(tier {table.tier}, {table.class_count} subgroup classes)"
    ]
    width = max((len(str(r.brx)) for r in table.rows), default=1)
    for row in table.rows:
        options = "  ".join(str(s) for s in row.bru_possibilities)
        lines.append(f"  {str(row.brx):<{width}}  {options}")
    return "\n".join(lines)


def table_csv(table: BrauerTable) -> str:
    lines = ["degree,brx,bru"]
    for row in table.rows:
        for s in row.bru_possibilities:
            lines.append(f"{table.degree_label},{row.brx},{s}")
    return "\n".join(lines)
