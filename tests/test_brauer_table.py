"""Cohomology pair tables, the induced-map lemma, and order bounds."""

import random

import pytest

from logk3 import brauer_table
from logk3.brauer_table import (
    BrauerTable,
    TableRow,
    analyze_degree,
    analyze_subgroup,
    class_ident,
    compute_table,
    degree_context,
    diff_against_expected,
    expected_table,
    table_csv,
    table_from_json_dict,
    table_text,
    verify_lemma_properties,
    verify_prop_bounds,
)
from logk3.cache import canonical_json
from logk3.subgroups import TierExceeded, enumerate_subgroup_classes
from logk3.zcohomology import AbelianGroupStructure, mat_mul, solve_exact, identity_matrix

FAST_DEGREES = ["8b", "7", "6", "5"]


@pytest.mark.parametrize("degree", FAST_DEGREES)
def test_table_matches_reference_fast(degree):
    table = compute_table(degree)
    assert diff_against_expected(table) == []


def test_table_matches_reference_degree4():
    table = compute_table(4)
    assert diff_against_expected(table) == []
    assert table.class_count == 197
    # the three lattice-side structures of the degree-4 block
    assert sorted(r.brx.invariant_factors for r in table.rows) == [
        (),
        (2,),
        (2, 2),
    ]


def test_expected_table_covers_all_tabulated_degrees():
    fixture = expected_table()
    assert set(fixture) == {"2", "3", "4", "5", "6", "7", "8b"}
    for label, table in fixture.items():
        assert table.tier == "fixture"
        assert table.degree_label == label
        # orders on the quotient side are multiples of the lattice side
        for row in table.rows:
            for s in row.bru_possibilities:
                assert s.order % row.brx.order == 0


def test_degree2_reference_block_shape():
    block = expected_table()["2"]
    assert len(block.rows) == 13
    max_order = max(s.order for r in block.rows for s in r.bru_possibilities)
    assert max_order == 128


def test_diff_reports_mismatches():
    table = compute_table(6)
    tampered = BrauerTable(
        degree_label=table.degree_label,
        tier=table.tier,
        class_count=table.class_count,
        rows=table.rows[:-1]
        + (
            TableRow(
                brx=AbelianGroupStructure((2,)),
                bru_possibilities=(AbelianGroupStructure((2, 2)),),
                realizing=(),
            ),
        ),
    )
    assert diff_against_expected(tampered) != []


def test_table_row_validates_order_multiples():
    with pytest.raises(ValueError):
        TableRow(
            brx=AbelianGroupStructure((2,)),
            bru_possibilities=(AbelianGroupStructure((3,)),),
            realizing=(),
        )
    with pytest.raises(ValueError):
        TableRow(brx=AbelianGroupStructure(), bru_possibilities=(), realizing=())


def test_compute_table_tier_refusals():
    with pytest.raises(TierExceeded):
        compute_table(2)  # needs stretch
    with pytest.raises(TierExceeded):
        compute_table(3)  # needs extended
    with pytest.raises(ValueError):
        compute_table(1)  # never tabulated


def test_degree_context_rejects_degree_one():
    with pytest.raises(ValueError):
        degree_context(1)


def test_tier_refused_before_group_is_built(monkeypatch):
    def no_group(lattice):
        raise AssertionError("the Weyl group was built")

    monkeypatch.setattr(brauer_table, "weyl_group", no_group)
    with pytest.raises(TierExceeded, match="stretch"):
        analyze_degree(2)
    with pytest.raises(TierExceeded, match="extended"):
        analyze_degree(3)
    with pytest.raises(ValueError):
        analyze_degree(1)
    with pytest.raises(ValueError):
        analyze_degree(5, tier="no-such-tier")


@pytest.mark.parametrize("degree", ["8b", "7", "6", "5", "4"])
def test_lemma_enumerated_degrees(degree):
    report = verify_lemma_properties(degree)
    assert report.source == "enumerated"
    assert report.all_injective
    assert report.all_exponents_divide
    assert report.all_sections_ok
    for r in report.records:
        # injectivity makes the quotient-side order exactly split
        assert r.bru.order == r.brx.order * r.coker.order
        assert r.coker_exponent == r.coker.exponent
        assert r.delta >= 1


def test_lemma_sampled_degrees():
    for degree, seed in (("1", 11), ("2", 12)):
        report = verify_lemma_properties(degree, samples=12, seed=seed)
        assert report.source == "sampled"
        assert len(report.records) == 12
        assert report.all_injective
        assert report.all_exponents_divide
        assert report.all_sections_ok


def test_lemma_report_json_shape():
    report = verify_lemma_properties(7)
    data = report.as_json_dict()
    assert data["degree"] == "7"
    assert data["count"] == len(report.records) == 2
    assert all(set(r) >= {"ident", "order", "brx", "bru"} for r in data["records"])


def test_analysis_conjugation_invariant():
    ctx = degree_context(5)
    classes = enumerate_subgroup_classes(ctx.group)
    rng = random.Random(17)
    for _ in range(6):
        cls = rng.choice(classes)
        mats = tuple(ctx.group.matrix_of(i) for i in cls.generators)
        g = ctx.group.matrix_of(rng.randrange(ctx.group.order))
        ginv = solve_exact(g, identity_matrix(ctx.lattice.rank))
        conj = tuple(mat_mul(g, mat_mul(m, ginv)) for m in mats)
        base = analyze_subgroup(ctx.lattice, ctx.quotient, mats, cls.order, "a")
        moved = analyze_subgroup(ctx.lattice, ctx.quotient, conj, cls.order, "b")
        assert base.brx == moved.brx
        assert base.bru == moved.bru
        assert base.injective == moved.injective
        assert base.delta == moved.delta


def test_row_for_subgroup_lands_in_table():
    ctx = degree_context(6)
    table = compute_table(6)
    mapping = table.mapping()
    for cls in enumerate_subgroup_classes(ctx.group):
        analysis = brauer_table._analyze_class(ctx, cls)
        assert analysis.bru.invariant_factors in mapping[analysis.brx.invariant_factors]


def test_class_ident_shape():
    ctx = degree_context(7)
    classes = enumerate_subgroup_classes(ctx.group)
    idents = {class_ident(c) for c in classes}
    assert len(idents) == len(classes)
    for ident in idents:
        assert len(ident) == 16
        int(ident, 16)


def test_prop_bounds_report():
    tables = [compute_table(d) for d in ("8b", "7", "6", "5", "4")]
    report = verify_prop_bounds(tables)
    assert report.bru_within_256
    assert report.brx_within_64
    assert report.max_bru_order == 16  # largest quotient-side order at d >= 4
    assert report.max_brx_order == 4
    assert dict((d, (x, u)) for d, x, u in report.per_degree)["5"] == (1, 5)
    # the reference degree-3 and degree-2 blocks stay within the bounds too
    fixture = expected_table()
    full = verify_prop_bounds([fixture["3"], fixture["2"]])
    assert full.bru_within_256
    assert full.brx_within_64


def test_table_json_round_trip():
    for degree in ("6", "4"):
        table = compute_table(degree)
        data = table.as_json_dict()
        rebuilt = table_from_json_dict(data)
        assert rebuilt == table
        assert canonical_json(rebuilt.as_json_dict()) == canonical_json(data)


def test_render_formats():
    table = compute_table(6)
    text = table_text(table)
    assert text.splitlines()[0].startswith("degree 6")
    assert "1  1  2  3  6" in text.replace("   ", "  ")
    csv = table_csv(table)
    assert csv.splitlines()[0] == "degree,brx,bru"
    assert "6,1,6" in csv
