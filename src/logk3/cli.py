"""Command-line interface.

Primary output (tables, reports, JSON) goes to stdout and is byte-stable
for identical invocations; timing and progress notes go to stderr.  Exit
codes: 0 success, 1 verification mismatch, 2 usage error, 3 tier or
budget refusal.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import brauer_table as bt
from .bounds import (
    MAX_VALUE_DIGITS,
    BoundConfig,
    FeasibilityError,
    brauer_uniform_bound,
)
from .cache import CacheCheckpoint, ResultCache, canonical_json
from .lattice import build_picard_lattice
from .subgroups import DeadlineExceeded, SampleError, TierExceeded
from .weyl import closure_of_perms, line_permutations, reflection

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_REFUSED = 3

TABLE_DEGREES = ("7", "6", "5", "4", "8b")


def _emit(text: str) -> None:
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")


def _emit_json(payload) -> None:
    _emit(canonical_json(payload))


def _note(message: str) -> None:
    sys.stderr.write(message + "\n")


def _cache_from_args(args) -> ResultCache | None:
    if getattr(args, "no_cache", False):
        return None
    return ResultCache(args.cache_dir)


def _table_for_degree(args, degree, cache: ResultCache | None) -> bt.BrauerTable:
    label = build_picard_lattice(degree).degree_label
    key = None
    if cache is not None:
        key = cache.key("table", degree=label, tier=args.tier)
        stored = cache.get(key)
        if stored is not None:
            _note(f"table degree {label}: cache hit")
            return bt.table_from_json_dict(stored)
    checkpoint = None
    if cache is not None:
        checkpoint = CacheCheckpoint(
            cache, cache.key("enumeration", degree=label, tier=args.tier)
        )
    table = bt.compute_table(
        degree,
        tier=args.tier,
        jobs=args.jobs,
        budget_seconds=args.budget_seconds,
        checkpoint=checkpoint,
    )
    if cache is not None and key is not None:
        cache.put(key, "table", table.as_json_dict())
    return table


def _render_table(table: bt.BrauerTable, fmt: str) -> None:
    if fmt == "json":
        _emit_json(table.as_json_dict())
    elif fmt == "csv":
        _emit(bt.table_csv(table))
    else:
        _emit(bt.table_text(table))


def _cmd_table(args) -> int:
    cache = _cache_from_args(args)
    table = _table_for_degree(args, args.degree, cache)
    _render_table(table, args.format)
    return EXIT_OK


def _cmd_classes(args) -> int:
    """``lines`` and ``roots``: the command names the lattice method."""
    kind = args.command
    lattice = build_picard_lattice(args.degree)
    rows = getattr(lattice, kind)()
    if args.format == "json":
        _emit_json(
            {
                "degree": lattice.degree_label,
                "count": len(rows),
                kind: [list(v) for v in rows],
            }
        )
    else:
        _emit(f"degree {lattice.degree_label}: {len(rows)} {kind}")
        for v in rows:
            _emit("  " + " ".join(f"{x:3d}" for x in v))
    return EXIT_OK


def _parse_root_indices(spec: str, count: int) -> list[int]:
    out = []
    for piece in spec.split(","):
        piece = piece.strip()
        if not piece:
            continue
        idx = int(piece)
        if not 0 <= idx < count:
            raise ValueError(f"root index {idx} out of range 0..{count - 1}")
        out.append(idx)
    if not out:
        raise ValueError("no generators given")
    return out


def _cmd_h1(args) -> int:
    lattice = build_picard_lattice(args.degree)
    roots = lattice.roots()
    try:
        picks = _parse_root_indices(args.subgroup, len(roots))
    except ValueError as err:
        _note(f"bad --subgroup: {err}")
        return EXIT_USAGE
    mats = [reflection(lattice, roots[idx]) for idx in picks]
    closed = closure_of_perms(
        line_permutations(lattice.lines(), mats), cap=args.order_cap
    )
    if closed is None:
        _note(f"subgroup closure exceeded order cap {args.order_cap}")
        return EXIT_REFUSED
    quotient = lattice.quotient_mod_canonical()
    analysis = bt.analyze_subgroup(
        lattice,
        quotient,
        tuple(mats),
        len(closed),
        "roots:" + ",".join(map(str, picks)),
    )
    _emit_json(
        {
            "degree": lattice.degree_label,
            "generator_roots": picks,
            "order": analysis.order,
            "h1_lattice": list(analysis.brx.invariant_factors),
            "h1_quotient": list(analysis.bru.invariant_factors),
            "injective": analysis.injective,
            "coker_exponent": analysis.coker_exponent,
            "delta": analysis.delta,
            "exponent_divides": analysis.exponent_divides,
        }
    )
    return EXIT_OK


def _cmd_verify_lemma(args) -> int:
    report = bt.verify_lemma_properties(
        args.degree,
        tier=args.tier,
        jobs=args.jobs,
        samples=args.samples,
        seed=args.seed,
    )
    ok = (
        report.all_injective
        and report.all_exponents_divide
        and report.all_sections_ok
    )
    if args.format == "json":
        _emit_json(report.as_json_dict())
    else:
        _emit(
            f"degree {report.degree_label} ({report.source}, "
            f"{len(report.records)} subgroups): "
            f"injective {report.all_injective}, "
            f"exponent divides delta {report.all_exponents_divide}, "
            f"section identity {report.all_sections_ok}"
        )
    return EXIT_OK if ok else EXIT_MISMATCH


def _cmd_verify_paper(args) -> int:
    cache = _cache_from_args(args)
    degrees = list(TABLE_DEGREES)
    if bt.TIER_RANK[args.tier] >= bt.TIER_RANK["extended"]:
        degrees.append("3")
    if bt.TIER_RANK[args.tier] >= bt.TIER_RANK["stretch"]:
        degrees.append("2")
    statuses = {}
    tables = []
    failed = False
    pending = []
    for label in sorted(bt.DEGREE_TIER, key=lambda s: (len(s), s)):
        if label not in degrees:
            statuses[label] = "not computed (tier)"
            continue
        try:
            table = _table_for_degree(args, label, cache)
        except (TierExceeded, DeadlineExceeded) as err:
            statuses[label] = f"{bt.DEGREE_TIER[label]} tier pending"
            pending.append(label)
            _note(f"degree {label}: {err}")
            continue
        tables.append(table)
        problems = bt.diff_against_expected(table)
        if problems:
            statuses[label] = "MISMATCH: " + "; ".join(problems)
            failed = True
        else:
            statuses[label] = "match"
    bounds = bt.verify_prop_bounds(tables)
    if not (bounds.bru_within_256 and bounds.brx_within_64):
        failed = True
    payload = {
        "tables": statuses,
        "bounds": bounds.as_json_dict(),
        "ok": not failed,
    }
    if args.format == "json":
        _emit_json(payload)
    else:
        for label in sorted(statuses, key=lambda s: (len(s), s)):
            _emit(f"degree {label}: {statuses[label]}")
        _emit(
            f"max lattice-side order {bounds.max_brx_order} (<= 64: "
            f"{bounds.brx_within_64}), max quotient-side order "
            f"{bounds.max_bru_order} (<= 256: {bounds.bru_within_256})"
        )
        _emit("ok" if not failed else "MISMATCH")
    if failed:
        return EXIT_MISMATCH
    return EXIT_OK


def _cmd_bound(args) -> int:
    config = BoundConfig(
        parent_constant_p2=args.parent_p2,
        parent_constant_p3=args.parent_p3,
    )
    bound = brauer_uniform_bound(args.m, config)
    payload = bound.as_json_dict()
    payload["identity_holds"] = bound.identity_holds()
    if args.evaluate_cap is not None:
        payload["value_with_prime_cap"] = {
            "cap": args.evaluate_cap,
            "torsion": bound.torsion.evaluate(restrict_cap=args.evaluate_cap),
            "bound": bound.evaluate(restrict_cap=args.evaluate_cap),
        }
    _emit_json(payload)
    return EXIT_OK


def _cmd_cache(args) -> int:
    cache = ResultCache(args.cache_dir)
    if args.cache_op == "ls":
        _emit_json(cache.ls())
    else:
        removed = cache.clear()
        _emit_json({"removed": removed})
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="logk3",
        description=(
            "Exact cohomology tables, induced-map checks and effective "
            "bounds for del Pezzo Picard lattices"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, cacheable=True):
        p.add_argument("--format", choices=("text", "json", "csv"), default="text")
        if cacheable:
            p.add_argument("--cache-dir", default=None)
            p.add_argument("--no-cache", action="store_true")
            p.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
            p.add_argument("--budget-seconds", type=float, default=None)

    p_table = sub.add_parser("table", help="cohomology pair table for a degree")
    p_table.add_argument("--degree", required=True)
    p_table.add_argument(
        "--tier", choices=("exhaustive", "extended", "stretch"), default="exhaustive"
    )
    add_common(p_table)
    p_table.set_defaults(func=_cmd_table)

    p_lines = sub.add_parser("lines", help="list the line classes of a degree")
    p_lines.add_argument("--degree", required=True)
    add_common(p_lines, cacheable=False)
    p_lines.set_defaults(func=_cmd_classes)

    p_roots = sub.add_parser("roots", help="list the root classes of a degree")
    p_roots.add_argument("--degree", required=True)
    add_common(p_roots, cacheable=False)
    p_roots.set_defaults(func=_cmd_classes)

    p_h1 = sub.add_parser(
        "h1", help="cohomology of the subgroup generated by root reflections"
    )
    p_h1.add_argument("--degree", required=True)
    p_h1.add_argument(
        "--subgroup",
        required=True,
        help="comma-separated root indices; generators are their reflections",
    )
    p_h1.add_argument("--order-cap", type=int, default=100_000)
    add_common(p_h1, cacheable=False)
    p_h1.set_defaults(func=_cmd_h1)

    p_lemma = sub.add_parser(
        "verify-lemma", help="induced-map injectivity and delta divisibility"
    )
    p_lemma.add_argument("--degree", required=True)
    p_lemma.add_argument("--samples", type=int, default=None)
    p_lemma.add_argument("--seed", type=int, default=0)
    p_lemma.add_argument(
        "--tier", choices=("exhaustive", "extended", "stretch"), default="exhaustive"
    )
    add_common(p_lemma)
    p_lemma.set_defaults(func=_cmd_verify_lemma)

    p_verify = sub.add_parser(
        "verify-paper", help="compare computed tables against the reference"
    )
    p_verify.add_argument(
        "--tier", choices=("exhaustive", "extended", "stretch"), default="exhaustive"
    )
    add_common(p_verify)
    p_verify.set_defaults(func=_cmd_verify_paper)

    p_bound = sub.add_parser("bound", help="uniform bound ingredients for a degree m")
    p_bound.add_argument("-m", type=int, required=True)
    p_bound.add_argument("--parent-p2", type=int, default=None)
    p_bound.add_argument("--parent-p3", type=int, default=None)
    p_bound.add_argument("--evaluate-cap", type=int, default=None)
    add_common(p_bound, cacheable=False)
    p_bound.set_defaults(func=_cmd_bound)

    p_cache = sub.add_parser("cache", help="inspect or clear the result cache")
    p_cache.add_argument("cache_op", choices=("ls", "clear"))
    p_cache.add_argument("--cache-dir", default=None)
    add_common(p_cache, cacheable=False)
    p_cache.set_defaults(func=_cmd_cache)

    return parser


def _report_error(args, err: Exception, code: int) -> int:
    if getattr(args, "format", "text") == "json":
        _note(canonical_json({"error": str(err), "exit_code": code}))
    else:
        _note(str(err))
    return code


def main(argv=None) -> int:
    # every value the bounds module admits must render; the headroom over
    # MAX_VALUE_DIGITS keeps the descriptor's prime cap, which grows with m
    # and is not evaluated, printable up to m of about 17000
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(2 * MAX_VALUE_DIGITS)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (TierExceeded, DeadlineExceeded, SampleError, FeasibilityError) as err:
        return _report_error(args, err, EXIT_REFUSED)
    except ValueError as err:
        return _report_error(args, err, EXIT_USAGE)


if __name__ == "__main__":
    sys.exit(main())
