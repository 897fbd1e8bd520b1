"""End-to-end command-line behaviour: formats, exit codes, cache, determinism."""

import json
import os
import re
import subprocess
import sys
import time

import pytest

from logk3 import cache, cli
from logk3.bounds import TorsionBound, brauer_uniform_bound, torsion_bound
from logk3.lattice import build_picard_lattice

CLI = [sys.executable, "-m", "logk3.cli"]

# bound payloads carry exact integers far beyond the default parse limit
sys.set_int_max_str_digits(2_000_000)


def run_cli(args, cache_dir, check=None):
    env = dict(os.environ, LOGK3_CACHE_DIR=str(cache_dir))
    proc = subprocess.run(
        CLI + args, capture_output=True, text=True, env=env, timeout=600
    )
    if check is not None:
        assert proc.returncode == check, proc.stderr
    return proc


def test_table_text_degree7(tmp_path):
    proc = run_cli(["table", "--degree", "7"], tmp_path, check=0)
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("degree 7")
    assert lines[1].split() == ["1", "1"]


def test_table_json_parses_and_caches(tmp_path):
    cold = run_cli(
        ["table", "--degree", "5", "--format", "json"], tmp_path, check=0
    )
    data = json.loads(cold.stdout)
    assert data["degree"] == "5"
    assert [row["brx"] for row in data["rows"]] == [[]]
    assert sorted(row["bru_possibilities"] for row in data["rows"])[0] == [[], [5]]
    warm = run_cli(
        ["table", "--degree", "5", "--format", "json"], tmp_path, check=0
    )
    assert warm.stdout == cold.stdout
    assert "cache hit" in warm.stderr


def test_cold_runs_are_byte_identical(tmp_path):
    a = run_cli(
        ["table", "--degree", "6", "--format", "json", "--no-cache"],
        tmp_path / "a",
        check=0,
    )
    b = run_cli(
        ["table", "--degree", "6", "--format", "json", "--no-cache"],
        tmp_path / "b",
        check=0,
    )
    assert a.stdout == b.stdout
    assert a.stdout.endswith("\n")


def test_stdout_carries_no_log_noise(tmp_path):
    proc = run_cli(
        ["table", "--degree", "6", "--format", "csv"], tmp_path, check=0
    )
    lines = proc.stdout.splitlines()
    assert lines[0] == "degree,brx,bru"
    assert all(line.count(",") == 2 for line in lines)


def test_usage_errors(tmp_path):
    assert run_cli(["table", "--degree", "9"], tmp_path).returncode == 2
    assert run_cli(["table"], tmp_path).returncode == 2  # argparse: missing flag
    assert run_cli(["no-such-command"], tmp_path).returncode == 2


def test_tier_refusal_exit_code(tmp_path):
    proc = run_cli(["table", "--degree", "2"], tmp_path)
    assert proc.returncode == 3
    assert "stretch" in proc.stderr
    assert proc.stdout == ""


def test_error_is_json_when_asked(tmp_path):
    proc = run_cli(["table", "--degree", "2", "--format", "json"], tmp_path)
    assert proc.returncode == 3
    err = json.loads(proc.stderr.splitlines()[-1])
    assert err["exit_code"] == 3


def test_budget_refusal_exit_code(tmp_path):
    proc = run_cli(
        ["table", "--degree", "4", "--budget-seconds", "0", "--no-cache"],
        tmp_path,
    )
    assert proc.returncode == 3
    # the refusal reports how far the enumeration got: the seed classes
    # (trivial, whole group, one cyclic subgroup per element class), no layer
    progress = re.fullmatch(
        r"subgroup enumeration ran out of time: (\d+) classes found, "
        r"(\d+) layers completed\n",
        proc.stderr,
    )
    assert progress is not None, proc.stderr
    assert int(progress[1]) > 2
    assert int(progress[2]) == 0


def test_failed_cache_write_keeps_the_result(tmp_path, capsys):
    # a directory under a regular file cannot be created, even by root
    blocker = tmp_path / "file"
    blocker.write_text("")
    argv = ["table", "--degree", "7", "--format", "json", "--jobs", "1"]
    assert cli.main(argv + ["--no-cache"]) == 0
    fresh = capsys.readouterr().out
    assert cli.main(argv + ["--cache-dir", str(blocker / "sub")]) == 0
    captured = capsys.readouterr()
    assert captured.out == fresh
    notes = captured.err.splitlines()
    assert len(notes) == 1
    assert notes[0].startswith("table degree 7: cache write failed (")


def test_lines_and_roots(tmp_path):
    proc = run_cli(["lines", "--degree", "3", "--format", "json"], tmp_path, check=0)
    assert json.loads(proc.stdout)["count"] == 27
    proc = run_cli(["roots", "--degree", "3", "--format", "json"], tmp_path, check=0)
    assert json.loads(proc.stdout)["count"] == 72
    proc = run_cli(["lines", "--degree", "7"], tmp_path, check=0)
    assert "3 lines" in proc.stdout


def test_h1_subcommand(tmp_path):
    proc = run_cli(
        ["h1", "--degree", "6", "--subgroup", "0"], tmp_path, check=0
    )
    data = json.loads(proc.stdout)
    assert data["order"] == 2
    assert data["injective"] is True
    bad = run_cli(["h1", "--degree", "6", "--subgroup", "99"], tmp_path)
    assert bad.returncode == 2


def test_h1_orders_the_whole_degree1_weyl_group(capsys):
    lat = build_picard_lattice(1)
    simple = ",".join(str(lat.roots().index(r)) for r in lat.simple_roots())
    h1 = ["h1", "--degree", "1", "--subgroup", simple, "--format", "json"]
    start = time.process_time()
    assert cli.main(h1 + ["--order-cap", "696729600"]) == 0
    assert time.process_time() - start < 1.0
    assert json.loads(capsys.readouterr().out)["order"] == 696729600
    assert cli.main(h1 + ["--order-cap", "696729599"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "subgroup closure exceeded order cap 696729599\n"


@pytest.mark.parametrize(
    "spoil",
    [
        lambda good: {},
        lambda good: [],
        lambda good: "rows",
        lambda good: dict(good, rows=5),
        lambda good: dict(good, rows=[{"brx": [1]}]),
        lambda good: dict(good, degree="5"),
    ],
)
def test_malformed_table_entry_is_recomputed(spoil, tmp_path, capsys):
    argv = ["table", "--degree", "6", "--format", "json", "--jobs", "1",
            "--cache-dir", str(tmp_path)]
    assert cli.main(argv) == 0
    fresh = capsys.readouterr().out
    store = cache.ResultCache(tmp_path)
    key = store.key("table", degree="6", tier="exhaustive")
    store.put(key, "table", spoil(store.get(key)))
    assert cli.main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == fresh
    assert "malformed cache entry" in captured.err
    # the recomputed table replaced the bad entry
    assert cli.main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == fresh
    assert "cache hit" in captured.err


def test_verify_lemma_needs_a_sample(capsys):
    argv = ["verify-lemma", "--degree", "1", "--samples", "0"]
    with pytest.raises(SystemExit) as exit_:
        cli.main(argv)
    assert exit_.value.code == 2
    assert "must be at least 1" in capsys.readouterr().err


def test_verify_lemma_subcommand(tmp_path):
    proc = run_cli(
        ["verify-lemma", "--degree", "5", "--format", "json"], tmp_path, check=0
    )
    data = json.loads(proc.stdout)
    assert data["all_injective"] and data["all_exponents_divide"]
    sampled = run_cli(
        ["verify-lemma", "--degree", "2", "--samples", "5", "--seed", "3"],
        tmp_path,
        check=0,
    )
    assert "sampled, 5 subgroups" in sampled.stdout


def test_verify_paper_exhaustive(tmp_path):
    proc = run_cli(["verify-paper", "--format", "json"], tmp_path, check=0)
    data = json.loads(proc.stdout)
    assert data["ok"] is True
    assert data["tables"]["4"] == "match"
    assert data["tables"]["3"] == "not computed (tier)"
    assert data["bounds"]["bru_within_256"] is True


def test_bound_subcommand(tmp_path):
    proc = run_cli(["bound", "-m", "1", "--format", "json"], tmp_path, check=0)
    data = json.loads(proc.stdout)
    assert data["extension_degree"] == 240
    assert data["identity_holds"] is True
    refused = run_cli(["bound", "-m", "3", "--evaluate-cap", "10000000"], tmp_path)
    assert refused.returncode == 3
    capped = run_cli(
        ["bound", "-m", "1", "--evaluate-cap", "100", "--format", "json"],
        tmp_path,
        check=0,
    )
    payload = json.loads(capped.stdout)["value_with_prime_cap"]
    assert payload["bound"] == 16384 * payload["torsion"] ** 2
    overridden = run_cli(
        ["bound", "-m", "1", "--parent-p2", "64", "--parent-p3", "27",
         "--format", "json"],
        tmp_path,
        check=0,
    )
    assert json.loads(overridden.stdout)["flags"] == []


def test_bound_evaluates_torsion_once(monkeypatch, capsys):
    calls = []
    per_prime = TorsionBound.max_power

    def counted(self, p):
        calls.append(p)
        return per_prime(self, p)

    monkeypatch.setattr(TorsionBound, "max_power", counted)
    assert cli.main(["bound", "-m", "1", "--evaluate-cap", "2000"]) == 0
    payload = json.loads(capsys.readouterr().out)["value_with_prime_cap"]
    assert payload["bound"] == 16384 * payload["torsion"] ** 2
    # one factor per prime up to the cap: 303 primes are at most 2000
    assert len(calls) == len(set(calls)) == 303


def test_bound_prints_the_plain_payload_bytes(capsys):
    argv = ["bound", "-m", "1", "--evaluate-cap", "2000", "--format", "json"]
    assert cli.main(argv) == 0
    bound = brauer_uniform_bound(1)
    torsion = bound.torsion.evaluate(restrict_cap=2000)
    payload = bound.as_json_dict()
    payload["identity_holds"] = True
    payload["value_with_prime_cap"] = {
        "cap": 2000,
        "torsion": torsion,
        "bound": 16384 * torsion**2,
    }
    # str-rendered plain ints are the reference bytes
    assert capsys.readouterr().out == cache.canonical_json(payload) + "\n"


def test_main_reuses_one_parser(capsys):
    cli.build_parser.cache_clear()
    assert cli.main(["lines", "--degree", "7"]) == 0
    assert cli.main(["roots", "--degree", "7"]) == 0
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)


@pytest.mark.parametrize(
    "argv",
    [
        ["bound", "-m", "1", "--evaluate-cap", "-5"],
        ["h1", "--degree", "6", "--subgroup", "0", "--order-cap", "0"],
        ["h1", "--degree", "6", "--subgroup", "0", "--order-cap", "-1"],
        ["table", "--degree", "7", "--no-cache", "--jobs", "0"],
        ["verify-paper", "--no-cache", "--jobs", "-4"],
    ],
)
def test_caps_below_their_minimum_are_usage_errors(argv, capsys):
    cli.main(["lines", "--degree", "7"])  # the shared parser exists already
    capsys.readouterr()
    with pytest.raises(SystemExit) as exit_:
        cli.main(argv)
    assert exit_.value.code == 2
    # argparse reports to the stderr of this call
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be at least" in captured.err


def test_caps_at_their_minimum(capsys):
    assert cli.main(["bound", "-m", "1", "--evaluate-cap", "0"]) == 0
    window = json.loads(capsys.readouterr().out)["value_with_prime_cap"]
    assert window == {"cap": 0, "torsion": 1, "bound": 16384}
    # an order-2 subgroup passes cap 2 and is refused at cap 1
    h1 = ["h1", "--degree", "6", "--subgroup", "0", "--order-cap"]
    assert cli.main(h1 + ["2"]) == 0
    assert cli.main(h1 + ["1"]) == 3


def test_bound_prints_the_prime_cap_past_the_str_limit(monkeypatch, capsys):
    # the descriptor's 4581-digit prime cap prints through decimal_str, so
    # an int-to-str limit of 4000 digits does not reach it
    monkeypatch.setattr(cli, "INT_STR_DIGITS", 4000)
    try:
        assert cli.main(["bound", "-m", "40", "--format", "json"]) == 0
    finally:
        sys.set_int_max_str_digits(2_000_000)
    payload = json.loads(capsys.readouterr().out)
    assert payload["torsion_bound"]["prime_cap"] == torsion_bound(9600).prime_cap



def test_bound_refuses_an_oversized_prime_cap_before_forming_it(capsys):
    # m = 100000 puts 3^(240m), about 11.45M digits, in the prime cap: the
    # size estimate refuses it (exit 3) before the power is formed
    start = time.perf_counter()
    assert cli.main(["bound", "-m", "100000", "--format", "json"]) == 3
    assert time.perf_counter() - start < 0.5
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)
    assert error["exit_code"] == 3
    assert "prime cap could have" in error["error"]

def test_bound_value_size_refusal(tmp_path):
    # the cap is far below the prime-cap guard, but the value would have
    # millions of digits: refused (exit 3), not a usage error
    proc = run_cli(
        ["bound", "-m", "1", "--evaluate-cap", "100000", "--format", "json"],
        tmp_path,
        check=3,
    )
    assert proc.stdout == ""
    assert json.loads(proc.stderr)["exit_code"] == 3


def test_cache_ls_and_clear(tmp_path):
    run_cli(["table", "--degree", "6"], tmp_path, check=0)
    listing = run_cli(["cache", "ls"], tmp_path, check=0)
    entries = json.loads(listing.stdout)
    assert any(e["kind"] == "table" for e in entries)
    cleared = run_cli(["cache", "clear"], tmp_path, check=0)
    assert json.loads(cleared.stdout)["removed"] >= 1
    assert json.loads(run_cli(["cache", "ls"], tmp_path, check=0).stdout) == []


def test_cache_dir_flag_beats_env(tmp_path):
    flag_dir = tmp_path / "flagged"
    run_cli(
        ["table", "--degree", "7", "--cache-dir", str(flag_dir)],
        tmp_path / "env",
        check=0,
    )
    assert flag_dir.is_dir() and any(flag_dir.iterdir())
    assert not (tmp_path / "env").exists()
