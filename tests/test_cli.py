"""End-to-end command-line behaviour: formats, exit codes, cache, determinism."""

import json
import os
import subprocess
import sys


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
