"""The benchmark's tracer patches program names; each must still resolve.

A refactor that renames or drops a traced function fails here rather than
in a traced benchmark run.
"""

import importlib.util
import io
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from logk3 import cache, cli

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(tracer, argv):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        return tracer.request(cli.main, argv)


def test_tracer_installs_and_sees_each_command():
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        assert run(tracer, ["bound", "-m", "1", "--evaluate-cap", "100"]) == 0
        assert run(tracer, ["h1", "--degree", "5", "--subgroup", "0,1"]) == 0
        # h1 reads its order off a stabilizer chain, without a closure
        assert tracer.counts["subgroups.closure_elements"] == 0
        assert tracer.counts["brauer_table.analyze_calls"] == 1
        assert run(tracer, ["table", "--degree", "4", "--no-cache", "--jobs", "1"]) == 0
    finally:
        tracer.uninstall()
    assert cli.canonical_json is cache.canonical_json
    spans = {span[0] for span in tracer.spans}
    for name in (
        "cli.render",
        "bounds.evaluate",
        "lattice.build",
        "subgroups.closure_of_perms",
        "brauer_table.analyze_subgroup",
        "zcohomology.h1",
    ):
        assert name in spans, name
    # one factor per prime up to 100
    assert tracer.counts["bounds.primes"] == 25
    assert tracer.counts["cli.output_bytes"] > 0
    assert tracer.counts["subgroups.closure_elements"] > 0
