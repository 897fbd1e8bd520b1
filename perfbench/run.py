"""Benchmark of the logk3 command line, called in-process by one closed-loop client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The program is imported from
``src/`` of that checkout; without it the benchmark exits with code 2.  The
seed makes the workload's inputs, ``--seconds`` is how long the timed loop
runs (whole rounds only), and ``--trace 1`` makes the run report per-layer
metrics instead of end-to-end ones.  The last line of standard output is one
JSON object: correct, attempted, failed and metrics.  Details (workload
make-up, per-request wall and CPU timings, problems found) go to
``.perfbench_out/``.

Every request is timed three ways: in wall-clock time, in the CPU time of
the main thread, and as that CPU time scaled to a reference machine speed
(``speed.py``).  The client is the main thread and the program runs at
``--jobs 1`` in it, so that CPU time is the request's own work.
The bounded figures are the scaled ones: on a virtual machine that shares
its cores, the same work takes up to twice as long in some seconds as in
others, in CPU time as much as in wall time.  The wall-clock and CPU
figures go to the details file.
"""

from time import perf_counter, thread_time

_START = perf_counter()  # for the wall-clock set-up in the details file

from speed import SETUP_INTERVAL_S, Speed  # noqa: E402  (the script's own directory)

SPEED = Speed()
SPEED.start(SETUP_INTERVAL_S)  # set-up is sampled from here on

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from array import array  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


class ProgramMissing(RuntimeError):
    pass


def load_program():
    """``logk3.cli.main``, imported from this checkout's src/."""
    package = ROOT / "src" / "logk3"
    if not (package / "cli.py").is_file():
        raise ProgramMissing(f"no program source at {package}")
    sys.path.insert(0, str(ROOT / "src"))
    import logk3.cli

    if Path(logk3.cli.__file__).resolve().parent != package.resolve():
        raise ProgramMissing(f"imported logk3 from {logk3.cli.__file__}, not {package}")
    return logk3.cli.main


class Client:
    """Calls the command line with an argv and captures what it prints."""

    def __init__(self, main):
        self.main = main
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def call(self, argv: list[str]) -> str | None:
        """Standard output of one call, or None when it fails."""
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = self.main(argv)
        except SystemExit as exit_:  # argparse rejecting the argv
            code = exit_.code
        except Exception:
            code = "exception"
            err.write(traceback.format_exc())
        if code == 0:
            return out.getvalue()
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"{' '.join(argv)}: exit {code}: {err.getvalue()[-500:]}")
        return None


class Meter:
    """Times every request of every round: wall seconds, CPU seconds of the
    main thread and those CPU seconds at the reference speed (``speed.py``);
    the CPU seconds leave out the speed samples taken during the request.

    Given a tracer, every other request runs with the tracer installed:
    request k of round r is traced when k + r is odd.  Traced and untraced
    requests then interleave in time, so a slow spell of the host weighs on
    both alike, and over two rounds every request is run once each way.
    """

    def __init__(self, client, speed: Speed, tracer=None):
        self.client = client
        self.speed = speed
        self.tracer = tracer
        # per request, in order: wall s, cpu s, scaled s, traced (0 or 1);
        # arrays, so that the benchmark's own memory hardly grows with the run
        self.columns = (array("d"), array("d"), array("d"), array("b"))
        self.rounds = 0
        self._position = 0  # of the next request in its round

    def new_round(self) -> None:
        self.rounds += 1
        self._position = 0

    @property
    def per_round(self) -> int:
        return len(self.columns[TRACED]) // self.rounds

    def call(self, argv: list[str]) -> str | None:
        traced = self.tracer is not None and (self._position + self.rounds) % 2 == 1
        self._position += 1
        self.speed.mark()
        if traced:
            self.tracer.install()
        try:
            wall, cpu = perf_counter(), thread_time()
            if traced:
                text = self.tracer.request(self.client.call, argv)
            else:
                text = self.client.call(argv)
            cpu_end, wall_end = thread_time(), perf_counter()
        finally:
            if traced:
                self.tracer.uninstall()
        own, scaled = self.speed.measure(cpu, cpu_end - cpu)
        for column, value in zip(self.columns, (wall_end - wall, own, scaled, traced)):
            column.append(value)
        return text

    def column(self, which: int, traced: bool = False) -> list[float]:
        return [v for v, t in zip(self.columns[which], self.columns[TRACED]) if t == traced]

    def per_request(self, which: int, traced: bool) -> list[list[float]]:
        """Seconds of each request position, over the rounds."""
        n = self.per_round
        out = [[] for _ in range(n)]
        for i, (v, t) in enumerate(zip(self.columns[which], self.columns[TRACED])):
            if t == traced:
                out[i % n].append(v)
        return out

    def round_seconds(self, which: int) -> list[float]:
        n, values = self.per_round, self.columns[which]
        return [sum(values[i:i + n]) for i in range(0, len(values), n)]


WALL, CPU, SCALED, TRACED = 0, 1, 2, 3


# ── workloads ──────────────────────────────────────────────────────────────


class Workload:
    """Makes its inputs in __init__ (part of set-up).  ``round`` makes the
    same requests, in the same order, every time, through the meter;
    ``problems`` checks everything seen, after the timed loop."""

    # the timing the bounded metrics use: CPU seconds at the reference
    # speed, or, where the work is native big-integer arithmetic, which the
    # host's contention slows much less, CPU seconds as measured
    basis = SCALED

    def prepare(self) -> None:
        """Untimed work that must precede the timed loop but is not set-up."""

    def labels(self) -> list[str] | None:
        """A name for each request of a round, for the details file."""
        return None


class _TableSweeps(Workload):
    """Sweeps over the exhaustive degrees, one ``table`` call per request."""

    label = ""

    def __init__(self, client, seed, workdir):
        self.client = client
        self.degrees = workloads.table_order(seed)
        self.workdir = workdir
        self.outputs: dict[str, set] = {d: set() for d in self.degrees}
        self.reference: dict[str, str | None] = {}

    def sweep(self, call, jobs: int, cache_dir: str) -> dict[str, str | None]:
        return {d: call(workloads.table_argv(d, jobs, cache_dir)) for d in self.degrees}

    def _keep(self, out: dict[str, str | None]) -> None:
        for degree, text in out.items():
            if text is not None:
                self.outputs[degree].add(text)

    def problems(self) -> list[str]:
        found = []
        for degree in self.degrees:
            seen = sorted(self.outputs[degree] | {self.reference.get(degree)} - {None})
            for text in seen:
                found += checks.check_table(degree, text)
            for text in seen[1:]:
                found += checks.check_same_bytes(f"{self.label} degree {degree}", seen[0], text)
        return found

    def labels(self) -> list[str]:
        return [f"table --degree {d}" for d in self.degrees]

    def profile(self) -> dict:
        return {"degrees": self.degrees}


class TablesExhaustive(_TableSweeps):
    """Cold sweep at --jobs 1 into a fresh cache directory per round.

    After the timed loop, one untimed cold sweep at --jobs 2 must print the
    same bytes: the tables may not depend on the number of workers.
    """

    label = "cold sweeps at --jobs 1 and 2"

    def _cold(self, call, jobs: int) -> dict[str, str | None]:
        cache_dir = tempfile.mkdtemp(prefix="cache-", dir=self.workdir)
        try:
            return self.sweep(call, jobs, cache_dir)
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)

    def round(self, meter: Meter) -> None:
        self._keep(self._cold(meter.call, 1))

    def problems(self) -> list[str]:
        self.reference = self._cold(self.client.call, 2)
        return super().problems()


class TablesWarm(_TableSweeps):
    """Sweep on a cache that one untimed cold --jobs 1 sweep filled."""

    label = "cold and warm sweeps"

    def prepare(self) -> None:
        self.cache_dir = tempfile.mkdtemp(prefix="warm-", dir=self.workdir)
        self.reference = self.sweep(self.client.call, 1, self.cache_dir)

    def round(self, meter: Meter) -> None:
        self._keep(self.sweep(meter.call, 1, self.cache_dir))


class H1Queries(Workload):
    """One pass over the seeded stream of query pairs per round."""

    def __init__(self, client, seed, workdir):
        self.client = client
        self.systems = {d: workloads.root_system(d) for d in workloads.H1_DEGREES}
        self.pairs = workloads.h1_stream(seed, self.systems)
        # (pair index, member) -> distinct outputs seen
        self.outputs: dict[tuple[int, int], set] = {}
        self.oracle_checked = 0

    def round(self, meter: Meter) -> None:
        for i, pair in enumerate(self.pairs):
            for member, query in enumerate(pair):
                text = meter.call(query.argv())
                if text is not None:
                    self.outputs.setdefault((i, member), set()).add(text)

    def problems(self) -> list[str]:
        from logk3.zcohomology import cocycle_oracle_h1

        found = []
        expectations = {}
        for (i, member), texts in sorted(self.outputs.items()):
            query = self.pairs[i][member]
            if query not in expectations:
                vectors = [self.systems[query.degree].roots[k] for k in query.roots]
                expectations[query] = checks.oracle_expectation(vectors, cocycle_oracle_h1)
            for text in texts:
                found += checks.check_h1_output(query.degree, query.roots, text)
                found += checks.check_h1_oracle(text, expectations[query])
            if member == 1:
                for a in self.outputs.get((i, 0), ()):
                    for b in texts:
                        found += checks.check_conjugates(a, b)
        self.oracle_checked = sum(1 for e in expectations.values() if e is not None)
        return found

    def profile(self) -> dict:
        mix: dict[str, int] = {}
        seen = set()
        repeats = 0
        for pair in self.pairs:
            for query in pair:
                key = f"degree {query.degree}, {len(query.roots)} roots"
                mix[key] = mix.get(key, 0) + 1
                repeats += query in seen
                seen.add(query)
        orders: dict[int, int] = {}
        for texts in self.outputs.values():
            for text in texts:
                order = json.loads(text)["order"]
                orders[order] = orders.get(order, 0) + 1
        queries = 2 * len(self.pairs)
        return {
            "queries_per_pass": queries,
            "mix": mix,
            "repeat_share": repeats / queries,
            "order_histogram": dict(sorted(orders.items())),
            "oracle_checked": self.oracle_checked,
        }


class BoundEval(Workload):
    """One pass over the seeded call list per round, one call per request."""

    basis = CPU

    def __init__(self, client, seed, workdir):
        self.client = client
        self.calls = workloads.bound_calls(seed)
        self.outputs: dict[tuple, set] = {call: set() for call in self.calls}

    def round(self, meter: Meter) -> None:
        for call in self.calls:
            text = meter.call(workloads.bound_argv(*call))
            if text is not None:
                self.outputs[call].add(text)

    def problems(self) -> list[str]:
        found = []
        for (m, cap), texts in self.outputs.items():
            residues = checks.expected_residues(m, cap) if cap is not None else None
            for text in texts:
                found += checks.check_bound_output(m, cap, text, residues)
        return found

    def labels(self) -> list[str]:
        return [" ".join(workloads.bound_argv(*c)) for c in self.calls]

    def profile(self) -> dict:
        return {"calls": self.labels()}


WORKLOADS = {
    "tables_exhaustive": TablesExhaustive,
    "tables_warm": TablesWarm,
    "h1_queries": H1Queries,
    "bound_eval": BoundEval,
}


# ── measurement ────────────────────────────────────────────────────────────


def run_rounds(workload, meter: Meter, seconds: float) -> None:
    """Whole rounds until ``seconds`` of wall time and two rounds have passed."""
    start = perf_counter()
    while True:
        meter.new_round()
        workload.round(meter)
        if meter.rounds >= 2 and perf_counter() - start >= seconds:
            return


def latency_summary(latencies: list[float]) -> dict:
    """Request count, median and, from 1000 requests on, the 99th percentile."""
    ordered = sorted(latencies)
    out = {"requests": len(ordered), "p50_ms": statistics.median(ordered) * 1000}
    if len(ordered) >= 1000:
        out["p99_ms"] = ordered[math.ceil(0.99 * len(ordered)) - 1] * 1000
    return out


def _round_rate(meter: Meter, which: int) -> float:
    """Requests per round over the median round's seconds."""
    return meter.per_round / statistics.median(meter.round_seconds(which))


def end_to_end(meter: Meter, basis: int, setup_s: float) -> dict:
    return {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "p50_ms": (statistics.median(meter.column(basis)) * 1000, "ms"),
        "throughput_per_s": (_round_rate(meter, basis), "1/s"),
    }


def timing_details(meter: Meter, labels) -> dict:
    """Scaled, CPU and wall summaries for the details file."""
    columns = {"scaled": SCALED, "cpu": CPU, "wall": WALL}
    out = {"rounds": meter.rounds}
    for name, which in columns.items():
        out[name] = dict(latency_summary(meter.column(which)),
                         rate_per_s=_round_rate(meter, which))
    out["cpu_over_wall"] = sum(meter.column(CPU)) / sum(meter.column(WALL))
    # the reference chunk time over the chunk time seen around each request
    speeds = meter.speed.speeds
    out["speed"] = {
        "median": statistics.median(speeds),
        "quartiles": statistics.quantiles(speeds, n=4),
        "min": min(speeds),
        "max": max(speeds),
    }
    if labels:
        medians = {
            name: [statistics.median(v) * 1000 for v in meter.per_request(which, False)]
            for name, which in columns.items()
        }
        out["per_request_median_ms"] = {
            label: {name: medians[name][k] for name in columns}
            for k, label in enumerate(labels)
        }
    return out


def _unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_bits"):
        return "bits"
    return "count"


def tracing_overhead(meter: Meter, basis: int) -> float:
    """Seconds of a round traced over untraced, minus 1, in %.

    Each side of a round is the sum over request positions of that
    position's median, so both sides cover the same requests however many
    rounds ran.
    """
    plain = meter.per_request(basis, False)
    spanned = meter.per_request(basis, True)
    both = [(p, s) for p, s in zip(plain, spanned) if p and s]
    base = sum(statistics.median(p) for p, _ in both)
    return (sum(statistics.median(s) for _, s in both) / base - 1) * 100


def traced(workload, meter: Meter, seconds: float, trace_path: Path) -> dict:
    """Rounds in which every other request is traced.

    The number of rounds is made even, so every request is traced equally
    often and the counts per round come out whole.
    """
    tracer = meter.tracer
    run_rounds(workload, meter, seconds)
    if meter.rounds % 2:
        meter.new_round()
        workload.round(meter)
    traced_rounds = meter.rounds / 2
    layers = tracer.summary(traced_rounds)
    metrics = {name: (value, _unit(name)) for name, value in layers.items()}
    overhead = tracing_overhead(meter, workload.basis)
    metrics["trace.overhead_pct"] = (overhead, "%")
    tracer.dump(trace_path, {
        "rounds": meter.rounds,
        "traced_round_equivalents": traced_rounds,
        "per_round": layers,
        "overhead_pct": overhead,
        "untraced_p50_ms": statistics.median(meter.column(workload.basis)) * 1000,
        "traced_p50_ms": statistics.median(meter.column(workload.basis, traced=True)) * 1000,
    })
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    speed = SPEED
    try:
        cli_main = load_program()
    except ProgramMissing as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    client = Client(cli_main)
    try:
        workload = WORKLOADS[args.workload](client, args.seed, workdir)
        # one cold set-up: the main thread's CPU seconds from the process's
        # start, so the interpreter's start-up, the imports and the inputs
        setup_cpu_s, setup_s = speed.measure(0.0, thread_time())
        setup_wall_s = perf_counter() - _START
        setup_samples = len(speed.samples)
        setup_speed = speed.speeds[0]
        speed.start()
        workload.prepare()
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        meter = Meter(client, speed, Tracer() if args.trace else None)
        if args.trace:
            metrics = traced(workload, meter, args.seconds, OUT_DIR / f"trace-{stem}.jsonl")
            timing = None
        else:
            run_rounds(workload, meter, args.seconds)
            metrics = end_to_end(meter, workload.basis, setup_s)
            timing = timing_details(meter, workload.labels())
        speed.stop()
        problems = workload.problems()
        profile = workload.profile()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": not problems,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    details = dict(result, workload=args.workload, seed=args.seed,
                   setup_cpu_s=setup_cpu_s, setup_wall_s=setup_wall_s,
                   setup_samples=setup_samples, setup_speed=setup_speed, timing=timing,
                   profile=profile, problems=problems[:50], errors=client.errors)
    (OUT_DIR / f"result-{stem}.json").write_text(json.dumps(details, indent=1) + "\n")
    for line in problems[:10] + client.errors[:5]:
        print(f"perfbench: {line}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    try:
        code = main()
    finally:
        SPEED.stop()  # a SIGPROF after the handler is gone would kill the process
    sys.exit(code)
