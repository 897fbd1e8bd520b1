"""Spans around the program's layer boundaries, for the traced run only.

``Tracer.install`` replaces each listed function or method, wherever the
program's modules bind it (a function imported with ``from .x import f``
is rebound in the importing module too), by a wrapper that records a span:
name, start, end, parent span and the request it belongs to.  Spans stay in
memory until ``dump``.  ``uninstall`` puts the originals back, so the
untraced runs execute the program exactly as shipped.

A layer's self time is the time its spans cover minus the time covered by
their child spans; ``summary`` reports it per layer together with the
counts taken at the same boundaries.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter


def _size(result) -> int:
    return len(result) if result is not None else 0


def _put_bytes(args, result) -> int:
    cache, key = args[0], args[1]
    return cache._path(key).stat().st_size


# (span name, "module" or "module:Class", attribute, counter or None,
#  rebind everywhere); a counter is (name, f(args, result) -> amount)
TARGETS = (
    ("lattice.build", "logk3.lattice", "build_picard_lattice", None, True),
    ("lattice.build", "logk3.lattice:PicardLattice", "lines", None, True),
    ("lattice.build", "logk3.lattice:PicardLattice", "roots", None, True),
    ("weyl.weyl_group", "logk3.weyl", "weyl_group",
     ("weyl.elements", lambda a, r: r.order), True),
    ("weyl.reflection", "logk3.weyl", "reflection", None, True),
    ("subgroups.enumerate", "logk3.subgroups", "enumerate_subgroup_classes",
     ("subgroups.classes", lambda a, r: len(r)), True),
    ("subgroups.closure_of_perms", "logk3.subgroups", "closure_of_perms",
     ("subgroups.closure_elements", lambda a, r: _size(r)), True),
    ("brauer_table.analyze_subgroup", "logk3.brauer_table", "analyze_subgroup",
     ("brauer_table.analyze_calls", lambda a, r: 1), True),
    ("zcohomology.h1", "logk3.zcohomology", "h1",
     ("zcohomology.h1_calls", lambda a, r: 1), True),
    ("zcohomology.snf", "logk3.zcohomology", "smith_normal_form",
     ("zcohomology.snf_calls", lambda a, r: 1), True),
    ("zcohomology.h1_induced_map", "logk3.zcohomology", "h1_induced_map", None, True),
    ("cache.get", "logk3.cache:ResultCache", "get",
     ("cache.hits", lambda a, r: int(r is not None)), True),
    ("cache.put", "logk3.cache:ResultCache", "put", ("cache.put_bytes", _put_bytes), True),
    ("bounds.evaluate", "logk3.bounds:TorsionBound", "evaluate",
     ("bounds.result_bits", lambda a, r: r.bit_length()), True),
    ("bounds.evaluate", "logk3.bounds:UniformBound", "evaluate",
     ("bounds.result_bits", lambda a, r: r.bit_length()), True),
    # the per-prime factor; counted, not timed (one call per prime)
    (None, "logk3.bounds:TorsionBound", "max_power", ("bounds.primes", lambda a, r: 1), True),
    # rendering as the command line sees it: encoding and writing the output;
    # the cache's own use of canonical_json for keys is not rendering
    ("cli.render", "logk3.cli", "canonical_json", None, False),
    ("cli.render", "logk3.cli", "_emit", ("cli.output_bytes", lambda a, r: len(a[0])), True),
)

SPAN_NAMES = sorted({t[0] for t in TARGETS if t[0]})
COUNT_NAMES = sorted({t[3][0] for t in TARGETS if t[3]})
REQUEST = "request"


class Tracer:
    def __init__(self):
        # [name, start, end, parent index, request index]
        self.spans: list[list] = []
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        self._stack: list[int] = []
        self._request = -1
        self._undo: list[tuple[object, str, object]] = []

    # ── recording ──────────────────────────────────────────────────────────

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self._request])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def request(self, call, *args):
        """Run one request of the workload under a root span."""
        self._request += 1
        idx = self._open(REQUEST)
        try:
            return call(*args)
        finally:
            self._close(idx)

    def _wrap(self, name, fn, counter):
        tracer = self
        count_name, amount = counter if counter else (None, None)

        def wrapper(*args, **kwargs):
            if name is None:
                result = fn(*args, **kwargs)
            else:
                idx = tracer._open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._close(idx)
            if count_name:
                tracer.counts[count_name] += amount(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # ── patching ───────────────────────────────────────────────────────────

    def install(self) -> None:
        program = [
            m for n, m in list(sys.modules.items())
            if n == "logk3" or n.startswith("logk3.")
        ]
        for name, where, attr, counter, everywhere in TARGETS:
            module_name, _, class_name = where.partition(":")
            owner = sys.modules[module_name]
            if class_name:
                owner = getattr(owner, class_name)
            original = owner.__dict__[attr]
            wrapper = self._wrap(name, original, counter)
            holders = [owner]
            if everywhere and not class_name:
                holders = [m for m in program if m.__dict__.get(attr) is original]
            for holder in holders:
                self._undo.append((holder, attr, original))
                setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._undo):
            setattr(holder, attr, original)
        self._undo.clear()

    # ── reporting ──────────────────────────────────────────────────────────

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _, _), covered in zip(self.spans, child):
            out[name] = out.get(name, 0.0) + (end - start) - covered
        return out

    def summary(self, rounds: int) -> dict[str, float]:
        """Per-round self time (ms) of every layer and per-round counts."""
        times = self.self_times()
        out = {f"{name}_ms": times.get(name, 0.0) * 1000 / rounds for name in SPAN_NAMES}
        out.update({name: value / rounds for name, value in self.counts.items()})
        out["trace.spans"] = len(self.spans) / rounds
        return out

    def dump(self, path, extra: dict) -> None:
        """Write every span, then the summary, as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, request in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent, "request": request,
                }) + "\n")
            fh.write(json.dumps({"summary": extra}) + "\n")
