"""The machine's speed, sampled while the benchmark runs.

On a virtual machine that shares its physical cores with other tenants, the
same interpreted Python code can take up to twice as long in one second as
in the next, in CPU time as much as in wall time: the core runs slower, it
is not taken away.  The benchmark therefore reports the time of such code
at a reference speed.

``Speed`` runs a fixed loop of dict operations, the calibration chunk,
every ``INTERVAL_S`` of process CPU time from a SIGPROF handler in the main
thread.  It runs the chunk twice and records the CPU seconds of the second
run; the first brings it back into the caches, so its time does not depend
on what the program left there.

A stretch of work that took ``cpu`` seconds, ``inside`` of them in chunks,
takes ``(cpu - inside) * mean(REFERENCE_CHUNK_S / chunk)`` seconds at the
reference speed, the mean being over the chunks seen around it.  The
samples come at even steps of CPU time, so each stands for an even share of
the work, and a slow spell over part of a stretch counts for that part.
``REFERENCE_CHUNK_S`` is the chunk's median when run alone on the
reference machine in its slower, more common state; it only sets the
scale, and the figures compare between runs.

Not all code slows alike.  Start-up, imports and compiling slow with the
chunk; the big-integer arithmetic of ``logk3 bound`` slows much less, so
scaling it would add the chunk's swings to a steadier figure (see the
README).

CPU seconds are the main thread's (``thread_time``): while a profiling
timer is set, the kernel updates the process-wide CPU clock only now and
then, so ``process_time`` can read the same before and after a chunk.
"""

from __future__ import annotations

import signal
import statistics
from array import array
from time import thread_time

CHUNK_LOOPS = 400
REFERENCE_CHUNK_S = 68e-6
# two chunks per 10 ms of CPU time cost about 1.5% of it
INTERVAL_S = 0.010
# set-up is short, so it is sampled five times as often
SETUP_INTERVAL_S = 0.002


def _chunk() -> None:
    table = {}
    for i in range(CHUNK_LOOPS):
        table[i & 255] = i
        table.get((i * 7) & 255, 0)


class Speed:
    def __init__(self):
        # (thread time at entry, CPU seconds spent, seconds of the timed chunk)
        self.samples: list[tuple[float, float, float]] = []
        # the speed (REFERENCE_CHUNK_S over chunk seconds) of each ``measure``
        self.speeds = array("d")
        self._busy = False

    def sample(self, *_signal) -> None:
        """Run the chunk twice and record it; also the SIGPROF handler."""
        if self._busy:
            return
        self._busy = True
        entry = thread_time()
        _chunk()
        start = thread_time()
        _chunk()
        end = thread_time()
        self.samples.append((entry, end - entry, end - start))
        self._busy = False

    def start(self, interval: float = INTERVAL_S) -> None:
        signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, interval, interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def mark(self) -> None:
        """Forget older samples and take one: a stretch of work begins."""
        self.samples.clear()
        self.sample()

    def measure(self, start: float, cpu: float) -> tuple[float, float]:
        """Of ``cpu`` seconds of work begun at thread time ``start``: the
        seconds that were not chunks, and those at the reference speed.

        Takes a closing sample; the mean is over the samples since the last
        ``mark``, those taken inside the work included.
        """
        end = start + cpu
        inside = sum(spent for entry, spent, _ in self.samples[:] if start <= entry < end)
        self.sample()
        speed = statistics.fmean(REFERENCE_CHUNK_S / chunk for _, _, chunk in self.samples)
        self.speeds.append(speed)
        own = cpu - inside
        return own, own * speed
