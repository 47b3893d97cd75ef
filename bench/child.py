"""Run one ``pec`` command in this process and record how it went.

    python3 bench/child.py RESULT.json MODE [PEC_ARG ...]

MODE is ``run`` (time ``pec.cli.main``), ``trace`` (the same, with the
layer spans of ``spans.py`` installed) or ``setup`` (import ``pec.cli``
and stop).  The result file gets the monotonic clock reading on entering
``main``, so the parent can compute set-up time from its spawn time, plus
the wall and CPU time of ``main``, the peak RSS of the process and the
library versions.  The exit status is that of ``main``.

Speed probes: on a shared machine the CPU speed this process gets swings
by a third within seconds.  A timer signal runs a fixed pure-Python loop
every ``PROBE_INTERVAL_S`` in this process, between the command's own
bytecodes, and the result file gets each probe's start and end.  The
parent subtracts the probes' time and scales by their mean speed.
"""

import json
import resource
import signal
import sys
import time

PROBE_INTERVAL_S = 0.05
PROBE_LOOPS = 20_000

probes = []


def probe(signum, frame) -> None:
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i
    probes.append((start, time.perf_counter()))


result_path, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
signal.signal(signal.SIGALRM, probe)
signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
try:
    import pec.cli  # the import is the set-up being measured

    entered = time.clock_gettime(time.CLOCK_MONOTONIC)
    entered_pc = time.perf_counter()
    result = {"entered": entered, "pec_file": pec.cli.__file__}
    tracer = None
    if mode == "trace":
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    rc = 0
    if mode != "setup":
        before = resource.getrusage(resource.RUSAGE_SELF)
        start = time.perf_counter()
        rc = pec.cli.main(argv)
        end = time.perf_counter()
        after = resource.getrusage(resource.RUSAGE_SELF)
finally:  # a timer left running would kill the interpreter while it exits
    signal.setitimer(signal.ITIMER_REAL, 0, 0)
result["setup_probes_s"] = [e - s for s, e in probes if e <= entered_pc]
if mode != "setup":
    import numpy
    import scipy

    result.update(
        rc=rc,
        wall_s=end - start,
        cpu_s=(after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime),
        peak_rss_mb=after.ru_maxrss / 1024.0,
        probes=[(s, e) for s, e in probes if start <= s and e <= end],
        versions={
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    )
    if tracer is not None:
        result["trace"] = tracer.to_json()
with open(result_path, "w", encoding="utf-8") as fh:
    json.dump(result, fh)
sys.exit(rc)
