"""One benchmark repetition, run in a fresh interpreter.

    python3 perfbench/child.py setup|plain  '<aoisim argv as JSON>'
    python3 perfbench/child.py traced       '<aoisim argv as JSON>' TRACE_FILE

Imports the simulator from the checkout's ``src/``, calls ``aoisim.cli.main``
with the argv, and prints one JSON report as the last line of stdout: the
exit code, the wall time of the ``main`` call, ``time.monotonic()`` stamps
(one clock for every process on Linux, so the parent can subtract its own
stamp of the spawn), the peak resident memory and, when traced, the
per-layer totals and ratios.

It also reports ``slowdown``: how much longer than ``CAL_REF_S`` a fixed
pure-Python loop took on this host, right before and right after ``main``
(after only, for ``setup``, so the loop does not delay the stamps). It runs
in this process rather than the parent because the two may sit on CPUs whose
speeds differ.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CAL_ITERATIONS = 300_000
CAL_REF_S = 0.075            # calibrate() at reference speed (2-vCPU x86 KVM guest, Python 3.11)


class _Item:
    __slots__ = ("key", "value")


def calibrate() -> float:
    """Seconds this host takes for a fixed slice of interpreter work.

    Small-int arithmetic and dict updates, then object allocation, a keyed
    sort and big-int arithmetic, the kinds of work the simulator does.
    """
    start = time.perf_counter()
    table: dict[int, int] = {}
    total = 0
    for i in range(CAL_ITERATIONS):
        total += i * i % 7
        key = i & 1023
        table[key] = table.get(key, 0) + 1
    for _ in range(10):          # small batches, so the loop adds little to peak memory
        items = []
        for i in range(CAL_ITERATIONS // 100):
            item = _Item()
            item.key, item.value = i, (i * 7919) % 1000 * 0.5
            items.append(item)
        items.sort(key=lambda item: -item.value)
    big = 1
    for i in range(CAL_ITERATIONS // 100):
        big = (big * 3 + i) % (1 << 4000)
    return time.perf_counter() - start


def _call_main(main, argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1


def main() -> int:
    mode, argv = sys.argv[1], json.loads(sys.argv[2])
    sys.path.insert(0, str(SRC))
    import numpy
    numpy_ready = time.monotonic()
    import aoisim
    from aoisim.cli import main as aoisim_main

    if SRC not in Path(aoisim.__file__).resolve().parents:
        print(f"aoisim imported from {aoisim.__file__}, not from {SRC}",
              file=sys.stderr)
        return 3
    report = {"numpy": numpy.__version__, "numpy_ready": numpy_ready}
    calibration = [] if mode == "setup" else [calibrate()]
    if mode == "traced":
        import tracer as tracing
        tracer = tracing.Tracer()
        restore, missing = tracing.install(tracer)
        start = time.perf_counter()
        rc = tracer.call(tracing.ROOT_LAYER, tracing.SPAN, _call_main,
                         (aoisim_main, argv))
        wall = time.perf_counter() - start
        report["main_end"] = time.monotonic()
        restore()
        best_split = getattr(sys.modules.get("aoisim.planner"), "_best_split", None)
        cache_info = getattr(best_split, "cache_info", None)
        if cache_info is None:
            missing.append("aoisim.planner._best_split.cache_info")
        report.update(layers=tracer.layer_totals(), missing=missing,
                      ratios=tracing.ratios(tracer.counters,
                                            cache_info() if cache_info else None))
    else:
        start = time.perf_counter()
        rc = _call_main(aoisim_main, argv)
        wall = time.perf_counter() - start
        report["main_end"] = time.monotonic()
    report.update(rc=rc, wall_s=wall,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    calibration.append(calibrate())
    report["slowdown"] = sum(calibration) / len(calibration) / CAL_REF_S
    if mode == "traced":
        tracer.write(sys.argv[3])
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
