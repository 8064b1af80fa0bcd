"""CPU time per unit of work of each stage, at sizes SMALL * n and 16 times that.

    PYTHONPATH=src python tests/growth_cpu.py

tests/test_growth.py counts the Python line events of each stage, so work
done inside one C call is invisible to it: a `p not in list(path)` in a
loop, a list.index, or a list sliced once per record costs one event however
long the list grows.  This script times the same stages on the same
documents.py shapes with time.thread_time, per unit of work as test_growth.py
defines it (trace again skipped on the diamonds shape); the two structure
checks alone on the unsound RINGS shapes, per record; and parse_model naming a
fault in the last record of each shape, per byte.  Each stage runs once per
run on inputs built in that run, so lazily built indexes are timed where
they are built, with the cyclic garbage collector off; the fastest of RUNS
runs counts for each size.  Every stage's time per unit at both sizes is
printed with their ratio.  A linear stage reads near 1, a quadratic one
near 16, once the document is large enough that a stage's fixed cost no
longer hides the quadratic part: from n, a walk that scanned its stack for
each name it closed could read under RATIO; from SMALL * n it reads well
over.  The exit status is 1 if some stage reads more than RATIO, else 0.
It is 1 too, naming the shape and stage, once the script has used BUDGET
seconds of CPU.  While that timer is armed, Linux advances the process clock
only at ticks, so stages are timed on the clock of the script's one thread.

The file name keeps it out of pytest's collection: CPU time depends on the
host, so this is a tool, not a test.
"""

from __future__ import annotations

import gc
import json
import signal
import sys
import time
from functools import partial
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import documents  # noqa: E402
import test_growth  # noqa: E402

RATIO = 3.0
RUNS = 5
SMALL = 4  # times each shape's n, the smaller size timed
BUDGET = 300  # CPU seconds for the whole script, over 10 times what a sound run takes

_timing = {"shape": "", "stage": ""}  # what the script is timing, for the budget's message


def _over_budget(signum, frame):
    print(f"over the budget of {BUDGET} CPU seconds, timing "
          f"{_timing['shape']}: {_timing['stage']}", flush=True)
    sys.exit(1)


def _cpu(stage, *args, **kwargs) -> tuple[float, object]:
    """CPU seconds stage takes, with the cyclic collector off, and its result."""
    _timing["stage"] = stage.__name__
    gc.collect()
    gc.disable()
    try:
        start = time.thread_time()
        result = stage(*args, **kwargs)
        return time.thread_time() - start, result
    finally:
        gc.enable()


def fastest(per_unit, text: str) -> dict[str, float]:
    """Each stage's fewest CPU seconds per unit over RUNS fresh runs of per_unit."""
    best: dict[str, float] = {}
    for _ in range(RUNS):
        for stage, seconds in per_unit(text, measure=_cpu).items():
            best[stage] = min(seconds, best.get(stage, seconds))
    return best


def _shapes():
    """Each shape's name, build, base size and per-unit function."""
    for shape, (build, n) in documents.SHAPES.items():
        yield shape, build, n, partial(test_growth._per_unit,
                                       traced=shape not in test_growth.UNTRACED)
    for shape, (build, n) in documents.RINGS.items():
        yield shape, build, n, test_growth._checks_per_record
    for shape, (build, n) in documents.SHAPES.items():
        yield shape, build, n, test_growth._locating_per_byte


def main() -> int:
    signal.signal(signal.SIGVTALRM, _over_budget)
    signal.setitimer(signal.ITIMER_VIRTUAL, BUDGET)
    grown = []
    for shape, build, n, per_unit in _shapes():
        _timing["shape"] = shape
        small, large = (fastest(per_unit, json.dumps(build(size)))
                        for size in (SMALL * n, 16 * SMALL * n))
        for stage in small:
            ratio = large[stage] / small[stage]
            print(f"{shape:26} {stage:24} {small[stage] * 1e6:10.3f} {large[stage] * 1e6:10.3f}"
                  f" us/unit  x{ratio:.2f}")
            if ratio > RATIO:
                grown.append(f"{shape}: {stage} x{ratio:.2f}")
    for line in grown:
        print(f"grew past x{RATIO}: {line}")
    return 1 if grown else 0


if __name__ == "__main__":
    sys.exit(main())
