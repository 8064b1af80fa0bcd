"""CPU time per unit of work of each stage, at sizes n and 16n.

    PYTHONPATH=src python tests/growth_cpu.py

tests/test_growth.py counts the Python line events of each stage, so work
done inside one C call is invisible to it: a `p not in list(path)` in a
loop, or a list.index, costs one event however long the list grows.  This
script times the same stages on the same documents.py shapes with
time.process_time, per unit of work as test_growth.py defines it, at n and
16n (trace again skipped on the diamonds shape).  Each stage runs once per
run on inputs built in that run, so lazily built indexes are timed where
they are built, with the cyclic garbage collector off; the fastest of RUNS
runs counts for each size.  Every stage's time per unit at n and 16n is
printed with their ratio.  A linear stage reads near 1, a quadratic one
near 16; the exit status is 1 if some stage reads more than RATIO, else 0.

The file name keeps it out of pytest's collection: CPU time depends on the
host, so this is a tool, not a test.
"""

from __future__ import annotations

import gc
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import documents  # noqa: E402
import test_growth  # noqa: E402

RATIO = 3.0
RUNS = 5


def _cpu(stage, *args, **kwargs) -> tuple[float, object]:
    """CPU seconds stage takes, with the cyclic collector off, and its result."""
    gc.collect()
    gc.disable()
    try:
        start = time.process_time()
        result = stage(*args, **kwargs)
        return time.process_time() - start, result
    finally:
        gc.enable()


def per_unit(text: str, traced: bool) -> dict[str, float]:
    """Each stage's fewest CPU seconds per unit over RUNS fresh runs."""
    fastest: dict[str, float] = {}
    for _ in range(RUNS):
        for stage, seconds in test_growth._per_unit(text, traced, _cpu).items():
            fastest[stage] = min(seconds, fastest.get(stage, seconds))
    return fastest


def main() -> int:
    grown = []
    for shape, (build, n) in documents.SHAPES.items():
        traced = shape not in test_growth.UNTRACED
        small, large = (per_unit(json.dumps(build(size)), traced) for size in (n, 16 * n))
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
