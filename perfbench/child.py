"""Child processes of run.py.

    python3 perfbench/child.py build WORKLOAD SEED WORKDIR
    python3 perfbench/child.py setup WORKDIR

`build` makes the workload's inputs and answers from the seed and
pickles them to WORKDIR/inputs.pickle.  It runs apart from run.py so
that the generator's and the oracle's memory never counts in run.py's
peak RSS.

`setup` times one set-up in a fresh interpreter and prints it as one
JSON line: importing accesslint (`import_s`), the workload's
program-side preparation (`prepare_s`) and its warm-up ops (`warmup_s`,
op time only; the checks are not timed).  Nothing but this file and
program.py is imported before the clock starts, so the import pays for
every module accesslint loads, as a fresh CLI process does.  Loading the
inputs is not timed.
"""

import sys
from pathlib import Path
from time import perf_counter

import program


def setup(workdir: str) -> dict:
    """Time one set-up; return its parts in seconds and its checked warm-up ops."""
    start = perf_counter()
    modules = program.import_accesslint()
    import_s = perf_counter() - start

    import workloads

    workload = workloads.load(Path(workdir))
    start = perf_counter()
    workload.attach(modules["api"])
    prepare_s = perf_counter() - start
    runner = workloads.Runner(workload)
    warmup_s = sum(runner.op() for _ in range(workload.warmup))
    return {"import_s": import_s, "prepare_s": prepare_s, "warmup_s": warmup_s,
            "attempted": runner.attempted, "failures": runner.failures}


def main(argv: list[str]) -> int:
    import json

    if argv[:1] == ["build"] and len(argv) == 4:
        import workloads

        _, name, seed, workdir = argv
        workdir = Path(workdir)
        workloads.save(workloads.WORKLOADS[name](int(seed), workdir, program.SRC), workdir)
        return 0
    if argv[:1] == ["setup"] and len(argv) == 2:
        print(json.dumps(setup(argv[1])))
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
