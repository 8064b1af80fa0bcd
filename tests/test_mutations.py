"""A fixed corpus of seeded mutations, run through every CLI command in-process.

CORPUS documents are built by differential.py's mutate from the bundled
fixtures, the documents in tests/data and small documents of BASE_SHAPES
(one of which states interactions twice), drawn from SEED: junk values,
dropped, unknown and repeated keys, duplicated and dropped records, and
records with several faults.  Each goes through the six commands
differential.py runs.  The size and the seed are fixed: a failure here is
mended in the program, never by shrinking or re-seeding the corpus.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from accesslint.cli import main

import differential
import documents

SEED = 1
CORPUS = 400
BASE_SHAPES = ((documents.wide, 8), (documents.parent_chain, 6),
               (documents.owned_needs_chain, 4), (documents.refinement_chain, 4),
               (documents.diamonds, 3), (documents.duplicate_statements, 6))


@pytest.fixture(scope="module")
def corpus(tmp_path_factory) -> list[Path]:
    bases = [path.read_text(encoding="utf-8") for path in sorted(
        [*(differential.ROOT / "src" / "accesslint" / "data").glob("*.json"),
         *(differential.ROOT / "tests" / "data").glob("*.json")])]
    bases += [json.dumps(build(n)) for build, n in BASE_SHAPES]
    rng = random.Random(f"robustness/{SEED}")
    folder = tmp_path_factory.mktemp("corpus")
    paths = []
    for m in range(CORPUS):
        paths.append(folder / f"{m:04d}.json")
        text = differential.dump(differential.mutate(rng, json.loads(rng.choice(bases))))
        paths[-1].write_bytes(text.encode("utf-8", "surrogatepass"))
    return paths


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_every_mutation_exits_cleanly_with_one_line(corpus):
    """Exit 0-2, no internal error, nothing on stdout at exit 2, one diagnostic
    line from every failing command but check, and the same bytes twice."""
    problems = []
    codes = set()
    for path in corpus:
        for command, argv in differential.COMMANDS.items():
            outcome = _run([*argv, str(path)])
            code, out, err = outcome
            codes.add(code)
            if code not in (0, 1, 2):
                problems.append((path.name, command, f"exit {code}"))
            if "internal error" in out + err:
                problems.append((path.name, command, err))
            if code == 2 and out:
                problems.append((path.name, command, "stdout at exit 2"))
            if code == 2 and command != "check" and err.count("\n") != 1:
                problems.append((path.name, command, f"{err.count(chr(10))} stderr lines"))
            if _run([*argv, str(path)]) != outcome:
                problems.append((path.name, command, "a second run differs"))
    assert not problems, problems[:10]
    assert codes == {0, 1, 2}  # some documents get past parse, some past validation
