"""Three fixed corpora of seeded mutations, run through every CLI command in-process.

CORPUS documents are built by differential.py's mutate from the bundled
fixtures, the documents in tests/data and small documents of BASE_SHAPES
(one of which states interactions twice), drawn from SEED: junk values,
dropped, unknown and repeated keys, duplicated and dropped records, and
records with several faults.  BYTE_CORPUS documents are built from the
same bases by differential.py's mutate_bytes, drawn from BYTE_SEED: edits
to the encoded text that no JSON value can spell, such as truncation, bad
UTF-8, surrogates, a BOM, raw control characters and non-integer versions.
RESTATE_CORPUS documents are built by differential.py's restate from the
bases that hold a policy, drawn from RESTATE_SEED: one statement stated
again, so that the policy holds duplicate and conflicting statements.
Each document goes through the six commands differential.py runs, and each
that parses through loop_probe.py's probe of the structure checks.  Sizes
and seeds are fixed: a failure here is mended in the program, never by
shrinking or re-seeding a corpus.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from accesslint.cli import main
from accesslint.modelio import ParseError, parse_model

import differential
import documents
from loop_probe import faults, probe

SEED = 1
CORPUS = 400
BYTE_SEED = "byte-robustness/1"
BYTE_CORPUS = 300
RESTATE_SEED = "restate-robustness/1"
RESTATE_CORPUS = 150
BASE_SHAPES = ((documents.wide, 8), (documents.parent_chain, 6),
               (documents.owned_needs_chain, 4), (documents.refinement_chain, 4),
               (documents.diamonds, 3), (documents.duplicate_statements, 6))


@pytest.fixture(scope="module")
def bases() -> list[str]:
    texts = [path.read_text(encoding="utf-8") for path in sorted(
        [*(differential.ROOT / "src" / "accesslint" / "data").glob("*.json"),
         *(differential.ROOT / "tests" / "data").glob("*.json")])]
    return texts + [json.dumps(build(n)) for build, n in BASE_SHAPES]


@pytest.fixture(scope="module")
def corpus(bases, tmp_path_factory) -> list[Path]:
    rng = random.Random(f"robustness/{SEED}")
    folder = tmp_path_factory.mktemp("corpus")
    paths = []
    for m in range(CORPUS):
        paths.append(folder / f"{m:04d}.json")
        text = differential.dump(differential.mutate(rng, json.loads(rng.choice(bases))))
        paths[-1].write_bytes(text.encode("utf-8", "surrogatepass"))
    return paths


@pytest.fixture(scope="module")
def byte_corpus(bases, tmp_path_factory) -> list[Path]:
    rng = random.Random(BYTE_SEED)
    folder = tmp_path_factory.mktemp("byte-corpus")
    paths = []
    for m in range(BYTE_CORPUS):
        paths.append(folder / f"{m:04d}.json")
        paths[-1].write_bytes(differential.mutate_bytes(rng, rng.choice(bases)))
    return paths


@pytest.fixture(scope="module")
def restate_corpus(bases, tmp_path_factory) -> list[Path]:
    rng = random.Random(RESTATE_SEED)
    stated = [text for text in bases if json.loads(text).get("policy")]
    folder = tmp_path_factory.mktemp("restate-corpus")
    paths = []
    for m in range(RESTATE_CORPUS):
        paths.append(folder / f"{m:04d}.json")
        text = differential.dump(differential.restate(rng, json.loads(rng.choice(stated))))
        paths[-1].write_bytes(text.encode("utf-8"))
    return paths


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _problems(corpus: list[Path]) -> tuple[list, set[int]]:
    """Exit 0-2, no internal error, nothing on stdout at exit 2, one diagnostic
    line from every failing command but check, and the same bytes twice:
    every breach found, and the exit codes seen."""
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
    return problems, codes


def test_every_mutation_exits_cleanly_with_one_line(corpus):
    problems, codes = _problems(corpus)
    assert not problems, problems[:10]
    assert codes == {0, 1, 2}  # some documents get past parse, some past validation


def test_every_byte_level_edit_exits_cleanly_with_one_line(byte_corpus):
    problems, codes = _problems(byte_corpus)
    assert not problems, problems[:10]
    assert codes == {0, 1, 2}  # CRLF line ends and edits between tokens keep a document valid


def test_every_restated_statement_exits_cleanly_and_is_reported(restate_corpus):
    problems, _ = _problems(restate_corpus)
    assert not problems, problems[:10]
    findings = {line.split(":")[0] for path in restate_corpus
                for line in _run(["check", str(path)])[2].splitlines()}
    assert {"DuplicateStatement", "ConflictingPermission"} <= findings


def test_each_check_loop_runs_exactly_when_it_reports(corpus, byte_corpus, restate_corpus):
    disagree, reporting = [], set()
    for path in corpus + byte_corpus + restate_corpus:
        try:
            pair = parse_model(path.read_bytes(), check=False)
        except ParseError:
            continue
        broken = faults(*pair)
        for loop, (ran, reported) in probe(*pair).items():
            if not ran == reported == broken[loop]:
                disagree.append((path.name, loop, ran, reported))
            if reported:
                reporting.add(loop)
    assert not disagree, disagree[:10]
    # No corpus document holds a refinement cycle: test_column_proofs.py plants them.
    assert reporting >= {"associations", "refinements", "policy"}
