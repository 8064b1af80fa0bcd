"""Differential run of the accesslint CLI on two source trees.

    python tests/differential.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are the `src` directories of two checkouts.  The
script builds one set of documents:

- the bundled fixtures and every document in tests/data;
- the seed-1 benchmark documents that perfbench/gen.py builds for the
  four workloads (300 ci-fleet, 5 enterprise-audit, 5 deep-hierarchy and
  the policy-churn base);
- MUTATIONS mutations of the small ones, drawn from SEED, each with 1-3
  edits: junk values, dropped, unknown and repeated keys, duplicated and
  dropped records, records with several faults at once, an asset or goal
  renamed to an earlier one's name (keeping its own kind and parent), a
  name emptied along with every reference to it, and the assets or the
  goals reversed, so that children come before their parents;
- RESTATEMENTS restatements of those that hold a policy, drawn from
  SEED, each restating one policy statement once or twice, with its own
  permission or the other one;
- BYTE_MUTATIONS byte-level mutations of the same documents, drawn from
  SEED, each with 1-2 edits to the encoded text: truncation, stray
  escapes, surrogate escapes and encoded surrogates, bad and overlong
  UTF-8, a BOM, raw control characters in strings, non-integer versions,
  CRLF line ends, and dropped and doubled bytes;
- COLONS mutations, drawn from SEED, of those whose free-text strings
  (names, parents, property keys, association and refinement ends,
  definitions, a statement's requirement, subject and resource) each
  gained a colon, some written as the escape \\u003a.

Sizes and seed are fixed, so a run can be cited by them.

Each document goes through six CLI commands (validate as text, as JSON
and with --expand-inheritance, check, and export of both views) and three
API cases, whose text is compared as the commands' stdout is: serialize,
serialize_model(*parse_model(document)); trace, the JSON list of
trace(graph, statement) for every statement of
parse_model(document, check=False), each its paths or its ValueError's
text; and unchecked, the JSON list of validate_access(model, graph) and
validate_access(expand_hierarchy(model), graph) on
parse_model(document, check=False), each its JSON report or its
ValueError's text.  Where parse_model raises, an API case exits 2 with the
ParseError's text, or "internal error" and the exception, as its stderr.
They run in-process in one child interpreter per tree.
Every case whose exit code, stdout or stderr differs between the trees
is printed, followed by a summary, which counts apart the differing cases
on documents whose check case did not exit 2 in the second tree; the exit
status is 1 if any case differs, else 0.

The file name keeps it out of pytest's collection; it is a tool, not a test.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import io
import json
import random
import re
import subprocess
import sys
import tempfile
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
MUTATIONS = 3000
RESTATEMENTS = 500
BYTE_MUTATIONS = 1000
COLONS = 500
COMMANDS = {
    "validate": ["validate"],
    "validate-json": ["validate", "--format", "json"],
    "validate-expand": ["validate", "--expand-inheritance"],
    "check": ["check"],
    "export-asset": ["export", "--view", "asset"],
    "export-goal": ["export", "--view", "goal"],
}
CASES = (*COMMANDS, "serialize", "trace", "unchecked")
# The keys of each record section, as the document schema names them.
KEYS = {
    "assets": ("name", "kind", "confidentiality", "integrity", "extraProperties", "parent"),
    "associations": ("source", "target", "sourceNeeds", "targetNeeds",
                     "sourceMultiplicity", "targetMultiplicity"),
    "goals": ("name", "kind", "definition"),
    "refinements": ("parent", "child"),
    "policy": ("requirement", "subject", "access", "resource", "permission"),
    "matrixOverride": ("subject", "resource", "allowed"),
}
KINDS = ("system", "information", "people")
JUNK = (
    None, True, False, 0, 1, -1, 2.5, 10 ** 30, "", "bogus", "read", "write", "interact",
    "none", "low", "high", "1", "0..1", "many", "*", "system", "people", "goal",
    "requirement", "wish", "allow", "deny", "é", "a\nb", "it's", [], ["read"],
    ["read", "read"], ["write", "bogus"], [1], [[]], {}, {"availability": "huge"},
    {"cost": 1}, {"availability": "low"}, {"read": 1},
)
UNKNOWN_KEYS = ("colour", "Name", "kind ", "source_needs", "", "version", "assets")
# The keys of each record section that name an asset or a goal, by the section named.
REFERENCES = {
    "assets": {"assets": ("parent",), "associations": ("source", "target"),
               "policy": ("subject", "resource")},
    "goals": {"refinements": ("parent", "child"), "policy": ("requirement",)},
}
# The keys of each record section whose values are free text.
FREE_TEXT = {"assets": ("name", "parent"), "associations": ("source", "target"),
             "goals": ("name", "definition"), "refinements": ("parent", "child"),
             "policy": ("requirement", "subject", "resource")}
# Stands for a colon to be written as an escape; json.dumps writes it \ue000.
ESCAPED_COLON = "\ue000"


def _junk(rng: random.Random):
    """A fresh copy of a junk value, so that no edit changes JUNK itself."""
    return copy.deepcopy(rng.choice(JUNK))


class Pairs(list):
    """An object as its (key, value) members, so that a key may repeat."""


def dump(value) -> str:
    """JSON text of value, writing a Pairs object member by member."""
    if isinstance(value, Pairs):
        return "{" + ", ".join(f"{json.dumps(k)}: {dump(v)}" for k, v in value) + "}"
    if type(value) is dict:
        return dump(Pairs(value.items()))
    if type(value) is list:
        return "[" + ", ".join(map(dump, value)) + "]"
    return json.dumps(value)


def _records(rng: random.Random, data: dict) -> tuple[str, list]:
    """A record section of data to edit, holding at least one record."""
    sections = [s for s in KEYS if type(data.get(s)) is list and data[s]]
    if not sections:
        data["goals"] = [{"name": "G", "kind": "goal"}]
        sections = ["goals"]
    section = rng.choice(sections)
    return section, data[section]


def _edit_record(rng: random.Random, section: str, record, edit: str):
    """record with one fault of the kind edit; a record that is no object is replaced."""
    if type(record) not in (dict, Pairs):
        return _junk(rng) if edit == "junk" else dict.fromkeys(KEYS[section][:2], "A")
    pairs = Pairs(record.items() if type(record) is dict else record)
    keys = [k for k, _ in pairs]
    if edit == "junk":
        key = rng.choice(sorted({*keys, *KEYS[section]}))
        pairs = Pairs((k, v) for k, v in pairs if k != key)
        pairs.insert(rng.randint(0, len(pairs)), (key, _junk(rng)))
    elif edit == "drop-key" and pairs:
        del pairs[rng.randrange(len(pairs))]
    elif edit == "unknown-key":
        pairs.insert(rng.randint(0, len(pairs)), (rng.choice(UNKNOWN_KEYS), _junk(rng)))
    elif edit == "repeat-key":
        key = rng.choice(keys or KEYS[section])
        value = dict(pairs).get(key) if rng.random() < 0.5 else _junk(rng)
        pairs.insert(rng.randint(0, len(pairs)), (key, value))
    return pairs


def _rename(rng: random.Random, data: dict, edit: str) -> None:
    """Give an asset or goal an earlier one's name ("rename"), or empty its name
    and every reference to it ("unname"); a no-op where no record qualifies."""
    named = [(section, i) for section in REFERENCES if type(data.get(section)) is list
             for i, record in enumerate(data[section])
             if type(record) is dict and type(record.get("name")) is str
             and (edit == "unname" or i > 0)]
    if not named:
        return
    section, i = rng.choice(named)
    record = data[section][i]
    if edit == "rename":
        earlier = [r["name"] for r in data[section][:i] if type(r) is dict and "name" in r]
        if earlier:
            record["name"] = rng.choice(earlier)
        return
    name, record["name"] = record["name"], ""
    for referring, keys in REFERENCES[section].items():
        others = data.get(referring)
        for other in others if type(others) is list else ():
            for key in keys:
                if type(other) is dict and other.get(key) == name:
                    other[key] = ""


def mutate(rng: random.Random, data: dict) -> dict:
    """data with 1-3 seeded edits."""
    if rng.random() < 0.25:  # most documents hold no override, so add some to spoil
        data["matrixOverride"] = [
            {"subject": rng.choice(KINDS), "resource": rng.choice(KINDS),
             "allowed": rng.random() < 0.5} for _ in range(rng.randint(1, 3))]
    for _ in range(rng.randint(1, 3)):
        edit = rng.choice(("junk", "drop-key", "unknown-key", "repeat-key", "dup-record",
                           "drop-record", "multi-fault", "top-level", "rename", "unname",
                           "reverse"))
        section, items = _records(rng, data)
        i = rng.randrange(len(items))
        if edit in ("rename", "unname"):
            _rename(rng, data, edit)
        elif edit == "reverse":  # the hierarchy walk runs on the result
            records = data.get(rng.choice(tuple(REFERENCES)))
            if type(records) is list:
                records.reverse()
        elif edit == "dup-record":
            items.insert(rng.randint(0, len(items)), items[i])
        elif edit == "drop-record":
            del items[i]
        elif edit == "multi-fault":
            for fault in rng.choices(("junk", "junk", "drop-key", "unknown-key", "repeat-key"),
                                     k=rng.randint(2, 3)):
                items[i] = _edit_record(rng, section, items[i], fault)
        elif edit == "top-level":
            target = rng.choice(("version", "section", "record", "unknown"))
            if target == "version":
                data["version"] = _junk(rng)
            elif target == "section":
                data[section] = _junk(rng)
            elif target == "record":
                items[i] = _junk(rng)
            else:
                data[rng.choice(UNKNOWN_KEYS)] = _junk(rng)
        else:
            items[i] = _edit_record(rng, section, items[i], edit)
    return data


def restate(rng: random.Random, data: dict) -> dict:
    """data with one of its policy statements copied to another position, once
    or twice.  A copy keeps its permission (a DuplicateStatement) or takes the
    other one (a ConflictingPermission)."""
    policy = data["policy"]
    statement = rng.choice(policy)
    for _ in range(rng.randint(1, 2)):
        restated = dict(statement)
        if rng.random() < 0.5:
            restated["permission"] = "deny" if statement["permission"] == "allow" else "allow"
        policy.insert(rng.randint(0, len(policy)), restated)
    return data


def colonise(rng: random.Random, data: dict) -> dict:
    """data with a colon put into each free-text string, one string the same way
    wherever it stands, so that references still resolve.  A share of the colons,
    none, half or all, is ESCAPED_COLON instead."""
    escaped, renamed = rng.choice((0, 0.5, 1)), {}

    def colon(text):
        if type(text) is not str:
            return text
        if text not in renamed:
            at = rng.randint(0, len(text))
            mark = ESCAPED_COLON if rng.random() < escaped else ":"
            renamed[text] = text[:at] + mark + text[at:]
        return renamed[text]

    for section, keys in FREE_TEXT.items():
        for record in data.get(section) or ():
            if type(record) is not dict:
                continue
            for key in keys:
                if key in record:
                    record[key] = colon(record[key])
            if type(record.get("extraProperties")) is dict:
                record["extraProperties"] = {colon(k): v
                                             for k, v in record["extraProperties"].items()}
    return data


# What a bad editor, transfer or encoder leaves in a document's bytes.
BYTE_EDITS = ("truncate", "stray-escape", "surrogate-escape", "encoded-surrogate", "bad-utf8",
              "bom", "raw-control", "version", "crlf", "drop-byte", "double-byte")
STRAY_ESCAPES = (b"\\", b"\\q", b"\\x41", b"\\'", b"\\u12", b"\\uZZZZ")
SURROGATE_ESCAPES = (b"\\ud800", b"\\udc00", b"\\uDBFF\\ud800", b"\\udc00\\ud800",
                     b"\\ud83d\\ude00")
# A lone lead or continuation byte, a byte UTF-8 never uses, overlong forms
# of "/", and a code point past U+10FFFF.
BAD_UTF8 = (b"\xc3", b"\x80", b"\xff", b"\xc0\xaf", b"\xe0\x80\xaf", b"\xf0\x80\x80\xaf",
            b"\xf4\x90\x80\x80")
CONTROLS = (b"\x00", b"\x01", b"\t", b"\n", b"\r", b"\x1f")
VERSIONS = (b"NaN", b"-Infinity", b"Infinity", b"1e400", b"true", b"-0", b"1.0")
_STRING = re.compile(rb'"(?:[^"\\]|\\.)*"')
_VERSION = re.compile(rb'"version"\s*:\s*[^,}\s]+')


def mutate_bytes(rng: random.Random, text: str) -> bytes:
    """The UTF-8 bytes of text with 1-2 seeded byte-level edits."""
    data = bytearray(text.encode("utf-8", "surrogatepass"))
    for _ in range(rng.randint(1, 2)):
        edit = rng.choice(BYTE_EDITS)
        at = rng.randint(0, len(data))
        strings = [match.span() for match in _STRING.finditer(data)]
        if strings:  # a place inside a string literal, between its quotes
            start, end = rng.choice(strings)
            inside = rng.randint(start + 1, end - 1)
        else:
            inside = at
        if edit == "truncate":
            del data[at:]
        elif edit == "stray-escape":
            data[inside:inside] = rng.choice(STRAY_ESCAPES)
        elif edit == "surrogate-escape":
            data[inside:inside] = rng.choice(SURROGATE_ESCAPES)
        elif edit == "encoded-surrogate":
            data[inside:inside] = b"\xed\xa0\x80"
        elif edit == "bad-utf8":
            data[at:at] = rng.choice(BAD_UTF8)
        elif edit == "bom":
            data[:0] = b"\xef\xbb\xbf"
        elif edit == "raw-control":
            data[inside:inside] = rng.choice(CONTROLS)
        elif edit == "version":
            data = bytearray(_VERSION.sub(b'"version": ' + rng.choice(VERSIONS), data, 1))
        elif edit == "crlf":
            data = data.replace(b"\n", b"\r\n")
        elif edit == "drop-byte":
            del data[at:at + 1]
        else:
            data[at:at] = data[at:at + 1]
    return bytes(data)


def documents() -> dict[str, str | bytes]:
    """Document name -> text, or bytes for a byte-level mutation, in a fixed order."""
    docs = {}
    for path in sorted((ROOT / "src" / "accesslint" / "data").glob("*.json")):
        docs[f"fixture/{path.name}"] = path.read_text(encoding="utf-8")
    for path in sorted((ROOT / "tests" / "data").glob("*.json")):
        docs[f"data/{path.name}"] = path.read_text(encoding="utf-8")
    bases = list(docs.values())

    sys.path.insert(0, str(ROOT / "perfbench"))
    import gen
    import workloads

    fleet = gen.fleet(1, workloads.FLEET_DOCS, workloads.FLEET_INVALID_EVERY)
    for doc in fleet:
        docs[f"ci-fleet/{doc.name}"] = doc.text
    rng = random.Random("enterprise-audit/1")
    for k in range(workloads.AUDIT_DOCS):
        docs[f"enterprise-audit/audit-{k}"] = gen.enterprise_draft(
            rng, workloads.AUDIT_ASSETS, workloads.AUDIT_NEEDS).doc(f"audit-{k}").text
    rng = random.Random("deep-hierarchy/1")
    for k, depths in enumerate(workloads.DEEP_PROFILES):
        docs[f"deep-hierarchy/deep-{k}"] = gen.deep_doc(
            rng, f"deep-{k}", depths, workloads.DEEP_NEEDS_PER_CHAIN).text
    rng = random.Random("policy-churn/1")
    docs["policy-churn/churn-base"] = gen.enterprise_draft(
        rng, workloads.CHURN_ASSETS, workloads.CHURN_NEEDS).doc("churn-base").text

    bases += [doc.text for doc in fleet]
    rng = random.Random(f"differential/{SEED}")
    for m in range(MUTATIONS):
        docs[f"mutation/{m:05d}"] = dump(mutate(rng, json.loads(rng.choice(bases))))
    rng = random.Random(f"differential-restate/{SEED}")
    stated = [text for text in bases if json.loads(text).get("policy")]
    for m in range(RESTATEMENTS):
        docs[f"restatement/{m:05d}"] = dump(restate(rng, json.loads(rng.choice(stated))))
    rng = random.Random(f"differential-bytes/{SEED}")
    for m in range(BYTE_MUTATIONS):
        docs[f"byte-mutation/{m:05d}"] = mutate_bytes(rng, rng.choice(bases))
    rng = random.Random(f"differential-colon/{SEED}")
    for m in range(COLONS):
        text = dump(mutate(rng, colonise(rng, json.loads(rng.choice(bases)))))
        docs[f"colon/{m:05d}"] = text.replace("\\ue000", "\\u003a")
    return docs


def _outcome(code: int, stdout: str, stderr: str) -> list:
    return [code, hashlib.sha256(stdout.encode("utf-8", "surrogatepass")).hexdigest(),
            len(stdout), stderr]


def worker(src: str, workdir: Path) -> None:
    """Run every case on every document under src; write the outcomes as JSON."""
    sys.path.insert(0, src)
    import accesslint
    from accesslint import cli
    from accesslint.goals import trace
    from accesslint.modelio import ParseError, parse_model, render_report, serialize_model
    from accesslint.validation import expand_hierarchy, validate_access

    if not Path(accesslint.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"accesslint imported from {accesslint.__file__}, not {src}")

    def traced(document: bytes) -> str:
        _, graph = parse_model(document, check=False)
        paths = []
        for statement in graph.policy:
            try:
                paths.append(trace(graph, statement))
            except ValueError as exc:
                paths.append(str(exc))
        return json.dumps(paths)

    def unchecked(document: bytes) -> str:
        model, graph = parse_model(document, check=False)
        reports = []
        for case in (lambda: model, lambda: expand_hierarchy(model)):
            try:
                reports.append(render_report(validate_access(case(), graph), "json"))
            except ValueError as exc:
                reports.append(str(exc))
        return json.dumps(reports)

    outcomes = []
    for path in json.loads((workdir / "manifest.json").read_text()):
        for argv in COMMANDS.values():
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main([*argv, str(workdir / path)])
            outcomes.append(_outcome(code, out.getvalue(), err.getvalue()))
        document = (workdir / path).read_bytes()
        for case in (lambda: serialize_model(*parse_model(document)), lambda: traced(document),
                     lambda: unchecked(document)):
            try:
                text = case()
            except ParseError as exc:
                outcomes.append(_outcome(2, "", str(exc)))
            except Exception as exc:  # a crash, counted as the CLI counts one
                outcomes.append(_outcome(2, "", f"internal error: {exc!r}"))
            else:
                outcomes.append(_outcome(0, text, ""))
    json.dump(outcomes, sys.stdout)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", help="src directory of the first tree")
    parser.add_argument("new", help="src directory of the second tree")
    args = parser.parse_args()
    docs = documents()
    with tempfile.TemporaryDirectory(prefix="differential-") as tmp:
        workdir = Path(tmp)
        names = []
        for n, (name, text) in enumerate(docs.items()):
            names.append(f"{n:05d}.json")
            (workdir / names[-1]).write_bytes(
                text if isinstance(text, bytes) else text.encode("utf-8", "surrogatepass"))
        (workdir / "manifest.json").write_text(json.dumps(names))
        children = [subprocess.Popen([sys.executable, __file__, "--worker",
                                      str(Path(src).resolve()), tmp], stdout=subprocess.PIPE)
                    for src in (args.old, args.new)]
        outputs = [child.communicate()[0] for child in children]
        if any(child.returncode for child in children):
            print("a worker failed", file=sys.stderr)
            return 2
    old, new = map(json.loads, outputs)

    cases = [(name, case) for name in docs for case in CASES]
    checked = {name: outcome[0] != 2
               for (name, case), outcome in zip(cases, new) if case == "check"}
    differ = differ_checked = 0
    for (name, command), before, after in zip(cases, old, new):
        if before == after:
            continue
        differ += 1
        differ_checked += checked[name]
        print(f"{name} {command}:")
        for what, x, y in zip(("exit", "stdout sha256", "stdout length", "stderr"),
                              before, after):
            if x != y:
                print(f"  {what}: {x!r} -> {y!r}")
    codes = Counter(code for code, *_ in new)
    schema = sum(err.startswith("error: $") for *_, err in new)
    internal = sum("internal error" in err for *_, err in new)
    origins = Counter(name.split("/")[0] for name in docs)
    print(f"{len(docs)} documents ({', '.join(f'{k} {v}' for k, v in origins.items())}), "
          f"mutation seed {SEED}; {len(cases)} cases, {differ} differ, {differ_checked} of "
          f"them on documents whose check case did not exit 2")
    print(f"exit codes {dict(sorted(codes.items()))}; {schema} schema errors at a path "
          f"below $; {internal} internal errors")
    return 1 if differ else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:  # one tree's child, started by main
        worker(sys.argv[2], Path(sys.argv[3]))
    else:
        sys.exit(main())
