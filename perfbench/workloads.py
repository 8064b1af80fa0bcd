"""The four workloads: inputs built from a seed, one op, and its check.

Each workload is a closed loop with one client: op i+1 starts when op i
has returned.  The constructor builds the inputs and their answers
without accesslint; `attach` does the program-side preparation that a
set-up pays for.  `before` prepares op i outside the timed region, `run`
is the timed op (calls into accesslint only, through the `api` call
table), and `check` compares what it returned with answers fixed when
the inputs were built.  A check returns None, or a line saying what was
wrong.
"""

from __future__ import annotations

import io
import pickle
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path
from time import perf_counter

import gen
import oracle

FIXTURES = ("pyramid", "works-diary")
INPUTS = "inputs.pickle"


def check_report(fmt: str, expected, code: int, out: str) -> str | None:
    """Exit code and report text of a successful validate."""
    want = 1 if expected else 0
    if code != want:
        return f"exit {code}, expected {want}"
    if fmt == "json":
        return oracle.check_json_report(out, expected)
    return oracle.check_text_report(out, expected)


def check_failure(doc: gen.Doc, code: int, err: str) -> str | None:
    """An invalid document must exit 2 and name its error on stderr."""
    if code != 2:
        return f"{doc.name}: exit {code}, expected 2"
    if doc.error not in err:
        return f"{doc.name}: stderr does not name {doc.error!r}"
    return None


class Workload:
    """Base: a workload that needs no preparation between ops."""

    # Ops run and checked before timing starts.
    warmup = 1
    # argv for the cold-CLI measurement (after `python -m accesslint.cli`).
    cold_argv: list[str] = []

    def attach(self, api) -> None:
        """Program-side preparation before the first op; timed as set-up."""
        self.api = api

    def before(self, i: int) -> None:
        pass

    def run(self, i: int):
        raise NotImplementedError

    def check(self, i: int, out) -> str | None:
        raise NotImplementedError

    def check_cold(self, code: int, out: str, err: str) -> str | None:
        raise NotImplementedError


def section_sizes(data: dict) -> dict[str, int]:
    """Item count of each list section of a document."""
    return {key: len(value) for key, value in data.items() if isinstance(value, list)}


def answers_only(docs: list[gen.Doc], keep_text: bool) -> list[gen.Doc]:
    """The docs without their data, which the measuring process never reads;
    they keep their text only if the op parses it from memory."""
    return [replace(doc, data={}, text=doc.text if keep_text else "") for doc in docs]


def _write(workdir: Path, doc: gen.Doc) -> str:
    path = workdir / f"{doc.name}.json"
    path.write_text(doc.text, encoding="utf-8")
    return str(path)


# -- ci-fleet -------------------------------------------------------------

# One CI gate invocation per op; per 20 ops this many of each command.
FLEET_MIX = {
    "validate-text": 7,
    "validate-json": 5,
    "check": 3,
    "validate-expand": 2,
    "export-asset": 1,
    "export-goal": 1,
    "fixture": 1,
}
FLEET_DOCS = 300
FLEET_INVALID_EVERY = 20
FLEET_PASSES = 4


def fleet_argv(command: str, path: str, fixture: str) -> list[str]:
    return {
        "validate-text": ["validate", path],
        "validate-json": ["validate", "--format", "json", path],
        "validate-expand": ["validate", "--expand-inheritance", path],
        "check": ["check", path],
        "export-asset": ["export", path, "--view", "asset"],
        "export-goal": ["export", path, "--view", "goal"],
        "fixture": ["fixture", "--name", fixture],
    }[command]


class CiFleet(Workload):
    """Hundreds of small documents, each op one `accesslint` command in-process."""

    warmup = 20

    def __init__(self, seed: int, workdir: Path, src: Path):
        self.docs = gen.fleet(seed, FLEET_DOCS, FLEET_INVALID_EVERY)
        self.expanded = {}
        for d, doc in enumerate(self.docs):
            doc.confirm()
            if doc.valid:
                self.expanded[d] = oracle.validate_expanded(doc.data)
        self.paths = [_write(workdir, doc) for doc in self.docs]
        self.fixtures = {name: (src / "accesslint" / "data" / f"{name}.json")
                         .read_text(encoding="utf-8") for name in FIXTURES}
        rng = random.Random(f"ci-fleet/{seed}/schedule")
        order = []
        for _ in range(FLEET_PASSES):
            shuffled = list(range(len(self.docs)))
            rng.shuffle(shuffled)
            order += shuffled
        block = [cmd for cmd, count in FLEET_MIX.items() for _ in range(count)]
        commands = []
        while len(commands) < len(order):
            rng.shuffle(block)
            commands += block
        self.schedule = list(zip(commands, order))
        # The representative gate: text validate of a valid mid-sized document.
        mid = min(self.expanded, key=lambda d: abs(len(self.docs[d].data["assets"]) - 42))
        self.cold_doc = mid
        self.cold_argv = ["validate", self.paths[mid]]
        self.sizes = [section_sizes(doc.data) for doc in self.docs]
        self.docs = answers_only(self.docs, keep_text=False)

    def _argv(self, command: str, d: int) -> list[str]:
        return fleet_argv(command, self.paths[d], FIXTURES[d % len(FIXTURES)])

    def run(self, i: int):
        command, d = self.schedule[i % len(self.schedule)]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = self.api.main(self._argv(command, d))
            except SystemExit as exc:  # argparse rejected the command line
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    def check(self, i: int, out) -> str | None:
        command, d = self.schedule[i % len(self.schedule)]
        return self._check(command, d, *out)

    def check_cold(self, code: int, out: str, err: str) -> str | None:
        return self._check("validate-text", self.cold_doc, code, out, err)

    def _check(self, command: str, d: int, code: int, out: str, err: str) -> str | None:
        if command == "fixture":
            if code != 0 or out != self.fixtures[FIXTURES[d % len(FIXTURES)]]:
                return f"fixture: exit {code} or text differs"
            return None
        doc = self.docs[d]
        if not doc.valid:
            return check_failure(doc, code, err)
        if command == "check":
            findings = [line for line in err.splitlines() if not line.startswith("warning: ")]
            if code != 0 or findings:
                return f"{doc.name}: check exit {code}, findings {findings[:1]}"
            return None
        if command.startswith("export"):
            size = self.sizes[d]
            want = ((size["assets"], size["associations"]) if command == "export-asset"
                    else (size["goals"], size.get("refinements", 0)))
            got = oracle.dot_counts(out)
            if code != 0 or got != want:
                return f"{doc.name}: {command} exit {code}, nodes/edges {got}, expected {want}"
            return None
        if command == "validate-expand":
            return check_report("text", self.expanded[d], code, out)
        return check_report(command[len("validate-"):], doc.warnings, code, out)


# -- enterprise-audit ------------------------------------------------------

AUDIT_DOCS = 5
AUDIT_ASSETS = 320
AUDIT_NEEDS = 1280


class EnterpriseAudit(Workload):
    """A handful of large models: parse, validate, JSON report, trace denials."""

    warmup = AUDIT_DOCS

    def __init__(self, seed: int, workdir: Path, src: Path):
        rng = random.Random(f"enterprise-audit/{seed}")
        self.docs = [gen.enterprise_draft(rng, AUDIT_ASSETS, AUDIT_NEEDS).doc(f"audit-{k}")
                     for k in range(AUDIT_DOCS)]
        self.traces = []
        for doc in self.docs:
            doc.confirm()
            owner = {(s["subject"], s["access"], s["resource"]): s["requirement"]
                     for s in doc.data["policy"] if s["permission"] == "deny"}
            self.traces.append([oracle.trace_paths(doc.data, owner[w[1:]])
                                for w in doc.warnings if w[0] == "unauthorised_access"])
        self.order = list(range(AUDIT_DOCS))
        rng.shuffle(self.order)
        self.cold_argv = ["validate", "--format", "json", _write(workdir, self.docs[0])]
        self.sizes = [section_sizes(doc.data) for doc in self.docs]
        self.docs = answers_only(self.docs, keep_text=True)

    def run(self, i: int):
        api = self.api
        doc = self.docs[self.order[i % AUDIT_DOCS]]
        model, graph = api.parse_model(doc.text)
        report = api.validate_access(model, graph)
        text = api.render_report(report, "json")
        paths = []
        for w in report.warnings:
            if w.kind.value == "unauthorised_access":
                t = w.triple
                stmt = api.lookup_statement(graph, t.subject, t.access, t.resource,
                                            api.Permission.DENY)
                paths.append(api.trace(graph, stmt))
        return model, graph, text, paths

    def check(self, i: int, out) -> str | None:
        k = self.order[i % AUDIT_DOCS]
        doc = self.docs[k]
        model, graph, text, paths = out
        sizes = (len(model.assets), len(model.associations), len(graph.policy))
        size = self.sizes[k]
        if sizes != (size["assets"], size["associations"], size["policy"]):
            return f"{doc.name}: parsed sizes {sizes}"
        problem = oracle.check_json_report(text, doc.warnings)
        if problem:
            return f"{doc.name}: {problem}"
        if paths != self.traces[k]:
            return f"{doc.name}: trace paths differ"
        return None

    def check_cold(self, code: int, out: str, err: str) -> str | None:
        return check_report("json", self.docs[0].warnings, code, out)


# -- deep-hierarchy -------------------------------------------------------

# Chain depths of each document: tens to a couple of hundred deep.  The
# document count is odd, as is AUDIT_DOCS, so the median op falls inside
# one document's cluster of latencies rather than in the gap between two.
DEEP_PROFILES = (
    (200, 120, 80, 40, 20),
    (160, 100, 60, 30),
    (120, 90, 60, 40, 30, 20, 10),
    (200, 40),
    (50, 40, 30, 20, 20, 10, 10, 10),
)
DEEP_NEEDS_PER_CHAIN = 6


class DeepHierarchy(Workload):
    """Long same-kind parent chains, validated with inheritance expansion."""

    warmup = len(DEEP_PROFILES)

    def __init__(self, seed: int, workdir: Path, src: Path):
        rng = random.Random(f"deep-hierarchy/{seed}")
        self.docs = [gen.deep_doc(rng, f"deep-{k}", depths, DEEP_NEEDS_PER_CHAIN)
                     for k, depths in enumerate(DEEP_PROFILES)]
        self.expanded = []
        for doc in self.docs:
            doc.confirm()
            self.expanded.append(oracle.validate_expanded(doc.data))
        self.order = list(range(len(self.docs)))
        rng.shuffle(self.order)
        self.cold_argv = ["validate", "--expand-inheritance", _write(workdir, self.docs[0])]
        self.sizes = [section_sizes(doc.data) for doc in self.docs]
        self.docs = answers_only(self.docs, keep_text=True)

    def run(self, i: int):
        api = self.api
        doc = self.docs[self.order[i % len(self.docs)]]
        model, graph = api.parse_model(doc.text)
        report = api.validate_access(api.expand_hierarchy(model), graph)
        return model, api.render_report(report, "text")

    def check(self, i: int, out) -> str | None:
        k = self.order[i % len(self.docs)]
        model, text = out
        if len(model.assets) != self.sizes[k]["assets"]:
            return f"{self.docs[k].name}: {len(model.assets)} assets parsed"
        problem = oracle.check_text_report(text, self.expanded[k])
        return f"{self.docs[k].name}: {problem}" if problem else None

    def check_cold(self, code: int, out: str, err: str) -> str | None:
        return check_report("text", self.expanded[0], code, out)


# -- policy-churn ---------------------------------------------------------

CHURN_ASSETS = AUDIT_ASSETS
CHURN_NEEDS = AUDIT_NEEDS
# Edit kinds, per ten ops.  Flips and resizes steer back towards the
# starting policy size and deny count, so the document's cost does not
# drift with the length of the run.
CHURN_MIX = ("flip",) * 3 + ("resize",) * 4 + ("level",) * 2 + ("reparent",)
PROPERTIES = ("confidentiality", "integrity")


class PolicyChurn(Workload):
    """An editor save loop: edit, serialize, re-parse, re-validate, re-render.

    The generator's tags are kept up to date through every edit, so the
    expected warnings after op i are known without accesslint; the oracle
    re-derives them from the edited document and both must agree.
    """

    warmup = 3

    def __init__(self, seed: int, workdir: Path, src: Path):
        rng = random.Random(f"policy-churn/{seed}")
        self.draft = gen.enterprise_draft(rng, CHURN_ASSETS, CHURN_NEEDS)
        doc = self.draft.doc("churn-base")
        doc.confirm()
        self.data = doc.data
        self.base_text = doc.text
        self.base_warnings = doc.warnings
        self.cold_argv = ["validate", _write(workdir, doc)]
        self.edits = random.Random(f"policy-churn/{seed}/edits")
        self.mix = list(CHURN_MIX)
        self.start_size = len(self.data["policy"])
        self.denies = self.start_denies = sum(
            s["permission"] == "deny" for s in self.data["policy"])

    def attach(self, api) -> None:
        """Open the base model, as an editor does before the first save."""
        super().attach(api)
        self.model, self.graph = api.parse_model(self.base_text)

    # Each edit changes the document dict, the generator's answers and the
    # program's objects alike; it returns the edited (model, graph).

    def _wanted(self) -> str:
        """The permission whose count is below its starting value."""
        return "deny" if self.denies < self.start_denies else "allow"

    def _flip(self, model, graph):
        policy = self.data["policy"]
        want = self._wanted()
        k = self.edits.choice([i for i, s in enumerate(policy) if s["permission"] != want])
        stmt = policy[k]
        stmt["permission"] = want
        self.denies += 1 if want == "deny" else -1
        self.draft.branch[(stmt["subject"], stmt["access"], stmt["resource"])] = want
        statements = list(graph.policy)
        statements[k] = replace(statements[k],
                                permission=self.api.Permission(stmt["permission"]))
        return model, replace(graph, policy=tuple(statements))

    def _add(self, model, graph):
        branch = self.draft.branch
        absent = [t for t in self.draft.needs if t not in branch]
        if not absent:
            return self._flip(model, graph)
        subject, access, resource = triple = self.edits.choice(absent)
        permission = self._wanted()
        self.denies += permission == "deny"
        owner = self.edits.choice(self.draft.requirements)
        k = self.edits.randrange(len(self.data["policy"]) + 1)
        self.data["policy"].insert(k, {
            "requirement": owner, "subject": subject, "access": access,
            "resource": resource, "permission": permission})
        branch[triple] = permission
        api = self.api
        statements = list(graph.policy)
        statements.insert(k, api.PolicyStatement(
            owner, subject, api.AccessNeed(access), resource, api.Permission(permission)))
        return model, replace(graph, policy=tuple(statements))

    def _drop(self, model, graph):
        k = self.edits.randrange(len(self.data["policy"]))
        stmt = self.data["policy"].pop(k)
        self.denies -= stmt["permission"] == "deny"
        del self.draft.branch[(stmt["subject"], stmt["access"], stmt["resource"])]
        statements = list(graph.policy)
        del statements[k]
        return model, replace(graph, policy=tuple(statements))

    def _resize(self, model, graph):
        if len(self.data["policy"]) > self.start_size:
            return self._drop(model, graph)
        return self._add(model, graph)

    def _level(self, model, graph):
        k = self.edits.randrange(len(self.data["assets"]))
        asset = self.data["assets"][k]
        prop = self.edits.choice(PROPERTIES)
        old = gen.LEVELS.index(asset[prop])
        new = self.edits.choice([v for v in range(4) if v != old])
        asset[prop] = gen.LEVELS[new]
        c, i = self.draft.levels[asset["name"]]
        self.draft.levels[asset["name"]] = (new, i) if prop == PROPERTIES[0] else (c, new)
        assets = list(model.assets)
        assets[k] = replace(assets[k], **{prop: self.api.SecurityValue(new)})
        return replace(model, assets=tuple(assets)), graph

    def _reparent(self, model, graph):
        assets = self.data["assets"]
        k = self.edits.randrange(len(assets))
        asset = assets[k]
        parent = {a["name"]: a.get("parent") for a in assets}
        candidates = []
        for other in assets:
            if other["kind"] != asset["kind"] or other is asset:
                continue
            ancestor = other["name"]
            while ancestor is not None and ancestor != asset["name"]:
                ancestor = parent[ancestor]
            if ancestor is None:  # other is not a descendant: no cycle
                candidates.append(other["name"])
        new = None
        if candidates and (asset.get("parent") is None or self.edits.random() < 0.7):
            new = self.edits.choice(candidates)
        if new is None:
            asset.pop("parent", None)
        else:
            asset["parent"] = new
        changed = list(model.assets)
        changed[k] = replace(changed[k], parent=new)
        return replace(model, assets=tuple(changed)), graph

    def before(self, i: int) -> None:
        if i % len(self.mix) == 0:
            self.edits.shuffle(self.mix)
        edit = getattr(self, "_" + self.mix[i % len(self.mix)])
        self.pending = edit(self.model, self.graph)
        self.expected_text = gen.text_of(self.data)
        self.expected = self.draft.expected_warnings()
        if oracle.validate(self.data) != self.expected:
            raise AssertionError(f"op {i}: generator answers disagree with the oracle")

    def run(self, i: int):
        api = self.api
        text = api.serialize_model(*self.pending)
        self.model, self.graph = api.parse_model(text)
        report = api.validate_access(self.model, self.graph)
        return text, api.render_report(report, "text")

    def check(self, i: int, out) -> str | None:
        text, report = out
        if text != self.expected_text:
            return f"op {i}: serialized document differs from the edited document"
        return oracle.check_text_report(report, self.expected)

    def check_cold(self, code: int, out: str, err: str) -> str | None:
        return check_report("text", self.base_warnings, code, out)


WORKLOADS = {
    "ci-fleet": CiFleet,
    "enterprise-audit": EnterpriseAudit,
    "deep-hierarchy": DeepHierarchy,
    "policy-churn": PolicyChurn,
}


def save(workload: Workload, workdir: Path) -> None:
    with open(workdir / INPUTS, "wb") as handle:
        pickle.dump(workload, handle, protocol=pickle.HIGHEST_PROTOCOL)


def load(workdir: Path) -> Workload:
    with open(workdir / INPUTS, "rb") as handle:
        return pickle.load(handle)


class Runner:
    """Runs and checks ops of one workload, counting what was attempted and failed."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self.next = 0
        self.attempted = 0
        self.failures: list[str] = []

    def prepare(self) -> int:
        """Untimed preparation of the next op; returns its number."""
        i = self.next
        self.next += 1
        self.workload.before(i)
        return i

    def attempt(self, i: int) -> float:
        """Run and check prepared op i; return its latency in seconds."""
        self.attempted += 1
        start = perf_counter()
        try:
            out = self.workload.run(i)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            self.failures.append(f"op {i}: raised {type(exc).__name__}: {exc}")
            return perf_counter() - start
        elapsed = perf_counter() - start
        problem = self.workload.check(i, out)
        if problem:
            self.failures.append(f"op {i}: {problem}")
        return elapsed

    def op(self) -> float:
        return self.attempt(self.prepare())
