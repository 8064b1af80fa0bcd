"""Seeded model documents with their answers built in.

The generator decides the answer first and writes the document to
match: every expanded need is tagged allow, deny or absent before any
policy statement exists, and the policy is then written from the tags.
Levels belong to assets, so the level relation of each need follows
from the levels drawn for its two ends.  Each Doc carries the warning
sequence a correct accesslint must report, or for an invalid document
the error it must name, and `Doc.confirm` checks that the independent
oracle, reading only the finished document, agrees.

Documents are canonical (the byte form serialize_model produces), so a
parse/serialize round trip must reproduce them exactly.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

import oracle

LEVELS = ("none", "low", "medium", "high")
PEOPLE = "people"
ASSET_KINDS = ("system", "information", PEOPLE)
PERMISSIONS = ("allow", "deny")


def text_of(data: dict) -> str:
    """Document text in the form serialize_model writes."""
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def may_hold(subject_kind: str, resource_kind: str) -> bool:
    """Default access-rule matrix: only people may hold needs upon people."""
    return subject_kind == PEOPLE or resource_kind != PEOPLE


@dataclass
class Doc:
    """One generated document and the answers it was built to produce."""

    name: str
    data: dict
    text: str
    # Warning sequence of `validate`, from the generator's tags.
    warnings: list = field(default_factory=list)
    # Substring that stderr must contain when the document is invalid.
    error: str | None = None

    @property
    def valid(self) -> bool:
        return self.error is None

    def confirm(self) -> None:
        """Raise if the oracle, reading only the document, disagrees with the tags."""
        if self.valid and oracle.validate(self.data) != self.warnings:
            raise AssertionError(f"{self.name}: generator tags disagree with the oracle")


class ModelDraft:
    """Accumulates one model document; the rng decides every choice."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.assets: list[dict] = []
        self.kind: dict[str, str] = {}
        self.levels: dict[str, tuple[int, int]] = {}
        self.pairs: set[frozenset] = set()
        self.associations: list[dict] = []
        self.needs: list[tuple[str, str, str]] = []
        self.branch: dict[tuple[str, str, str], str] = {}
        self.goals: list[dict] = []
        self.refinements: list[dict] = []
        self.policy: list[dict] = []
        self.requirements: list[str] = []

    # -- assets ---------------------------------------------------------

    def add_asset(self, kind: str, parent: str | None = None, label: str = "") -> str:
        name = f"{label or kind.capitalize()} {len(self.assets):04d}"
        c, i = self.rng.randrange(4), self.rng.randrange(4)
        asset = {"name": name, "kind": kind,
                 "confidentiality": LEVELS[c], "integrity": LEVELS[i]}
        if parent is not None:
            asset["parent"] = parent
        self.assets.append(asset)
        self.kind[name] = kind
        self.levels[name] = (c, i)
        return name

    def add_assets(self, count: int, weights=(5, 4, 1), parent_share: float = 0.0) -> list[str]:
        """count assets of random kinds; a share get an earlier same-kind parent.

        Parents are drawn at random among earlier assets, so chains never
        cycle; nothing else about them is constrained.
        """
        names = []
        for _ in range(count):
            kind = self.rng.choices(ASSET_KINDS, weights)[0]
            parent = None
            if self.rng.random() < parent_share:
                same = [n for n in names if self.kind[n] == kind]
                if same:
                    parent = self.rng.choice(same)
            names.append(self.add_asset(kind, parent))
        return names

    def add_chain(self, kind: str, depth: int, label: str) -> list[str]:
        """depth assets of one kind, each the parent of the next."""
        names: list[str] = []
        for _ in range(depth):
            names.append(self.add_asset(kind, names[-1] if names else None, label))
        return names

    # -- needs ----------------------------------------------------------

    def _need_set(self) -> list[str]:
        size = self.rng.choices((1, 2, 3), (14, 5, 1))[0]
        chosen = set(self.rng.sample(oracle.NEEDS, size))
        return [n for n in oracle.NEEDS if n in chosen]

    def add_needs(self, count: int, subjects: list[str], resources: list[str],
                  both_ends: bool = True) -> None:
        """Associations between fresh pairs until exactly count triples exist.

        With both_ends false, only the subjects hold needs.
        """
        target = len(self.needs) + count
        attempts = 0
        while len(self.needs) < target:
            attempts += 1
            if attempts > 100 * count:
                raise ValueError(f"cannot place {count} needs among these assets")
            source = self.rng.choice(subjects)
            dest = self.rng.choice(resources)
            pair = frozenset((source, dest))
            if source == dest or pair in self.pairs:
                continue
            forward = may_hold(self.kind[source], self.kind[dest])
            backward = may_hold(self.kind[dest], self.kind[source])
            shape = (self.rng.choices(("source", "target", "both"), (2, 1, 1))[0]
                     if both_ends else "source")
            source_needs = self._need_set() if forward and shape != "target" else []
            target_needs = self._need_set() if backward and shape != "source" else []
            if not source_needs and not target_needs:
                continue
            room = target - len(self.needs)
            source_needs = source_needs[:room]
            target_needs = target_needs[:room - len(source_needs)]
            assoc = {"source": source, "target": dest}
            if source_needs:
                assoc["sourceNeeds"] = source_needs
            if target_needs:
                assoc["targetNeeds"] = target_needs
            self.pairs.add(pair)
            self.associations.append(assoc)
            self.needs += [(source, n, dest) for n in source_needs]
            self.needs += [(dest, n, source) for n in target_needs]

    # -- policy and goals -----------------------------------------------

    def tag_needs(self, allow: float, deny: float) -> None:
        """Tag exact shares of the needs allow and deny; the rest stay absent."""
        n = len(self.needs)
        n_allow, n_deny = round(n * allow), round(n * deny)
        tags = ["allow"] * n_allow + ["deny"] * n_deny + [None] * (n - n_allow - n_deny)
        self.rng.shuffle(tags)
        for need, tag in zip(self.needs, tags):
            if tag is not None:
                self.branch[need] = tag

    def add_goal_graph(self, n_requirements: int, goal_levels: tuple[int, ...],
                       multi_parent: float = 0.3, root_requirements: int = 0) -> None:
        """A refinement DAG: goals in levels, requirements as leaves.

        Each node below the top level is refined from one parent on the
        level above, or from two with probability multi_parent.
        """
        levels: list[list[str]] = []
        for depth, width in enumerate(goal_levels):
            names = [f"Goal {depth}.{i:03d}" for i in range(width)]
            for name in names:
                self.goals.append({"name": name, "kind": "goal",
                                   "definition": f"Keep {name.lower()} satisfied"})
            levels.append(names)
        self.requirements = [f"Req {i:04d}" for i in range(n_requirements)]
        self.goals += [{"name": r, "kind": "requirement"} for r in self.requirements]
        levels.append(self.requirements[root_requirements:])
        for above, below in zip(levels, levels[1:]):
            for child in below:
                count = 2 if len(above) > 1 and self.rng.random() < multi_parent else 1
                for parent in self.rng.sample(above, count):
                    self.refinements.append({"parent": parent, "child": child})
        self.rng.shuffle(self.refinements)

    def write_policy(self, extra: int = 0, assets: list[str] | None = None) -> None:
        """One statement per tagged need, plus extra statements about non-needs.

        Statements are shuffled relative to the needs and dealt to
        requirements so each requirement owns at least one when possible.
        """
        statements = [(s, a, r, self.branch[(s, a, r)])
                      for s, a, r in self.needs if (s, a, r) in self.branch]
        pool = assets or [a["name"] for a in self.assets]
        mentioned = set(self.needs)
        while extra > 0 and len(pool) > 1:
            subject, resource = self.rng.sample(pool, 2)
            triple = (subject, self.rng.choice(oracle.NEEDS), resource)
            if triple in mentioned:
                continue
            mentioned.add(triple)
            self.branch[triple] = self.rng.choice(PERMISSIONS)
            statements.append(triple + (self.branch[triple],))
            extra -= 1
        self.rng.shuffle(statements)
        owners = list(self.requirements)
        self.rng.shuffle(owners)
        for i, (subject, access, resource, permission) in enumerate(statements):
            owner = owners[i] if i < len(owners) else self.rng.choice(self.requirements)
            self.policy.append({"requirement": owner, "subject": subject, "access": access,
                                "resource": resource, "permission": permission})

    # -- output ---------------------------------------------------------

    def data(self) -> dict:
        data: dict = {"version": 1}
        for key, items in (("assets", self.assets), ("associations", self.associations),
                           ("goals", self.goals), ("refinements", self.refinements),
                           ("policy", self.policy)):
            if items:
                data[key] = items
        return data

    def expected_warnings(self) -> list:
        ordered = sorted(self.needs, key=oracle.engine_order)
        return oracle.warnings_for(ordered, self.branch.get, self.levels)

    def doc(self, name: str) -> Doc:
        data = self.data()
        return Doc(name, data, text_of(data), self.expected_warnings())


# -- invalid documents ----------------------------------------------------

GHOST = "Ghost Asset"

# Each breaks a valid document in one way; the returned token must appear
# on stderr because it names the failing path or the structural error code.
def _unknown_key(rng, data):
    k = rng.randrange(len(data["assets"]))
    data["assets"][k]["colour"] = "red"
    return f"assets[{k}].colour"


def _bad_level(rng, data):
    k = rng.randrange(len(data["assets"]))
    data["assets"][k]["integrity"] = "extreme"
    return f"assets[{k}].integrity"


def _dangling_association(rng, data):
    rng.choice(data["associations"])["target"] = GHOST
    return "UnknownAsset"


def _dangling_policy(rng, data):
    rng.choice(data["policy"])["resource"] = GHOST
    return "UnknownAsset"


def _dangling_parent(rng, data):
    rng.choice(data["assets"])["parent"] = GHOST
    return "UnknownParent"


def _conflict(rng, data):
    stmt = dict(rng.choice(data["policy"]))
    stmt["permission"] = "deny" if stmt["permission"] == "allow" else "allow"
    data["policy"].append(stmt)
    return "ConflictingPermission"


BREAKAGES = (_unknown_key, _bad_level, _dangling_association,
             _dangling_policy, _dangling_parent, _conflict)


def break_doc(rng: random.Random, doc: Doc, breakage) -> Doc:
    data = json.loads(doc.text)
    error = breakage(rng, data)
    return Doc(doc.name, data, text_of(data), [], error)


# -- workload inputs -------------------------------------------------------

def small_doc(rng: random.Random, name: str, n_assets: int) -> Doc:
    """A CI-sized model: most needs allowed, a few denied, some parents."""
    b = ModelDraft(rng)
    names = b.add_assets(n_assets, parent_share=0.3)
    # Every pair can hold at least one need, so this many always fit.
    b.add_needs(min(n_assets * 5 // 2, n_assets * (n_assets - 1) // 2), names, names)
    b.tag_needs(allow=0.75, deny=0.08)
    n_req = max(1, n_assets // 3)
    b.add_goal_graph(n_req, (1, max(1, n_req // 4)), root_requirements=n_req // 8)
    b.write_policy(extra=n_assets // 10)
    return b.doc(name)


def fleet(seed: int, size: int, invalid_every: int) -> list[Doc]:
    """size small documents of evenly spread sizes; every invalid_every-th is broken."""
    rng = random.Random(f"ci-fleet/{seed}")
    sizes = [5 + (75 * i) // (size - 1) for i in range(size)]
    rng.shuffle(sizes)
    docs = []
    for i, n_assets in enumerate(sizes):
        doc = small_doc(rng, f"fleet-{i:03d}", n_assets)
        if i % invalid_every == invalid_every - 1:
            doc = break_doc(rng, doc, BREAKAGES[(i // invalid_every) % len(BREAKAGES)])
        docs.append(doc)
    return docs


def enterprise_draft(rng: random.Random, n_assets: int, n_needs: int) -> ModelDraft:
    """A large model: 60% of needs allowed, 10% denied, 30% left undefined,
    with a multi-parent goal DAG over one requirement per four statements."""
    b = ModelDraft(rng)
    names = b.add_assets(n_assets, parent_share=0.2)
    b.add_needs(n_needs, names, names)
    b.tag_needs(allow=0.6, deny=0.1)
    n_req = round(n_needs * 0.7) // 4
    b.add_goal_graph(n_req, (4, 16, n_req // 6), multi_parent=0.35,
                     root_requirements=n_req // 50)
    b.write_policy()
    return b


def deep_doc(rng: random.Random, name: str, depths: tuple[int, ...],
             needs_per_chain: int) -> Doc:
    """Same-kind parent chains with needs near their tops and an almost empty policy."""
    b = ModelDraft(rng)
    resources = b.add_assets(12, weights=(1, 1, 0))
    for c, depth in enumerate(depths):
        kind = ("system", "information")[c % 2]
        chain = b.add_chain(kind, depth, label=f"Chain{c:02d}")
        top = chain[:max(1, depth // 10)]
        b.add_needs(needs_per_chain, top, resources, both_ends=False)
    b.tag_needs(allow=0.05, deny=0.0)
    b.add_goal_graph(2, (1,))
    b.write_policy()
    return b.doc(name)
