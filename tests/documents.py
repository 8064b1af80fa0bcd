"""Generated model documents of a few shapes, each growing with a size n.

Every document in SHAPES parses and passes the structure checks, except that
the duplicate-statement shape holds DuplicateStatement and ConflictingPermission
findings by design.  The documents are dicts for json.dumps.  Each shape
declares parents before their children, but for the two bottom-up twins.
The documents in RINGS parse too, but hold inheritance or refinement cycles.
"""

from __future__ import annotations

import random

LEVELS = ("none", "low", "medium", "high")
NEED_LISTS = (["read"], ["write"], ["read", "write"], ["interact"], ["write", "interact"])


def _asset(name: str, kind: str, i: int, **extra) -> dict:
    return {"name": name, "kind": kind, "confidentiality": LEVELS[i % 4],
            "integrity": LEVELS[i // 2 % 4], **extra}


def _statement(requirement: str, subject: str, access: str, resource: str,
               permission: str) -> dict:
    return {"requirement": requirement, "subject": subject, "access": access,
            "resource": resource, "permission": permission}


def _document(assets=(), associations=(), goals=(), refinements=(), policy=()) -> dict:
    return {"version": 1, "assets": list(assets), "associations": list(associations),
            "goals": list(goals), "refinements": list(refinements), "policy": list(policy)}


def wide(n: int) -> dict:
    """n assets, two associations each, a three-level goal tree and a shuffled policy.

    Each need is allowed, denied or left out of the policy in turn.
    """
    names = [f"Asset {i}" for i in range(n)]
    assets = [_asset(name, ("system", "information")[i % 2], i,
                     **({"extraProperties": {"availability": LEVELS[i % 4]}} if i % 5 == 0
                        else {}))
              for i, name in enumerate(names)]
    associations = []
    for i in range(n):
        for step in (1, 3):
            association = {"source": names[i], "target": names[(i + step) % n],
                           "sourceNeeds": NEED_LISTS[(i + step) % len(NEED_LISTS)]}
            if (i + step) % 3 == 0:
                association["targetNeeds"] = NEED_LISTS[i % len(NEED_LISTS)]
                association["targetMultiplicity"] = "1..*"
            associations.append(association)
    areas = [f"Area {j}" for j in range(n // 4)]
    goals = [{"name": "Secure", "kind": "goal", "definition": "Keep the data safe"}]
    goals += [{"name": area, "kind": "goal"} for area in areas]
    refinements = [{"parent": "Secure", "child": area} for area in areas]
    policy = []
    for i, association in enumerate(associations):
        requirement = f"Requirement {i}"
        goals.append({"name": requirement, "kind": "requirement"})
        refinements.append({"parent": areas[i % len(areas)], "child": requirement})
        source, target = association["source"], association["target"]
        for subject, resource, needs in ((source, target, association["sourceNeeds"]),
                                         (target, source, association.get("targetNeeds", ()))):
            for j, need in enumerate(needs):
                if (i + j) % 5 < 4:
                    permission = "deny" if (i + j) % 5 == 3 else "allow"
                    policy.append(_statement(requirement, subject, need, resource, permission))
    random.Random(n).shuffle(policy)
    document = _document(assets, associations, goals, refinements, policy)
    document["matrixOverride"] = [{"subject": "people", "resource": "people",
                                   "allowed": False}]
    return document


def parent_chain(n: int) -> dict:
    """A chain of n assets below a root that holds needs; each also writes a log."""
    chain = [_asset(f"Service {i}", "system", i, **({"parent": f"Service {i - 1}"} if i else {}))
             for i in range(n)]
    names = ("Log", "Store A", "Store B")
    stores = [_asset(name, "information", i) for i, name in enumerate(names)]
    associations = [{"source": "Service 0", "target": name, "sourceNeeds": ["read"]}
                    for name in names[1:]]
    associations += [{"source": asset["name"], "target": "Log", "sourceNeeds": ["write"]}
                     for asset in chain]
    policy = [_statement("Logging", f"Service {i}", "write", "Log", "allow")
              for i in range(0, n, 2)]
    return _document(chain + stores, associations, [{"name": "Logging", "kind": "requirement"}],
                     (), policy)


def owned_needs_chain(n: int) -> dict:
    """A chain of n assets, each reading a store of its own.

    Each asset inherits its ancestors' reads, so the expanded triples grow
    as n squared while the document grows as n.
    """
    chain = [_asset(f"Service {i}", "system", i, **({"parent": f"Service {i - 1}"} if i else {}))
             for i in range(n)]
    stores = [_asset(f"Store {i}", "information", i + 1) for i in range(n)]
    associations = [{"source": f"Service {i}", "target": f"Store {i}", "sourceNeeds": ["read"]}
                    for i in range(n)]
    policy = [_statement("Reading", f"Service {i}", "read", f"Store {i}", "allow")
              for i in range(0, n, 2)]
    return _document(chain + stores, associations, [{"name": "Reading", "kind": "requirement"}],
                     (), policy)


def mutual_gains(n: int) -> dict:
    """n pairs of assets, A and B, whose parents hold needs upon each other's child.

    A inherits a read upon B and B a write upon A, so that expand_hierarchy
    places each pair's two gains in one new association.
    """
    assets, associations, policy = [], [], []
    for i in range(n):
        a, b, parent_a, parent_b = f"A {i}", f"B {i}", f"Parent A {i}", f"Parent B {i}"
        assets += [_asset(parent_a, "system", i), _asset(a, "system", i, parent=parent_a),
                   _asset(parent_b, "system", i + 1), _asset(b, "system", i + 1, parent=parent_b)]
        associations += [{"source": parent_a, "target": b, "sourceNeeds": ["read"]},
                         {"source": parent_b, "target": a, "sourceNeeds": ["write"]}]
        policy.append(_statement("Pairing", a, "read", b, ("allow", "deny")[i % 3 == 2]))
    return _document(assets, associations, [{"name": "Pairing", "kind": "requirement"}],
                     (), policy)


# Two assets and one association, for the shapes that grow the goal graph.
_PAIR = ([_asset("Client", "system", 3), _asset("Records", "information", 1)],
         [{"source": "Client", "target": "Records", "sourceNeeds": ["read", "write"]}])


def refinement_chain(n: int) -> dict:
    """n goals in one refinement chain, with a requirement at the bottom."""
    goals = [{"name": f"Goal {i}", "kind": "goal"} for i in range(n)]
    goals.append({"name": "Requirement", "kind": "requirement"})
    refinements = [{"parent": parent["name"], "child": child["name"]}
                   for parent, child in zip(goals, goals[1:])]
    policy = [_statement("Requirement", "Client", "read", "Records", "allow"),
              _statement("Requirement", "Client", "write", "Records", "deny")]
    return _document(*_PAIR, goals, refinements, policy)


def diamonds(n: int) -> dict:
    """n refinement diamonds stacked on each other, with a requirement at the bottom.

    The requirement has 2**n refinement paths up to the root.
    """
    tops = [f"Top {i}" for i in range(n)] + ["Requirement"]
    goals = [{"name": name, "kind": "goal"} for i in range(n)
             for name in (tops[i], f"Left {i}", f"Right {i}")]
    goals.append({"name": "Requirement", "kind": "requirement"})
    refinements = [{"parent": parent, "child": child} for i in range(n)
                   for side in (f"Left {i}", f"Right {i}")
                   for parent, child in ((tops[i], side), (side, tops[i + 1]))]
    policy = [_statement("Requirement", "Client", "read", "Records", "allow")]
    return _document(*_PAIR, goals, refinements, policy)


def duplicate_statements(n: int) -> dict:
    """n policy statements over two interactions, each repeated or contradicted."""
    statements = [_statement("Requirement", "Client", "read", "Records", "allow"),
                  _statement("Requirement", "Client", "write", "Records", "allow"),
                  _statement("Requirement", "Client", "read", "Records", "deny")]
    return _document(*_PAIR, [{"name": "Requirement", "kind": "requirement"}], (),
                     [statements[i % 3] for i in range(n)])


def inheritance_rings(count: int, size: int) -> dict:
    """count disjoint inheritance rings of size assets, each a parent of the one before."""
    assets = [_asset(f"Ring {r} asset {i}", "system", i, parent=f"Ring {r} asset {(i + 1) % size}")
              for r in range(count) for i in range(size)]
    return _document(assets)


def refinement_rings(count: int, size: int) -> dict:
    """count disjoint refinement rings of size goals, each refined by the one before."""
    goals = [{"name": f"Ring {r} goal {i}", "kind": "goal"}
             for r in range(count) for i in range(size)]
    refinements = [{"parent": f"Ring {r} goal {(i + 1) % size}", "child": f"Ring {r} goal {i}"}
                   for r in range(count) for i in range(size)]
    return _document(*_PAIR, goals, refinements)


def bottom_up(document: dict, section: str) -> dict:
    """document with the records of section, its assets or goals, in reverse order,
    so that each child is declared before its parent."""
    return {**document, section: document[section][::-1]}


# Shape -> (generator, base size n); documents are built at n, 2n, 4n and 8n.
SHAPES = {
    "wide": (wide, 40),
    "parent-chain": (parent_chain, 80),
    "parent-chain-bottom-up": (lambda n: bottom_up(parent_chain(n), "assets"), 80),
    "owned-needs-chain": (owned_needs_chain, 6),
    "mutual-gains": (mutual_gains, 40),
    "refinement-chain": (refinement_chain, 80),
    "refinement-chain-bottom-up": (lambda n: bottom_up(refinement_chain(n), "goals"), 80),
    "diamonds": (diamonds, 40),
    "duplicate-statements": (duplicate_statements, 100),
}

# Unsound shapes for the structure checks alone: one ring of n records, and n
# rings of two, of each hierarchy.
RINGS = {
    "inheritance-ring": (lambda n: inheritance_rings(1, n), 80),
    "inheritance-pairs": (lambda n: inheritance_rings(n, 2), 40),
    "refinement-ring": (lambda n: refinement_rings(1, n), 80),
    "refinement-pairs": (lambda n: refinement_rings(n, 2), 40),
}
