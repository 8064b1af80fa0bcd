"""Independent second opinion on what accesslint must output.

Everything here works on the plain JSON document (dicts, lists and
strings) and never imports accesslint, so a defect in the program
cannot hide itself by also being in the check.  The rules are restated
from docs/warnings.md: policy resolution by a full scan of the policy,
the four lattice rules, inheritance as an ancestor closure, and trace
paths as a depth-first walk over refinements in document order.
"""

from __future__ import annotations

import json
from collections import Counter

NEEDS = ("read", "write", "interact")
RANK = {need: i for i, need in enumerate(NEEDS)}
LEVEL = {"none": 0, "low": 1, "medium": 2, "high": 3}

# Summary rows in report order: (JSON key, text label, warning kind counted).
RULES = (
    ("simpleSecurity", "Simple Security Property", "no_read_up"),
    ("starProperty", "*-Property", "no_write_down"),
    ("simpleIntegrity", "Simple Integrity Property", "no_write_up"),
    ("integrityStar", "Integrity *-Property", "no_read_down"),
    ("absentPolicies", "Absent policies", "undefined_access"),
)
KINDS = ("undefined_access", "unauthorised_access", "no_read_up",
         "no_write_down", "no_write_up", "no_read_down")


def engine_order(triple: tuple[str, str, str]) -> tuple[str, str, int]:
    """Sort key of a (subject, access, resource) triple: subject, resource, need."""
    return (triple[0], triple[2], RANK[triple[1]])


def triples(data: dict) -> list[tuple[str, str, str]]:
    """Every single-need (subject, access, resource) triple, in report order."""
    out = []
    for assoc in data.get("associations", ()):
        for need in assoc.get("sourceNeeds", ()):
            out.append((assoc["source"], need, assoc["target"]))
        for need in assoc.get("targetNeeds", ()):
            out.append((assoc["target"], need, assoc["source"]))
    out.sort(key=engine_order)
    return out


def policy_branches(data: dict) -> dict[tuple[str, str, str], str]:
    """Branch of every interaction the policy mentions, from one scan.

    An allow anywhere wins ("allow"); otherwise a deny gives "deny".
    Interactions the policy never mentions are absent from the result.
    """
    branch: dict[tuple[str, str, str], str] = {}
    for stmt in data.get("policy", ()):
        key = (stmt["subject"], stmt["access"], stmt["resource"])
        if stmt["permission"] == "allow" or key not in branch:
            branch[key] = stmt["permission"]
    return branch


def level_rule_kinds(subject_c: int, resource_c: int,
                     subject_i: int, resource_i: int, access: str) -> list[str]:
    """Warning kinds an allowed access raises, in report order."""
    kinds = []
    if access == "read" and resource_c > subject_c:
        kinds.append("no_read_up")
    if access == "write" and subject_c > resource_c:
        kinds.append("no_write_down")
    if access == "write" and resource_i > subject_i:
        kinds.append("no_write_up")
    if access == "read" and subject_i > resource_i:
        kinds.append("no_read_down")
    return kinds


def asset_levels(data: dict) -> dict[str, tuple[int, int]]:
    """(confidentiality, integrity) of every asset, as ints 0..3."""
    return {a["name"]: (LEVEL[a.get("confidentiality", "none")],
                        LEVEL[a.get("integrity", "none")])
            for a in data.get("assets", ())}


def warnings_for(ordered_triples, branch_of, levels) -> list[tuple[str, str, str, str]]:
    """(kind, subject, access, resource) for each triple, in report order.

    branch_of maps a triple to "allow", "deny", or None when absent.
    """
    out = []
    for triple in ordered_triples:
        subject, access, resource = triple
        branch = branch_of(triple)
        if branch == "allow":
            (sc, si), (rc, ri) = levels[subject], levels[resource]
            for kind in level_rule_kinds(sc, rc, si, ri, access):
                out.append((kind, subject, access, resource))
        elif branch == "deny":
            out.append(("unauthorised_access", subject, access, resource))
        else:
            out.append(("undefined_access", subject, access, resource))
    return out


def validate(data: dict) -> list[tuple[str, str, str, str]]:
    """The full warning sequence `accesslint validate` must report."""
    return warnings_for(triples(data), policy_branches(data).get, asset_levels(data))


def closure(data: dict) -> list[tuple[str, str, str]]:
    """Triples after inheritance: each asset also gets its ancestors' subject needs.

    A need upon the asset itself is never inherited.  Report order.
    """
    base = triples(data)
    parent = {a["name"]: a.get("parent") for a in data.get("assets", ())}
    held: dict[str, list[tuple[str, str, str]]] = {}
    for triple in base:
        held.setdefault(triple[0], []).append(triple)
    result = set(base)
    for name in parent:
        seen = {name}
        ancestor = parent[name]
        while ancestor is not None and ancestor not in seen:
            seen.add(ancestor)
            for _, access, resource in held.get(ancestor, ()):
                if resource != name:
                    result.add((name, access, resource))
            ancestor = parent.get(ancestor)
    return sorted(result, key=engine_order)


def validate_expanded(data: dict) -> list[tuple[str, str, str, str]]:
    """The warnings `accesslint validate --expand-inheritance` must report."""
    return warnings_for(closure(data), policy_branches(data).get, asset_levels(data))


def trace_paths(data: dict, requirement: str) -> list[list[str]]:
    """Refinement paths from a requirement up to every root, depth first.

    Parents are visited in document order and a node already on the
    path is not revisited.
    """
    parents: dict[str, list[str]] = {}
    for ref in data.get("refinements", ()):
        parents.setdefault(ref["child"], []).append(ref["parent"])
    paths: list[list[str]] = []
    stack = [[requirement]]
    while stack:
        path = stack.pop()
        ups = [p for p in parents.get(path[-1], ()) if p not in path]
        if not ups:
            paths.append(path)
        for up in reversed(ups):
            stack.append(path + [up])
    return paths


def summary(warnings) -> dict[str, int]:
    counts = Counter(w[0] for w in warnings)
    return {kind: counts.get(kind, 0) for kind in KINDS}


def rule_flags(counts: dict[str, int]) -> dict[str, bool]:
    return {key: counts[kind] > 0 for key, _, kind in RULES}


def check_text_report(text: str, expected) -> str | None:
    """Mismatch description for a text report, or None when it is right."""
    lines = text.split("\n")
    if lines[-1] != "":
        return "text report does not end with a newline"
    lines.pop()
    flags = rule_flags(summary(expected))
    if len(lines) < len(RULES):
        return "text report has no rule summary"
    for line, (key, label, _) in zip(lines[-len(RULES):], RULES):
        if line.split() != label.split() + ["Y" if flags[key] else "N"]:
            return f"summary row {line!r}, expected {label} {flags[key]}"
    body = lines[:-len(RULES)]
    if expected:
        if body[-1:] != [""]:
            return "text report has no blank line before the summary"
        body = body[:-1]
    if len(body) != len(expected):
        return f"{len(body)} warning lines, expected {len(expected)}"
    for line, (kind, subject, access, resource) in zip(body, expected):
        if line != f"{kind}: {subject} --{access}--> {resource}":
            return f"warning line {line!r}, expected {kind} {subject} {access} {resource}"
    return None


def check_json_report(text: str, expected) -> str | None:
    """Mismatch description for a JSON report, or None when it is right."""
    payload = json.loads(text)
    got = [(w["kind"], w["subject"], w["access"], w["resource"])
           for w in payload["warnings"]]
    if got != list(expected):
        return f"{len(got)} warnings, expected {len(expected)} (or order differs)"
    counts = summary(expected)
    if payload["summary"] != counts:
        return f"summary {payload['summary']}, expected {counts}"
    if payload["ruleResults"] != rule_flags(counts):
        return f"ruleResults {payload['ruleResults']}"
    return None


def dot_counts(text: str) -> tuple[int, int]:
    """(node statements, edge statements) in DOT text from `accesslint export`."""
    nodes = edges = 0
    for line in text.splitlines():
        if not line.startswith('  "'):
            continue
        if '" -> "' in line:
            edges += 1
        else:
            nodes += 1
    return nodes, edges
