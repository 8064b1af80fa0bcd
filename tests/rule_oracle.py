"""Brute-force re-evaluation of the validation logic, for cross-checking.

Everything here is written as plain scans and if-chains straight from
the stated rules, and never calls into accesslint.validation, so tests
can compare the engine against a genuinely independent second opinion.
Levels are handled as plain ints (0..3) and access as strings.
"""

from __future__ import annotations


def level_rule_kinds(subject_c: int, resource_c: int,
                     subject_i: int, resource_i: int, access: str) -> list[str]:
    """Warning kinds an allowed access raises, in report order.

    Reading a resource whose confidentiality is above the subject's is a
    read-up; writing below is a write-down.  Writing a resource whose
    integrity is above the subject's is a write-up; reading below is a
    read-down.  Interact raises nothing.
    """
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


def expand(model) -> list[tuple[str, str, str]]:
    """Single-need (subject, access, resource) triples, engine ordering."""
    rank = {"read": 0, "write": 1, "interact": 2}
    triples = []
    for assoc in model.associations:
        for need in assoc.source_needs:
            triples.append((assoc.source, need.value, assoc.target))
        for need in assoc.target_needs:
            triples.append((assoc.target, need.value, assoc.source))
    triples.sort(key=lambda t: (t[0], t[2], rank[t[1]]))
    return triples


def resolving_statement(graph, subject: str, access: str, resource: str):
    """The statement a triple resolves by: the first allow, else the first deny, else None."""
    found = None
    for stmt in graph.policy:
        if (stmt.subject == subject and stmt.access.value == access
                and stmt.resource == resource):
            if stmt.permission.value == "allow":
                return stmt
            if found is None:
                found = stmt
    return found


def resolve(graph, subject: str, access: str, resource: str) -> str:
    """Which branch a triple falls into: "allow", "deny", or "absent"."""
    stmt = resolving_statement(graph, subject, access, resource)
    return "absent" if stmt is None else stmt.permission.value


def first_statement(graph, subject: str, access: str, resource: str, permission: str):
    """The first statement in document order matching all four fields, or None."""
    for stmt in graph.policy:
        if (stmt.subject == subject and stmt.access.value == access
                and stmt.resource == resource and stmt.permission.value == permission):
            return stmt
    return None


def validate(model, graph) -> list[tuple[str, str, str, str]]:
    """The full expected warning sequence as (kind, subject, access, resource)."""
    assets = {a.name: a for a in model.assets}
    out = []
    for subject, access, resource in expand(model):
        branch = resolve(graph, subject, access, resource)
        if branch == "allow":
            s, r = assets[subject], assets[resource]
            for kind in level_rule_kinds(
                    int(s.confidentiality), int(r.confidentiality),
                    int(s.integrity), int(r.integrity), access):
                out.append((kind, subject, access, resource))
        elif branch == "deny":
            out.append(("unauthorised_access", subject, access, resource))
        else:
            out.append(("undefined_access", subject, access, resource))
    return out
