"""Refinement cycles by brute force, for cross-checking.

Written straight from the definition and never calling into
accesslint.goals, so tests can compare the engine's cycle check against
an independent second opinion.  Goals are plain names, edges are
(parent, child) pairs.
"""

from __future__ import annotations


def reachable(edges: list[tuple[str, str]], start: str) -> set[str]:
    """Every goal at the end of a path of one or more edges from start."""
    found: set[str] = set()
    frontier = [start]
    while frontier:
        node = frontier.pop()
        for parent, child in edges:
            if parent == node and child not in found:
                found.add(child)
                frontier.append(child)
    return found


def refinement_cycles(names: list[str], edges: list[tuple[str, str]]) -> list[list[str]]:
    """Each refinement cycle as its member names, in report order.

    Only edges between declared goals count, and the empty name declares
    none.  Two goals share a cycle when each reaches the other; a goal
    alone is a cycle when it reaches itself, which takes a self-loop.  A
    name declared more than once sorts by its first declaration.  Members
    come out in that order, and cycles by their first member.
    """
    known = set(names) - {""}
    edges = [(p, c) for p, c in edges if p in known and c in known]
    position = {name: i for i, name in reversed([*enumerate(names)])}
    reach = {name: reachable(edges, name) for name in known}
    cycles = []
    for name in known:
        members = {name} | {other for other in reach[name] if name in reach[other]}
        if name in reach[name] and min(members, key=position.get) == name:
            cycles.append(sorted(members, key=position.get))
    return sorted(cycles, key=lambda members: position[members[0]])
