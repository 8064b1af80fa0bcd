"""Refinement paths by plain recursion, for cross-checking trace.

Written straight from the definition and never calling into
accesslint.goals, so tests can compare the engine's walk against an
independent second opinion.  Goals are plain names, edges are
(parent, child) pairs in document order; a goal need not be declared.
There is no path limit: the graphs tests give it are small.
"""

from __future__ import annotations


def refinement_paths(edges: list[tuple[str, str]], requirement: str) -> list[list[str]]:
    """Every path from requirement up its refinement edges, depth first.

    A goal's parents are taken in edge order, once per edge, so a repeated
    edge is walked twice.  A parent already on the path is left out, and a
    goal with no parent left ends a path.
    """
    def up(path: list[str]) -> list[list[str]]:
        ups = [parent for parent, child in edges if child == path[-1] and parent not in path]
        return [found for parent in ups for found in up(path + [parent])] or [path]

    return up([requirement])
