"""Which record loops the structure checks ran, read from line events.

check_structure, check_goal_structure and _refinement_cycles each try to
prove a model sound on whole columns first, and run a record loop only when
the proof fails.  A proof that holds on a faulty model would hide a finding,
and one that fails on a sound model costs the work it should save, so each
loop must run exactly when it reports something.  probe runs both checks
under sys.settrace and tells, for each loop, whether its first body line ran
and whether a finding that loop makes was reported.  A proof that holds
wrongly stops its loop from reporting at all, so faults tells, from the
rules written out afresh, whether each loop has something to report.

AssetModel.lineage and _refinement_cycles likewise prove on one column pass
that each parent is declared before its children, and walk the parent links
or peel the goals only when that fails; walks tells which of the two ran.
"""

from __future__ import annotations

import inspect
import sys

from accesslint import goals, model

import cycle_oracle


def _line(function, text: str) -> tuple[object, int]:
    """function's code object and the number of its one source line that reads text."""
    lines, start = inspect.getsourcelines(function)
    found = [start + i for i, line in enumerate(lines) if line.strip() == text]
    assert len(found) == 1, (function.__name__, text, found)
    return function.__code__, found[0]


# Loop -> (its first body line, whether a finding is one the loop makes).
LOOPS = {
    "associations": (
        _line(model.check_structure, "pair = (source, target)"),
        lambda f: f.code in ("SelfAssociation", "DuplicateAssociation", "MatrixViolation")
        or f.code == "UnknownAsset" and f.where.startswith("association ")),
    "refinements": (
        _line(goals.check_goal_structure, "edge = parent, child = ref.parent, ref.child"),
        lambda f: f.code in ("UnknownGoal", "DuplicateRefinement", "RequirementAboveGoal")),
    "policy": (
        _line(goals.check_goal_structure, "owner = by_name.get(stmt.requirement)"),
        lambda f: f.code in ("UnknownRequirement", "NotARequirement")
        or f.code == "UnknownAsset" and f.where.startswith("policy ")),
    "cycles": (
        _line(goals._refinement_cycles, "finished: list[str] = []"),
        lambda f: f.code == "CyclicRefinement"),
}


# Order walk -> its first body line.
WALKS = {
    "lineage": _line(model.AssetModel.lineage.func, "untaken = dict(self._index)"),
    "peel": _line(goals._refinement_cycles, "children: dict[str, list[str]] = {}"),
}


def _run(lines, stage, *args) -> tuple[set[tuple[object, int]], object]:
    """Which of lines, each a (code, line number) pair, ran while stage ran, and its result."""
    codes = {code for code, _ in lines}
    ran: set[tuple[object, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code, frame.f_lineno))
        return local

    def call(frame, event, arg):
        return local if frame.f_code in codes else None

    before = sys.gettrace()
    sys.settrace(call)
    try:
        result = stage(*args)
    finally:
        sys.settrace(before)
    return ran.intersection(lines), result


def probe(asset_model: model.AssetModel, graph: goals.GoalGraph) -> dict[str, tuple[bool, bool]]:
    """For each loop in LOOPS: whether it ran, and whether a finding it makes was reported."""
    ran, findings = _run([line for line, _ in LOOPS.values()], lambda: (
        model.check_structure(asset_model) + goals.check_goal_structure(graph, asset_model)))
    return {loop: (line in ran, any(map(owns, findings))) for loop, (line, owns) in LOOPS.items()}


def walks(stage, *args) -> tuple[dict[str, bool], object]:
    """For each walk in WALKS, whether it ran while stage ran; and stage's result."""
    ran, result = _run(WALKS.values(), stage, *args)
    return {walk: line in ran for walk, line in WALKS.items()}, result


def faults(asset_model: model.AssetModel, graph: goals.GoalGraph) -> dict[str, bool]:
    """For each loop in LOOPS: whether the model breaks a rule that loop reports.

    A name declared more than once is read at its first declaration, and an
    empty name declares nothing, as the checks read them, policy assets too.
    """
    assets, nodes = {}, {}
    for records, first in ((asset_model.assets, assets), (graph.nodes, nodes)):
        for record in records:
            if record.name:
                first.setdefault(record.name, record)
    ends = [(a.source, a.target) for a in asset_model.associations]
    adorned = [(subject, resource) for a in asset_model.associations
               for subject, resource, needs in ((a.source, a.target, a.source_needs),
                                                (a.target, a.source, a.target_needs)) if needs]
    edges = [(r.parent, r.child) for r in graph.refinements]
    goal, requirement = goals.GoalKind
    return {
        "associations": (
            any(s not in assets or t not in assets or s == t for s, t in ends)
            or any({*ends[i]} == {*ends[j]} for i in range(len(ends)) for j in range(i))
            or any(not asset_model.matrix[assets[s].kind, assets[r].kind] for s, r in adorned)),
        "refinements": (
            any(p not in nodes or c not in nodes for p, c in edges)
            or len(set(edges)) < len(edges)
            or any((nodes[p].kind, nodes[c].kind) == (requirement, goal) for p, c in edges)),
        "policy": any(
            s.requirement not in nodes or nodes[s.requirement].kind is not requirement
            or s.subject not in assets or s.resource not in assets for s in graph.policy),
        "cycles": bool(cycle_oracle.refinement_cycles([n.name for n in graph.nodes], edges)),
    }
