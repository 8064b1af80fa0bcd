"""Which record loops the structure checks ran, read from line events.

check_structure and check_goal_structure each try to prove a model sound
on whole columns first, and run a record loop only when the proof fails.
A proof that holds on a faulty model would hide a finding, and one that
fails on a sound model costs the work it should save, so each loop must
run exactly when it reports something.  probe runs both checks
under sys.settrace and tells, for each loop, whether its first body line ran
and whether a finding that loop makes was reported.  A proof that holds
wrongly stops its loop from reporting at all, so faults tells, from the
rules written out afresh, whether each loop has something to report.

model.hierarchy, which AssetModel.lineage and check_goal_structure call,
likewise proves on one column pass that each parent is declared before its
children, and walks the hierarchy only when that fails; walks tells for
which of the two callers it walked.
"""

from __future__ import annotations

import inspect
import sys

from accesslint import goals, model


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
}


# The first line of hierarchy's walk, which runs only when its order proof fails.
WALK = _line(model.hierarchy, "parents: dict[str, list[str]] = {}")

# Hierarchy -> the function that hands it to model.hierarchy.
WALKS = {"lineage": model.AssetModel.lineage.func.__code__,
         "cycles": goals.check_goal_structure.__code__}


def _run(lines, stage, *args) -> tuple[dict[tuple[object, int], set[object]], object]:
    """For each of lines, a (code, line number) pair, the code of each function
    whose call ran it while stage ran; and stage's result."""
    codes = {code for code, _ in lines}
    callers: dict[tuple[object, int], set[object]] = {line: set() for line in lines}

    def local(frame, event, arg):
        if event == "line" and (frame.f_code, frame.f_lineno) in callers:
            callers[frame.f_code, frame.f_lineno].add(frame.f_back.f_code)
        return local

    def call(frame, event, arg):
        return local if frame.f_code in codes else None

    before = sys.gettrace()
    sys.settrace(call)
    try:
        result = stage(*args)
    finally:
        sys.settrace(before)
    return callers, result


def probe(asset_model: model.AssetModel, graph: goals.GoalGraph) -> dict[str, tuple[bool, bool]]:
    """For each loop in LOOPS: whether it ran, and whether a finding it makes was reported."""
    ran, findings = _run([line for line, _ in LOOPS.values()], lambda: (
        model.check_structure(asset_model) + goals.check_goal_structure(graph, asset_model)))
    return {loop: (bool(ran[line]), any(map(owns, findings)))
            for loop, (line, owns) in LOOPS.items()}


def walks(stage, *args) -> tuple[dict[str, bool], object]:
    """For each hierarchy in WALKS, whether hierarchy walked it while stage ran;
    and stage's result."""
    ran, result = _run([WALK], stage, *args)
    return {walk: caller in ran[WALK] for walk, caller in WALKS.items()}, result


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
    }
