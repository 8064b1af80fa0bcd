"""The structure checks prove a model sound on whole columns, and run a record
loop exactly when the rules it reports are broken; the hierarchy walk runs only
when a parent is declared after its child (see loop_probe.py)."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from accesslint import expand_hierarchy, render_report, validate_access
from accesslint.fixtures import fixture_text
from accesslint.goals import (
    Goal,
    GoalGraph,
    GoalKind,
    Permission,
    PolicyStatement,
    Refinement,
    check_goal_structure,
)
from accesslint.model import AccessNeed, AssetKind, AssetModel, Association, check_structure
from accesslint.modelio import parse_model

import cycle_oracle
import documents
from loop_probe import LOOPS, WALKS, faults, probe, walks
from strategies import models_with_graphs

GHOST = "Ghost"  # drawn names are at most four characters long, so no asset or goal has it


def _statement(requirement: str, subject: str, resource: str) -> PolicyStatement:
    return PolicyStatement(requirement, subject, AccessNeed.READ, resource, Permission.ALLOW)


# Each plant adds one fault, or a repeat that moves no finding, to a sound pair.
def _unknown_end(draw, model, graph):
    name = draw(st.sampled_from([a.name for a in model.assets]))
    ends = draw(st.sampled_from([(name, GHOST), (GHOST, name)]))
    return replace(model, associations=model.associations + (Association(*ends),)), graph


def _self_association(draw, model, graph):
    name = draw(st.sampled_from([a.name for a in model.assets]))
    return replace(model, associations=model.associations + (Association(name, name),)), graph


def _repeated_association(draw, model, graph):
    """Associate a pair again, either way round."""
    if not model.associations:
        return model, graph
    first = draw(st.sampled_from(model.associations))
    again = first if draw(st.booleans()) else Association(
        first.target, first.source, first.target_needs, first.source_needs)
    return replace(model, associations=model.associations + (again,)), graph


def _forbidden_cell(draw, model, graph):
    """Forbid one cell of the matrix, which an adorned end may or may not use."""
    cell = draw(st.sampled_from(sorted(model.matrix, key=lambda c: (c[0].value, c[1].value))))
    return replace(model, matrix={**model.matrix, cell: False}), graph


def _renamed_kind(draw, model, graph):
    """Declare an asset again as another kind: the checks read its first declaration."""
    asset = draw(st.sampled_from(model.assets))
    kind = draw(st.sampled_from([k for k in AssetKind if k is not asset.kind]))
    return replace(model, assets=model.assets + (replace(asset, kind=kind, parent=None),)), graph


def _goal_edge(draw, model, graph):
    """Add a refinement between two goals, either of them perhaps unknown, perhaps
    a repeat, a requirement above a goal, or a cycle."""
    names = [node.name for node in graph.nodes] + [GHOST]
    edge = Refinement(draw(st.sampled_from(names)), draw(st.sampled_from(names)))
    return model, replace(graph, refinements=graph.refinements + (edge,))


def _goal_node(draw, model, graph):
    """Add a goal, or drop one: refinements and statements may lose their ends."""
    if graph.nodes and draw(st.booleans()):
        i = draw(st.integers(0, len(graph.nodes) - 1))
        return model, replace(graph, nodes=graph.nodes[:i] + graph.nodes[i + 1:])
    name = draw(st.sampled_from([GHOST, *(node.name for node in graph.nodes)]))
    return model, replace(graph, nodes=graph.nodes + (Goal(name, draw(st.sampled_from(GoalKind))),))


def _policy_owner(draw, model, graph):
    """Add a statement owned by any goal, an unknown one, or a requirement."""
    owner = draw(st.sampled_from([GHOST, *(node.name for node in graph.nodes)]))
    subject, resource = model.assets[0].name, model.assets[-1].name
    return model, replace(graph, policy=graph.policy + (_statement(owner, subject, resource),))


def _policy_asset(draw, model, graph):
    requirement = graph.nodes[-1].name if graph.nodes else GHOST
    names = [a.name for a in model.assets]
    ends = draw(st.sampled_from([(GHOST, names[0]), (names[0], GHOST), (GHOST, GHOST)]))
    return model, replace(graph, policy=graph.policy + (_statement(requirement, *ends),))


PLANTS = [_unknown_end, _self_association, _repeated_association, _forbidden_cell, _renamed_kind,
          _goal_edge, _goal_node, _policy_owner, _policy_asset]


@st.composite
def _planted(draw):
    """A sound pair from strategies.py, with up to three plants."""
    model, graph = draw(models_with_graphs(with_parents=True))
    for plant in draw(st.lists(st.sampled_from(PLANTS), max_size=3)):
        model, graph = plant(draw, model, graph)
    return model, graph


@settings(max_examples=400)
@given(_planted())
def test_each_loop_runs_exactly_when_it_reports(pair):
    assert probe(*pair) == {loop: (broken, broken) for loop, broken in faults(*pair).items()}


# A sound document, and each fault planted in it alone: the loop that makes
# its finding runs, and no other, and the finding is exactly the one planted.
_SOUND = {
    "version": 1,
    "assets": [{"name": "App", "kind": "system"}, {"name": "Data", "kind": "information"},
               {"name": "Clerk", "kind": "people"}],
    "associations": [{"source": "App", "target": "Data", "sourceNeeds": ["read"]},
                     {"source": "Clerk", "target": "App", "sourceNeeds": ["interact"]}],
    "goals": [{"name": "Secure", "kind": "goal"}, {"name": "Audit", "kind": "goal"},
              {"name": "Read data", "kind": "requirement"},
              {"name": "Use app", "kind": "requirement"}],
    "refinements": [{"parent": "Secure", "child": "Audit"},
                    {"parent": "Audit", "child": "Read data"},
                    {"parent": "Secure", "child": "Use app"}],
    "policy": [{"requirement": "Read data", "subject": "App", "access": "read",
                "resource": "Data", "permission": "allow"},
               {"requirement": "Use app", "subject": "Clerk", "access": "interact",
                "resource": "App", "permission": "allow"}],
}


def _denial(requirement: str, subject: str, resource: str) -> dict:
    return {"requirement": requirement, "subject": subject, "access": "read",
            "resource": resource, "permission": "deny"}


PLANTED = [
    pytest.param("associations", {"source": "App", "target": GHOST}, "associations",
                 "UnknownAsset: association end references unknown asset 'Ghost'",
                 id="unknown-end"),
    pytest.param("associations", {"source": "Data", "target": "Data", "sourceNeeds": ["read"]},
                 "associations", "SelfAssociation: asset 'Data' cannot be associated with itself",
                 id="self-association"),
    pytest.param("associations", {"source": "Data", "target": "App"}, "associations",
                 "DuplicateAssociation: more than one association between 'Data' and 'App'",
                 id="reversed-duplicate"),
    # The default matrix allows a system asset to read information.
    pytest.param("matrixOverride", {"subject": "system", "resource": "information",
                                    "allowed": False}, "associations",
                 "MatrixViolation: system asset 'App' may not hold access needs upon "
                 "information asset 'Data'", id="override-only-violation"),
    pytest.param("refinements", {"parent": GHOST, "child": "Read data"}, "refinements",
                 "UnknownGoal: refinement references unknown goal 'Ghost'", id="unknown-goal"),
    pytest.param("refinements", {"parent": "Audit", "child": "Read data"}, "refinements",
                 "DuplicateRefinement: refinement 'Audit' <- 'Read data' appears more than once",
                 id="duplicate-refinement"),
    pytest.param("refinements", {"parent": "Use app", "child": "Audit"}, "refinements",
                 "RequirementAboveGoal: requirement 'Use app' cannot be refined by goal 'Audit'",
                 id="requirement-above-goal"),
    pytest.param("policy", _denial(GHOST, "Clerk", "Data"), "policy",
                 "UnknownRequirement: policy statement references unknown requirement 'Ghost'",
                 id="unknown-requirement"),
    pytest.param("policy", _denial("Audit", "Clerk", "Data"), "policy",
                 "NotARequirement: policy statement is owned by 'Audit', which is a goal, "
                 "not a requirement", id="goal-owned-statement"),
    pytest.param("policy", _denial("Read data", GHOST, "Data"), "policy",
                 "UnknownAsset: policy statement references unknown asset 'Ghost'",
                 id="unknown-policy-asset"),
    # The hierarchy walk finds a cycle, and no record loop runs.
    pytest.param("refinements", {"parent": "Read data", "child": "Read data"}, None,
                 "CyclicRefinement: refinement cycle: Read data -> Read data", id="self-loop"),
]


def test_the_sound_document_runs_no_loop():
    pair = parse_model(json.dumps(_SOUND))
    assert probe(*pair) == {loop: (False, False) for loop in LOOPS}
    assert not any(faults(*pair).values())


@pytest.mark.parametrize("section, record, loop, finding", PLANTED)
def test_a_planted_fault_runs_its_own_loop_alone(section, record, loop, finding):
    document = {**_SOUND, section: [*_SOUND.get(section, ()), record]}
    model, graph = parse_model(json.dumps(document), check=False)
    assert probe(model, graph) == {other: (other == loop,) * 2 for other in LOOPS}
    assert faults(model, graph) == {other: other == loop for other in LOOPS}
    assert [str(f) for f in check_structure(model) + check_goal_structure(graph, model)
            if f.severity == "error"] == [finding]


# Goal graphs with repeated names, repeated edges, self-loops and edges to
# undeclared goals: the walk runs exactly when an edge between declared goals
# runs up the order of declaration, and finds the reference's cycles.
_goal_names = st.sampled_from("ABCDE")


@example(["A", "B"], [("A", "A"), ("A", "B")])  # a self-loop above a goal
@example(["A", "B"], [("A", "C"), ("C", "B"), ("B", "A")])  # no cycle: C is undeclared
@example(["A", "B", "C"], [("A", "B"), ("C", "B")])  # an edge runs up, but no cycle
@example(["A", "B", "A"], [("A", "B"), ("B", "A")])
@settings(max_examples=300)
@given(st.lists(_goal_names, max_size=7),
       st.lists(st.tuples(_goal_names, _goal_names), max_size=12))
def test_the_walk_runs_exactly_when_an_edge_runs_up(names, edges):
    graph = GoalGraph(nodes=tuple(Goal(name, GoalKind.GOAL) for name in names),
                      refinements=tuple(Refinement(p, c) for p, c in edges))
    ran, findings = walks(check_goal_structure, graph, AssetModel())
    position = {name: i for i, name in reversed([*enumerate(names)])}
    up = any(p in position and c in position and position[p] >= position[c] for p, c in edges)
    assert ran == {"lineage": False, "cycles": up}
    assert [(f.where, f.message) for f in findings if f.code == "CyclicRefinement"] == [
        (members[0], "refinement cycle: " + " -> ".join(members + [members[0]]))
        for members in cycle_oracle.refinement_cycles(names, edges)]


def _checked(text: str) -> tuple[list[str], str]:
    """text's check findings and its report with inheritance expanded."""
    model, graph = parse_model(text, check=False)
    findings = check_structure(model) + check_goal_structure(graph, model)
    report = validate_access(expand_hierarchy(model), graph)
    return [str(f) for f in findings], render_report(report)


@pytest.mark.parametrize("document, section, walk", [
    pytest.param(json.loads(fixture_text("pyramid")), "goals", "cycles", id="pyramid"),
    pytest.param(documents.parent_chain(20), "assets", "lineage", id="parent-chain"),
    pytest.param(documents.owned_needs_chain(60), "assets", "lineage", id="owned-needs-chain"),
])
def test_a_walk_runs_only_on_the_bottom_up_twin(document, section, walk):
    """Declared top down, a document takes the walk for neither hierarchy; with one
    section reversed, it walks that section's, and gives the same findings and report."""
    ran, checked = walks(_checked, json.dumps(document))
    assert ran == dict.fromkeys(WALKS, False)
    ran, twin_checked = walks(_checked, json.dumps(documents.bottom_up(document, section)))
    assert ran == {other: other == walk for other in WALKS}
    assert twin_checked == checked
