"""DOT renderings of the asset and goal views."""

import re

import pytest

from accesslint.dot import export_dot
from accesslint.fixtures import load_fixture
from accesslint.goals import GoalGraph
from accesslint.model import AssetModel

NODE_LINE = re.compile(r'^  "(?:[^"\\]|\\.)*" \[.*\];$')
EDGE_LINE = re.compile(r'^  "(?:[^"\\]|\\.)*" -> "(?:[^"\\]|\\.)*"(?: \[.*\])?;$')


def _check_dot(text: str) -> tuple[int, int]:
    """Crude DOT grammar check; returns (node count, edge count)."""
    lines = text.splitlines()
    assert lines[0].startswith("digraph ") and lines[0].endswith("{")
    assert lines[-1] == "}"
    nodes = edges = 0
    for line in lines[1:-1]:
        if EDGE_LINE.match(line):
            edges += 1
        elif NODE_LINE.match(line):
            nodes += 1
        else:
            assert line == "  node [shape=box];", f"unexpected line: {line!r}"
    return nodes, edges


def test_works_diary_edge_carries_tail_adornment():
    model, graph = load_fixture("works-diary")
    text = export_dot(model, graph, "asset")
    assert 'taillabel="r,w"' in text
    assert "headlabel" not in text  # no needs on the diary-event end


def test_target_needs_become_a_head_label():
    from accesslint.model import AccessNeed, Asset, AssetKind, Association

    model = AssetModel(
        assets=(Asset("A", AssetKind.SYSTEM), Asset("B", AssetKind.SYSTEM)),
        associations=(Association("A", "B", target_needs=frozenset({AccessNeed.READ})),),
    )
    text = export_dot(model, GoalGraph(), "asset")
    assert '"A" -> "B" [dir=none, headlabel="r"];' in text
    assert "taillabel" not in text


def test_asset_view_counts_match_model():
    model, graph = load_fixture("pyramid")
    nodes, edges = _check_dot(export_dot(model, graph, "asset"))
    assert nodes == len(model.assets) == 7
    assert edges == len(model.associations) == 10


def test_asset_view_labels_carry_kind_and_levels():
    model, graph = load_fixture("pyramid")
    text = export_dot(model, graph, "asset")
    assert "Data Item\\n[information]\\nC: low  I: medium" in text


def test_goal_view_counts_and_root_in_degree():
    model, graph = load_fixture("pyramid")
    text = export_dot(model, graph, "goal")
    nodes, edges = _check_dot(text)
    assert nodes == 8
    assert edges == 7
    assert text.count('-> "Capture requirements for data distribution"') == 7


def test_goal_shapes_distinguish_goals_from_requirements():
    model, graph = load_fixture("pyramid")
    text = export_dot(model, graph, "goal")
    assert text.count("[shape=box]") == 8  # all pyramid nodes are requirements


def test_empty_model_is_valid_dot():
    text = export_dot(AssetModel(), GoalGraph(), "asset")
    nodes, edges = _check_dot(text)
    assert (nodes, edges) == (0, 0)


def test_names_with_quotes_are_escaped():
    from accesslint.model import Asset, AssetKind

    model = AssetModel(assets=(Asset('Say "hi"', AssetKind.SYSTEM),))
    text = export_dot(model, GoalGraph(), "asset")
    assert '"Say \\"hi\\""' in text
    _check_dot(text)


def test_unknown_view_rejected():
    with pytest.raises(ValueError) as info:
        export_dot(AssetModel(), GoalGraph(), "swimlane")
    assert str(info.value) == "unknown view 'swimlane', expected one of: asset, goal"


def test_deterministic():
    model, graph = load_fixture("pyramid")
    assert export_dot(model, graph, "asset") == export_dot(model, graph, "asset")
    assert export_dot(model, graph, "goal") == export_dot(model, graph, "goal")
