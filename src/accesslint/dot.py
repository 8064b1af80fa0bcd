"""Graphviz DOT renderings of the asset and goal views."""

from __future__ import annotations

from .goals import GoalGraph, GoalKind
from .model import AccessNeed, AssetModel

# Conventional one-letter adornments used on association ends.
_SHORT = {AccessNeed.READ: "r", AccessNeed.WRITE: "w", AccessNeed.INTERACT: "x"}

VIEWS = ("asset", "goal")


def _label(*lines: str) -> str:
    escaped = (line.replace("\\", "\\\\").replace('"', '\\"') for line in lines)
    return '"' + "\\n".join(escaped) + '"'


def _adornment(needs: frozenset[AccessNeed]) -> str:
    return ",".join(_SHORT[n] for n in AccessNeed if n in needs)


def _asset_view(model: AssetModel) -> list[str]:
    lines = ["digraph assets {", "  node [shape=box];"]
    for asset in model.assets:
        label = _label(
            asset.name,
            f"[{asset.kind.value}]",
            f"C: {asset.confidentiality.name.lower()}"
            f"  I: {asset.integrity.name.lower()}",
        )
        lines.append(f"  {_label(asset.name)} [label={label}];")
    for assoc in model.associations:
        attrs = ["dir=none"]
        if assoc.source_needs:
            attrs.append(f"taillabel={_label(_adornment(assoc.source_needs))}")
        if assoc.target_needs:
            attrs.append(f"headlabel={_label(_adornment(assoc.target_needs))}")
        lines.append(
            f"  {_label(assoc.source)} -> {_label(assoc.target)} "
            f"[{', '.join(attrs)}];")
    lines.append("}")
    return lines


def _goal_view(graph: GoalGraph) -> list[str]:
    lines = ["digraph goals {"]
    for node in graph.nodes:
        shape = "parallelogram" if node.kind is GoalKind.GOAL else "box"
        lines.append(f"  {_label(node.name)} [shape={shape}];")
    for ref in graph.refinements:
        lines.append(f"  {_label(ref.child)} -> {_label(ref.parent)};")
    lines.append("}")
    return lines


def export_dot(model: AssetModel, graph: GoalGraph, view: str) -> str:
    """Render the asset or goal view as DOT text.

    The asset view shows one node per asset (name, kind, levels) and one
    undirected edge per association, with need adornments as tail and
    head labels.  The goal view shows goals as parallelograms,
    requirements as boxes, and one child-to-parent edge per refinement.
    Node and edge order follows the model, so output is deterministic.
    """
    if view == "asset":
        lines = _asset_view(model)
    elif view == "goal":
        lines = _goal_view(graph)
    else:
        raise ValueError(f"unknown view {view!r}, expected one of: asset, goal")
    return "\n".join(lines) + "\n"
