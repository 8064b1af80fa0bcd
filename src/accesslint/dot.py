"""Graphviz DOT renderings of the asset and goal views."""

from __future__ import annotations

from .goals import GoalGraph, GoalKind
from .model import NEED_ORDER, AccessNeed, AssetKind, AssetModel, SecurityValue

# Texts built once, not per item through Enum's descriptors.  A need set's
# adornment lists the conventional letters of its needs in declaration order.
_ADORNMENT = {needs: ",".join(map(dict(zip(AccessNeed, "rwx")).__getitem__, order))
              for needs, order in NEED_ORDER.items()}
_KIND_TEXT = {kind: f"[{kind.value}]" for kind in AssetKind}
_LEVEL_TEXT = {level: level.name.lower() for level in SecurityValue}
_SHAPE = {GoalKind.GOAL: "parallelogram", GoalKind.REQUIREMENT: "box"}

VIEWS = ("asset", "goal")


def _label(*lines: str) -> str:
    escaped = (line.replace("\\", "\\\\").replace('"', '\\"') for line in lines)
    return '"' + "\\n".join(escaped) + '"'


def _asset_view(model: AssetModel) -> list[str]:
    lines = ["digraph assets {", "  node [shape=box];"]
    for asset in model.assets:
        label = _label(
            asset.name,
            _KIND_TEXT[asset.kind],
            f"C: {_LEVEL_TEXT[asset.confidentiality]}  I: {_LEVEL_TEXT[asset.integrity]}",
        )
        lines.append(f"  {_label(asset.name)} [label={label}];")
    for assoc in model.associations:
        attrs = ["dir=none"]
        if assoc.source_needs:
            attrs.append(f"taillabel={_label(_ADORNMENT[assoc.source_needs])}")
        if assoc.target_needs:
            attrs.append(f"headlabel={_label(_ADORNMENT[assoc.target_needs])}")
        lines.append(
            f"  {_label(assoc.source)} -> {_label(assoc.target)} "
            f"[{', '.join(attrs)}];")
    lines.append("}")
    return lines


def _goal_view(graph: GoalGraph) -> list[str]:
    lines = ["digraph goals {"]
    for node in graph.nodes:
        lines.append(f"  {_label(node.name)} [shape={_SHAPE[node.kind]}];")
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
        raise ValueError(f"unknown view {view!r}, expected one of: {', '.join(VIEWS)}")
    return "\n".join(lines) + "\n"
