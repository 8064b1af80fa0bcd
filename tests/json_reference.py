"""Reference JSON for documents and reports, built as dicts.

Each builder turns a model, goal graph or report into plain dicts and
lists, and `canonical` renders them with the interpreter's own `json`
module.  Tests compare serialize_model and render_report(format="json")
against these bytes, so the writer stays pinned to `json.dumps` on every
interpreter the tests run on.
"""

from __future__ import annotations

import json
from typing import Any

from accesslint.goals import Goal, GoalGraph
from accesslint.model import (
    ACCESS_ORDER,
    Asset,
    AssetKind,
    AssetModel,
    Association,
    SecurityValue,
    default_matrix,
)
from accesslint.validation import ValidationReport


def canonical(obj: Any) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _level_name(level: SecurityValue) -> str:
    return level.name.lower()


def _asset_to_obj(asset: Asset) -> dict:
    obj: dict[str, Any] = {
        "name": asset.name,
        "kind": asset.kind.value,
        "confidentiality": _level_name(asset.confidentiality),
        "integrity": _level_name(asset.integrity),
    }
    if asset.extra_properties:
        obj["extraProperties"] = {
            prop: _level_name(level) for prop, level in asset.extra_properties.items()
        }
    if asset.parent is not None:
        obj["parent"] = asset.parent
    return obj


def _association_to_obj(assoc: Association) -> dict:
    obj: dict[str, Any] = {"source": assoc.source, "target": assoc.target}
    if assoc.source_needs:
        obj["sourceNeeds"] = [
            n.value for n in sorted(assoc.source_needs, key=ACCESS_ORDER.__getitem__)]
    if assoc.target_needs:
        obj["targetNeeds"] = [
            n.value for n in sorted(assoc.target_needs, key=ACCESS_ORDER.__getitem__)]
    if assoc.source_multiplicity is not None:
        obj["sourceMultiplicity"] = assoc.source_multiplicity
    if assoc.target_multiplicity is not None:
        obj["targetMultiplicity"] = assoc.target_multiplicity
    return obj


def _goal_to_obj(goal: Goal) -> dict:
    obj: dict[str, Any] = {"name": goal.name, "kind": goal.kind.value}
    if goal.definition:
        obj["definition"] = goal.definition
    return obj


def document(model: AssetModel, graph: GoalGraph) -> dict:
    """The document as a dict; empty sections are left out."""
    document: dict[str, Any] = {"version": 1}
    if model.assets:
        document["assets"] = [_asset_to_obj(a) for a in model.assets]
    if model.associations:
        document["associations"] = [_association_to_obj(a) for a in model.associations]
    if graph.nodes:
        document["goals"] = [_goal_to_obj(g) for g in graph.nodes]
    if graph.refinements:
        document["refinements"] = [
            {"parent": r.parent, "child": r.child} for r in graph.refinements]
    if graph.policy:
        document["policy"] = [
            {
                "requirement": s.requirement,
                "subject": s.subject,
                "access": s.access.value,
                "resource": s.resource,
                "permission": s.permission.value,
            }
            for s in graph.policy
        ]
    base = default_matrix()
    overrides = [
        {"subject": subject.value, "resource": resource.value,
         "allowed": model.matrix[(subject, resource)]}
        for subject in AssetKind
        for resource in AssetKind
        if model.matrix[(subject, resource)] != base[(subject, resource)]
    ]
    if overrides:
        document["matrixOverride"] = overrides
    return document


def report(report: ValidationReport) -> dict:
    """The JSON report as a dict."""
    return {
        "warnings": [
            {
                "kind": w.kind.value,
                "subject": w.triple.subject,
                "access": w.triple.access.value,
                "resource": w.triple.resource,
                "message": w.message,
            }
            for w in report.warnings
        ],
        "summary": {kind.value: count for kind, count in report.summary.items()},
        "ruleResults": report.rule_results,
    }
