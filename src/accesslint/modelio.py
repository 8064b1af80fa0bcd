"""Model document format: strict parsing, canonical serialization, reports.

A model document is UTF-8 JSON with top-level keys
{version, assets, associations, goals, refinements, policy, matrixOverride}.
The parser is deliberately strict: unknown keys anywhere are hard errors
with the offending path named, because a silently ignored typo in a
security model is worse than a parse failure.  The per-record schema
lives in one table, _RECORDS, read by one generic reader.

Serialization is canonical (keys alphabetical within objects, lists in
document order, two-space indent, trailing newline) so that re-saving a
parsed document is byte-stable.
"""

from __future__ import annotations

import json
from typing import Any

from .goals import (
    Goal,
    GoalGraph,
    GoalKind,
    Permission,
    PolicyStatement,
    Refinement,
    check_goal_structure,
)
from .model import (
    ACCESS_ORDER,
    AccessNeed,
    AccessRuleMatrix,
    Asset,
    AssetKind,
    AssetModel,
    Association,
    ModelError,
    MULTIPLICITIES,
    SecurityValue,
    check_structure,
    default_matrix,
)
from .validation import RULE_RESULTS, ValidationReport

DOCUMENT_VERSION = 1

_LEVEL_NAMES = {level.name.lower(): level for level in SecurityValue}
_KIND_NAMES = {kind.value: kind for kind in AssetKind}
_NEED_NAMES = {need.value: need for need in AccessNeed}
_GOAL_KIND_NAMES = {kind.value: kind for kind in GoalKind}
_PERMISSION_NAMES = {perm.value: perm for perm in Permission}


class ParseError(Exception):
    """A document could not be turned into a model.

    location is a document path ("assets[2].kind") or a line reference
    ("line 4, column 7"); every failure carries one.
    """

    def __init__(self, location: str, message: str):
        super().__init__(f"{location}: {message}")
        self.location = location
        self.reason = message


class DocumentSyntaxError(ParseError):
    """The input is not well-formed JSON (or not UTF-8)."""


class SchemaError(ParseError):
    """The JSON is well-formed but violates the document schema."""


class SemanticError(ParseError):
    """The document parsed but fails structural validation."""

    def __init__(self, errors: list[ModelError]):
        self.errors = errors
        first = errors[0]
        super().__init__(first.where, f"{len(errors)} structural error(s), first: {first}")


class _Bad(Exception):
    """A record failed its schema; suffix is the path below the record."""

    def __init__(self, suffix: str, reason: str):
        self.suffix = suffix
        self.reason = reason


def _object_keys(obj: Any, keys: frozenset[str]) -> None:
    if type(obj) is not dict:
        raise _Bad("", f"expected an object, got {type(obj).__name__}")
    if not keys.issuperset(obj):
        key = next(key for key in obj if key not in keys)
        raise _Bad(f".{key}", f"unknown key {key!r}")


def _string(value: Any) -> str:
    if type(value) is not str:
        raise _Bad("", f"expected a string, got {type(value).__name__}")
    return value


def _name(value: Any) -> str:
    if not _string(value):
        raise _Bad("", "asset name must be nonempty")
    return value


def _choice(table: dict, what: str, expected: str | None = None):
    """Reader for a string that must be one of table's keys."""
    expected = expected or ", ".join(sorted(table))

    def read(value: Any):
        if _string(value) not in table:
            raise _Bad("", f"invalid {what} {value!r}, expected one of: {expected}")
        return table[value]
    return read


_level = _choice(_LEVEL_NAMES, "security level")
_asset_kind = _choice(_KIND_NAMES, "asset kind")
_need = _choice(_NEED_NAMES, "access need")
_multiplicity = _choice({m: m for m in MULTIPLICITIES}, "multiplicity",
                        ", ".join(repr(m) for m in MULTIPLICITIES))


def _levels(value: Any) -> dict[str, SecurityValue]:
    if type(value) is not dict:
        raise _Bad("", f"expected an object, got {type(value).__name__}")
    levels = {}
    for prop, raw in value.items():
        try:
            levels[prop] = _level(raw)
        except _Bad as bad:
            raise _Bad(f".{prop}", bad.reason) from None
    return levels


def _needs(value: Any) -> frozenset[AccessNeed]:
    if type(value) is not list:
        raise _Bad("", f"expected a list, got {type(value).__name__}")
    needs = []
    for i, item in enumerate(value):
        try:
            needs.append(_need(item))
        except _Bad as bad:
            raise _Bad(f"[{i}]", bad.reason) from None
    unique = frozenset(needs)
    if len(unique) != len(needs):
        raise _Bad("", "access needs listed more than once")
    return unique


def _boolean(value: Any) -> bool:
    if type(value) is not bool:
        raise _Bad("", "expected a boolean")
    return value


# The per-record schema: section -> (class built with cls(**values), required
# keys, (json key, attribute, reader) in the order the fields are checked).
# An absent optional key takes the class's default.
_RECORDS = {
    "assets": (Asset, ("name", "kind"), (
        ("name", "name", _name),
        ("kind", "kind", _asset_kind),
        ("confidentiality", "confidentiality", _level),
        ("integrity", "integrity", _level),
        ("extraProperties", "extra_properties", _levels),
        ("parent", "parent", _string))),
    "associations": (Association, ("source", "target"), (
        ("sourceMultiplicity", "source_multiplicity", _multiplicity),
        ("targetMultiplicity", "target_multiplicity", _multiplicity),
        ("source", "source", _string),
        ("target", "target", _string),
        ("sourceNeeds", "source_needs", _needs),
        ("targetNeeds", "target_needs", _needs))),
    "goals": (Goal, ("name", "kind"), (
        ("definition", "definition", _string),
        ("name", "name", _string),
        ("kind", "kind", _choice(_GOAL_KIND_NAMES, "goal kind")))),
    "refinements": (Refinement, ("parent", "child"), (
        ("parent", "parent", _string),
        ("child", "child", _string))),
    "policy": (PolicyStatement,
               ("requirement", "subject", "access", "resource", "permission"), (
        ("requirement", "requirement", _string),
        ("subject", "subject", _string),
        ("access", "access", _need),
        ("resource", "resource", _string),
        ("permission", "permission", _choice(_PERMISSION_NAMES, "permission")))),
    "matrixOverride": (dict, ("subject", "resource", "allowed"), (
        ("subject", "subject", _asset_kind),
        ("resource", "resource", _asset_kind),
        ("allowed", "allowed", _boolean))),
}
_RECORD_KEYS = {section: frozenset(key for key, _, _ in fields)
                for section, (_, _, fields) in _RECORDS.items()}


def _record(obj: Any, section: str) -> Any:
    cls, required, fields = _RECORDS[section]
    _object_keys(obj, _RECORD_KEYS[section])
    for key in required:
        if key not in obj:
            raise _Bad("", f"missing required key {key!r}")
    values = {}
    try:
        for key, attribute, read in fields:
            if key in obj:
                values[attribute] = read(obj[key])
    except _Bad as bad:
        raise _Bad(f".{key}{bad.suffix}", bad.reason) from None
    return cls(**values)


def _records(root: dict, section: str):
    """Yield each record of a top-level list, raising SchemaError at the first bad one."""
    items = root.get(section, [])
    if type(items) is not list:
        raise SchemaError(f"$.{section}", f"expected a list, got {type(items).__name__}")
    try:
        for i, obj in enumerate(items):
            yield _record(obj, section)
    except _Bad as bad:
        # Only matrix entries carry the "$." prefix; locations are part of the
        # stable error text that gates match on.
        prefix = "$.matrixOverride" if section == "matrixOverride" else section
        raise SchemaError(f"{prefix}[{i}]{bad.suffix}", bad.reason) from None


_TOP_KEYS = frozenset(("version", "assets", "associations", "goals", "refinements",
                       "policy", "matrixOverride"))


def parse_model(document: bytes | str, *, check: bool = True) -> tuple[AssetModel, GoalGraph]:
    """Parse a model document into an asset model and goal graph.

    With check=True (the default) the structural checks run as part of
    parsing and any error-severity finding raises SemanticError; a
    successfully returned pair therefore satisfies every invariant.
    Pass check=False to obtain the raw structures and run the checks
    yourself (the CLI's check command does this to report all findings).
    """
    if isinstance(document, bytes):
        try:
            document = document.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DocumentSyntaxError(
                f"byte {exc.start}", "document is not valid UTF-8") from exc
    try:
        root = json.loads(document)
    except json.JSONDecodeError as exc:
        raise DocumentSyntaxError(
            f"line {exc.lineno}, column {exc.colno}", exc.msg) from exc
    except ValueError as exc:  # an int literal past the interpreter's digit limit
        raise DocumentSyntaxError("$", "integer literal is too long") from exc
    except RecursionError as exc:
        raise DocumentSyntaxError("$", "document is nested too deeply") from exc

    try:
        _object_keys(root, _TOP_KEYS)
    except _Bad as bad:
        raise SchemaError(f"${bad.suffix}", bad.reason) from None
    if "version" not in root:
        raise SchemaError("$.version", "missing required key 'version'")
    version = root["version"]
    if type(version) is not int or version != DOCUMENT_VERSION:
        raise SchemaError(
            "$.version",
            f"unsupported document version {version!r}, expected {DOCUMENT_VERSION}")

    assets = tuple(_records(root, "assets"))
    associations = tuple(_records(root, "associations"))
    goals = tuple(_records(root, "goals"))
    refinements = tuple(_records(root, "refinements"))
    policy = tuple(_records(root, "policy"))
    allowed = dict(default_matrix().allowed)
    seen: set[tuple[AssetKind, AssetKind]] = set()
    for i, entry in enumerate(_records(root, "matrixOverride")):
        subject, resource = cell = entry["subject"], entry["resource"]
        if cell in seen:
            raise SchemaError(
                f"$.matrixOverride[{i}]",
                f"duplicate override for ({subject.value}, {resource.value})")
        seen.add(cell)
        allowed[cell] = entry["allowed"]

    model = AssetModel(assets=assets, associations=associations,
                       matrix=AccessRuleMatrix(allowed))
    graph = GoalGraph(nodes=goals, refinements=refinements, policy=policy)

    if check:
        findings = check_structure(model) + check_goal_structure(graph, model)
        errors = [f for f in findings if f.severity == "error"]
        if errors:
            raise SemanticError(errors)

    return model, graph


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


def serialize_model(model: AssetModel, graph: GoalGraph) -> str:
    """Render a model and goal graph as canonical document text.

    parse_model(serialize_model(m, g)) is structurally identical to
    (m, g); serializing what parse_model returned reproduces the
    canonical bytes exactly.
    """
    document: dict[str, Any] = {"version": DOCUMENT_VERSION}
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
    base = default_matrix().allowed
    overrides = [
        {"subject": subject.value, "resource": resource.value,
         "allowed": model.matrix.allowed[(subject, resource)]}
        for subject in AssetKind
        for resource in AssetKind
        if model.matrix.allowed[(subject, resource)] != base[(subject, resource)]
    ]
    if overrides:
        document["matrixOverride"] = overrides
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def render_report(report: ValidationReport, format: str = "text") -> str:
    """Render a validation report as human-readable text or as JSON.

    The text form lists one warning per line followed by a five-row
    security-rule summary with Y/N flags; the JSON form carries the
    warnings, per-kind counts, and rule flags.
    """
    if format == "json":
        payload = {
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
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if format != "text":
        raise ValueError(f"unknown report format {format!r}")

    lines = [f"{w.kind.value}: {w.triple}" for w in report.warnings]
    if lines:
        lines.append("")
    flags = report.rule_results
    width = max(len(label) for _, label, _ in RULE_RESULTS)
    for key, label, _ in RULE_RESULTS:
        lines.append(f"{label:<{width}} {'Y' if flags[key] else 'N'}")
    return "\n".join(lines) + "\n"
