"""Access validation: need expansion, policy resolution, and rule checks.

Every association end with needs is expanded into single-need triples
(subject, access, resource).  Each triple then resolves against the
policy in exactly one way:

* an allow statement matches: the triple is legitimate, but its
  confidentiality and integrity levels are checked against four lattice
  rules (below);
* a deny statement matches: the access is explicitly forbidden, so an
  unauthorised_access warning is raised;
* nothing matches: the policy is silent about a modelled need, so an
  undefined_access warning is raised for stakeholders to resolve.

The four lattice rules on allowed triples compare subject and resource
levels.  On confidentiality: reading a resource rated above the subject
is a potential read-up; writing one rated below is a potential
write-down.  On integrity: writing a resource rated above the subject
is a potential write-up; reading one rated below is a potential
read-down.  Interact needs never participate in level checks.
"""

from __future__ import annotations

from collections import Counter
from enum import Enum
from functools import partial
from itertools import combinations, repeat
from operator import attrgetter
from typing import NamedTuple

from .goals import GoalGraph, Permission
from .model import ACCESS_ORDER, AccessNeed, AssetModel, Association, acyclic


class WarningKind(Enum):
    __hash__ = object.__hash__  # as model.AssetKind
    UNDEFINED_ACCESS = "undefined_access"
    UNAUTHORISED_ACCESS = "unauthorised_access"
    NO_READ_UP = "no_read_up"
    NO_WRITE_DOWN = "no_write_down"
    NO_WRITE_UP = "no_write_up"
    NO_READ_DOWN = "no_read_down"


# The text of each need and warning kind, read without Enum's value descriptor.
TEXT: dict[Enum, str] = {m: m.value for enum in (AccessNeed, WarningKind) for m in enum}


class AccessTriple(NamedTuple):
    """A single-need access requirement of subject upon resource, equal to its plain tuple."""

    subject: str
    access: AccessNeed
    resource: str

    def __str__(self) -> str:
        return f"{self.subject} --{TEXT[self.access]}--> {self.resource}"


_MESSAGE_PREFIX = {
    WarningKind.UNDEFINED_ACCESS: "Undefined access",
    WarningKind.UNAUTHORISED_ACCESS: "Unauthorised access",
    WarningKind.NO_READ_UP: "Potential no read-up violation",
    WarningKind.NO_WRITE_DOWN: "Potential no write-down violation",
    WarningKind.NO_WRITE_UP: "Potential no write-up violation",
    WarningKind.NO_READ_DOWN: "Potential no read-down violation",
}


class AccessWarning(NamedTuple):
    kind: WarningKind
    triple: AccessTriple

    @property
    def message(self) -> str:
        return f"{_MESSAGE_PREFIX[self.kind]}: {self.triple}"


# Summary rule labels, in report order, with the warning kind each one counts.
RULE_RESULTS: tuple[tuple[str, str, WarningKind], ...] = (
    ("simpleSecurity", "Simple Security Property", WarningKind.NO_READ_UP),
    ("starProperty", "*-Property", WarningKind.NO_WRITE_DOWN),
    ("simpleIntegrity", "Simple Integrity Property", WarningKind.NO_WRITE_UP),
    ("integrityStar", "Integrity *-Property", WarningKind.NO_READ_DOWN),
    ("absentPolicies", "Absent policies", WarningKind.UNDEFINED_ACCESS),
)


class ValidationReport(NamedTuple):
    """One validation's warnings, equal to their 1-tuple; its counts are fresh on each access."""

    warnings: tuple[AccessWarning, ...] = ()

    @property
    def summary(self) -> dict[WarningKind, int]:
        counts = Counter(map(attrgetter("kind"), self.warnings))
        return {kind: counts[kind] for kind in WarningKind}

    @property
    def rule_results(self) -> dict[str, bool]:
        counts = self.summary
        return {key: counts[kind] > 0 for key, _, kind in RULE_RESULTS}


_NEEDS = tuple(ACCESS_ORDER)  # rank -> need
# Records from one tuple of values, in C: NamedTuple's own __new__ is a Python call.
_triple = partial(tuple.__new__, AccessTriple)
_warning = partial(tuple.__new__, AccessWarning)
_association = partial(tuple.__new__, Association)
# Members bound once, as goals binds GoalKind's.
_READ, _WRITE = AccessNeed.READ, AccessNeed.WRITE
_DENY = Permission.DENY
(_UNDEFINED_ACCESS, _UNAUTHORISED_ACCESS, _NO_READ_UP, _NO_WRITE_DOWN, _NO_WRITE_UP,
 _NO_READ_DOWN) = WarningKind


def expand_needs(model: AssetModel) -> list[AccessTriple]:
    """Break every adorned association end into single-need triples.

    Output is sorted by subject name, then resource name, then
    read < write < interact, so repeated runs enumerate identically.  A
    model that expand_hierarchy returns carries its triples, and gets a
    copy of them.
    """
    if model._triples is not None:
        return list(model._triples)
    rows = []
    for source, target, source_needs, target_needs, _, _ in model.associations:
        for need in source_needs:
            rows.append((source, target, ACCESS_ORDER[need]))
        for need in target_needs:
            rows.append((target, source, ACCESS_ORDER[need]))
    rows.sort()
    return [_triple((subject, _NEEDS[rank], resource)) for subject, resource, rank in rows]


_Needs = dict[str, frozenset[AccessNeed]]
_NO_NEEDS: frozenset[AccessNeed] = frozenset()
# Each set of needs -> its members in rank order.
_RANKED = {frozenset(needs): needs
           for size in range(len(_NEEDS) + 1) for needs in combinations(_NEEDS, size)}


class _Held(NamedTuple):
    """The needs an asset and its ancestors hold: by resource, in declaration
    order, and one per triple, in the order expand_needs sorts a subject's
    triples in."""

    by_resource: _Needs
    accesses: tuple[AccessNeed, ...]
    resources: tuple[str, ...]


_HELD_NOTHING = _Held({}, (), ())


def _lineage_needs(model: AssetModel, own: dict[str, _Needs]) -> dict[str, _Held]:
    """Asset name -> the needs it and all of its ancestors hold.

    Built top down over model.lineage, which holds every asset of a sound
    model: each asset gets its parent's entry plus its own needs.  An entry
    is built only where an asset's own needs are merged in; otherwise the
    parent's is handed on, so entries are shared and none may be mutated.
    """
    index, positions = model._index, model._positions
    held: dict[str, _Held] = {}
    for name in model.lineage.top_down:
        base = held.get(index[name].parent, _HELD_NOTHING)
        extra = own.get(name)
        if not extra:
            held[name] = base
            continue
        merged = dict(base.by_resource)
        for resource, needs in extra.items():
            merged[resource] = merged.get(resource, _NO_NEEDS) | needs
        accesses: list[AccessNeed] = []
        resources: list[str] = []
        for resource in sorted(merged):
            ranked = _RANKED[merged[resource]]
            accesses += ranked
            resources += repeat(resource, len(ranked))
        held[name] = _Held({r: merged[r] for r in sorted(merged, key=positions.__getitem__)},
                           tuple(accesses), tuple(resources))
    return held


def _require_sound(model: AssetModel) -> None:
    """Raise ValueError naming check_structure's first finding, if model has one."""
    if model._fault is not None:
        raise ValueError(f"model fails check_structure: {model._fault}")


@acyclic
def expand_hierarchy(model: AssetModel) -> AssetModel:
    """Copy each ancestor's subject-side needs down to its descendants.

    With a chain A <- B <- C where A reads R, the result lets B and C
    read R as well.  Needs held *upon* an ancestor are not inherited,
    and a need is never copied onto the descendant itself.  One pass
    over the subjects, in declaration order, places the needs of each
    one's parent entry: each (subject, resource) pair goes in the
    association between the two, either way round, or else in a new one
    that also takes the reverse pair, so mutual gains share one
    association.  New associations come in order of subject then
    resource declaration.

    The result shares the input's index and lineage, and carries its
    access triples for expand_needs: each subject's own entry, minus any
    need upon itself.  The input is left untouched.  It must pass
    check_structure, as parse_model's result does by default; otherwise
    ValueError names check_structure's first finding.
    """
    _require_sound(model)
    index, positions = model._index, model._positions
    subject_needs: dict[str, _Needs] = {}
    for source, target, source_needs, target_needs, _, _ in model.associations:
        for subject, resource, needs in ((source, target, source_needs),
                                         (target, source, target_needs)):
            if needs:
                by_resource = subject_needs.setdefault(subject, {})
                by_resource[resource] = by_resource.get(resource, _NO_NEEDS) | needs

    held = _lineage_needs(model, subject_needs)
    associations = list(model.associations)
    # Each pair of names, both ways round -> the position of its association.
    paired: dict[tuple[str, str], int] = {}
    for position, (source, target, _, _, _, _) in enumerate(associations):
        paired[source, target] = paired[target, source] = position

    for name, position in positions.items():
        for resource, needs in held.get(index[name].parent, _HELD_NOTHING).by_resource.items():
            if resource == name:
                continue
            at = paired.get((name, resource))
            if at is None:
                reverse = held[resource].by_resource.get(name)
                # Else added with the reverse pair, whose subject comes first.
                if reverse is None or position < positions[resource]:
                    associations.append(_association((name, resource, needs,
                                                      reverse or _NO_NEEDS, None, None)))
            else:
                assoc = associations[at]
                if assoc.source == name:
                    associations[at] = assoc._replace(source_needs=assoc.source_needs | needs)
                else:
                    associations[at] = assoc._replace(target_needs=assoc.target_needs | needs)

    triples: list[AccessTriple] = []
    for subject in sorted(held):
        entry = held[subject]
        if subject in entry.by_resource:  # needs upon itself are not inherited
            triples += [_triple((subject, access, resource))
                        for access, resource in zip(entry.accesses, entry.resources)
                        if resource != subject]
        else:
            triples += map(_triple, zip(repeat(subject), entry.accesses, entry.resources))
    return model._expanded(tuple(associations), tuple(triples))


@acyclic
def validate_access(model: AssetModel, graph: GoalGraph) -> ValidationReport:
    """Resolve every expanded need against the policy and the lattice rules.

    Warnings come out in expansion order; an allowed triple can raise up
    to two level warnings (one confidentiality, one integrity), checked
    in the order read-up, write-down, write-up, read-down.  The model
    must pass check_structure, as parse_model's result does by default;
    otherwise ValueError names check_structure's first finding.
    """
    _require_sound(model)
    assets = model._index
    resolve = graph._policy_index.get
    warnings: list[AccessWarning] = []

    for triple in expand_needs(model):
        stmt = resolve(triple)
        if stmt is None:
            warnings.append(_warning((_UNDEFINED_ACCESS, triple)))
        elif stmt.permission is _DENY:
            warnings.append(_warning((_UNAUTHORISED_ACCESS, triple)))
        else:
            subject_name, access, resource_name = triple
            subject, resource = assets[subject_name], assets[resource_name]
            if access is _READ:
                if resource.confidentiality > subject.confidentiality:
                    warnings.append(_warning((_NO_READ_UP, triple)))
                if subject.integrity > resource.integrity:
                    warnings.append(_warning((_NO_READ_DOWN, triple)))
            elif access is _WRITE:
                if subject.confidentiality > resource.confidentiality:
                    warnings.append(_warning((_NO_WRITE_DOWN, triple)))
                if resource.integrity > subject.integrity:
                    warnings.append(_warning((_NO_WRITE_UP, triple)))

    return ValidationReport(tuple(warnings))
