"""Core asset-model types and structural checks.

An asset model describes what a system under design is made of: assets
typed as system, information, or people, each carrying qualitative
confidentiality and integrity levels, plus associations whose ends may
be adorned with the access needs (read, write, interact) one asset has
upon the other.  Which asset kinds may act as subjects on which resource
kinds is governed by an access-rule matrix.

Associations and findings are NamedTuples, assets slotted frozen dataclasses
(no __dict__) and the model a frozen dataclass; nothing here mutates a dict field.
The checks are pure functions that return error lists rather than raising.  Each
proves a sound model sound on whole columns, and visits records only to report.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from enum import Enum, IntEnum
from functools import cached_property, wraps
from itertools import compress, count, filterfalse, repeat
from operator import attrgetter, lt
from types import MappingProxyType
from typing import Any, Mapping, NamedTuple, Sequence


class SecurityValue(IntEnum):
    """Qualitative security level, totally ordered NONE < LOW < MEDIUM < HIGH."""

    NONE = 0
    LOW = 1
    MEDIUM = 2
    HIGH = 3


class AssetKind(Enum):
    __hash__ = object.__hash__  # members are singletons: hash by identity, in C
    SYSTEM = "system"
    INFORMATION = "information"
    PEOPLE = "people"


class AccessNeed(Enum):
    __hash__ = object.__hash__
    READ = "read"
    WRITE = "write"
    INTERACT = "interact"


# Rank of each need in declaration order, the canonical order of needs.
ACCESS_ORDER: Mapping[AccessNeed, int] = {need: i for i, need in enumerate(AccessNeed)}

# The only multiplicity strings the parser accepts on association ends.
MULTIPLICITIES = ("1", "0..1", "1..*", "*")


@dataclass(frozen=True, slots=True)
class Asset:
    """A named thing of value: a system, some information, or people.

    Confidentiality and integrity drive the rule checks; any further
    qualitative properties (availability, say) are stored under
    extra_properties and carried through untouched.  parent names
    another asset of the same kind for inheritance expansion.
    """

    name: str
    kind: AssetKind
    confidentiality: SecurityValue = SecurityValue.NONE
    integrity: SecurityValue = SecurityValue.NONE
    extra_properties: Mapping[str, SecurityValue] = field(default_factory=dict)
    parent: str | None = None


class Association(NamedTuple):
    """A link between two assets with per-end access-need sets.

    source_needs are the needs the source asset has upon the target;
    target_needs the reverse.  An empty set means no access is needed
    from that end.  Multiplicities are retained for diagram fidelity and
    play no part in validation.
    """

    source: str
    target: str
    source_needs: frozenset[AccessNeed] = frozenset()
    target_needs: frozenset[AccessNeed] = frozenset()
    source_multiplicity: str | None = None
    target_multiplicity: str | None = None


def default_matrix() -> dict[tuple[AssetKind, AssetKind], bool]:
    """Built-in access-rule matrix, keyed by (subject kind, resource kind).

    People may access anything; system and information assets may access
    system and information assets but never people.  Individual cells can
    be overridden per model document.  Each call returns a new dict.
    """
    people = AssetKind.PEOPLE
    return {(subject, resource): subject is people or resource is not people
            for subject in AssetKind for resource in AssetKind}


_name, _kind, _parent = map(attrgetter, ("name", "kind", "parent"))


def acyclic(build):
    """build, run with the cyclic garbage collector paused if on: each container accesslint
    builds is acyclic, so reference counting frees it and the collector finds nothing to free.
    Its state is process-wide: a thread that turns it off during the call finds it on after."""
    @wraps(build)
    def call(*args, **kwargs):
        paused = gc.isenabled()
        gc.disable()
        try:
            return build(*args, **kwargs)
        finally:
            if paused:
                gc.enable()
    return call


class Lineage(NamedTuple):
    top_down: tuple[str, ...]  # every asset name outside a cycle, each after its parent
    cycles: tuple[tuple[str, ...], ...]  # each cycle's members, as the walk met them


@dataclass(frozen=True)
class AssetModel:
    """Assets, the associations between them, and the access-rule matrix.

    A model indexes its asset names, walks its parents and records
    check_structure's first finding (_fault) once, on first use; none of
    them is a field, so ==, repr and dataclasses.replace ignore them.
    parse_model's checked result is recorded sound when it is built, so a
    hand-built model pays one check_structure on its first expansion or
    validation.  A model that expand_hierarchy returns holds the same
    assets, so it shares the index and lineage, is sound too, and carries
    its sorted access triples for expand_needs.
    """

    assets: tuple[Asset, ...] = ()
    associations: tuple[Association, ...] = ()
    matrix: Mapping[tuple[AssetKind, AssetKind], bool] = field(default_factory=default_matrix)

    _triples = None  # an expanded model's access triples, in expand_needs's order

    # Hot readers take the plain dicts: a view's get is a slower call.
    @cached_property
    def _index(self) -> dict[str, Asset]:
        return index_names(self.assets, "asset")[0]

    @cached_property
    def _positions(self) -> dict[str, int]:
        return dict(zip(self._index, count()))

    @property
    def index(self) -> Mapping[str, Asset]:
        """Asset name -> its first declaration, in document order.  The empty name
        and each later declaration are left out, as index_names leaves them."""
        return MappingProxyType(self._index)

    @cached_property
    def lineage(self) -> Lineage:
        """One walk up the parent links of the index, from each name in its order.

        A walk stops at a name an earlier walk took, at a name the index
        lacks, or above a root (None); meeting its own trail, it closes a
        new cycle.  So a repeated name follows its first declaration's parent.
        When one C pass finds each parent declared before its child, or unknown,
        each walk would take one name, in index order, so none is walked.
        """
        ranks = map(self._positions.get, map(_parent, self._index.values()), repeat(-1))
        if all(map(lt, ranks, count())):
            return Lineage(tuple(self._index), ())
        untaken = dict(self._index)
        top_down: list[str] = []
        cycles: list[tuple[str, ...]] = []
        for current in self._index:
            if current not in untaken:
                continue
            trail: list[str] = []
            while current in untaken:
                trail.append(current)
                current = untaken.pop(current).parent
            if current in trail:
                closed = trail.index(current)
                cycles.append(tuple(trail[closed:]))
                del trail[closed:]
            trail.reverse()
            top_down += trail
        return Lineage(tuple(top_down), tuple(cycles))

    @cached_property
    def _fault(self) -> ModelError | None:
        """check_structure's first finding, or None for a sound model."""
        return next(iter(check_structure(self)), None)

    def _expanded(self, associations: tuple[Association, ...], triples: tuple) -> AssetModel:
        """This sound model with other associations, sharing its indexes and
        lineage and carrying triples, those associations' access triples."""
        expanded = AssetModel(self.assets, associations, self.matrix)
        vars(expanded).update(_index=self._index, _positions=self._positions,
                              lineage=self.lineage, _fault=None, _triples=triples)
        return expanded


def printable(text: str) -> str:
    """text with each backslash and each character str.isprintable() rejects escaped.

    Names reach diagnostics and report lines as written.  Escaped, a newline
    in one cannot split a line, nor a name that spells \\n pass for it.
    """
    return "".join(c if c.isprintable() and c != "\\" else c.encode("unicode_escape").decode()
                   for c in text)


def quote(name: str) -> str:
    """name as a diagnostic shows it: printable, in single quotes, with ' as \\'."""
    return "'" + printable(name).replace("'", "\\'") + "'"


class ModelError(NamedTuple):
    """A structural finding: which rule was violated, by which element.

    severity "error" findings make a model invalid; "warning" findings
    flag suspicious but legal structure.
    """

    code: str
    where: str
    message: str
    severity: str = "error"

    def __str__(self) -> str:
        return f"{self.code}: {self.message}"


def index_names(items: Sequence[Any], noun: str) -> tuple[dict[str, Any], list[ModelError]]:
    """Map each name but the empty one to its first declaration, in document order:
    the one reading of a name for every check, walk and index.  Only an empty or repeated
    name takes the loop, which reports Empty<Noun>Name and Duplicate<Noun>Name in order."""
    by_name = dict(zip(map(_name, items), items))
    if len(by_name) == len(items) and "" not in by_name:
        return by_name, []
    by_name, errors = {}, []
    for item in items:
        if not item.name:
            errors.append(ModelError(
                f"Empty{noun.title()}Name", f"<unnamed {noun}>", f"{noun} has an empty name"))
        elif item.name in by_name:
            errors.append(ModelError(
                f"Duplicate{noun.title()}Name", printable(item.name),
                f"{noun} name {quote(item.name)} is declared more than once"))
        else:
            by_name[item.name] = item
    return by_name, errors


def check_structure(model: AssetModel) -> list[ModelError]:
    """Check every asset-model invariant; an empty result means the model is sound.

    Findings come out in document order so identical inputs always yield
    identical error lists.  Every rule reads model.index, so a name's later
    declarations and an empty-named asset are each reported once, by index_names.
    """
    by_name = model._index
    errors = index_names(model.assets, "asset")[1] if len(by_name) < len(model.assets) else []

    for asset in by_name.values():
        if asset.parent is None:
            continue
        parent = by_name.get(asset.parent)
        if parent is None:
            errors.append(ModelError(
                "UnknownParent", printable(asset.name),
                f"asset {quote(asset.name)} names unknown parent {quote(asset.parent)}",
            ))
        elif parent.kind is not asset.kind:
            errors.append(ModelError(
                "ParentKindMismatch", printable(asset.name),
                f"asset {quote(asset.name)} ({asset.kind.value}) cannot inherit from "
                f"{quote(parent.name)} ({parent.kind.value})",
            ))

    for ring in model.lineage.cycles:
        members = list(map(printable, sorted(ring, key=model._positions.__getitem__)))
        errors.append(ModelError(
            "CyclicInheritance", members[0],
            "inheritance cycle: " + " -> ".join(members + [members[0]]),
        ))

    # Whole columns prove most models' associations sound; the loop only reports.
    sources, targets, sources_needs, targets_needs, _, _ = [*zip(*model.associations)] or [()] * 6
    pairs = {*zip(sources, targets)}  # one met reversed is a repeat, or an asset with itself
    if (by_name.keys() >= {*sources, *targets} and len(pairs) == len(sources)
            and pairs.isdisjoint(zip(targets, sources))):
        source_kinds, target_kinds = ([*map(_kind, map(by_name.__getitem__, ends))]
                                      for ends in (sources, targets))
        cells = {*compress(zip(source_kinds, target_kinds), sources_needs),
                 *compress(zip(target_kinds, source_kinds), targets_needs)}
        if all(map(model.matrix.__getitem__, cells)):
            return errors

    # Each association claims its pair of names both ways round.
    seen_pairs: set[tuple[str, str]] = set()
    for source, target, source_needs, target_needs, _, _ in model.associations:
        pair = (source, target)
        resolved = source in by_name and target in by_name
        for endpoint in filterfalse(by_name.__contains__, pair):
            errors.append(ModelError(
                "UnknownAsset", f"association {quote(source)} - {quote(target)}",
                f"association end references unknown asset {quote(endpoint)}",
            ))
        if source == target:
            errors.append(ModelError(
                "SelfAssociation", f"association {quote(source)} - {quote(target)}",
                f"asset {quote(source)} cannot be associated with itself",
            ))
            continue
        if pair in seen_pairs:
            errors.append(ModelError(
                "DuplicateAssociation", f"association {quote(source)} - {quote(target)}",
                f"more than one association between {quote(source)} and {quote(target)}",
            ))
            continue
        seen_pairs.update((pair, (target, source)))
        if not resolved:
            continue
        for subject, resource, needs in ((source, target, source_needs),
                                         (target, source, target_needs)):
            subject_kind, resource_kind = by_name[subject].kind, by_name[resource].kind
            if needs and not model.matrix[(subject_kind, resource_kind)]:
                errors.append(ModelError(
                    "MatrixViolation", f"association {quote(source)} - {quote(target)}",
                    f"{subject_kind.value} asset {quote(subject)} may not hold access "
                    f"needs upon {resource_kind.value} asset {quote(resource)}",
                ))

    return errors
