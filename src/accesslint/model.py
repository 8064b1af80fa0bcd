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
hierarchy gives both hierarchies, parent links and refinements, their order and cycles.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from enum import Enum, IntEnum
from functools import cached_property, wraps
from itertools import combinations, compress, count, filterfalse, repeat
from operator import attrgetter, lt
from types import MappingProxyType
from typing import Any, Collection, Mapping, NamedTuple, Sequence


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
# Each set of needs -> its members in that order.
NEED_ORDER: Mapping[frozenset[AccessNeed], tuple[AccessNeed, ...]] = {
    frozenset(needs): needs
    for size in range(len(AccessNeed) + 1) for needs in combinations(AccessNeed, size)}

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
    top_down: tuple[str, ...]  # every name outside a cycle, each after its parents
    cycles: tuple[tuple[str, ...], ...]  # each cycle's members, in declaration order


def hierarchy(order: Mapping[str, int], uppers: Collection[str | None],
              lowers: Collection[str]) -> Lineage:
    """order's names parent first, and the cycles that the edges uppers[i] -> lowers[i],
    parent to child, close.

    order maps each name to its declaration position.  One C pass proves most
    hierarchies acyclic: every edge runs down the order, an unknown parent ranking
    before every name and an unknown child after.  Else one strongly connected
    components walk (Tarjan's) goes up the parent lists from each name in order,
    on a stack of iterators, as chains may be long; an edge with an unknown end
    counts for nothing.  top_down holds the names outside every cycle as the walk
    finishes them, so each after its parents.  Cycles come in the order the walk
    closes them, and a name alone is one only when it is its own parent.
    """
    if all(map(lt, map(order.get, uppers, repeat(-1)), map(order.get, lowers, repeat(len(order))))):
        return Lineage(tuple(order), ())
    parents: dict[str, list[str]] = {}
    for parent, child in zip(uppers, lowers):
        if parent in order and child in order:
            parents.setdefault(child, []).append(parent)
    # A name on the stack -> the lowest stack height the walk up from it reaches;
    # a name whose component is closed -> a height above any.
    low: dict[str, int] = {}
    closed = len(order)
    stack: list[str] = []
    top_down: list[str] = []
    cycles: list[tuple[str, ...]] = []
    for root in filterfalse(low.__contains__, order):
        if root not in parents:  # a name with no parent closes alone at once
            low[root] = closed
            top_down.append(root)
            continue
        low[root] = 0
        stack.append(root)
        walk = [(root, 0, iter(parents[root]))]
        while walk:
            name, height, ups = walk[-1]
            for parent in ups:
                if parent not in low:
                    if parent not in parents:
                        low[parent] = closed
                        top_down.append(parent)
                        continue
                    low[parent] = len(stack)
                    walk.append((parent, len(stack), iter(parents[parent])))
                    stack.append(parent)
                    break
                if low[parent] < low[name]:
                    low[name] = low[parent]
            else:
                del walk[-1]
                if low[name] < height:  # name's component closes below it
                    caller = walk[-1][0]
                    low[caller] = min(low[caller], low[name])
                elif len(stack) == height + 1 and name not in parents[name]:
                    low[name] = closed
                    top_down.append(stack.pop())
                else:  # name roots a component of more names, or its own parent
                    members = stack[height:]
                    del stack[height:]
                    low.update(zip(members, repeat(closed)))
                    cycles.append(tuple(sorted(members, key=order.__getitem__)))
    return Lineage(tuple(top_down), tuple(cycles))


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
        """The index's names ancestors first, and its inheritance cycles: hierarchy
        on its parent links, so a repeated name follows its first declaration's parent."""
        return hierarchy(self._positions, [*map(_parent, self._index.values())], self._index)

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
        members = list(map(printable, ring))
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
