"""Goal graph, policy statements, and requirement traceability.

Goals are refined into subgoals and requirements; each policy statement (subject,
access, resource, allow|deny) hangs off exactly one requirement, so every permitted
or denied interaction stays traceable to the requirement that justifies it.  The graph
check proves a sound graph sound on whole columns, and visits records one at a time
only to report.  trace walks up on one stack of parent iterators and keeps no table.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import chain, compress, count, filterfalse, repeat
from operator import attrgetter, lt
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .model import AccessNeed, AssetModel, ModelError, index_names, printable, quote


class GoalKind(Enum):
    __hash__ = object.__hash__  # as model.AssetKind
    GOAL = "goal"
    REQUIREMENT = "requirement"


class Permission(Enum):
    __hash__ = object.__hash__
    ALLOW = "allow"
    DENY = "deny"


# Members bound once: on Python 3.10 and 3.11, Enum.MEMBER goes through EnumType.__getattr__.
_GOAL, _REQUIREMENT = GoalKind
_ALLOW, _DENY = Permission
_requirement, _subject, _resource = map(attrgetter, ("requirement", "subject", "resource"))


class Goal(NamedTuple):
    name: str
    kind: GoalKind
    definition: str = ""


class Refinement(NamedTuple):
    """An edge stating that child contributes to satisfying parent."""

    parent: str
    child: str


@dataclass(frozen=True, slots=True)
class PolicyStatement:
    requirement: str
    subject: str
    access: AccessNeed
    resource: str
    permission: Permission


@dataclass(frozen=True)
class GoalGraph:
    nodes: tuple[Goal, ...] = ()
    refinements: tuple[Refinement, ...] = ()
    policy: tuple[PolicyStatement, ...] = ()

    # Indexes built on first use: not fields, so ==, repr and
    # dataclasses.replace ignore them and a replaced graph builds its own.
    # Callers get read-only views; hot readers take the plain dicts.
    @cached_property
    def _policy_index(self) -> dict[tuple[str, AccessNeed, str], PolicyStatement]:
        index = {(s.subject, s.access, s.resource): s for s in reversed(self.policy)}
        if len(index) < len(self.policy):  # an allow beats an earlier deny
            index.update({(s.subject, s.access, s.resource): s
                          for s in reversed(self.policy) if s.permission is _ALLOW})
        return index

    @property
    def policy_index(self) -> Mapping[tuple[str, AccessNeed, str], PolicyStatement]:
        """(subject, access, resource) -> the statement that resolves it.

        That is the first allow in document order, else the first deny.
        Fewer entries than statements means some interaction is stated twice.
        """
        return MappingProxyType(self._policy_index)

    @cached_property
    def _parents(self) -> dict[str, tuple[str, ...]]:
        parents: dict[str, list[str]] = {}
        for ref in self.refinements:
            parents.setdefault(ref.child, []).append(ref.parent)
        return {child: tuple(names) for child, names in parents.items()}

    @property
    def parents(self) -> Mapping[str, tuple[str, ...]]:
        """Child goal name -> its parents' names, in document order."""
        return MappingProxyType(self._parents)


def _refinement_cycles(graph: GoalGraph, by_name: Mapping[str, Goal]) -> list[list[str]]:
    """Strongly connected components of size > 1 (or with a self loop), in by_name's order.

    One C pass proves most graphs acyclic: every edge runs down by_name's
    order.  Else one peel, taking each goal once no parent is left above
    it, may prove it.  Else pass one walks down the child edges and
    records the order goals finish in; pass two, last finished first,
    gathers each component upward along graph.parents.  None recurses,
    as chains may be long.  An edge to a goal that by_name, index_names'
    map, lacks (an undeclared or empty name) counts for nothing.
    """
    order = dict(zip(by_name, count()))  # an unknown end ranks past the edge's other end
    uppers, lowers = [*zip(*graph.refinements)] or [(), ()]
    if all(map(lt, map(order.get, uppers, repeat(-1)), map(order.get, lowers, repeat(len(order))))):
        return []

    children: dict[str, list[str]] = {}
    for ref in graph.refinements:
        if ref.parent in by_name and ref.child in by_name:
            children.setdefault(ref.parent, []).append(ref.child)

    above = Counter(chain.from_iterable(children.values()))
    peeled = [*filterfalse(above.__contains__, by_name)]
    for node in peeled:  # grows as goals lose their last parent
        for child in children.get(node, ()):
            above[child] -= 1
            if not above[child]:
                peeled.append(child)
    if len(peeled) == len(by_name):
        return []

    finished: list[str] = []
    seen: set[str] = set()
    for root in by_name:
        pending = [(root, False)]
        while pending:
            node, done = pending.pop()
            if done:
                finished.append(node)
            elif node not in seen:
                seen.add(node)
                pending.append((node, True))
                pending.extend((child, False) for child in children.get(node, ()))

    # Every known goal is in seen now; a component claims its goals by
    # taking them out.
    parents = graph._parents
    cycles: list[list[str]] = []
    for root in reversed(finished):
        if root not in seen:
            continue
        seen.discard(root)
        component = [root]
        for node in component:  # grows as the walk goes up
            for parent in parents.get(node, ()):
                if parent in seen:
                    seen.discard(parent)
                    component.append(parent)
        if len(component) > 1 or root in parents.get(root, ()):
            cycles.append(sorted(component, key=order.__getitem__))

    cycles.sort(key=lambda members: order[members[0]])
    return cycles


def _policy_where(stmt: PolicyStatement) -> str:
    return (f"policy {quote(stmt.subject)} {stmt.access.value} {quote(stmt.resource)} "
            f"{stmt.permission.value}")


def check_goal_structure(graph: GoalGraph, model: AssetModel) -> list[ModelError]:
    """Check every goal-graph invariant against the asset model.

    An empty result means the graph is sound.  Requirements that own no
    policy statement and are not refined further are reported at warning
    severity: they may legitimately cover concerns other than access.
    """
    by_name, errors = index_names(graph.nodes, "goal")
    assets = model._index
    requirements = {name for name, node in by_name.items() if node.kind is _REQUIREMENT}
    parents, children = [*zip(*graph.refinements)] or [(), ()]
    owners = [*map(_requirement, graph.policy)]
    # Whole columns prove most graphs' refinements and policy sound; the loops only report.
    refinements_sound = (by_name.keys() >= {*parents, *children}
                         and len(set(graph.refinements)) == len(parents)
                         and requirements.issuperset(
                             compress(children, map(requirements.__contains__, parents))))
    policy_sound = requirements.issuperset(owners) and assets.keys() >= {
        *map(_subject, graph.policy), *map(_resource, graph.policy)}

    seen_edges: set[tuple[str, str]] = set()
    for ref in () if refinements_sound else graph.refinements:
        edge = parent, child = ref.parent, ref.child
        resolved = parent in by_name and child in by_name
        for endpoint in filterfalse(by_name.__contains__, edge):
            errors.append(ModelError(
                "UnknownGoal", f"refinement {quote(parent)} <- {quote(child)}",
                f"refinement references unknown goal {quote(endpoint)}",
            ))
        if edge in seen_edges:
            errors.append(ModelError(
                "DuplicateRefinement", f"refinement {quote(parent)} <- {quote(child)}",
                f"refinement {quote(parent)} <- {quote(child)} appears more than once",
            ))
            continue
        seen_edges.add(edge)
        if resolved and by_name[parent].kind is _REQUIREMENT and by_name[child].kind is _GOAL:
            errors.append(ModelError(
                "RequirementAboveGoal", f"refinement {quote(parent)} <- {quote(child)}",
                f"requirement {quote(parent)} cannot be refined by goal {quote(child)}",
            ))

    for members in _refinement_cycles(graph, by_name):
        errors.append(ModelError(
            "CyclicRefinement", printable(members[0]),
            "refinement cycle: " + " -> ".join(map(printable, members + [members[0]])),
        ))

    for stmt in () if policy_sound else graph.policy:
        owner = by_name.get(stmt.requirement)
        if owner is None:
            errors.append(ModelError(
                "UnknownRequirement", _policy_where(stmt),
                "policy statement references unknown requirement " + quote(stmt.requirement),
            ))
        elif owner.kind is not _REQUIREMENT:
            errors.append(ModelError(
                "NotARequirement", _policy_where(stmt),
                f"policy statement is owned by {quote(stmt.requirement)}, which is a goal, "
                "not a requirement",
            ))
        for endpoint in filterfalse(assets.__contains__, (stmt.subject, stmt.resource)):
            errors.append(ModelError(
                "UnknownAsset", _policy_where(stmt),
                f"policy statement references unknown asset {quote(endpoint)}",
            ))

    # A full index proves no interaction is stated twice.  Past an
    # interaction's first statement, a permission it was stated with before
    # is a duplicate, and the other one a conflict.
    if len(graph._policy_index) < len(graph.policy):
        stated: dict[tuple[str, AccessNeed, str], set[Permission]] = {}
        for stmt in graph.policy:
            permissions = stated.setdefault((stmt.subject, stmt.access, stmt.resource), set())
            if stmt.permission in permissions:
                errors.append(ModelError(
                    "DuplicateStatement", _policy_where(stmt),
                    f"statement ({quote(stmt.subject)}, {stmt.access.value}, "
                    f"{quote(stmt.resource)}, {stmt.permission.value}) is declared more than once",
                ))
            elif permissions:
                errors.append(ModelError(
                    "ConflictingPermission", _policy_where(stmt),
                    f"({quote(stmt.subject)}, {stmt.access.value}, {quote(stmt.resource)}) is "
                    "both allowed and denied",
                ))
            permissions.add(stmt.permission)

    unowned = requirements.difference(owners, parents)  # own nothing, refine nothing
    for name in filter(unowned.__contains__, by_name) if unowned else ():
        errors.append(ModelError(
            "RequirementWithoutPolicy", printable(name),
            f"requirement {quote(name)} owns no policy statement", severity="warning",
        ))

    return errors


def lookup_statement(
    graph: GoalGraph,
    subject: str,
    access: AccessNeed,
    resource: str,
    permission: Permission,
) -> PolicyStatement | None:
    """The first statement in document order matching all four fields, or None.

    One index lookup, except for the deny of an interaction the graph also
    allows, which check_goal_structure rejects: that one takes a scan.
    """
    interaction = (subject, access, resource)
    stmt = graph._policy_index.get(interaction)
    if stmt is None or stmt.permission is permission:
        return stmt
    return None if stmt.permission is _DENY else next(  # the indexed allow hides the deny
        (s for s in graph.policy
         if s.permission is permission and (s.subject, s.access, s.resource) == interaction), None)


# The most paths trace returns; stacked diamonds double the count per level.
MAX_TRACE_PATHS = 10_000


def trace(graph: GoalGraph, statement: PolicyStatement) -> list[list[str]]:
    """Refinement paths from the statement's requirement up to every root.

    Each path starts with the owning requirement and follows child to parent edges
    depth first, parents in document order.  A parent already on the path is skipped
    and a goal with no parent left ends a path, so an unrefined requirement yields one
    one-element path.  One stack of parent iterators holds the walk, so chains of any
    depth trace.  More than MAX_TRACE_PATHS paths raise ValueError.
    """
    parents = graph._parents
    paths: list[list[str]] = []
    # The path walked so far, as an ordered set; iterators over its goals' parents,
    # the last goal's in ups; fresh while the last goal has taken no parent yet.
    path = {statement.requirement: None}
    ups, stack, fresh = iter(parents.get(statement.requirement, ())), [], True
    while True:
        for parent in ups:
            if parent not in path:
                path[parent] = None
                stack.append(ups)
                ups, fresh = iter(parents.get(parent, ())), True
                break
        else:
            if fresh:  # it had no parent left to take: a path ends there
                if len(paths) == MAX_TRACE_PATHS:
                    raise ValueError(f"more than {MAX_TRACE_PATHS} refinement paths "
                                     f"from requirement {quote(statement.requirement)}")
                paths.append([*path])
                fresh = False
            if not stack:
                return paths
            ups = stack.pop()
            path.popitem()
