"""Hypothesis strategies for random models and graphs, valid unless asked for unsound ones."""

from __future__ import annotations

from hypothesis import strategies as st

from accesslint.goals import (
    Goal,
    GoalGraph,
    GoalKind,
    Permission,
    PolicyStatement,
    Refinement,
)
from accesslint.model import (
    AccessNeed,
    Asset,
    AssetKind,
    AssetModel,
    Association,
    SecurityValue,
    default_matrix,
)

kinds = st.sampled_from(list(AssetKind))
levels = st.sampled_from(list(SecurityValue))
need_sets = st.frozensets(st.sampled_from(list(AccessNeed)))
multiplicities = st.sampled_from([None, "1", "0..1", "1..*", "*"])
# Plain letters, characters that JSON escapes (quote, backslash, control
# characters, non-ASCII, an astral-plane character written as a surrogate
# pair, U+2028) and three it leaves as they are (slash, DEL, and a colon,
# which the parser must tell from the colon between a key and its value).
ALPHABET = 'AbZ "\\/:\x00\t\n\x1f\x7f\xe9\u2028\U0001f600'
texts = st.text(alphabet=ALPHABET, max_size=6)
names = st.text(alphabet=ALPHABET, min_size=1, max_size=4)
extra_properties = st.dictionaries(
    st.sampled_from(["availability", "accountability"]) | names, levels, max_size=2)


# A name no asset has, for parents and association ends: drawn names are at
# most four characters long.
UNDECLARED = "Undeclared"


@st.composite
def asset_models(draw, max_assets: int = 6, with_parents: bool = False,
                 free_parents: bool = False) -> AssetModel:
    """A model with unique names and legal needs, unless free_parents.

    with_parents keeps it structurally valid, with acyclic parents, and
    declares the assets in any order, so a child may come before its parent.
    free_parents instead draws any parent at all: a later asset, the
    asset itself, a cycle with tails, or UNDECLARED; and it may declare
    a name again, so an association may join a name to itself or hold
    needs that its ends' first declarations forbid.
    """
    count = draw(st.integers(min_value=1, max_value=max_assets))
    asset_names = draw(st.lists(names, min_size=count, max_size=count, unique=True))
    if free_parents and draw(st.booleans()):
        asset_names = draw(st.lists(st.sampled_from(asset_names), min_size=count,
                                    max_size=count))
    matrix = default_matrix()
    assets: list[Asset] = []
    for i in range(count):
        kind = draw(kinds)
        parent = None
        if free_parents:
            parent = draw(st.none() | st.sampled_from(asset_names + [UNDECLARED]))
        elif with_parents:
            # Parents point at assets of the same kind drawn earlier, so
            # chains can never cycle; the shuffle below keeps that.
            candidates = [a.name for a in assets if a.kind is kind]
            if candidates and draw(st.booleans()):
                parent = draw(st.sampled_from(candidates))
        assets.append(Asset(
            name=asset_names[i],
            kind=kind,
            confidentiality=draw(levels),
            integrity=draw(levels),
            extra_properties=draw(extra_properties),
            parent=parent,
        ))
    if with_parents:
        assets = draw(st.permutations(assets))

    pairs = [(i, j) for i in range(count) for j in range(i + 1, count)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) \
        if pairs else []
    associations = []
    for i, j in chosen:
        source, target = assets[i], assets[j]
        source_needs = (draw(need_sets)
                        if matrix[(source.kind, target.kind)] else frozenset())
        target_needs = (draw(need_sets)
                        if matrix[(target.kind, source.kind)] else frozenset())
        associations.append(Association(
            source=source.name,
            target=target.name,
            source_needs=source_needs,
            target_needs=target_needs,
            source_multiplicity=draw(multiplicities),
            target_multiplicity=draw(multiplicities),
        ))
    return AssetModel(assets=tuple(assets), associations=tuple(associations))


@st.composite
def goal_graphs(draw, model: AssetModel, max_statements: int = 10) -> GoalGraph:
    """A valid graph over the model's assets: no conflicts, no duplicates."""
    req_count = draw(st.integers(min_value=1, max_value=3))
    # Names of at most four characters never collide with "Root goal".
    requirements = draw(st.lists(names, min_size=req_count, max_size=req_count,
                                 unique=True))
    with_root = draw(st.booleans())
    nodes = []
    refinements = []
    if with_root:
        nodes.append(Goal(name="Root goal", kind=GoalKind.GOAL, definition=draw(texts)))
    for requirement in requirements:
        nodes.append(Goal(name=requirement, kind=GoalKind.REQUIREMENT,
                          definition=draw(texts)))
        if with_root:
            refinements.append(Refinement(parent="Root goal", child=requirement))

    asset_names = [a.name for a in model.assets]
    raw = draw(st.lists(
        st.tuples(
            st.sampled_from(asset_names),
            st.sampled_from(list(AccessNeed)),
            st.sampled_from(asset_names),
            st.sampled_from(list(Permission)),
            st.integers(min_value=0, max_value=req_count - 1),
        ),
        max_size=max_statements,
    ))
    seen: set[tuple[str, AccessNeed, str]] = set()
    statements = []
    for subject, access, resource, permission, req in raw:
        if (subject, access, resource) in seen:
            continue
        seen.add((subject, access, resource))
        statements.append(PolicyStatement(
            requirement=requirements[req],
            subject=subject,
            access=access,
            resource=resource,
            permission=permission,
        ))
    return GoalGraph(
        nodes=tuple(nodes),
        refinements=tuple(refinements),
        policy=tuple(statements),
    )


@st.composite
def models_with_graphs(draw, max_assets: int = 6, max_statements: int = 10,
                       with_parents: bool = False):
    model = draw(asset_models(max_assets=max_assets, with_parents=with_parents))
    graph = draw(goal_graphs(model, max_statements=max_statements))
    return model, graph
