"""Property tests over randomly generated models and graphs."""

from dataclasses import replace

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from accesslint.goals import (
    Goal,
    GoalGraph,
    GoalKind,
    Permission,
    PolicyStatement,
    Refinement,
    check_goal_structure,
    lookup_statement,
    trace,
)
from accesslint.model import (
    AccessNeed,
    Asset,
    AssetKind,
    AssetModel,
    Association,
    SecurityValue,
    check_structure,
)
from accesslint.modelio import parse_model, render_report, serialize_model
from accesslint.validation import (
    WarningKind,
    expand_hierarchy,
    expand_needs,
    validate_access,
)

import cycle_oracle
import json_reference
import pairing_oracle
import rule_oracle
import trace_oracle
from strategies import UNDECLARED, asset_models, goal_graphs, kinds, models_with_graphs, need_sets

LEVEL_KINDS = {
    WarningKind.NO_READ_UP,
    WarningKind.NO_WRITE_DOWN,
    WarningKind.NO_WRITE_UP,
    WarningKind.NO_READ_DOWN,
}


@given(models_with_graphs())
def test_generated_pairs_satisfy_all_invariants(pair):
    model, graph = pair
    assert check_structure(model) == []
    assert [f for f in check_goal_structure(graph, model)
            if f.severity == "error"] == []


@given(asset_models())
def test_expansion_length_is_total_need_count(model):
    expected = sum(len(a.source_needs) + len(a.target_needs)
                   for a in model.associations)
    assert len(expand_needs(model)) == expected


@given(asset_models())
def test_expansion_is_deterministic(model):
    assert expand_needs(model) == expand_needs(model)


@given(models_with_graphs())
def test_lookup_returns_the_unique_exact_match(pair):
    model, graph = pair
    for stmt in graph.policy:
        found = lookup_statement(
            graph, stmt.subject, stmt.access, stmt.resource, stmt.permission)
        assert found == stmt
        matches = [s for s in graph.policy
                   if (s.subject, s.access, s.resource, s.permission)
                   == (stmt.subject, stmt.access, stmt.resource, stmt.permission)]
        assert matches == [stmt]


@given(models_with_graphs())
def test_trace_paths_start_at_requirement_and_follow_edges(pair):
    _, graph = pair
    edges = {(r.child, r.parent) for r in graph.refinements}
    for stmt in graph.policy:
        for path in trace(graph, stmt):
            assert path[0] == stmt.requirement
            for child, parent in zip(path, path[1:]):
                assert (child, parent) in edges


@given(models_with_graphs())
def test_adding_a_cycle_makes_the_graph_invalid(pair):
    model, graph = pair
    if not graph.refinements:
        return
    # Close the loop: make the first child a parent of its own root.
    first = graph.refinements[0]
    mutated = GoalGraph(
        nodes=graph.nodes,
        refinements=graph.refinements + (Refinement(first.child, first.parent),),
        policy=graph.policy,
    )
    codes = [f.code for f in check_goal_structure(mutated, model)]
    assert "CyclicRefinement" in codes


@given(models_with_graphs())
def test_engine_matches_brute_force_oracle(pair):
    model, graph = pair
    report = validate_access(model, graph)
    got = [(w.kind.value, w.triple.subject, w.triple.access.value,
            w.triple.resource) for w in report.warnings]
    assert got == rule_oracle.validate(model, graph)


@given(models_with_graphs())
def test_every_triple_resolves_to_exactly_one_branch(pair):
    model, graph = pair
    report = validate_access(model, graph)
    triples = expand_needs(model)
    branch = {
        (t.subject, t.access.value, t.resource):
            rule_oracle.resolve(graph, t.subject, t.access.value, t.resource)
        for t in triples
    }
    counts = report.summary
    allow_matched = sum(1 for b in branch.values() if b == "allow")
    assert (counts[WarningKind.UNDEFINED_ACCESS]
            + counts[WarningKind.UNAUTHORISED_ACCESS]
            + allow_matched) == len(triples)
    for warning in report.warnings:
        key = (warning.triple.subject, warning.triple.access.value,
               warning.triple.resource)
        if warning.kind in LEVEL_KINDS:
            assert branch[key] == "allow"
        elif warning.kind is WarningKind.UNAUTHORISED_ACCESS:
            assert branch[key] == "deny"
        else:
            assert branch[key] == "absent"


@given(models_with_graphs())
def test_interact_needs_never_raise_level_warnings(pair):
    model, graph = pair
    for warning in validate_access(model, graph).warnings:
        if warning.kind in LEVEL_KINDS:
            assert warning.triple.access.value in ("read", "write")


@given(models_with_graphs())
def test_summary_and_rule_results_are_consistent(pair):
    model, graph = pair
    report = validate_access(model, graph)
    counts = {kind: 0 for kind in WarningKind}
    for warning in report.warnings:
        counts[warning.kind] += 1
    assert report.summary == counts
    flags = report.rule_results
    assert flags["simpleSecurity"] == (counts[WarningKind.NO_READ_UP] > 0)
    assert flags["starProperty"] == (counts[WarningKind.NO_WRITE_DOWN] > 0)
    assert flags["simpleIntegrity"] == (counts[WarningKind.NO_WRITE_UP] > 0)
    assert flags["integrityStar"] == (counts[WarningKind.NO_READ_DOWN] > 0)
    assert flags["absentPolicies"] == (counts[WarningKind.UNDEFINED_ACCESS] > 0)


@given(models_with_graphs())
def test_reports_render_identically_on_repeat_runs(pair):
    model, graph = pair
    first = validate_access(model, graph)
    second = validate_access(model, graph)
    assert render_report(first, "text") == render_report(second, "text")
    assert render_report(first, "json") == render_report(second, "json")


@given(models_with_graphs(with_parents=True))
def test_round_trip_preserves_structure(pair):
    model, graph = pair
    again_model, again_graph = parse_model(serialize_model(model, graph))
    assert again_model == model
    assert again_graph == graph


@given(models_with_graphs())
def test_serialization_is_canonical(pair):
    model, graph = pair
    text = serialize_model(model, graph)
    assert serialize_model(*parse_model(text)) == text


@given(models_with_graphs(with_parents=True),
       st.dictionaries(st.tuples(st.sampled_from(list(AssetKind)),
                                 st.sampled_from(list(AssetKind))), st.booleans()))
def test_writer_matches_json_dumps(pair, cells):
    model, graph = pair
    report = validate_access(model, graph)
    assert render_report(report, "json") == json_reference.canonical(
        json_reference.report(report))
    model = replace(model, matrix={**model.matrix, **cells})
    assert serialize_model(model, graph) == json_reference.canonical(
        json_reference.document(model, graph))


@given(models_with_graphs(with_parents=True))
def test_records_are_built_whole(pair):
    """Parsed and inherited records are exactly their class, with every field."""
    model, graph = parse_model(serialize_model(*pair))
    expanded = expand_hierarchy(model)
    for cls, records in ((Association, model.associations + expanded.associations),
                         (Goal, graph.nodes), (Refinement, graph.refinements)):
        for record in records:
            assert type(record) is cls and len(record) == len(cls._fields)
            assert record == cls(*record)


@given(asset_models(with_parents=True))
def test_hierarchy_expansion_only_adds_triples(model):
    base = set(expand_needs(model))
    expanded = set(expand_needs(expand_hierarchy(model)))
    assert base <= expanded


# A inherits a read upon B from PA while B inherits a read upon A from PB;
# the two additions must share one association.
@example(AssetModel(
    assets=(
        Asset("PA", AssetKind.SYSTEM),
        Asset("A", AssetKind.SYSTEM, parent="PA"),
        Asset("PB", AssetKind.SYSTEM),
        Asset("B", AssetKind.SYSTEM, parent="PB"),
    ),
    associations=(
        Association("PA", "B", source_needs=frozenset({AccessNeed.READ})),
        Association("PB", "A", source_needs=frozenset({AccessNeed.READ})),
    ),
))
@given(asset_models(with_parents=True))
def test_hierarchy_expansion_is_structurally_valid(model):
    assert check_structure(expand_hierarchy(model)) == []


@given(asset_models(with_parents=True))
def test_hierarchy_expansion_matches_ancestor_closure(model):
    parent = {a.name: a.parent for a in model.assets}
    base = set(expand_needs(model))
    expected = set(base)
    for asset in model.assets:
        ancestor = parent.get(asset.name)
        seen = {asset.name}
        while ancestor is not None and ancestor not in seen:
            seen.add(ancestor)
            for triple in base:
                if triple.subject == ancestor and triple.resource != asset.name:
                    expected.add(triple.__class__(
                        asset.name, triple.access, triple.resource))
            ancestor = parent.get(ancestor)
    assert set(expand_needs(expand_hierarchy(model))) == expected


_READ = frozenset({AccessNeed.READ})
_WRITE = frozenset({AccessNeed.WRITE})
_BOTH = _READ | _WRITE
# C inherits from P first G's read upon R2, then P's own read upon R1: the
# order the two were merged in is not the order R1 and R2 are declared in.
_MERGED_OUT_OF_ORDER = AssetModel(
    assets=(Asset("R1", AssetKind.INFORMATION), Asset("R2", AssetKind.INFORMATION),
            Asset("G", AssetKind.SYSTEM), Asset("P", AssetKind.SYSTEM, parent="G"),
            Asset("C", AssetKind.SYSTEM, parent="P")),
    associations=(Association("G", "R2", _READ), Association("P", "R1", _READ)),
)


# A inherits a read upon B from PA while B inherits a read upon A from PB:
# one new association takes both.
@example(AssetModel(
    assets=(Asset("PA", AssetKind.SYSTEM), Asset("A", AssetKind.SYSTEM, parent="PA"),
            Asset("PB", AssetKind.SYSTEM), Asset("B", AssetKind.SYSTEM, parent="PB")),
    associations=(Association("PA", "B", _READ), Association("PB", "A", _READ)),
))
# B is declared before A, so the pair (A, B) is the reverse of (B, A).
@example(AssetModel(
    assets=(Asset("PB", AssetKind.SYSTEM), Asset("B", AssetKind.SYSTEM, parent="PB"),
            Asset("PA", AssetKind.SYSTEM), Asset("A", AssetKind.SYSTEM, parent="PA")),
    associations=(Association("PA", "B", _READ), Association("A", "PB", target_needs=_READ)),
))
@example(_MERGED_OUT_OF_ORDER)
@settings(max_examples=300)
@given(asset_models(with_parents=True))
def test_hierarchy_pairing_matches_the_two_pass_reference(model):
    """Each gained pair lands where the dict-and-pop pairing puts it, in the same order."""
    assert (expand_hierarchy(model).associations
            == pairing_oracle.expand_hierarchy(model).associations)


def test_an_inherited_need_upon_an_undeclared_asset_raises_value_error():
    model = AssetModel(
        assets=(Asset("P", AssetKind.SYSTEM), Asset("C", AssetKind.SYSTEM, parent="P")),
        associations=(Association("P", "Ghost", _READ),))
    message = ("model fails check_structure: "
               "UnknownAsset: association end references unknown asset 'Ghost'")
    with pytest.raises(ValueError) as expanding:
        expand_hierarchy(model)
    with pytest.raises(ValueError) as validating:
        validate_access(model, GoalGraph())
    assert str(expanding.value) == str(validating.value) == message


def test_a_need_upon_an_undeclared_asset_that_no_asset_inherits_raises():
    """C, which has no descendant, reads Ghost, and K's parent is Ghost:
    check_structure reports the parent first, so both calls name it."""
    model = AssetModel(
        assets=(Asset("P", AssetKind.SYSTEM), Asset("C", AssetKind.SYSTEM, parent="P"),
                Asset("R", AssetKind.INFORMATION), Asset("K", AssetKind.SYSTEM, parent="Ghost")),
        associations=(Association("C", "Ghost", _READ, _WRITE), Association("P", "R", _READ)))
    message = ("model fails check_structure: "
               "UnknownParent: asset 'K' names unknown parent 'Ghost'")
    with pytest.raises(ValueError, match=f"^{message}$"):
        expand_hierarchy(model)
    with pytest.raises(ValueError, match=f"^{message}$"):
        validate_access(model, GoalGraph())


def _carry_free(model: AssetModel) -> AssetModel:
    """A model of the same fields that carries no triples and shares no index."""
    return AssetModel(model.assets, model.associations, model.matrix)


def _with_graph(model: AssetModel, *allowed: tuple[str, AccessNeed, str]):
    """model with a graph whose one requirement allows each interaction given."""
    return model, GoalGraph(
        nodes=(Goal("Req", GoalKind.REQUIREMENT),),
        policy=tuple(PolicyStatement("Req", subject, access, resource, Permission.ALLOW)
                     for subject, access, resource in allowed))


_models_and_graphs = asset_models(with_parents=True).flatmap(
    lambda model: st.tuples(st.just(model), goal_graphs(model)))


# A and B gain needs upon each other from their parents: one new association
# takes both, declared the way round of A, the subject declared first.
@example(_with_graph(AssetModel(
    assets=(Asset("PB", AssetKind.SYSTEM), Asset("B", AssetKind.SYSTEM, parent="PB"),
            Asset("PA", AssetKind.SYSTEM), Asset("A", AssetKind.SYSTEM, parent="PA",
                                                 integrity=SecurityValue.LOW)),
    associations=(Association("PA", "B", _READ), Association("PB", "A", _WRITE)),
), ("A", AccessNeed.READ, "B"), ("B", AccessNeed.WRITE, "A")))
@settings(max_examples=300)
@given(_models_and_graphs)
def test_carried_triples_match_a_fresh_expansion(case):
    """An expanded model's triples, and so its report, are those its associations give."""
    model, graph = case
    expanded = expand_hierarchy(model)
    plain = _carry_free(expanded)
    assert expand_needs(expanded) == expand_needs(plain)
    assert validate_access(expanded, graph) == validate_access(plain, graph)
    assert expand_needs(expanded) is not expand_needs(expanded)  # a fresh copy each call


@st.composite
def _with_unchecked_associations(draw) -> AssetModel:
    """A free-parent model with up to three more associations, inserted anywhere:
    each repeats one of its own, either way round, or has an undeclared end."""
    model = draw(asset_models(free_parents=True))
    extra = []
    for assoc in draw(st.lists(st.sampled_from(model.associations), max_size=3)
                      if model.associations else st.just([])):
        ends = draw(st.sampled_from([assoc[:2], (assoc.target, assoc.source),
                                     (assoc.source, UNDECLARED), (UNDECLARED, assoc.target)]))
        extra.append(Association(*ends, *draw(st.tuples(need_sets, need_sets))))
    associations = list(model.associations)
    for assoc in extra:
        associations.insert(draw(st.integers(0, len(associations))), assoc)
    return replace(model, associations=tuple(associations))


# One unsound model per asset finding code, which check_structure reports first.
_UNSOUND = {
    "UnknownAsset": AssetModel(
        assets=(Asset("A", AssetKind.SYSTEM),), associations=(Association("A", "Ghost", _READ),)),
    "UnknownParent": AssetModel(assets=(Asset("A", AssetKind.SYSTEM, parent="Ghost"),)),
    "ParentKindMismatch": AssetModel(
        assets=(Asset("P", AssetKind.SYSTEM), Asset("C", AssetKind.INFORMATION, parent="P"))),
    # A and B inherit from each other, C from A, and B holds a need upon C.
    "CyclicInheritance": AssetModel(
        assets=(Asset("A", AssetKind.SYSTEM, parent="B"), Asset("B", AssetKind.SYSTEM, parent="A"),
                Asset("C", AssetKind.SYSTEM, parent="A"), Asset("R", AssetKind.INFORMATION)),
        associations=(Association("A", "R", _READ), Association("B", "R", _WRITE),
                      Association("B", "C", _READ))),
    "SelfAssociation": AssetModel(
        assets=(Asset("A", AssetKind.SYSTEM),), associations=(Association("A", "A", _READ),)),
    # A and B are associated twice, once each way round, and gain needs upon each other.
    "DuplicateAssociation": AssetModel(
        assets=(Asset("PA", AssetKind.SYSTEM), Asset("A", AssetKind.SYSTEM, parent="PA"),
                Asset("PB", AssetKind.SYSTEM), Asset("B", AssetKind.SYSTEM, parent="PB")),
        associations=(Association("B", "A"), Association("A", "B"),
                      Association("PA", "B", _READ), Association("PB", "A", _READ))),
    "DuplicateAssetName": AssetModel(
        assets=(Asset("A", AssetKind.SYSTEM), Asset("A", AssetKind.INFORMATION))),
    "EmptyAssetName": AssetModel(assets=(Asset("", AssetKind.SYSTEM),)),
    "MatrixViolation": AssetModel(
        assets=(Asset("S", AssetKind.SYSTEM), Asset("H", AssetKind.PEOPLE)),
        associations=(Association("S", "H", _READ),)),
}


def test_each_unsound_example_is_reported_first_under_its_code():
    assert {code: check_structure(model)[0].code for code, model in _UNSOUND.items()} == \
        dict(zip(_UNSOUND, _UNSOUND))


@example(_UNSOUND["UnknownAsset"])
@example(_UNSOUND["UnknownParent"])
@example(_UNSOUND["ParentKindMismatch"])
@example(_UNSOUND["CyclicInheritance"])
@example(_UNSOUND["SelfAssociation"])
@example(_UNSOUND["DuplicateAssociation"])
# C reads R itself twice over, once each way round, and inherits P's needs upon R.
@example(AssetModel(
    assets=(Asset("R", AssetKind.SYSTEM), Asset("P", AssetKind.SYSTEM),
            Asset("C", AssetKind.SYSTEM, parent="P")),
    associations=(Association("C", "R", _READ), Association("P", "R", _BOTH),
                  Association("R", "C", target_needs=_READ))))
@example(_UNSOUND["DuplicateAssetName"])
@example(_UNSOUND["EmptyAssetName"])
@example(_UNSOUND["MatrixViolation"])
@settings(max_examples=300)
@given(asset_models(free_parents=True) | _with_unchecked_associations())
def test_an_unsound_model_raises_its_first_finding(model):
    """expand_hierarchy and validate_access refuse a model that check_structure
    rejects, each with one ValueError naming the first finding."""
    findings = check_structure(model)
    assume(findings)
    message = f"model fails check_structure: {findings[0]}"
    with pytest.raises(ValueError) as expanding:
        expand_hierarchy(model)
    with pytest.raises(ValueError) as validating:
        validate_access(model, GoalGraph())
    assert str(expanding.value) == str(validating.value) == message


_POOL_NAMES = ["A", "B", "C"]


@st.composite
def _crowded_policies(draw):
    """A model holding every triple over three assets, and a graph whose
    statements state three or four of them: duplicates and conflicts are common."""
    levels = st.sampled_from(list(SecurityValue))
    assets = tuple(Asset(name, AssetKind.SYSTEM, confidentiality=draw(levels),
                         integrity=draw(levels)) for name in _POOL_NAMES)
    every = frozenset(AccessNeed)
    model = AssetModel(assets=assets, associations=(
        Association("A", "B", every, every), Association("A", "C", every, every),
        Association("B", "C", every, every)))
    pool = draw(st.lists(st.tuples(st.sampled_from(_POOL_NAMES), st.sampled_from(list(AccessNeed)),
                                   st.sampled_from(_POOL_NAMES)).filter(lambda t: t[0] != t[2]),
                         min_size=3, max_size=4, unique=True))
    policy = tuple(PolicyStatement(draw(st.sampled_from(["R", "S"])), *draw(st.sampled_from(pool)),
                                   draw(st.sampled_from(list(Permission))))
                   for _ in range(draw(st.integers(0, 8))))
    graph = GoalGraph(nodes=(Goal("R", GoalKind.REQUIREMENT), Goal("S", GoalKind.REQUIREMENT)),
                      policy=policy)
    return model, graph, pool


@settings(max_examples=300)
@given(_crowded_policies())
def test_resolution_matches_plain_scans(case):
    """The index resolves each interaction to the first allow, else the first deny;
    lookup_statement finds the first exact match; the checks and warnings agree."""
    model, graph, pool = case
    for subject, access, resource in pool:
        assert graph.policy_index.get((subject, access, resource)) is \
            rule_oracle.resolving_statement(graph, subject, access.value, resource)
        for permission in Permission:
            assert lookup_statement(graph, subject, access, resource, permission) is \
                rule_oracle.first_statement(graph, subject, access.value, resource,
                                            permission.value)

    found = [(f.code, f.where) for f in check_goal_structure(graph, model)
             if f.code in ("DuplicateStatement", "ConflictingPermission")]
    expected = []
    for i, stmt in enumerate(graph.policy):
        earlier = [(s.subject, s.access, s.resource, s.permission) for s in graph.policy[:i]]
        key = (stmt.subject, stmt.access, stmt.resource, stmt.permission)
        if key in earlier:
            expected.append(("DuplicateStatement", stmt))
        elif any(other[:3] == key[:3] for other in earlier):
            expected.append(("ConflictingPermission", stmt))
    assert found == [(code, f"policy '{s.subject}' {s.access.value} '{s.resource}' "
                            f"{s.permission.value}") for code, s in expected]

    got = [(w.kind.value, w.triple.subject, w.triple.access.value, w.triple.resource)
           for w in validate_access(model, graph).warnings]
    assert got == rule_oracle.validate(model, graph)


# Names from a short alphabet with the empty name, so that names repeat; an
# end may also be a name no record declares.
_few_names = st.sampled_from(["", "A", "B", "C"])
_few_ends = st.sampled_from(["", "A", "B", "C", UNDECLARED])


def _first_declarations(records: tuple) -> tuple:
    """records less every later declaration of a name and every empty-named one."""
    first: dict = {}
    for record in records:
        if record.name:
            first.setdefault(record.name, record)
    return tuple(first.values())


# An empty-named asset is its own parent.
@example([("", AssetKind.SYSTEM, "")], [])
# A's second declaration would close the cycle A -> B -> A.
@example([("A", AssetKind.SYSTEM, None), ("B", AssetKind.SYSTEM, "A"),
          ("A", AssetKind.SYSTEM, "B")], [])
@settings(max_examples=300)
@given(st.lists(st.tuples(_few_names, kinds, st.none() | _few_ends), max_size=7),
       st.lists(st.tuples(_few_ends, _few_ends, need_sets, need_sets), max_size=6))
def test_asset_checks_read_a_name_at_its_first_declaration(assets, associations):
    """Past its own finding, a later declaration of a name or an empty-named
    asset changes nothing: the rest is what the model without them gives."""
    model = AssetModel(assets=tuple(Asset(name, kind, parent=parent)
                                    for name, kind, parent in assets),
                       associations=tuple(Association(*ends) for ends in associations))
    findings = check_structure(model)
    named = [f for f in findings if f.code in ("EmptyAssetName", "DuplicateAssetName")]
    assert findings == named + check_structure(
        replace(model, assets=_first_declarations(model.assets)))


# An empty-named goal refines into itself.
@example([("", GoalKind.GOAL)], [("", "")], [])
@settings(max_examples=300)
@given(st.lists(st.tuples(_few_names, st.sampled_from(list(GoalKind))), max_size=7),
       st.lists(st.tuples(_few_ends, _few_ends), max_size=8),
       st.lists(st.tuples(_few_ends, st.sampled_from(list(Permission))), max_size=4))
def test_goal_checks_read_a_name_at_its_first_declaration(nodes, edges, statements):
    """As for assets: each goal name is read at its first declaration, or not at all."""
    model = AssetModel(assets=(Asset("S", AssetKind.SYSTEM), Asset("R", AssetKind.INFORMATION)))
    graph = GoalGraph(
        nodes=tuple(Goal(name, kind) for name, kind in nodes),
        refinements=tuple(Refinement(parent, child) for parent, child in edges),
        policy=tuple(PolicyStatement(owner, "S", AccessNeed.READ, "R", permission)
                     for owner, permission in statements))
    findings = check_goal_structure(graph, model)
    named = [f for f in findings if f.code in ("EmptyGoalName", "DuplicateGoalName")]
    assert findings == named + check_goal_structure(
        replace(graph, nodes=_first_declarations(graph.nodes)), model)


# Goal graphs with repeated names, repeated edges and self-loops; a name
# the list of goals leaves out is an unknown end.
_goal_names = st.sampled_from("ABCDE")


# A is declared twice, and its first declaration sorts it before B.
@example(["A", "B", "A"], [("A", "B"), ("B", "A")])
# C reaches A only as A's second parent.
@example(["A", "B", "C"], [("B", "A"), ("C", "A"), ("A", "B"), ("A", "C")])
# Every edge runs down the order of declaration, which proves the graph acyclic.
@example(["A", "B", "C"], [("A", "B"), ("B", "C"), ("A", "C")])
# C, declared last, refines into B: an edge running up, but no cycle.
@example(["A", "B", "C"], [("A", "B"), ("C", "B")])
@example(["A", "B"], [("A", "B"), ("B", "B")])  # a self-loop below a goal
@settings(max_examples=300)
@given(st.lists(_goal_names, max_size=7),
       st.lists(st.tuples(_goal_names, _goal_names), max_size=12))
def test_refinement_cycles_match_reference(names, edges):
    graph = GoalGraph(nodes=tuple(Goal(name, GoalKind.GOAL) for name in names),
                      refinements=tuple(Refinement(p, c) for p, c in edges))
    found = [(f.where, f.message) for f in check_goal_structure(graph, AssetModel())
             if f.code == "CyclicRefinement"]
    assert found == [
        (members[0], "refinement cycle: " + " -> ".join(members + [members[0]]))
        for members in cycle_oracle.refinement_cycles(names, edges)]


# A refines into R, B into A twice, R into itself and A into B, closing a
# cycle; E, which no goal declares, refines into B.
@example(["R", "A", "B"], [("A", "R"), ("B", "A"), ("R", "R"), ("A", "B"), ("B", "A"),
                           ("E", "B")], ["R", "B"])
# Every parent of C is already on the path from A.
@example(["A", "B", "C"], [("B", "A"), ("C", "B"), ("A", "C"), ("B", "C")], ["A"])
@settings(max_examples=300)
@given(st.lists(_goal_names, max_size=7),
       st.lists(st.tuples(_goal_names, _goal_names), max_size=12),
       st.lists(_goal_names, min_size=1, max_size=3))
def test_trace_matches_reference(names, edges, requirements):
    # Built unchecked, so that cycles, self-loops, repeated edges and
    # undeclared goals all reach trace.
    graph = GoalGraph(
        nodes=tuple(Goal(name, GoalKind.REQUIREMENT) for name in names),
        refinements=tuple(Refinement(p, c) for p, c in edges),
        policy=tuple(PolicyStatement(requirement, "S", AccessNeed.READ, "T", Permission.DENY)
                     for requirement in requirements))
    for statement in graph.policy:
        assert trace(graph, statement) == trace_oracle.refinement_paths(
            edges, statement.requirement)
