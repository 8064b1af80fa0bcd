"""End-to-end acceptance criteria.

One test per criterion, in order: the terminal summary prints a
pass/fail line for each.  Tolerances are exact or property-based
throughout; nothing here is statistical.
"""

import json
import random
import time
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from accesslint.cli import main
from accesslint.fixtures import fixture_text, load_fixture
from accesslint.goals import Goal, GoalGraph, GoalKind, Permission, PolicyStatement
from accesslint.model import (
    AccessNeed,
    Asset,
    AssetKind,
    AssetModel,
    Association,
    SecurityValue,
    default_matrix,
)
from accesslint.modelio import parse_model, render_report, serialize_model
from accesslint.validation import (
    AccessTriple,
    WarningKind,
    expand_hierarchy,
    expand_needs,
    validate_access,
)

import rule_oracle
from strategies import models_with_graphs

pytestmark = pytest.mark.acceptance

LEVEL_KINDS = {
    WarningKind.NO_READ_UP,
    WarningKind.NO_WRITE_DOWN,
    WarningKind.NO_WRITE_UP,
    WarningKind.NO_READ_DOWN,
}


def test_a1_case_study_reproduction(capsys, tmp_path):
    """Bundled pyramid fixture: exactly 8 warnings and the expected summary."""
    model_path = str(tmp_path / "pyramid.json")
    assert main(["fixture", "--name", "pyramid", "--out", model_path]) == 0

    started = time.perf_counter()
    code = main(["validate", model_path, "--format", "json"])
    elapsed = time.perf_counter() - started
    payload = json.loads(capsys.readouterr().out)

    assert code == 1
    assert elapsed < 1.0

    warnings = payload["warnings"]
    assert len(warnings) == 8
    counts = Counter(w["kind"] for w in warnings)
    assert counts == {"no_read_up": 1, "no_write_up": 1, "undefined_access": 6}

    read_up = next(w for w in warnings if w["kind"] == "no_read_up")
    assert (read_up["subject"], read_up["access"], read_up["resource"]) \
        == ("Formatting Rule", "read", "Data Item")
    write_up = next(w for w in warnings if w["kind"] == "no_write_up")
    assert (write_up["subject"], write_up["access"], write_up["resource"]) \
        == ("Participant", "write", "Delivery Interaction")
    undefined = {(w["subject"], w["access"], w["resource"])
                 for w in warnings if w["kind"] == "undefined_access"}
    assert ("Distribution Capability", "read", "Delivery Item") in undefined

    assert payload["ruleResults"] == {
        "simpleSecurity": True,
        "starProperty": False,
        "simpleIntegrity": True,
        "integrityStar": False,
        "absentPolicies": True,
    }

    assert main(["validate", model_path]) == 1
    text = capsys.readouterr().out
    rows = [line.split() for line in text.splitlines()]
    assert ["Simple", "Security", "Property", "Y"] in rows
    assert ["*-Property", "N"] in rows
    assert ["Simple", "Integrity", "Property", "Y"] in rows
    assert ["Integrity", "*-Property", "N"] in rows
    assert ["Absent", "policies", "Y"] in rows


def test_a2_works_diary_expansion():
    """Works-diary fixture expands to exactly the two expected triples."""
    model, _ = load_fixture("works-diary")
    assert expand_needs(model) == [
        AccessTriple("Works Diary", AccessNeed.READ, "Diary Event"),
        AccessTriple("Works Diary", AccessNeed.WRITE, "Diary Event"),
    ]


def _allowed_pair_model(subject_c, resource_c, subject_i, resource_i, access):
    model = AssetModel(
        assets=(
            Asset("Subj", AssetKind.SYSTEM,
                  confidentiality=SecurityValue(subject_c),
                  integrity=SecurityValue(subject_i)),
            Asset("Res", AssetKind.SYSTEM,
                  confidentiality=SecurityValue(resource_c),
                  integrity=SecurityValue(resource_i)),
        ),
        associations=(Association("Subj", "Res", source_needs=frozenset({access})),),
    )
    graph = GoalGraph(
        nodes=(Goal("R0", GoalKind.REQUIREMENT),),
        policy=(PolicyStatement("R0", "Subj", access, "Res", Permission.ALLOW),),
    )
    return model, graph


def test_a3_rule_predicate_oracle():
    """All 96 (levels, access) combinations match the brute-force predicates."""
    mismatches = []
    cases = 0
    for first in range(4):
        for second in range(4):
            for access in AccessNeed:
                # Confidentiality varies, integrity held equal.
                model, graph = _allowed_pair_model(first, second, 0, 0, access)
                got = [w.kind.value for w in validate_access(model, graph).warnings]
                want = rule_oracle.level_rule_kinds(first, second, 0, 0, access.value)
                cases += 1
                if got != want:
                    mismatches.append(("confidentiality", first, second,
                                       access.value, got, want))
                # Integrity varies, confidentiality held equal.
                model, graph = _allowed_pair_model(0, 0, first, second, access)
                got = [w.kind.value for w in validate_access(model, graph).warnings]
                want = rule_oracle.level_rule_kinds(0, 0, first, second, access.value)
                cases += 1
                if got != want:
                    mismatches.append(("integrity", first, second,
                                       access.value, got, want))
    assert cases == 96
    assert mismatches == []


@settings(max_examples=500, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(models_with_graphs())
def test_a4_branch_completeness(pair):
    """Each triple hits exactly one branch; level warnings only on allowed ones."""
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
        expected = {"allow"} if warning.kind in LEVEL_KINDS else (
            {"deny"} if warning.kind is WarningKind.UNAUTHORISED_ACCESS
            else {"absent"})
        assert branch[key] in expected


def _random_pair(rng: random.Random):
    """A valid (model, graph) built with plain random draws."""
    matrix = default_matrix()
    count = rng.randint(2, 6)
    assets = tuple(
        Asset(f"A{i}", rng.choice(list(AssetKind)),
              confidentiality=rng.choice(list(SecurityValue)),
              integrity=rng.choice(list(SecurityValue)))
        for i in range(count))
    associations = []
    for i in range(count):
        for j in range(i + 1, count):
            if rng.random() < 0.4:
                continue
            source, target = assets[i], assets[j]
            source_needs = frozenset(
                n for n in AccessNeed
                if matrix[(source.kind, target.kind)] and rng.random() < 0.5)
            target_needs = frozenset(
                n for n in AccessNeed
                if matrix[(target.kind, source.kind)] and rng.random() < 0.3)
            associations.append(Association(
                source.name, target.name, source_needs, target_needs))
    statements = []
    seen = set()
    for _ in range(rng.randint(0, 10)):
        subject = rng.choice(assets).name
        resource = rng.choice(assets).name
        access = rng.choice(list(AccessNeed))
        if (subject, access, resource) in seen:
            continue
        seen.add((subject, access, resource))
        statements.append(PolicyStatement(
            "R0", subject, access, resource,
            rng.choice([Permission.ALLOW, Permission.DENY])))
    model = AssetModel(assets=assets, associations=tuple(associations))
    graph = GoalGraph(nodes=(Goal("R0", GoalKind.REQUIREMENT),),
                      policy=tuple(statements))
    return model, graph


def test_a5_monotonicity():
    """Allowing one undefined triple removes only that warning."""
    rng = random.Random(20240811)
    checked = 0
    attempts = 0
    while checked < 100:
        attempts += 1
        assert attempts < 5000, "generator failed to produce undefined triples"
        model, graph = _random_pair(rng)
        report = validate_access(model, graph)
        undefined = [w.triple for w in report.warnings
                     if w.kind is WarningKind.UNDEFINED_ACCESS]
        if not undefined:
            continue
        target = undefined[rng.randrange(len(undefined))]

        augmented = GoalGraph(
            nodes=graph.nodes + (Goal("ProbeRequirement", GoalKind.REQUIREMENT),),
            refinements=graph.refinements,
            policy=graph.policy + (PolicyStatement(
                "ProbeRequirement", target.subject, target.access,
                target.resource, Permission.ALLOW),),
        )
        after = validate_access(model, augmented)

        before_target = [w.kind for w in report.warnings if w.triple == target]
        assert before_target == [WarningKind.UNDEFINED_ACCESS]
        after_target = [w.kind for w in after.warnings if w.triple == target]
        assert all(kind in LEVEL_KINDS for kind in after_target)

        before_rest = [w for w in report.warnings if w.triple != target]
        after_rest = [w for w in after.warnings if w.triple != target]
        assert before_rest == after_rest
        checked += 1
    assert checked == 100


@settings(max_examples=500, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(models_with_graphs())
def test_a6_round_trip_property(pair):
    """parse(serialize(x)) is structurally x, for generated models."""
    model, graph = pair
    again_model, again_graph = parse_model(serialize_model(model, graph))
    assert again_model == model
    assert again_graph == graph


def test_a6_golden_pyramid_bytes(data_dir):
    """Canonical pyramid serialization equals the committed golden file."""
    golden = (data_dir / "pyramid.golden.json").read_text(encoding="utf-8")
    assert fixture_text("pyramid") == golden
    assert serialize_model(*parse_model(golden)) == golden


def test_a7_determinism(capsys, pyramid_path):
    """Back-to-back validations render byte-identical reports."""
    outputs = {}
    for fmt in ("text", "json"):
        runs = []
        for _ in range(2):
            assert main(["validate", pyramid_path, "--format", fmt]) == 1
            runs.append(capsys.readouterr().out)
        assert runs[0] == runs[1]
        outputs[fmt] = runs[0]
    assert outputs["text"] != outputs["json"]

    model, graph = load_fixture("pyramid")
    assert render_report(validate_access(model, graph), "text") == outputs["text"]
    assert render_report(validate_access(model, graph), "json") == outputs["json"]


def test_a8_inheritance_extension(capsys, data_dir):
    """Chain fixture: descendants gain the root's read only when expanded."""
    chain = str(data_dir / "chain.json")
    model, _ = parse_model((data_dir / "chain.json").read_bytes())

    read = AccessNeed.READ
    assert expand_needs(model) == [AccessTriple("A", read, "R")]
    assert expand_needs(expand_hierarchy(model)) == [
        AccessTriple("A", read, "R"),
        AccessTriple("B", read, "R"),
        AccessTriple("C", read, "R"),
    ]

    assert main(["validate", chain, "--format", "json"]) == 1
    plain = json.loads(capsys.readouterr().out)
    assert [(w["subject"], w["access"], w["resource"])
            for w in plain["warnings"]] == [("A", "read", "R")]

    assert main(["validate", chain, "--format", "json",
                 "--expand-inheritance"]) == 1
    expanded = json.loads(capsys.readouterr().out)
    assert [(w["subject"], w["access"], w["resource"])
            for w in expanded["warnings"]] == [
        ("A", "read", "R"), ("B", "read", "R"), ("C", "read", "R")]
