"""Document parsing, canonical serialization, and report rendering."""

import json

import pytest

from accesslint.fixtures import fixture_text, load_fixture
from accesslint.goals import GoalGraph
from accesslint.model import AccessNeed, AssetKind, AssetModel, SecurityValue
from accesslint.modelio import (
    DocumentSyntaxError,
    ParseError,
    SchemaError,
    SemanticError,
    parse_model,
    render_report,
    serialize_model,
)
from accesslint.validation import ValidationReport, expand_needs, validate_access


def _doc(**overrides) -> str:
    document = {
        "version": 1,
        "assets": [
            {"name": "Works Diary", "kind": "information"},
            {"name": "Diary Event", "kind": "information"},
        ],
        "associations": [
            {"source": "Works Diary", "target": "Diary Event",
             "sourceNeeds": ["read", "write"]},
        ],
    }
    document.update(overrides)
    return json.dumps(document)


class TestParse:
    def test_works_diary_document(self):
        model, graph = parse_model(_doc())
        assert len(expand_needs(model)) == 2
        assert graph == GoalGraph()

    def test_accepts_bytes(self):
        model, _ = parse_model(_doc().encode("utf-8"))
        assert len(model.assets) == 2

    def test_invalid_kind_names_enum_and_path(self):
        document = _doc(assets=[{"name": "A", "kind": "person"}], associations=[])
        with pytest.raises(SchemaError) as info:
            parse_model(document)
        assert info.value.location == "assets[0].kind"
        for valid in ("system", "information", "people"):
            assert valid in str(info.value)

    def test_pyramid_reproduces_table_values(self):
        model, _ = load_fixture("pyramid")
        resource = model.asset_named("Delivery Resource")
        assert resource.confidentiality is SecurityValue.NONE
        assert resource.integrity is SecurityValue.NONE
        item = model.asset_named("Data Item")
        assert item.confidentiality is SecurityValue.LOW
        assert item.integrity is SecurityValue.MEDIUM
        participant = model.asset_named("Participant")
        assert participant.confidentiality is SecurityValue.NONE
        assert participant.integrity is SecurityValue.LOW

    def test_malformed_json_reports_line(self):
        with pytest.raises(DocumentSyntaxError) as info:
            parse_model('{"version": 1,,}')
        assert "line 1" in info.value.location

    def test_not_utf8_rejected(self):
        with pytest.raises(DocumentSyntaxError):
            parse_model(b"\xff\xfe{}")

    def test_unknown_top_level_key(self):
        with pytest.raises(SchemaError) as info:
            parse_model('{"version": 1, "bogus": []}')
        assert info.value.location == "$.bogus"

    def test_unknown_asset_key_reports_path(self):
        document = _doc(assets=[
            {"name": "A", "kind": "system", "색": 1},
        ], associations=[])
        with pytest.raises(SchemaError) as info:
            parse_model(document)
        assert info.value.location.startswith("assets[0].")

    def test_missing_version(self):
        with pytest.raises(SchemaError) as info:
            parse_model("{}")
        assert info.value.location == "$.version"

    def test_unsupported_version(self):
        with pytest.raises(SchemaError):
            parse_model('{"version": 99}')

    @pytest.mark.parametrize("version", [True, 1.0])
    def test_non_integer_version_rejected(self, version):
        with pytest.raises(SchemaError) as info:
            parse_model(json.dumps({"version": version}))
        assert str(info.value) == (
            f"$.version: unsupported document version {version!r}, expected 1")

    def test_deep_nesting_is_a_syntax_error(self):
        with pytest.raises(DocumentSyntaxError) as info:
            parse_model("[" * 100000 + "]" * 100000)
        assert str(info.value) == "$: document is nested too deeply"

    def test_duplicate_needs_rejected(self):
        document = _doc(associations=[
            {"source": "Works Diary", "target": "Diary Event",
             "sourceNeeds": ["read", "read"]},
        ])
        with pytest.raises(SchemaError) as info:
            parse_model(document)
        assert info.value.location == "associations[0].sourceNeeds"

    def test_invalid_multiplicity(self):
        document = _doc(associations=[
            {"source": "Works Diary", "target": "Diary Event",
             "sourceMultiplicity": "2..5"},
        ])
        with pytest.raises(SchemaError) as info:
            parse_model(document)
        assert info.value.location == "associations[0].sourceMultiplicity"

    def test_semantic_error_carries_findings(self):
        document = _doc(associations=[
            {"source": "Works Diary", "target": "Ghost"},
        ])
        with pytest.raises(SemanticError) as info:
            parse_model(document)
        assert [e.code for e in info.value.errors] == ["UnknownAsset"]

    def test_check_false_defers_structural_checks(self):
        document = _doc(associations=[
            {"source": "Works Diary", "target": "Ghost"},
        ])
        model, _ = parse_model(document, check=False)
        assert len(model.associations) == 1

    def test_warning_severity_findings_do_not_fail_parse(self):
        document = _doc(goals=[{"name": "R", "kind": "requirement"}])
        model, graph = parse_model(document)
        assert graph.node_named("R") is not None

    def test_matrix_override_applies(self):
        document = _doc(
            assets=[
                {"name": "Ledger", "kind": "information"},
                {"name": "Clerk", "kind": "people"},
            ],
            associations=[
                {"source": "Ledger", "target": "Clerk", "sourceNeeds": ["read"]},
            ],
            matrixOverride=[
                {"subject": "information", "resource": "people", "allowed": True},
            ],
        )
        model, _ = parse_model(document)
        assert model.matrix.allows(AssetKind.INFORMATION, AssetKind.PEOPLE)

    def test_matrix_override_duplicate_cell_rejected(self):
        document = _doc(matrixOverride=[
            {"subject": "people", "resource": "people", "allowed": False},
            {"subject": "people", "resource": "people", "allowed": True},
        ])
        with pytest.raises(SchemaError) as info:
            parse_model(document)
        assert info.value.location == "$.matrixOverride[1]"

    def test_every_parse_error_carries_a_location(self):
        bad_documents = [
            "not json",
            "{}",
            '{"version": 1, "assets": {}}',
            '{"version": 1, "assets": [{"kind": "system"}]}',
            _doc(associations=[{"source": "Works Diary", "target": "Ghost"}]),
        ]
        for document in bad_documents:
            with pytest.raises(ParseError) as info:
                parse_model(document)
            assert info.value.location


_ASSET = {"name": "A", "kind": "system"}
_OVERRIDE = {"subject": "people", "resource": "people", "allowed": False}


@pytest.mark.parametrize("document, message", [
    ({"associations": [{"source": 1, "target": "A", "sourceMultiplicity": "2..5"}]},
     "associations[0].sourceMultiplicity: invalid multiplicity '2..5', "
     "expected one of: '1', '0..1', '1..*', '*'"),
    ({"goals": [{"name": 1, "kind": "goal", "definition": 2}]},
     "goals[0].definition: expected a string, got int"),
    ({"matrixOverride": [_OVERRIDE, _OVERRIDE, {"subject": "x"}]},
     "$.matrixOverride[1]: duplicate override for (people, people)"),
    ({"policy": [{"requirement": "R", "subject": "A", "access": "execute",
                  "resource": "A", "permission": "allow"}],
      "matrixOverride": [{"subject": "x", "resource": "people", "allowed": True}]},
     "policy[0].access: invalid access need 'execute', "
     "expected one of: interact, read, write"),
    ({"assets": [{"kind": "system", "colour": "red"}]},
     "assets[0].colour: unknown key 'colour'"),
    ({"assets": [_ASSET], "associations": [
        {"source": "A", "target": "A", "targetNeeds": ["read", "delete"]}]},
     "associations[0].targetNeeds[1]: invalid access need 'delete', "
     "expected one of: interact, read, write"),
    ({"assets": [dict(_ASSET, extraProperties={"availability": "huge"})]},
     "assets[0].extraProperties.availability: invalid security level 'huge', "
     "expected one of: high, low, medium, none"),
    ({"refinements": [{"parent": 1}], "assets": {}},
     "$.assets: expected a list, got dict"),
])
def test_first_fault_wins_with_exact_text(document, message):
    with pytest.raises(SchemaError) as info:
        parse_model(json.dumps({"version": 1, **document}))
    assert str(info.value) == message


class TestSerialize:
    def test_empty_model_is_minimal(self):
        text = serialize_model(AssetModel(), GoalGraph())
        assert json.loads(text) == {"version": 1}

    def test_pyramid_round_trip_is_byte_stable(self):
        text = fixture_text("pyramid")
        model, graph = parse_model(text)
        assert serialize_model(model, graph) == text

    def test_extra_properties_survive_round_trip(self):
        document = _doc(assets=[
            {"name": "A", "kind": "system",
             "extraProperties": {"availability": "low"}},
        ], associations=[])
        model, graph = parse_model(document)
        again, _ = parse_model(serialize_model(model, graph))
        assert again.asset_named("A").extra_properties == {
            "availability": SecurityValue.LOW}

    def test_matrix_override_survives_round_trip(self):
        document = _doc(matrixOverride=[
            {"subject": "people", "resource": "people", "allowed": False},
        ])
        model, graph = parse_model(document)
        text = serialize_model(model, graph)
        assert json.loads(text)["matrixOverride"] == [
            {"subject": "people", "resource": "people", "allowed": False}]
        again, _ = parse_model(text)
        assert again.matrix == model.matrix

    def test_structural_identity_for_works_diary(self):
        model, graph = load_fixture("works-diary")
        again_model, again_graph = parse_model(serialize_model(model, graph))
        assert again_model == model
        assert again_graph == graph


class TestRenderReport:
    @pytest.fixture(scope="module")
    def pyramid_report(self):
        model, graph = load_fixture("pyramid")
        return validate_access(model, graph)

    def test_text_summary_rows(self, pyramid_report):
        rows = [line.split() for line in
                render_report(pyramid_report, "text").splitlines()]
        assert ["Simple", "Security", "Property", "Y"] in rows
        assert ["*-Property", "N"] in rows
        assert ["Simple", "Integrity", "Property", "Y"] in rows
        assert ["Integrity", "*-Property", "N"] in rows
        assert ["Absent", "policies", "Y"] in rows

    def test_text_warning_lines(self, pyramid_report):
        text = render_report(pyramid_report, "text")
        assert "no_read_up: Formatting Rule --read--> Data Item" in text
        assert text.count("undefined_access:") == 6

    def test_empty_report_json(self):
        payload = json.loads(render_report(ValidationReport(), "json"))
        assert payload["warnings"] == []
        assert all(flag is False for flag in payload["ruleResults"].values())
        assert all(count == 0 for count in payload["summary"].values())

    def test_json_shape(self, pyramid_report):
        payload = json.loads(render_report(pyramid_report, "json"))
        assert len(payload["warnings"]) == 8
        first = payload["warnings"][0]
        assert set(first) == {"kind", "subject", "access", "resource", "message"}
        assert payload["summary"]["undefined_access"] == 6
        assert payload["ruleResults"] == {
            "simpleSecurity": True,
            "starProperty": False,
            "simpleIntegrity": True,
            "integrityStar": False,
            "absentPolicies": True,
        }

    def test_unknown_format_rejected(self, pyramid_report):
        with pytest.raises(ValueError):
            render_report(pyramid_report, "xml")
