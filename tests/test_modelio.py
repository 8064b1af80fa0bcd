"""Document parsing, canonical serialization, and report rendering."""

import dataclasses
import inspect
import json
import pickle
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from accesslint import cli, modelio
from accesslint.fixtures import fixture_text, load_fixture
from accesslint.goals import Goal, GoalGraph, GoalKind, Permission, PolicyStatement, Refinement
from accesslint.model import (
    AccessNeed,
    Asset,
    AssetKind,
    AssetModel,
    Association,
    SecurityValue,
    default_matrix,
)
from accesslint.modelio import (
    DocumentSyntaxError,
    ParseError,
    SchemaError,
    SemanticError,
    parse_model,
    render_report,
    serialize_model,
)
from accesslint.validation import (
    RULE_RESULTS,
    AccessTriple,
    AccessWarning,
    ValidationReport,
    WarningKind,
    expand_needs,
    validate_access,
)

import documents
import json_reference
import record_oracle
from strategies import ALPHABET


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
        assert info.value.location == "$.assets[0].kind"
        for valid in ("system", "information", "people"):
            assert valid in str(info.value)

    def test_pyramid_reproduces_table_values(self):
        model, _ = load_fixture("pyramid")
        assets = {a.name: a for a in model.assets}
        resource = assets["Delivery Resource"]
        assert resource.confidentiality is SecurityValue.NONE
        assert resource.integrity is SecurityValue.NONE
        item = assets["Data Item"]
        assert item.confidentiality is SecurityValue.LOW
        assert item.integrity is SecurityValue.MEDIUM
        participant = assets["Participant"]
        assert participant.confidentiality is SecurityValue.NONE
        assert participant.integrity is SecurityValue.LOW

    def test_malformed_json_reports_line(self):
        with pytest.raises(DocumentSyntaxError) as info:
            parse_model('{"version": 1,,}')
        assert info.value.location == "line 1, column 15"
        assert str(info.value) == (
            "line 1, column 15: Expecting property name enclosed in double quotes")

    def test_not_utf8_rejected(self):
        with pytest.raises(DocumentSyntaxError) as info:
            parse_model(b"\xff\xfe{}")
        assert str(info.value) == "byte 0: document is not valid UTF-8"

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
        assert info.value.location.startswith("$.assets[0].")

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

    @pytest.mark.parametrize("version, shown", [
        ('[{"a": 1, "a": 2}]', "(a list)"), ('{"a": 1, "a": 2}', "(an object)")])
    def test_container_version_named_by_its_type(self, version, shown):
        with pytest.raises(SchemaError) as info:
            parse_model(f'{{"version": {version}}}')
        assert str(info.value) == f"$.version: unsupported document version {shown}, expected 1"

    def test_deep_nesting_is_a_syntax_error(self):
        with pytest.raises(DocumentSyntaxError) as info:
            parse_model("[" * 100000 + "]" * 100000)
        assert str(info.value) == "$: document is nested too deeply"

    def test_over_long_integer_literal_is_a_syntax_error(self):
        with pytest.raises(DocumentSyntaxError) as info:
            parse_model('{"version": ' + "1" * 5000 + "}")
        assert str(info.value) == "$: integer literal is too long"

    def test_unpaired_surrogate_escape_is_a_syntax_error(self, data_dir):
        with pytest.raises(DocumentSyntaxError) as info:
            parse_model((data_dir / "surrogate.json").read_bytes())
        assert str(info.value) == "line 1, column 34: unpaired surrogate escape \\ud800"

    @pytest.mark.parametrize("escape, where", [
        ("\\uDC00", "line 2, column 22: unpaired surrogate escape \\uDC00"),
        ("\\ud83dA", "line 2, column 22: unpaired surrogate escape \\ud83d"),
        ("\\ude00\\ud83d", "line 2, column 22: unpaired surrogate escape \\ude00"),
        ("\\\\\\ud83d", "line 2, column 24: unpaired surrogate escape \\ud83d"),
        # Raw surrogate code points, which a str document can hold.
        ("\udc00", "line 2, column 22: unpaired surrogate U+DC00"),
        ("A\ud83d", "line 2, column 23: unpaired surrogate U+D83D"),
        # A raw one is found before the JSON is read, as bad UTF-8 is.
        ("\\ud800\udc00", "line 2, column 28: unpaired surrogate U+DC00"),
        ("\udfff\\ud800", "line 2, column 22: unpaired surrogate U+DFFF"),
    ])
    def test_surrogate_escape_location(self, escape, where):
        document = '{"version": 1,\n "goals": [{"name": "' + escape + '", "kind": "goal"}]}'
        with pytest.raises(DocumentSyntaxError) as info:
            parse_model(document)
        assert str(info.value) == where

    def test_raw_lone_surrogate_is_a_syntax_error(self):
        document = ('{"version":1,"assets":[{"name":"A\ud800","kind":"system"},'
                    '{"name":"B","kind":"system"}],"associations":[{"source":"A\ud800",'
                    '"target":"B","sourceNeeds":["read"]}]}')
        with pytest.raises(DocumentSyntaxError) as info:
            parse_model(document)
        assert str(info.value) == "line 1, column 34: unpaired surrogate U+D800"

    def test_surrogate_pair_and_escaped_backslash_accepted(self):
        # U+1F600 escaped as the writer escapes it, and a backslash then "ud800".
        document = ('{"version": 1, "goals": [{"name": "\\ud83d\\ude00", "kind": "goal"},'
                    ' {"name": "\\\\ud800", "kind": "goal"}]}')
        _, graph = parse_model(document)
        assert [node.name for node in graph.nodes] == ["\U0001f600", "\\ud800"]
        # The same character raw in a str document is not a surrogate.
        _, graph = parse_model(document.replace("\\ud83d\\ude00", "\U0001f600"))
        assert [node.name for node in graph.nodes] == ["\U0001f600", "\\ud800"]

    def test_duplicate_needs_rejected(self):
        document = _doc(associations=[
            {"source": "Works Diary", "target": "Diary Event",
             "sourceNeeds": ["read", "read"]},
        ])
        with pytest.raises(SchemaError) as info:
            parse_model(document)
        assert info.value.location == "$.associations[0].sourceNeeds"

    def test_invalid_multiplicity(self):
        document = _doc(associations=[
            {"source": "Works Diary", "target": "Diary Event",
             "sourceMultiplicity": "2..5"},
        ])
        with pytest.raises(SchemaError) as info:
            parse_model(document)
        assert info.value.location == "$.associations[0].sourceMultiplicity"

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
        assert [node.name for node in graph.nodes] == ["R"]

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
        assert model.matrix[(AssetKind.INFORMATION, AssetKind.PEOPLE)]

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
_FULL_ASSET = dict(_ASSET, confidentiality="low", integrity="low", extraProperties={},
                   parent="B")
_STATEMENT = {"requirement": "R", "subject": "A", "access": "read", "resource": "B",
              "permission": "allow"}
_OVERRIDE = {"subject": "people", "resource": "people", "allowed": False}


def _without(record: dict, key: str) -> dict:
    return {k: v for k, v in record.items() if k != key}


# Each message is a location below the document root $, then the reason.
@pytest.mark.parametrize("document, message", [
    ({"associations": [{"source": 1, "target": "A", "sourceMultiplicity": "2..5"}]},
     "associations[0].sourceMultiplicity: invalid multiplicity '2..5', "
     "expected one of: '1', '0..1', '1..*', '*'"),
    ({"goals": [{"name": 1, "kind": "goal", "definition": 2}]},
     "goals[0].definition: expected a string, got int"),
    ({"matrixOverride": [_OVERRIDE, _OVERRIDE, {"subject": "x"}]},
     "matrixOverride[1]: duplicate override for (people, people)"),
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
     "assets: expected a list, got dict"),
    ({"assets": [[]]}, "assets[0]: expected an object, got list"),
    ({"assets": [{"name": "", "kind": "system"}]},
     "assets[0].name: asset name must be nonempty"),
    ({"assets": [dict(_ASSET, extraProperties=[])]},
     "assets[0].extraProperties: expected an object, got list"),
    ({"associations": [{"source": "A", "target": "B", "sourceNeeds": "read"}]},
     "associations[0].sourceNeeds: expected a list, got str"),
    ({"matrixOverride": [dict(_OVERRIDE, allowed=1)]},
     "matrixOverride[0].allowed: expected a boolean"),
    # Repeated keys cannot be put in a dict, so these documents are text.
    ('{"version": 1, "policy": [{"requirement": "R", "subject": "A", "access": "read",'
     ' "resource": "A", "permission": "deny", "permission": "allow"}]}',
     "policy[0].permission: duplicate key 'permission'"),
    ('{"version": 1, "assets": [], "version": 1}', "version: duplicate key 'version'"),
    ('{"version": 1, "assets": [{"name": "A", "kind": "system", "extraProperties":'
     ' {"availability": "low", "availability": "high"}}]}',
     "assets[0].extraProperties.availability: duplicate key 'availability'"),
    ('{"version": 1, "matrixOverride": [{"subject": "people", "resource": "people",'
     ' "allowed": false, "allowed": true}]}',
     "matrixOverride[0].allowed: duplicate key 'allowed'"),
    # A repeat is the object's first fault, whatever else is wrong with it,
    # and the first key repeated is named.
    ('{"version": 1, "assets": [{"colour": "red", "kind": "bogus", "name": "A",'
     ' "kind": "system", "name": "B", "colour": "blue"}]}',
     "assets[0].kind: duplicate key 'kind'"),
    # An earlier record's fault still comes first.
    ('{"version": 1, "assets": [{"name": "A", "kind": "bogus"},'
     ' {"name": "B", "kind": "system", "kind": "system"}]}',
     "assets[0].kind: invalid asset kind 'bogus', expected one of: information, people, "
     "system"),
    # Where no object belongs, an object with a repeated key is still an object.
    ('{"version": 1, "associations": [{"source": "A", "target": "B",'
     ' "sourceNeeds": {"read": 1, "read": 2}}]}',
     "associations[0].sourceNeeds: expected a list, got dict"),
    # Where a later record fails a test of the whole column first, the
    # earlier record's fault is still the one named.
    ({"assets": [dict(_ASSET, parent=1), {"name": "", "kind": "system"}]},
     "assets[0].parent: expected a string, got int"),
    ({"policy": [{"requirement": "R", "subject": "A", "access": "execute",
                  "resource": "A", "permission": "allow"},
                 {"requirement": "R", "subject": "A", "access": "read", "resource": "A"}]},
     "policy[0].access: invalid access need 'execute', "
     "expected one of: interact, read, write"),
    ({"associations": [{"source": "A", "target": 2},
                       {"source": "A", "target": "B", "sourceNeeds": ["read", "read"]}]},
     "associations[0].target: expected a string, got int"),
    ({"assets": [dict(_ASSET, extraProperties={"availability": "huge"}),
                 {"name": "B", "kind": "system", "colour": "red"}]},
     "assets[0].extraProperties.availability: invalid security level 'huge', "
     "expected one of: high, low, medium, none"),
    # Within a record the keys come first, then the required keys in class
    # order, then the values in the order of the schema table.
    ({"associations": [{"source": 1, "target": "A", "sourceMultiplicity": "many"}]},
     "associations[0].sourceMultiplicity: invalid multiplicity 'many', "
     "expected one of: '1', '0..1', '1..*', '*'"),
    ({"goals": [{"name": "G", "kind": "wish", "definition": 7}]},
     "goals[0].definition: expected a string, got int"),
    ({"assets": [{"kind": "bogus"}]}, "assets[0]: missing required key 'name'"),
    ('{"version": 1, "assets": [{"name": "A", "colour": "red", "kind": "system",'
     ' "name": "B"}]}',
     "assets[0].name: duplicate key 'name'"),
    ({"assets": [{"name": "A", "kind": "bogus"}, dict(_ASSET, name="B", colour="red")]},
     "assets[0].kind: invalid asset kind 'bogus', expected one of: information, people, "
     "system"),
    ({"matrixOverride": [_OVERRIDE, _OVERRIDE, dict(_OVERRIDE, subject="x")]},
     "matrixOverride[1]: duplicate override for (people, people)"),
    # Documents whose colons are counted to fool the test that no key repeated.
    # An escaped colon, decoded in a name, balances the member the repeat drops.
    ('{"version": 1, "assets": [{"name": "x\\u003ay", "kind": "system", "kind": "system"}]}',
     "assets[0].kind: duplicate key 'kind'"),
    # The only colon inside a string is in the value the repeat drops.
    ('{"version": 1, "assets": [{"name": "a:b", "kind": "system", "name": "c"}]}',
     "assets[0].name: duplicate key 'name'"),
    # Space before a repeated key's colon, and a string that opens with one:
    # a count of '":' would come out balanced.
    ('{"version" : 1, "version" : 1, "assets": [{"name": ":x", "kind": "system"}]}',
     "version: duplicate key 'version'"),
    # A property key with a colon repeats, spelled raw and then escaped.
    ('{"version": 1, "assets": [{"name": "A", "kind": "system", "extraProperties":'
     ' {"cost:x": "low", "cost\\u003ax": "high"}}]}',
     "assets[0].extraProperties.cost:x: duplicate key 'cost:x'"),
    ('{"version": 1, "assets": [{"name": "A:B", "kind": "system", "extraProperties":'
     ' {"cost:x": "low", "cost:x": "high"}}]}',
     "assets[0].extraProperties.cost:x: duplicate key 'cost:x'"),
    # A raw colon and an upper-case escape beside a repeat: the escape must be
    # counted, or the decoded colons would balance the member dropped.
    ('{"version": 1, "assets": [{"name": "a:b\\u003Ac", "kind": "system", "kind": "system"}]}',
     "assets[0].kind: duplicate key 'kind'"),
    # A section is read whole when its members are all counted among its
    # columns.  Here an unknown key and a key left out balance the members of
    # a section where every record holds every key, in either order.
    ({"policy": [dict(_STATEMENT, colour="red"), _without(_STATEMENT, "permission")]},
     "policy[0].colour: unknown key 'colour'"),
    ({"policy": [_without(_STATEMENT, "permission"), dict(_STATEMENT, colour="red")]},
     "policy[0]: missing required key 'permission'"),
    ({"assets": [dict(_FULL_ASSET, colour="red"), _without(_FULL_ASSET, "parent")]},
     "assets[0].colour: unknown key 'colour'"),
    ({"assets": [_without(_FULL_ASSET, "parent"), dict(_FULL_ASSET, colour="red")]},
     "assets[1].colour: unknown key 'colour'"),
    ({"assets": [dict(_ASSET, colour="red"), dict(_ASSET, name="B", parent="A")]},
     "assets[0].colour: unknown key 'colour'"),
    # A record that is no object, between two good ones; a list or a string
    # as long as a record would be makes the member count come out right.
    ({"assets": [_ASSET, [], _ASSET]}, "assets[1]: expected an object, got list"),
    ({"assets": [_ASSET, "AB", _ASSET]}, "assets[1]: expected an object, got str"),
    ({"assets": [_ASSET, 7, _ASSET]}, "assets[1]: expected an object, got int"),
    ({"assets": [_ASSET, None, _ASSET]}, "assets[1]: expected an object, got NoneType"),
    ({"policy": [_STATEMENT, ["a", "b", "c", "d", "e"], _STATEMENT]},
     "policy[1]: expected an object, got list"),
    ({"policy": [_STATEMENT, "abcde", _STATEMENT]}, "policy[1]: expected an object, got str"),
    # A repeated key in a section whose records leave optional keys out.
    ('{"version": 1, "assets": [{"name": "A", "kind": "system"},'
     ' {"name": "B", "kind": "system", "kind": "system"}]}',
     "assets[1].kind: duplicate key 'kind'"),
    ('{"version": 1, "goals": [{"name": "G", "kind": "goal", "definition": "d"},'
     ' {"name": "H", "name": "I", "kind": "goal"}]}',
     "goals[1].name: duplicate key 'name'"),
])
def test_first_fault_wins_with_exact_text(document, message):
    if isinstance(document, dict):
        document = json.dumps({"version": 1, **document})
    with pytest.raises(SchemaError) as info:
        parse_model(document)
    assert str(info.value) == "$." + message


def test_syntax_error_wins_over_duplicate_key():
    with pytest.raises(DocumentSyntaxError) as info:
        parse_model('{"version": 1, "version": 1, "assets": [}')
    assert str(info.value) == "line 1, column 41: Expecting value"


# Every kind of syntax fault, with its exact text.  Bad UTF-8 and a raw
# surrogate are found before the JSON is read; an unpaired escape only after
# json accepts the document.  Trailing commas are left out: Python 3.13 words
# them differently from 3.10-3.12.
SYNTAX_FAULTS = [
    pytest.param(b"\xff{}", "byte 0: document is not valid UTF-8", id="bad-utf8"),
    pytest.param(b'{"version": 1, "assets": [{"name": "A\xed\xa0\x80", "kind": "system"}]}',
                 "byte 37: document is not valid UTF-8", id="encoded-surrogate"),
    pytest.param(b"", "line 1, column 1: Expecting value", id="empty-bytes"),
    pytest.param("", "line 1, column 1: Expecting value", id="empty-str"),
    pytest.param(b'\xef\xbb\xbf{"version": 1}',
                 "line 1, column 1: Unexpected UTF-8 BOM (decode using utf-8-sig)",
                 id="bom-bytes"),
    pytest.param('\ufeff{"version": 1}',
                 "line 1, column 1: Unexpected UTF-8 BOM (decode using utf-8-sig)",
                 id="bom-str"),
    pytest.param(b'{"version": 1,\n "assets": [] "goals": []}',
                 "line 2, column 15: Expecting ',' delimiter", id="missing-comma"),
    pytest.param('{"version": 1,\n "goals": [{"name": "A\ud800", "kind": }]}',
                 "line 2, column 23: unpaired surrogate U+D800", id="raw-surrogate-first"),
    pytest.param('{"version": 1,\n "goals": [{"name": "A\\ud800", "kind": }]}',
                 "line 2, column 40: Expecting value", id="syntax-before-escape"),
]


@pytest.mark.parametrize("document, message", SYNTAX_FAULTS)
def test_syntax_fault_exact_text(document, message):
    with pytest.raises(DocumentSyntaxError) as info:
        parse_model(document)
    assert str(info.value) == message


@pytest.mark.parametrize("document, message",
                         [case for case in SYNTAX_FAULTS if isinstance(case.values[0], bytes)])
@pytest.mark.parametrize("command", [["validate"], ["check"], ["export", "--view", "asset"]])
def test_syntax_fault_exact_text_through_cli(capsys, tmp_path, document, message, command):
    path = tmp_path / "model.json"
    path.write_bytes(document)
    assert cli.main([command[0], str(path), *command[1:]]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"


def test_absent_extra_properties_are_not_shared():
    model, _ = parse_model(_doc())
    first, second = model.assets
    assert first.extra_properties == second.extra_properties == {}
    assert first.extra_properties is not second.extra_properties


# section -> (one record holding every key, its required keys, the parsed record,
# the record built from its required fields alone); None where all are required.
_ONE_RECORD = {
    "assets": ({"name": "A", "kind": "system", "confidentiality": "high", "integrity": "low",
                "extraProperties": {"cost": "low"}, "parent": "B"}, ("name", "kind"),
               lambda model, graph: model.assets[0], Asset("A", AssetKind.SYSTEM)),
    "associations": ({"source": "A", "target": "B", "sourceNeeds": ["read"],
                      "targetNeeds": ["write"], "sourceMultiplicity": "1",
                      "targetMultiplicity": "*"}, ("source", "target"),
                     lambda model, graph: model.associations[0], Association("A", "B")),
    "goals": ({"name": "G", "kind": "goal", "definition": "Keep it"}, ("name", "kind"),
              lambda model, graph: graph.nodes[0], Goal("G", GoalKind.GOAL)),
    "refinements": ({"parent": "G", "child": "R"}, ("parent", "child"), None, None),
    "policy": ({"requirement": "R", "subject": "A", "access": "read", "resource": "B",
                "permission": "allow"},
               ("requirement", "subject", "access", "resource", "permission"), None, None),
    "matrixOverride": (_OVERRIDE, ("subject", "resource", "allowed"), None, None),
}


@pytest.mark.parametrize("section, key", [
    (section, key) for section, (record, *_) in _ONE_RECORD.items() for key in record])
def test_each_key_is_required_or_takes_the_class_default(section, key):
    record, required, parsed, minimal = _ONE_RECORD[section]
    document = json.dumps({"version": 1, section: [{k: record[k] for k in record if k != key}]})
    if key in required:
        with pytest.raises(SchemaError) as info:
            parse_model(document, check=False)
        assert str(info.value) == f"$.{section}[0]: missing required key '{key}'"
        return
    attribute = re.sub("[A-Z]", lambda upper: "_" + upper[0].lower(), key)
    full = getattr(parsed(*parse_model(json.dumps({"version": 1, section: [record]}),
                                       check=False)), attribute)
    value = getattr(parsed(*parse_model(document, check=False)), attribute)
    default = getattr(minimal, attribute)
    assert (value, type(value)) == (default, type(default)) != (full, type(full))


@pytest.mark.parametrize("section", [section for section, entry in _ONE_RECORD.items()
                                     if entry[-1] is not None])
def test_records_with_and_without_optional_keys_read_as_each_alone(section):
    record, required, _, _ = _ONE_RECORD[section]
    bare = {key: record[key] for key in required}
    optional = [key for key in record if key not in required]
    records = [record, bare, *({**bare, key: record[key]} for key in optional),
               *(_without(record, key) for key in optional), bare]

    def read(items: list) -> tuple:
        model, graph = parse_model(json.dumps({"version": 1, section: items}), check=False)
        return {"assets": model.assets, "associations": model.associations,
                "goals": graph.nodes}[section]

    whole = read(records)
    assert whole == tuple(read([item])[0] for item in records)
    if section == "assets":  # each asset that leaves them out gets a dict of its own
        assert len({id(asset.extra_properties) for asset in whole}) == len(whole)


def _policy(*edits) -> str:
    """Five statements, statement i edited by each (i, key, value); None drops the key."""
    policy = [dict(_STATEMENT) for _ in range(5)]
    for i, key, value in edits:
        if value is None:
            del policy[i][key]
        else:
            policy[i][key] = value
    return json.dumps({"version": 1, "policy": policy})


@pytest.mark.parametrize("edits, message", [
    ([(3, "subject", None)], "$.policy[3]: missing required key 'subject'"),
    ([(4, "requirement", None), (4, "permission", None)],
     "$.policy[4]: missing required key 'requirement'"),
    ([(1, "access", "fly"), (3, "subject", None)],
     "$.policy[1].access: invalid access need 'fly', expected one of: "
     "interact, read, write"),
    ([(2, "resource", 7), (3, "subject", None)],
     "$.policy[2].resource: expected a string, got int"),
], ids=["one-missing", "two-missing", "bad-value-first", "bad-type-first"])
def test_column_pass_names_the_first_faulty_record(edits, message):
    with pytest.raises(SchemaError) as info:
        parse_model(_policy(*edits), check=False)
    assert str(info.value) == message


def test_optional_keys_held_only_by_the_last_record_round_trip():
    assets = [{"name": name, "kind": "system"} for name in "ABC"]
    assets[-1].update(parent="A", extraProperties={"cost": "low"})
    associations = [{"source": "A", "target": "B"}, {"source": "B", "target": "C"},
                    {"source": "C", "target": "A", "sourceNeeds": ["read"],
                     "targetMultiplicity": "*"}]
    goals = [{"name": "G", "kind": "goal"}, {"name": "R", "kind": "requirement",
                                             "definition": "Only here"}]
    document = {"version": 1, "assets": assets, "associations": associations, "goals": goals}
    model, graph = parse_model(json.dumps(document))
    assert [asset.parent for asset in model.assets] == [None, None, "A"]
    assert [a.target_multiplicity for a in model.associations] == [None, None, "*"]
    assert [goal.definition for goal in graph.nodes] == ["", "Only here"]
    text = serialize_model(model, graph)
    assert parse_model(text) == (model, graph)
    assert json.loads(text) == {**document, "assets": [
        {"confidentiality": "none", "integrity": "none", **asset} for asset in assets]}


def _field_types(records) -> list:
    # The constructor's parameters name the fields of a NamedTuple and a dataclass alike.
    return [[type(getattr(record, name)) for name in inspect.signature(type(record)).parameters]
            for record in records]


@pytest.mark.parametrize("source", ["pyramid", "works-diary", "chain.json"])
def test_column_pass_builds_the_row_readers_records(source, data_dir):
    """The records parse_model returns are the ones the row reader builds."""
    text = fixture_text(source) if source in ("pyramid", "works-diary") else (
        (data_dir / source).read_text(encoding="utf-8"))
    model, graph = parse_model(text)
    root = json.loads(text)
    for section, records in (("assets", model.assets), ("associations", model.associations),
                             ("goals", graph.nodes), ("refinements", graph.refinements),
                             ("policy", graph.policy)):
        by_row = tuple(record_oracle.record(obj, section) for obj in root.get(section, []))
        assert records == by_row
        assert _field_types(records) == _field_types(by_row)
    assert all(type(a.source_needs) is frozenset is type(a.target_needs)
               for a in model.associations)
    if source != "chain.json":
        assert all(asset.parent is None for asset in model.assets)


@pytest.mark.parametrize("source", ["pyramid", "works-diary", "chain.json"])
def test_column_pass_builds_whole_named_tuples(source, data_dir):
    """Records built through tuple.__new__ are exactly their class, with every field."""
    text = fixture_text(source) if source in ("pyramid", "works-diary") else (
        (data_dir / source).read_text(encoding="utf-8"))
    model, graph = parse_model(text)
    for cls, records in ((Association, model.associations), (Goal, graph.nodes),
                         (Refinement, graph.refinements)):
        for record in records:
            assert type(record) is cls and len(record) == len(cls._fields)
            assert record == cls(*record)


# chain.json names a parent in some assets and extraProperties in none; wide(20) the
# reverse; pyramid holds neither, and policy statements.
@pytest.mark.parametrize("source", ["pyramid", "chain.json", "wide"])
def test_column_pass_builds_whole_slotted_records(source, data_dir):
    """Records set a slot at a time are exactly their class, with every field set."""
    text = (fixture_text(source) if source == "pyramid" else json.dumps(documents.wide(20))
            if source == "wide" else (data_dir / source).read_text(encoding="utf-8"))
    model, graph = parse_model(text)
    assert model.assets and (graph.policy or source == "chain.json")
    for cls, records in ((Asset, model.assets), (PolicyStatement, graph.policy)):
        for record in records:
            fields = {spec.name: getattr(record, spec.name) for spec in dataclasses.fields(cls)}
            assert type(record) is cls and record == cls(**fields)


def test_parsed_records_are_frozen_slotted_dataclasses():
    model, graph = parse_model(fixture_text("pyramid"))
    asset, statement = model.assets[0], graph.policy[0]
    for record in (asset, statement):
        first = dataclasses.fields(record)[0].name
        copy = dataclasses.replace(record, **{first: "Other"})
        assert type(copy) is type(record) and getattr(copy, first) == "Other"
        assert dataclasses.replace(copy, **{first: getattr(record, first)}) == record
        assert pickle.loads(pickle.dumps(record)) == record
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, first, "Other")
        with pytest.raises(TypeError):  # slotted: no __dict__
            vars(record)
    with pytest.raises(TypeError):  # extra_properties is a dict
        hash(asset)
    assert hash(statement) == hash(dataclasses.replace(statement))


_names = st.sampled_from(["A", "B", "C", "A:B"])
_needs = st.lists(st.sampled_from(["read", "write", "interact"]), max_size=3, unique=True)
# section -> (required keys, optional keys), each with a strategy of legal values.
_LEGAL = {
    "assets": ({"name": _names, "kind": st.sampled_from(["system", "information", "people"])},
               {"confidentiality": st.sampled_from(["none", "high"]),
                "integrity": st.sampled_from(["low", "medium"]),
                "extraProperties": st.dictionaries(
                    st.sampled_from(["availability", "cost", "cost:x"]),
                    st.sampled_from(["none", "low"]), max_size=2),
                "parent": _names}),
    "associations": ({"source": _names, "target": _names},
                     {"sourceNeeds": _needs, "targetNeeds": _needs,
                      "sourceMultiplicity": st.sampled_from(["1", "*"]),
                      "targetMultiplicity": st.sampled_from(["0..1", "1..*"])}),
    "goals": ({"name": st.sampled_from(["G", ""]), "kind": st.sampled_from(["goal", "requirement"])},
              {"definition": st.sampled_from(["", "Keep it", "Goal: Keep it"])}),
    "refinements": ({"parent": _names, "child": _names}, {}),
    "policy": ({"requirement": _names, "subject": _names, "resource": _names,
                "access": st.sampled_from(["read", "interact"]),
                "permission": st.sampled_from(["allow", "deny"])}, {}),
    "matrixOverride": ({"subject": st.sampled_from(["system", "people"]),
                        "resource": st.sampled_from(["information", "people"]),
                        "allowed": st.booleans()}, {}),
}
# A value no field of any record accepts, or one only some fields accept.
# An empty string or object iterates like an empty list of needs.
_junk = st.one_of(
    st.none(), st.booleans(), st.integers(0, 1), st.just(""), st.just({}),
    st.sampled_from(["bogus", "read", "low", "1"]),
    st.lists(st.one_of(st.sampled_from(["read", "bogus"]), st.integers(0, 1), st.just([])),
             max_size=3),
    st.dictionaries(st.sampled_from(["availability", "low", "read"]),
                    st.one_of(st.sampled_from(["low", "huge"]), st.integers(0, 1)), max_size=2))


@st.composite
def _sections(draw):
    """A section name, its list, where about one record in three is spoiled, and
    how a colon inside a string is written: as it is, or as an escape.

    One spoil in six gives a record two junk values, so that the fault
    named first shows the order values are read in.
    """
    section = draw(st.sampled_from(sorted(_LEGAL)))
    required, optional = _LEGAL[section]
    items = []
    for _ in range(draw(st.integers(0, 4))):
        record = draw(st.fixed_dictionaries(required, optional=optional))
        spoil = draw(st.integers(0, 11))
        key = draw(st.sampled_from([*required, *optional, "colour"]))
        if spoil < 2:
            record[key] = draw(_junk)
        elif spoil == 5 and len(required) + len(optional) > 1:
            for other in draw(st.lists(st.sampled_from([*required, *optional]),
                                       min_size=2, max_size=2, unique=True)):
                record[other] = draw(_junk)
        elif spoil == 2:
            record.pop(key, None)
        elif spoil == 3:  # the key repeats, as json.loads marks it, with junk or its value
            again = record[key] if key in record and draw(st.booleans()) else draw(_junk)
            record = modelio._pairs([*record.items(), (key, again)])
        items.append(draw(_junk) if spoil == 4 else record)
    return section, items, draw(st.sampled_from([":", "\\u003a"]))


def _json(value, colon: str = ":") -> str:
    """JSON text of value, each colon inside a string written as colon; a record
    _pairs marked writes its repeated key twice."""
    if type(value) is list:
        return "[" + ", ".join(_json(item, colon) for item in value) + "]"
    if type(value) is dict:
        members = [(k, v) for k, v in value.items() if k is not modelio._REPEATED]
        if modelio._REPEATED in value:
            members.append((value[modelio._REPEATED], value[value[modelio._REPEATED]]))
        return "{" + ", ".join(f"{_json(k, colon)}: {_json(v, colon)}" for k, v in members) + "}"
    return json.dumps(value).replace(":", colon) if type(value) is str else json.dumps(value)


# Needs as an object iterate like a list; a null is not an absent key.
@example(("associations", [{"source": "A", "target": "B", "sourceNeeds": {"read": 1}}], ":"))
@example(("associations", [{"source": "A", "target": "B", "targetMultiplicity": None}], ":"))
@example(("assets", [{"name": "A", "kind": "system", "parent": None}], ":"))
@settings(max_examples=400)
@given(_sections())
def test_column_pass_reads_as_the_row_reader(case):
    """parse_model reads a section as the row reader does, and names its first fault."""
    section, items, colon = case
    expected, fault, cells = [], None, set()
    for i, obj in enumerate(items):  # the row reader, one record at a time
        try:
            record = record_oracle.record(obj, section)
        except modelio._Bad as bad:
            fault = f"$.{section}[{i}]{bad.suffix}: {bad.reason}"
            break
        if section == "matrixOverride":  # parse_model reads overrides into one matrix
            subject, resource, _ = record
            if (subject, resource) in cells:
                fault = (f"$.{section}[{i}]: duplicate override for "
                         f"({subject.value}, {resource.value})")
                break
            cells.add((subject, resource))
        expected.append(record)
    document = f'{{"version": 1, {json.dumps(section)}: {_json(items, colon)}}}'
    if fault:
        with pytest.raises(SchemaError) as info:
            parse_model(document, check=False)
        assert info.value.location.startswith("$")
        assert str(info.value) == fault
        return
    model, graph = parse_model(document, check=False)
    if section == "matrixOverride":
        assert model.matrix == {**default_matrix(), **{(subject, resource): allowed
                                                       for subject, resource, allowed in expected}}
        assert all(type(allowed) is bool for allowed in model.matrix.values())
        return
    records = {"assets": model.assets, "associations": model.associations, "goals": graph.nodes,
               "refinements": graph.refinements, "policy": graph.policy}[section]
    assert records == tuple(expected)
    assert _field_types(records) == _field_types(expected)
    if section == "assets":
        assert len({id(a.extra_properties) for a in records}) == len(records)


# A clean document with a colon in every free-text string: asset names, a
# parent, a property key, association ends, goal names and definitions,
# refinement ends, and a statement's requirement, subject and resource.
_COLONS = {
    "version": 1,
    "assets": [{"name": "urn:a", "kind": "system"},
               {"name": "urn:b", "kind": "system", "parent": "urn:a"},
               {"name": "urn:c", "kind": "information", "extraProperties": {"cost:x": "low"}}],
    "associations": [{"source": "urn:a", "target": "urn:c", "sourceNeeds": ["read"]}],
    "goals": [{"name": "G:1", "kind": "goal", "definition": "Goal: keep it"},
              {"name": "R:1", "kind": "requirement", "definition": "Req: read it"}],
    "refinements": [{"parent": "G:1", "child": "R:1"}],
    "policy": [{"requirement": "R:1", "subject": "urn:a", "access": "read",
                "resource": "urn:c", "permission": "allow"}],
}


def test_clean_documents_never_reach_the_pairs_hook(monkeypatch, data_dir):
    """A document with no repeated key is decoded once, by json.loads without a hook."""
    texts = [fixture_text("pyramid"), fixture_text("works-diary"),
             *(path.read_text(encoding="utf-8") for path in sorted(data_dir.glob("*.json"))),
             *(json.dumps(build(n)) for build, n in documents.SHAPES.values()),
             json.dumps(_COLONS), _json(_COLONS, "\\u003a"),
             # Colons both raw and escaped, and an escaped backslash before u003a,
             # which is no escape of a colon.
             json.dumps(_COLONS).replace("urn:a", "urn\\u003Aa").replace("G:1", "G\\u003a1"),
             json.dumps({**_COLONS, "goals": [{"name": "G:1", "kind": "goal",
                                               "definition": "C:\\u003a"}, _COLONS["goals"][1]]})]
    parsed = {}
    for text in texts:
        try:
            parsed[text] = parse_model(text, check=False)
        except DocumentSyntaxError:  # tests/data/surrogate.json
            pass
    assert len(parsed) == len(set(texts)) - 1  # the pyramid is in tests/data too
    assert parse_model(json.dumps(_COLONS))

    def refuse(pairs):
        raise AssertionError("a clean document was decoded with the pairs hook")
    monkeypatch.setattr(modelio, "_pairs", refuse)
    for text, result in parsed.items():
        assert parse_model(text, check=False) == result


# Documents pinned to their exact bytes, one record shape each.
EXACT_DOCUMENTS = {
    "levels-at-none": (AssetModel(assets=(Asset("A", AssetKind.SYSTEM),)), GoalGraph(), """{
  "assets": [
    {
      "confidentiality": "none",
      "integrity": "none",
      "kind": "system",
      "name": "A"
    }
  ],
  "version": 1
}
"""),
    # Only a None parent is left out; an empty one (which check_structure
    # rejects) is written.
    "empty-parent": (AssetModel(assets=(Asset("A", AssetKind.SYSTEM, parent=""),)),
                     GoalGraph(), """{
  "assets": [
    {
      "confidentiality": "none",
      "integrity": "none",
      "kind": "system",
      "name": "A",
      "parent": ""
    }
  ],
  "version": 1
}
"""),
    "target-needs-only": (AssetModel(associations=(Association(
        "A", "B", target_needs=frozenset({AccessNeed.INTERACT, AccessNeed.READ})),)),
        GoalGraph(), """{
  "associations": [
    {
      "source": "A",
      "target": "B",
      "targetNeeds": [
        "read",
        "interact"
      ]
    }
  ],
  "version": 1
}
"""),
    "multiplicities": (AssetModel(associations=(Association(
        "A", "B", source_multiplicity="1", target_multiplicity="1..*"),)), GoalGraph(), """{
  "associations": [
    {
      "source": "A",
      "sourceMultiplicity": "1",
      "target": "B",
      "targetMultiplicity": "1..*"
    }
  ],
  "version": 1
}
"""),
    "empty-and-escaped-definitions": (AssetModel(), GoalGraph(nodes=(
        Goal("G", GoalKind.GOAL, ""),
        Goal("R", GoalKind.REQUIREMENT, 'say "\\"\x00\xe9\u2028\U0001f600'))), """{
  "goals": [
    {
      "kind": "goal",
      "name": "G"
    },
    {
      "definition": "say \\"\\\\\\"\\u0000\\u00e9\\u2028\\ud83d\\ude00",
      "kind": "requirement",
      "name": "R"
    }
  ],
  "version": 1
}
"""),
    "matrix-override": (AssetModel(matrix={
        **default_matrix(),
        (AssetKind.PEOPLE, AssetKind.PEOPLE): False,
        (AssetKind.SYSTEM, AssetKind.PEOPLE): True}), GoalGraph(), """{
  "matrixOverride": [
    {
      "allowed": true,
      "resource": "people",
      "subject": "system"
    },
    {
      "allowed": false,
      "resource": "people",
      "subject": "people"
    }
  ],
  "version": 1
}
"""),
}


@pytest.mark.parametrize("name", sorted(EXACT_DOCUMENTS))
def test_exact_document_bytes(name):
    model, graph, text = EXACT_DOCUMENTS[name]
    assert serialize_model(model, graph) == text
    assert text == json_reference.canonical(json_reference.document(model, graph))


@pytest.mark.parametrize("pair", [
    load_fixture("pyramid"), load_fixture("works-diary"), (AssetModel(), GoalGraph())],
    ids=["pyramid", "works-diary", "empty"])
def test_writer_matches_json_dumps(pair):
    model, graph = pair
    reference = json_reference.canonical(json_reference.document(model, graph))
    assert serialize_model(model, graph) == reference
    report = validate_access(model, graph)
    reference = json_reference.canonical(json_reference.report(report))
    assert render_report(report, "json") == reference


def _goal(name: str, definition: str = "") -> Goal:
    return Goal(name, GoalKind.REQUIREMENT, definition)


# Models whose records omit members on either side of the anchor, the first member
# by sorted key that every record writes, and sections of a single record.
ANCHOR_CASES = {
    "definition-omitted-first-middle-last": (AssetModel(), GoalGraph(nodes=(
        _goal("G0"), _goal("G1", "one"), _goal("G2"), _goal("G3", "three"), _goal("G4")))),
    "definition-only-between": (AssetModel(), GoalGraph(nodes=(
        _goal("G0", "zero"), _goal("G1"), _goal("G2", "two")))),
    "asset-with-both-and-neither": (AssetModel(assets=(
        Asset("A", AssetKind.SYSTEM, SecurityValue.HIGH, SecurityValue.LOW,
              {"availability": SecurityValue.MEDIUM, "cost": SecurityValue.NONE}, "B"),
        Asset("B", AssetKind.SYSTEM),
        Asset("C", AssetKind.PEOPLE, extra_properties={"cost": SecurityValue.HIGH}),
        Asset("D", AssetKind.PEOPLE, parent="C"))), GoalGraph()),
    "association-with-all-and-none": (AssetModel(associations=(
        Association("A", "B", frozenset({AccessNeed.WRITE, AccessNeed.READ}),
                    frozenset({AccessNeed.INTERACT}), "0..1", "1..*"),
        Association("B", "C"),
        Association("C", "A", target_needs=frozenset({AccessNeed.READ}), source_multiplicity="*"),
        Association("A", "C", source_needs=frozenset(AccessNeed), target_multiplicity="1"))),
        GoalGraph()),
    "single-records": (AssetModel(
        assets=(Asset("A", AssetKind.INFORMATION, parent="B"),),
        associations=(Association("A", "B", target_needs=frozenset({AccessNeed.READ})),),
        matrix={**default_matrix(), (AssetKind.SYSTEM, AssetKind.PEOPLE): True}),
        GoalGraph(nodes=(_goal("R"),), refinements=(Refinement("G", "R"),),
                  policy=(PolicyStatement("R", "A", AccessNeed.READ, "B", Permission.DENY),))),
    "single-records-with-definition": (AssetModel(assets=(Asset("A", AssetKind.SYSTEM),),
                                                  associations=(Association("A", "B"),)),
                                       GoalGraph(nodes=(_goal("R", "defined"),))),
}


@pytest.mark.parametrize("name", sorted(ANCHOR_CASES))
def test_members_around_the_anchor_match_json_dumps(name):
    model, graph = ANCHOR_CASES[name]
    text = serialize_model(model, graph)
    assert text == json_reference.canonical(json_reference.document(model, graph))
    assert serialize_model(*parse_model(text, check=False)) == text


# One warning of each kind, in declaration order, upon names holding every
# character of ALPHABET: a quote, a backslash, controls, U+2028, é, an astral one.
EVERY_KIND = ValidationReport(tuple(
    AccessWarning(kind, AccessTriple(f"S {ALPHABET}", need, f"{ALPHABET} R"))
    for kind, need in zip(WarningKind, (AccessNeed.INTERACT, AccessNeed.WRITE, AccessNeed.READ,
                                        AccessNeed.WRITE, AccessNeed.WRITE, AccessNeed.READ))))


def test_a_warning_of_every_kind_matches_json_dumps():
    assert [warning.kind for warning in EVERY_KIND.warnings] == list(WarningKind)
    reference = json_reference.canonical(json_reference.report(EVERY_KIND))
    assert render_report(EVERY_KIND, "json") == reference
    lines = render_report(EVERY_KIND, "text").splitlines()
    assert len(lines) == len(WarningKind) + 1 + len(RULE_RESULTS)
    assert [line.split(":")[0] for line in lines[:len(WarningKind)]] == [
        kind.value for kind in WarningKind]


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
        assert again.assets[0].extra_properties == {
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
        text = render_report(ValidationReport(), "json")
        assert text == json_reference.canonical(json_reference.report(ValidationReport()))
        assert text.endswith('''
  },
  "warnings": []
}
''')
        payload = json.loads(text)
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

    def test_editing_the_returned_counts_changes_no_later_render(self):
        """summary and rule_results are fresh dicts: a caller's edits stay its own."""
        report = validate_access(*load_fixture("pyramid"))

        def views():
            return (report.summary, report.rule_results, render_report(report, "text"),
                    render_report(report, "json"))

        before = views()
        summary, flags = report.summary, report.rule_results
        summary[WarningKind.NO_READ_UP] += 5
        flags["starProperty"] = True
        assert views() == before
        report.summary.clear()
        report.rule_results.clear()
        assert views() == before

    def test_unknown_format_rejected(self, pyramid_report):
        with pytest.raises(ValueError):
            render_report(pyramid_report, "xml")
