"""Level ordering, the access-rule matrix, and structural checks."""

import ast
import pickle
import re
from pathlib import Path

import pytest

from accesslint.goals import Goal, GoalKind, Refinement
from accesslint.model import (
    AccessNeed,
    Asset,
    AssetKind,
    AssetModel,
    Association,
    Lineage,
    ModelError,
    SecurityValue,
    check_structure,
    default_matrix,
    index_names,
)
from accesslint.modelio import parse_model

N, L, M, H = (SecurityValue.NONE, SecurityValue.LOW,
              SecurityValue.MEDIUM, SecurityValue.HIGH)


class TestCompareLevels:
    def test_matches_ordinals(self):
        # SecurityValue is an IntEnum, so levels compare as their ordinals.
        assert N < L < M < H


class TestDefaultMatrix:
    def test_information_never_accesses_people(self):
        assert default_matrix()[(AssetKind.INFORMATION, AssetKind.PEOPLE)] is False

    def test_information_accesses_information(self):
        assert default_matrix()[(AssetKind.INFORMATION, AssetKind.INFORMATION)] is True

    def test_people_access_information(self):
        assert default_matrix()[(AssetKind.PEOPLE, AssetKind.INFORMATION)] is True

    def test_system_never_accesses_people(self):
        assert default_matrix()[(AssetKind.SYSTEM, AssetKind.PEOPLE)] is False

    def test_people_access_everything(self):
        for resource in AssetKind:
            assert default_matrix()[(AssetKind.PEOPLE, resource)] is True

    def test_each_call_returns_a_new_dict(self):
        first, second = default_matrix(), default_matrix()
        assert first == second
        assert first is not second
        first[(AssetKind.PEOPLE, AssetKind.PEOPLE)] = False
        assert default_matrix() == second

    def test_model_default_is_the_default_matrix(self):
        assert AssetModel().matrix == default_matrix()
        assert AssetModel().matrix is not AssetModel().matrix

    def test_parsed_models_share_no_matrix(self):
        document = '{"version": 1}'
        first, _ = parse_model(document)
        second, _ = parse_model(document)
        first.matrix[(AssetKind.PEOPLE, AssetKind.PEOPLE)] = False
        assert second.matrix == default_matrix()
        assert default_matrix()[(AssetKind.PEOPLE, AssetKind.PEOPLE)] is True


def _works_diary() -> AssetModel:
    return AssetModel(
        assets=(
            Asset("Works Diary", AssetKind.INFORMATION),
            Asset("Diary Event", AssetKind.INFORMATION),
        ),
        associations=(
            Association(
                "Works Diary", "Diary Event",
                source_needs=frozenset({AccessNeed.READ, AccessNeed.WRITE}),
            ),
        ),
    )


class TestModelIndex:
    """A model's name index and parent walk: built once, read-only, shared on expansion."""

    def test_index_and_lineage(self):
        model = AssetModel(assets=(
            Asset("C", AssetKind.SYSTEM, parent="B"),
            Asset("A", AssetKind.SYSTEM, parent="Ghost"),
            Asset("B", AssetKind.SYSTEM, parent="A"),
            Asset("D", AssetKind.SYSTEM, parent="E"),
            Asset("E", AssetKind.SYSTEM, parent="D"),
        ))
        assert dict(model.index) == {a.name: a for a in model.assets}
        assert model.lineage == (("A", "B", "C"), (("D", "E"),))
        assert model.lineage is model.lineage
        assert pickle.loads(pickle.dumps(model)) == model

    @pytest.mark.parametrize("parents, lineage", [
        pytest.param((None, "A", "B"), (("A", "B", "C"), ()), id="top-down"),
        pytest.param(("B", "C", None), (("C", "B", "A"), ()), id="child-before-parent"),
        pytest.param(("Ghost", "A", None), (("A", "B", "C"), ()), id="unknown-parent"),
        pytest.param((None, "B", "B"), (("A", "C"), (("B",),)), id="self-parent"),
    ])
    def test_lineage_of_parents_in_any_order(self, parents, lineage):
        """The C pass that proves each parent declared earlier, or unknown, gives
        what the walk gives; any other order takes the walk."""
        model = AssetModel(assets=tuple(Asset(name, AssetKind.SYSTEM, parent=parent)
                                        for name, parent in zip("ABC", parents)))
        assert model.lineage == lineage

    def test_a_mutation_raises_and_changes_nothing(self):
        model = _works_diary()
        findings = check_structure(model)
        with pytest.raises(TypeError):
            model.index["Ghost"] = model.assets[0]
        with pytest.raises(TypeError):
            del model.index[model.assets[0].name]
        with pytest.raises(AttributeError):
            model.lineage.top_down.append("Ghost")
        assert check_structure(model) == findings
        assert "Ghost" not in model.index

    def test_the_cache_is_not_a_field(self):
        model = _works_diary()
        model.lineage
        fresh = AssetModel(model.assets, model.associations, model.matrix)
        assert fresh == model and repr(fresh) == repr(model)
        assert "lineage" not in vars(fresh)


class TestCheckStructure:
    def test_valid_two_asset_model_is_clean(self):
        assert check_structure(_works_diary()) == []

    def test_duplicate_asset_name(self):
        model = AssetModel(assets=(
            Asset("Data Item", AssetKind.INFORMATION),
            Asset("Data Item", AssetKind.SYSTEM),
        ))
        errors = check_structure(model)
        assert [e.code for e in errors] == ["DuplicateAssetName"]
        assert errors[0].where == "Data Item"

    def test_empty_asset_name(self):
        model = AssetModel(assets=(Asset("", AssetKind.SYSTEM),))
        assert [e.code for e in check_structure(model)] == ["EmptyAssetName"]

    @pytest.mark.parametrize("make, noun", [
        (lambda name: Asset(name, AssetKind.SYSTEM), "asset"),
        (lambda name: Goal(name, GoalKind.GOAL), "goal"),
    ])
    def test_empty_and_repeated_names_interleaved(self, make, noun):
        items = [make(name) for name in ["A", "", "A", "B", "", "B", "A"]]
        by_name, errors = index_names(items, noun)
        empty, duplicate = f"Empty{noun.title()}Name", f"Duplicate{noun.title()}Name"
        assert [(e.code, e.where) for e in errors] == [
            (empty, f"<unnamed {noun}>"), (duplicate, "A"), (empty, f"<unnamed {noun}>"),
            (duplicate, "B"), (duplicate, "A")]
        assert list(by_name) == ["A", "B"]
        assert by_name["A"] is items[0] and by_name["B"] is items[3]

    def test_information_needing_people_violates_matrix(self):
        model = AssetModel(
            assets=(
                Asset("Ledger", AssetKind.INFORMATION),
                Asset("Clerk", AssetKind.PEOPLE),
            ),
            associations=(
                Association("Ledger", "Clerk",
                            source_needs=frozenset({AccessNeed.READ})),
            ),
        )
        errors = check_structure(model)
        assert [e.code for e in errors] == ["MatrixViolation"]

    def test_person_reading_information_is_fine(self):
        model = AssetModel(
            assets=(
                Asset("Clerk", AssetKind.PEOPLE),
                Asset("Ledger", AssetKind.INFORMATION),
            ),
            associations=(
                Association("Clerk", "Ledger",
                            source_needs=frozenset({AccessNeed.READ})),
            ),
        )
        assert check_structure(model) == []

    def test_target_side_needs_checked_too(self):
        # Needs on the target end make the target the subject.
        model = AssetModel(
            assets=(
                Asset("Clerk", AssetKind.PEOPLE),
                Asset("Ledger", AssetKind.INFORMATION),
            ),
            associations=(
                Association("Clerk", "Ledger",
                            target_needs=frozenset({AccessNeed.READ})),
            ),
        )
        assert [e.code for e in check_structure(model)] == ["MatrixViolation"]

    def test_unknown_association_endpoint(self):
        model = AssetModel(
            assets=(Asset("A", AssetKind.SYSTEM),),
            associations=(Association("A", "Ghost"),),
        )
        assert [e.code for e in check_structure(model)] == ["UnknownAsset"]

    def test_self_association_rejected(self):
        model = AssetModel(
            assets=(Asset("A", AssetKind.SYSTEM),),
            associations=(Association("A", "A"),),
        )
        assert [e.code for e in check_structure(model)] == ["SelfAssociation"]

    def test_duplicate_pair_rejected_regardless_of_direction(self):
        model = AssetModel(
            assets=(Asset("A", AssetKind.SYSTEM), Asset("B", AssetKind.SYSTEM)),
            associations=(Association("A", "B"), Association("B", "A")),
        )
        assert [e.code for e in check_structure(model)] == ["DuplicateAssociation"]

    def test_unknown_parent(self):
        model = AssetModel(assets=(
            Asset("A", AssetKind.SYSTEM, parent="Ghost"),
        ))
        assert [e.code for e in check_structure(model)] == ["UnknownParent"]

    def test_parent_kind_mismatch(self):
        model = AssetModel(assets=(
            Asset("A", AssetKind.SYSTEM),
            Asset("B", AssetKind.INFORMATION, parent="A"),
        ))
        assert [e.code for e in check_structure(model)] == ["ParentKindMismatch"]

    def test_parent_cycle_reported_once(self):
        model = AssetModel(assets=(
            Asset("A", AssetKind.SYSTEM, parent="B"),
            Asset("B", AssetKind.SYSTEM, parent="A"),
        ))
        errors = check_structure(model)
        assert [e.code for e in errors] == ["CyclicInheritance"]
        assert "A -> B -> A" in errors[0].message

    def test_cycles_reported_in_document_order_of_first_reach(self):
        # The walk from T1 reaches the D-E cycle before B's walk finds B-C;
        # the tails T2 and T3 name neither again.
        model = AssetModel(assets=(
            Asset("T1", AssetKind.SYSTEM, parent="E"),
            Asset("B", AssetKind.SYSTEM, parent="C"),
            Asset("T2", AssetKind.SYSTEM, parent="T1"),
            Asset("C", AssetKind.SYSTEM, parent="B"),
            Asset("D", AssetKind.SYSTEM, parent="E"),
            Asset("E", AssetKind.SYSTEM, parent="D"),
            Asset("T3", AssetKind.SYSTEM, parent="C"),
        ))
        errors = check_structure(model)
        assert [(e.code, e.where, e.message) for e in errors] == [
            ("CyclicInheritance", "D", "inheritance cycle: D -> E -> D"),
            ("CyclicInheritance", "B", "inheritance cycle: B -> C -> B"),
        ]

    def test_a_cycle_met_first_is_reported_first_though_declared_later(self):
        # d's walk reaches c1-c2 before x1's finds x1-x2; refinement cycles
        # would come out the other way round, by their first member.
        model = AssetModel(assets=tuple(
            Asset(name, AssetKind.SYSTEM, parent=parent)
            for name, parent in (("d", "c1"), ("x1", "x2"), ("x2", "x1"),
                                 ("c1", "c2"), ("c2", "c1"))))
        assert [str(e) for e in check_structure(model)] == [
            "CyclicInheritance: inheritance cycle: c1 -> c2 -> c1",
            "CyclicInheritance: inheritance cycle: x1 -> x2 -> x1",
        ]

    def test_deterministic(self):
        model = AssetModel(
            assets=(
                Asset("A", AssetKind.SYSTEM),
                Asset("A", AssetKind.SYSTEM),
                Asset("B", AssetKind.INFORMATION, parent="Ghost"),
            ),
            associations=(Association("A", "A"),),
        )
        assert check_structure(model) == check_structure(model)

    def test_a_later_declaration_is_reported_only_as_a_duplicate(self):
        # A's last declaration would close the cycle A -> B -> A, but every
        # rule reads A's first declaration, a root.
        model = AssetModel(assets=(
            Asset("A", AssetKind.SYSTEM),
            Asset("B", AssetKind.SYSTEM, parent="A"),
            Asset("A", AssetKind.SYSTEM, parent="B"),
        ))
        assert [(e.code, e.message) for e in check_structure(model)] == [
            ("DuplicateAssetName", "asset name 'A' is declared more than once"),
        ]

    def test_index_and_lineage_read_the_first_declaration(self):
        assets = (
            Asset("", AssetKind.SYSTEM, parent="B"),
            Asset("A", AssetKind.SYSTEM),
            Asset("B", AssetKind.SYSTEM, parent="A"),
            Asset("A", AssetKind.SYSTEM, parent="B"),
            Asset("", AssetKind.SYSTEM),
        )
        model = AssetModel(assets=assets)
        assert list(model.index.items()) == [("A", assets[1]), ("B", assets[2])]
        assert model.lineage == Lineage(("A", "B"), ())

    def test_override_matrix_tightens_rules(self):
        cells = default_matrix()
        cells[(AssetKind.PEOPLE, AssetKind.PEOPLE)] = False
        model = AssetModel(
            assets=(
                Asset("Alice", AssetKind.PEOPLE),
                Asset("Bob", AssetKind.PEOPLE),
            ),
            associations=(
                Association("Alice", "Bob",
                            source_needs=frozenset({AccessNeed.INTERACT})),
            ),
            matrix=cells,
        )
        assert [e.code for e in check_structure(model)] == ["MatrixViolation"]

    def test_accepted_models_pass_a_direct_matrix_scan(self):
        model = _works_diary()
        assert check_structure(model) == []
        by_name = {a.name: a for a in model.assets}
        for assoc in model.associations:
            if assoc.source_needs:
                assert model.matrix[
                    (by_name[assoc.source].kind, by_name[assoc.target].kind)]
            if assoc.target_needs:
                assert model.matrix[
                    (by_name[assoc.target].kind, by_name[assoc.source].kind)]


def test_model_error_string_includes_code():
    model = AssetModel(assets=(
        Asset("X", AssetKind.SYSTEM),
        Asset("X", AssetKind.SYSTEM),
    ))
    assert str(check_structure(model)[0]).startswith("DuplicateAssetName:")


def test_multiplicities_are_documentation_only():
    model = AssetModel(
        assets=(Asset("A", AssetKind.SYSTEM), Asset("B", AssetKind.SYSTEM)),
        associations=(
            Association("A", "B", source_multiplicity="1",
                        target_multiplicity="1..*"),
        ),
    )
    assert check_structure(model) == []


@pytest.mark.parametrize("record, values", [
    (Association("A", "B", frozenset({AccessNeed.READ})),
     ("A", "B", frozenset({AccessNeed.READ}), frozenset(), None, None)),
    (Goal("G", GoalKind.GOAL), ("G", GoalKind.GOAL, "")),
    (Refinement("G", "R"), ("G", "R")),
    (ModelError("UnknownAsset", "A", "unknown"), ("UnknownAsset", "A", "unknown", "error")),
], ids=lambda value: type(value).__name__)
def test_records_are_named_tuples(record, values):
    """Each record equals the plain tuple of its values, and hashes as it does."""
    assert record == values and tuple(record) == values
    assert hash(record) == hash(values) and {record: 1}[values] == 1
    first = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, first, "Other")
    with pytest.raises(AttributeError):
        record.colour = "red"
    copied = record._replace(**{first: "Other"})
    assert type(copied) is type(record) and copied == ("Other", *values[1:])
    assert record == values


def test_warnings_doc_lists_every_structural_code():
    """docs/warnings.md's table of structural findings names exactly the codes
    the checks build: each ModelError's code literal, and index_names' four."""
    root = Path(__file__).resolve().parent.parent
    built = {f"{kind}{noun}Name" for kind in ("Empty", "Duplicate") for noun in ("Asset", "Goal")}
    for source in (root / "src" / "accesslint").glob("*.py"):
        for call in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if (isinstance(call, ast.Call) and getattr(call.func, "id", None) == "ModelError"
                    and isinstance(call.args[0], ast.Constant)):
                built.add(call.args[0].value)
    doc = (root / "docs" / "warnings.md").read_text(encoding="utf-8")
    section = doc.split("## Structural findings", 1)[1].split("\n## ", 1)[0]
    assert set(re.findall(r"^\| `(\w+)` +\|", section, re.MULTILINE)) == built
