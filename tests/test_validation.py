"""Need expansion, inheritance expansion, the validation branches, and the records."""

import copy
import pickle
from dataclasses import replace

import pytest

from accesslint.fixtures import load_fixture
from accesslint.goals import Goal, GoalGraph, GoalKind, Permission, PolicyStatement
from accesslint.model import (
    AccessNeed,
    Asset,
    AssetKind,
    AssetModel,
    Association,
    SecurityValue,
)
from accesslint.modelio import parse_model
from accesslint.validation import (
    AccessTriple,
    AccessWarning,
    ValidationReport,
    WarningKind,
    expand_hierarchy,
    expand_needs,
    validate_access,
)

import rule_oracle

R, W, X = AccessNeed.READ, AccessNeed.WRITE, AccessNeed.INTERACT


def _pair_model(subject_c=SecurityValue.NONE, resource_c=SecurityValue.NONE,
                subject_i=SecurityValue.NONE, resource_i=SecurityValue.NONE,
                needs=frozenset({R})) -> AssetModel:
    return AssetModel(
        assets=(
            Asset("Subj", AssetKind.SYSTEM, confidentiality=subject_c,
                  integrity=subject_i),
            Asset("Res", AssetKind.SYSTEM, confidentiality=resource_c,
                  integrity=resource_i),
        ),
        associations=(Association("Subj", "Res", source_needs=frozenset(needs)),),
    )


def _graph_allowing(*interactions) -> GoalGraph:
    statements = tuple(
        PolicyStatement("R0", subject, access, resource, Permission.ALLOW)
        for subject, access, resource in interactions)
    return GoalGraph(nodes=(Goal("R0", GoalKind.REQUIREMENT),), policy=statements)


def _graph_denying(*interactions) -> GoalGraph:
    statements = tuple(
        PolicyStatement("R0", subject, access, resource, Permission.DENY)
        for subject, access, resource in interactions)
    return GoalGraph(nodes=(Goal("R0", GoalKind.REQUIREMENT),), policy=statements)


class TestExpandNeeds:
    def test_works_diary_expands_to_two_triples(self):
        model, _ = load_fixture("works-diary")
        assert expand_needs(model) == [
            AccessTriple("Works Diary", R, "Diary Event"),
            AccessTriple("Works Diary", W, "Diary Event"),
        ]

    def test_association_without_needs_yields_nothing(self):
        model = AssetModel(
            assets=(Asset("A", AssetKind.SYSTEM), Asset("B", AssetKind.SYSTEM)),
            associations=(Association("A", "B"),),
        )
        assert expand_needs(model) == []

    def test_each_end_is_subject_of_its_own_needs(self):
        model = AssetModel(
            assets=(Asset("A", AssetKind.SYSTEM), Asset("B", AssetKind.SYSTEM)),
            associations=(
                Association("A", "B",
                            source_needs=frozenset({X}),
                            target_needs=frozenset({R})),
            ),
        )
        assert expand_needs(model) == [
            AccessTriple("A", X, "B"),
            AccessTriple("B", R, "A"),
        ]

    def test_output_sorted_by_subject_resource_access(self):
        model = AssetModel(
            assets=(
                Asset("Z", AssetKind.SYSTEM),
                Asset("A", AssetKind.SYSTEM),
                Asset("M", AssetKind.SYSTEM),
            ),
            associations=(
                Association("Z", "M", source_needs=frozenset({X, W, R})),
                Association("A", "M", source_needs=frozenset({W})),
            ),
        )
        assert expand_needs(model) == [
            AccessTriple("A", W, "M"),
            AccessTriple("Z", R, "M"),
            AccessTriple("Z", W, "M"),
            AccessTriple("Z", X, "M"),
        ]


def _chain_model() -> AssetModel:
    """A <- B <- C plus a resource read by A."""
    return AssetModel(
        assets=(
            Asset("A", AssetKind.SYSTEM),
            Asset("B", AssetKind.SYSTEM, parent="A"),
            Asset("C", AssetKind.SYSTEM, parent="B"),
            Asset("R", AssetKind.INFORMATION),
        ),
        associations=(Association("A", "R", source_needs=frozenset({R})),),
    )


class TestExpandHierarchy:
    def test_chain_closure_reaches_every_descendant(self):
        expanded = expand_hierarchy(_chain_model())
        assert expand_needs(expanded) == [
            AccessTriple("A", R, "R"),
            AccessTriple("B", R, "R"),
            AccessTriple("C", R, "R"),
        ]

    def test_original_model_is_untouched(self):
        model = _chain_model()
        expand_hierarchy(model)
        assert expand_needs(model) == [AccessTriple("A", R, "R")]

    def test_asset_without_parent_is_unchanged(self):
        model = AssetModel(
            assets=(Asset("A", AssetKind.SYSTEM), Asset("B", AssetKind.SYSTEM)),
            associations=(Association("A", "B", source_needs=frozenset({R})),),
        )
        assert expand_needs(expand_hierarchy(model)) == expand_needs(model)

    def test_resource_side_needs_are_not_inherited(self):
        # Other reads A; that says nothing about reading A's children.
        model = AssetModel(
            assets=(
                Asset("Other", AssetKind.SYSTEM),
                Asset("A", AssetKind.SYSTEM),
                Asset("B", AssetKind.SYSTEM, parent="A"),
            ),
            associations=(Association("Other", "A", source_needs=frozenset({R})),),
        )
        assert expand_needs(expand_hierarchy(model)) == [
            AccessTriple("Other", R, "A"),
        ]

    def test_inherited_need_on_self_is_dropped(self):
        # A reads B and B inherits from A: B cannot end up reading itself.
        model = AssetModel(
            assets=(
                Asset("A", AssetKind.SYSTEM),
                Asset("B", AssetKind.SYSTEM, parent="A"),
            ),
            associations=(Association("A", "B", source_needs=frozenset({R})),),
        )
        assert expand_needs(expand_hierarchy(model)) == [AccessTriple("A", R, "B")]

    def test_inherited_needs_merge_into_existing_association(self):
        model = AssetModel(
            assets=(
                Asset("A", AssetKind.SYSTEM),
                Asset("B", AssetKind.SYSTEM, parent="A"),
                Asset("T", AssetKind.SYSTEM),
            ),
            associations=(
                Association("A", "T", source_needs=frozenset({R})),
                Association("B", "T", source_needs=frozenset({W})),
            ),
        )
        expanded = expand_hierarchy(model)
        assert len(expanded.associations) == 2
        assert expand_needs(expanded) == [
            AccessTriple("A", R, "T"),
            AccessTriple("B", R, "T"),
            AccessTriple("B", W, "T"),
        ]

    def test_merges_onto_target_end_when_orientation_is_reversed(self):
        model = AssetModel(
            assets=(
                Asset("A", AssetKind.SYSTEM),
                Asset("B", AssetKind.SYSTEM, parent="A"),
                Asset("T", AssetKind.SYSTEM),
            ),
            associations=(
                Association("A", "T", source_needs=frozenset({R})),
                Association("T", "B", source_needs=frozenset({W})),
            ),
        )
        expanded = expand_hierarchy(model)
        assert len(expanded.associations) == 2
        assert set(expand_needs(expanded)) == {
            AccessTriple("A", R, "T"),
            AccessTriple("B", R, "T"),
            AccessTriple("T", W, "B"),
        }

    def test_an_inheritance_cycle_raises_its_finding(self):
        # A and B inherit from each other; T hangs off the ring at A.
        model = AssetModel(
            assets=(
                Asset("A", AssetKind.SYSTEM, parent="B"),
                Asset("B", AssetKind.SYSTEM, parent="A"),
                Asset("T", AssetKind.SYSTEM, parent="A"),
                Asset("R", AssetKind.SYSTEM),
            ),
            associations=(
                Association("A", "R", source_needs=frozenset({R})),
                Association("B", "R", source_needs=frozenset({W})),
            ),
        )
        message = ("^model fails check_structure: "
                   "CyclicInheritance: inheritance cycle: A -> B -> A$")
        with pytest.raises(ValueError, match=message):
            expand_hierarchy(model)
        with pytest.raises(ValueError, match=message):
            validate_access(model, GoalGraph())

    def test_a_cycle_beside_a_repeated_pair_raises_the_cycle(self):
        # A and B inherit from each other, and A - R is associated twice:
        # check_structure reports the cycle before the repeat.
        model = AssetModel(
            assets=(Asset("A", AssetKind.SYSTEM, parent="B"),
                    Asset("B", AssetKind.SYSTEM, parent="A"), Asset("R", AssetKind.SYSTEM)),
            associations=(Association("R", "A"), Association("A", "R", frozenset({R}))),
        )
        with pytest.raises(ValueError, match=r"^model fails check_structure: "
                                             r"CyclicInheritance: inheritance cycle: A -> B -> A$"):
            expand_hierarchy(model)

    def test_the_result_carries_its_triples_and_shares_the_index(self):
        model = _chain_model()
        expanded = expand_hierarchy(model)
        assert expanded._triples == tuple(expand_needs(expanded))
        assert expanded._index is model._index and expanded.lineage is model.lineage
        assert replace(expanded, matrix={})._triples is None
        assert pickle.loads(pickle.dumps(expanded))._triples == expanded._triples
        assert model._triples is None
        # C reads R upon two associations, one each way round: the model is
        # unsound, so it has no expansion to carry triples.
        repeated = replace(model, associations=model.associations + (
            Association("C", "R", frozenset({R})),
            Association("R", "C", target_needs=frozenset({R}))))
        with pytest.raises(ValueError, match=r"^model fails check_structure: DuplicateAssociation: "
                                             r"more than one association between 'R' and 'C'$"):
            expand_hierarchy(repeated)

    def test_gained_associations_are_whole_records(self, data_dir):
        for model in (_chain_model(),
                      parse_model((data_dir / "chain.json").read_bytes())[0]):
            expanded = expand_hierarchy(model).associations
            assert len(expanded) > len(model.associations)
            for assoc in expanded:  # a plain or a short tuple fails
                assert type(assoc) is Association and len(assoc) == 6
                assert assoc == type(assoc)(*assoc)

    def test_expanded_association_layout(self):
        # Kid is declared before its parent Top and after Q.  Top's read of
        # T merges onto the target end of T - Kid, whose multiplicities
        # stay; Kid's new pairs follow resource declaration, not
        # association order; A and B gain needs upon each other.
        model = AssetModel(
            assets=(
                Asset("Q", AssetKind.SYSTEM),
                Asset("Kid", AssetKind.SYSTEM, parent="Top"),
                Asset("Top", AssetKind.SYSTEM),
                Asset("PA", AssetKind.SYSTEM),
                Asset("A", AssetKind.SYSTEM, parent="PA"),
                Asset("PB", AssetKind.SYSTEM),
                Asset("B", AssetKind.SYSTEM, parent="PB"),
                Asset("T", AssetKind.SYSTEM),
            ),
            associations=(
                Association("T", "Kid", frozenset({W}), source_multiplicity="1",
                            target_multiplicity="*"),
                Association("PA", "B", frozenset({R})),
                Association("PB", "A", frozenset({W})),
                Association("Top", "T", frozenset({R})),
                Association("Top", "PB", frozenset({R})),
                Association("Top", "Q", frozenset({X})),
            ),
        )
        assert expand_hierarchy(model).associations == (
            Association("T", "Kid", frozenset({W}), frozenset({R}), "1", "*"),
            *model.associations[1:],
            Association("Kid", "Q", frozenset({X})),
            Association("Kid", "PB", frozenset({R})),
            Association("A", "B", frozenset({R}), frozenset({W})),
        )


class TestValidateBranches:
    def test_low_resource_read_by_none_subject_is_read_up(self):
        model = _pair_model(subject_c=SecurityValue.NONE,
                            resource_c=SecurityValue.LOW, needs={R})
        report = validate_access(model, _graph_allowing(("Subj", R, "Res")))
        assert [w.kind for w in report.warnings] == [WarningKind.NO_READ_UP]

    def test_write_to_higher_integrity_resource_is_write_up(self):
        model = _pair_model(subject_i=SecurityValue.LOW,
                            resource_i=SecurityValue.MEDIUM, needs={W})
        report = validate_access(model, _graph_allowing(("Subj", W, "Res")))
        assert [w.kind for w in report.warnings] == [WarningKind.NO_WRITE_UP]

    def test_equal_levels_raise_nothing(self):
        model = _pair_model(subject_c=SecurityValue.MEDIUM,
                            resource_c=SecurityValue.MEDIUM,
                            subject_i=SecurityValue.LOW,
                            resource_i=SecurityValue.LOW, needs={R, W})
        report = validate_access(
            model, _graph_allowing(("Subj", R, "Res"), ("Subj", W, "Res")))
        assert report.warnings == ()

    def test_denied_need_is_unauthorised(self):
        model = _pair_model(needs={R})
        report = validate_access(model, _graph_denying(("Subj", R, "Res")))
        assert [w.kind for w in report.warnings] == [WarningKind.UNAUTHORISED_ACCESS]

    def test_allow_wins_when_an_unchecked_graph_also_denies(self):
        model = _pair_model(needs={R})
        graph = GoalGraph(
            nodes=(Goal("R", GoalKind.REQUIREMENT),),
            policy=(
                PolicyStatement("R", "Subj", R, "Res", Permission.DENY),
                PolicyStatement("R", "Subj", R, "Res", Permission.ALLOW),
            ),
        )
        assert validate_access(model, graph).warnings == ()

    def test_unmentioned_need_is_undefined(self):
        model = _pair_model(needs={R})
        report = validate_access(model, GoalGraph())
        assert [w.kind for w in report.warnings] == [WarningKind.UNDEFINED_ACCESS]

    def test_interact_never_raises_level_warnings(self):
        model = _pair_model(subject_c=SecurityValue.NONE,
                            resource_c=SecurityValue.HIGH,
                            subject_i=SecurityValue.HIGH,
                            resource_i=SecurityValue.NONE, needs={X})
        report = validate_access(model, _graph_allowing(("Subj", X, "Res")))
        assert report.warnings == ()

    def test_read_and_write_can_each_raise_two_warnings(self):
        model = _pair_model(subject_c=SecurityValue.NONE,
                            resource_c=SecurityValue.HIGH,
                            subject_i=SecurityValue.HIGH,
                            resource_i=SecurityValue.NONE, needs={R})
        report = validate_access(model, _graph_allowing(("Subj", R, "Res")))
        assert [w.kind for w in report.warnings] == [
            WarningKind.NO_READ_UP, WarningKind.NO_READ_DOWN]

    def test_messages_embed_the_triple(self):
        model = _pair_model(needs={R})
        report = validate_access(model, GoalGraph())
        message = report.warnings[0].message
        assert "Subj" in message and "read" in message and "Res" in message
        assert message.startswith("Undefined access")

    def test_matches_oracle_on_pyramid(self):
        model, graph = load_fixture("pyramid")
        report = validate_access(model, graph)
        got = [(w.kind.value, w.triple.subject, w.triple.access.value,
                w.triple.resource) for w in report.warnings]
        assert got == rule_oracle.validate(model, graph)

    def test_summary_and_rule_results_follow_the_warnings(self):
        model, graph = load_fixture("pyramid")
        report = validate_access(model, graph)
        assert report.summary[WarningKind.UNDEFINED_ACCESS] == 6
        assert report.summary[WarningKind.NO_READ_UP] == 1
        assert report.summary[WarningKind.NO_WRITE_UP] == 1
        assert report.summary[WarningKind.NO_WRITE_DOWN] == 0
        assert report.rule_results == {
            "simpleSecurity": True,
            "starProperty": False,
            "simpleIntegrity": True,
            "integrityStar": False,
            "absentPolicies": True,
        }


def test_an_allowed_need_upon_an_undeclared_asset_raises_value_error():
    model = AssetModel(assets=(Asset("A", AssetKind.SYSTEM),),
                       associations=(Association("A", "Gh'ost", frozenset({R})),))
    # Undefined and denied needs read no asset, and raise all the same.
    for graph in (_graph_allowing(("A", R, "Gh'ost")), _graph_denying(("A", R, "Gh'ost"))):
        with pytest.raises(ValueError, match=r"^model fails check_structure: UnknownAsset: "
                                             r"association end references unknown asset 'Gh\\'ost'$"):
            validate_access(model, graph)


def test_replace_drops_the_soundness_parse_model_recorded():
    model, graph = load_fixture("works-diary")
    validate_access(model, graph)
    name = model.assets[0].name
    looped = replace(model, associations=model.associations + (
        Association(name, name, frozenset({R})),))
    with pytest.raises(ValueError, match=r"^model fails check_structure: SelfAssociation: "):
        validate_access(looped, graph)


class TestRecordContract:
    """Triples and warnings are tuples; the five plain enums hash by identity."""

    triple = AccessTriple("Works Diary", R, "Diary Event")
    warning = AccessWarning(WarningKind.NO_READ_UP, triple)

    def test_equal_records_hash_equal_and_key_dicts(self):
        twin = AccessWarning(WarningKind.NO_READ_UP, AccessTriple("Works Diary", R, "Diary Event"))
        assert twin == self.warning and hash(twin) == hash(self.warning)
        assert twin.triple is not self.triple and hash(twin.triple) == hash(self.triple)
        table = {self.warning: 1, self.triple: 2}
        assert table[twin] == 1 and table[twin.triple] == 2
        assert AccessTriple("Works Diary", W, "Diary Event") not in table

    def test_records_equal_the_plain_tuples_of_their_values(self):
        assert self.triple == ("Works Diary", R, "Diary Event")
        assert self.warning == (WarningKind.NO_READ_UP, ("Works Diary", R, "Diary Event"))
        assert hash(self.triple) == hash(("Works Diary", R, "Diary Event"))
        assert self.triple + (Permission.ALLOW,) == ("Works Diary", R, "Diary Event",
                                                     Permission.ALLOW)
        assert ValidationReport((self.warning,)) == ((self.warning,),)

    def test_texts_are_pinned(self):
        assert str(self.triple) == "Works Diary --read--> Diary Event"
        assert self.warning.message == (
            "Potential no read-up violation: Works Diary --read--> Diary Event")
        assert repr(self.triple) == ("AccessTriple(subject='Works Diary', "
                                     "access=<AccessNeed.READ: 'read'>, resource='Diary Event')")
        assert repr(self.warning) == (
            "AccessWarning(kind=<WarningKind.NO_READ_UP: 'no_read_up'>, "
            f"triple={self.triple!r})")

    def test_records_are_immutable_and_copied_with_replace(self):
        with pytest.raises(AttributeError):
            self.triple.subject = "Other"
        with pytest.raises(TypeError):
            AccessWarning(WarningKind.NO_READ_UP, self.triple, "message")
        assert self.triple._replace(access=W) == ("Works Diary", W, "Diary Event")
        report = ValidationReport((self.warning,))
        with pytest.raises(AttributeError):
            report.warnings = ()
        assert report._replace(warnings=()) == ValidationReport() == ((),)

    def test_summary_counts_every_kind_in_declaration_order(self):
        undefined = AccessWarning(WarningKind.UNDEFINED_ACCESS, self.triple)
        summary = ValidationReport((undefined, self.warning, undefined)).summary
        assert list(summary) == list(WarningKind)
        assert summary[WarningKind.UNDEFINED_ACCESS] == 2
        assert summary[WarningKind.NO_READ_UP] == 1
        assert sum(summary.values()) == 3

    @pytest.mark.parametrize("enum", [AssetKind, AccessNeed, GoalKind, Permission, WarningKind])
    def test_enums_hash_by_identity_and_survive_copies(self, enum):
        for member in enum:
            assert type(member).__hash__ is object.__hash__
            assert pickle.loads(pickle.dumps(member)) is member
            assert copy.deepcopy(member) is member
