"""Goal-graph checks, statement lookup, and requirement tracing."""

import dataclasses
import pickle

import pytest

from accesslint.fixtures import load_fixture
from accesslint.goals import (
    MAX_TRACE_PATHS,
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
from accesslint.model import AccessNeed, Asset, AssetKind, AssetModel
from accesslint.validation import validate_access

REQ = GoalKind.REQUIREMENT


def _assets(*names: str) -> AssetModel:
    return AssetModel(assets=tuple(Asset(n, AssetKind.SYSTEM) for n in names))


def _statement(req="R", subject="S", access=AccessNeed.READ, resource="T",
               permission=Permission.ALLOW) -> PolicyStatement:
    return PolicyStatement(req, subject, access, resource, permission)


class TestCheckGoalStructure:
    def test_two_edge_cycle_reported_once(self):
        graph = GoalGraph(
            nodes=(Goal("A", GoalKind.GOAL), Goal("B", GoalKind.GOAL)),
            refinements=(Refinement("A", "B"), Refinement("B", "A")),
        )
        errors = check_goal_structure(graph, _assets())
        assert [e.code for e in errors] == ["CyclicRefinement"]

    def test_self_refinement_is_a_cycle(self):
        graph = GoalGraph(
            nodes=(Goal("A", GoalKind.GOAL),),
            refinements=(Refinement("A", "A"),),
        )
        assert [e.code for e in check_goal_structure(graph, _assets())] \
            == ["CyclicRefinement"]

    def test_cycles_reported_by_first_member_though_a_later_one_is_met_first(self):
        # A walk up from d meets c1-c2 before x1-x2; inheritance cycles
        # would come out in that order, refinement cycles by first member.
        graph = GoalGraph(
            nodes=tuple(Goal(name, GoalKind.GOAL) for name in ("d", "x1", "x2", "c1", "c2")),
            refinements=tuple(Refinement(*edge) for edge in (
                ("c1", "d"), ("x2", "x1"), ("x1", "x2"), ("c2", "c1"), ("c1", "c2"))),
        )
        assert [str(e) for e in check_goal_structure(graph, _assets())] == [
            "CyclicRefinement: refinement cycle: x1 -> x2 -> x1",
            "CyclicRefinement: refinement cycle: c1 -> c2 -> c1",
        ]

    def test_conflicting_permissions_reported_once(self):
        graph = GoalGraph(
            nodes=(Goal("R", REQ),),
            policy=(
                _statement(permission=Permission.ALLOW),
                _statement(permission=Permission.DENY),
            ),
        )
        errors = check_goal_structure(graph, _assets("S", "T"))
        assert [e.code for e in errors] == ["ConflictingPermission"]

    def test_pyramid_fixture_graph_is_clean(self):
        model, graph = load_fixture("pyramid")
        assert check_goal_structure(graph, model) == []

    def test_duplicate_goal_name(self):
        graph = GoalGraph(nodes=(Goal("G", GoalKind.GOAL), Goal("G", REQ)))
        assert [e.code for e in check_goal_structure(graph, _assets())] \
            == ["DuplicateGoalName"]

    def test_unknown_refinement_endpoint(self):
        graph = GoalGraph(
            nodes=(Goal("G", GoalKind.GOAL),),
            refinements=(Refinement("G", "Ghost"),),
        )
        assert [e.code for e in check_goal_structure(graph, _assets())] \
            == ["UnknownGoal"]

    def test_duplicate_refinement_edge(self):
        graph = GoalGraph(
            nodes=(Goal("G", GoalKind.GOAL), Goal("R", REQ)),
            refinements=(Refinement("G", "R"), Refinement("G", "R")),
        )
        errors = check_goal_structure(graph, _assets())
        codes = [e.code for e in errors if e.severity == "error"]
        assert codes == ["DuplicateRefinement"]

    def test_requirement_cannot_be_refined_by_goal(self):
        graph = GoalGraph(
            nodes=(Goal("R", REQ), Goal("G", GoalKind.GOAL)),
            refinements=(Refinement("R", "G"),),
        )
        errors = check_goal_structure(graph, _assets())
        assert [e.code for e in errors if e.severity == "error"] \
            == ["RequirementAboveGoal"]

    def test_requirement_refining_requirement_is_fine(self):
        graph = GoalGraph(
            nodes=(Goal("Parent", REQ), Goal("Child", REQ)),
            refinements=(Refinement("Parent", "Child"),),
            policy=(_statement(req="Child"),),
        )
        assert check_goal_structure(graph, _assets("S", "T")) == []

    def test_statement_with_unknown_requirement(self):
        graph = GoalGraph(policy=(_statement(req="Ghost"),))
        errors = check_goal_structure(graph, _assets("S", "T"))
        assert [e.code for e in errors] == ["UnknownRequirement"]

    def test_statement_owned_by_goal_kind_node(self):
        graph = GoalGraph(
            nodes=(Goal("G", GoalKind.GOAL),),
            policy=(_statement(req="G"),),
        )
        errors = check_goal_structure(graph, _assets("S", "T"))
        assert [e.code for e in errors] == ["NotARequirement"]

    def test_statement_with_unknown_assets(self):
        graph = GoalGraph(nodes=(Goal("R", REQ),), policy=(_statement(),))
        errors = check_goal_structure(graph, _assets())
        assert [e.code for e in errors if e.code == "UnknownAsset"] \
            == ["UnknownAsset", "UnknownAsset"]

    def test_duplicate_statement_rejected(self):
        graph = GoalGraph(
            nodes=(Goal("R", REQ), Goal("R2", REQ)),
            policy=(_statement(req="R"), _statement(req="R2")),
        )
        errors = check_goal_structure(graph, _assets("S", "T"))
        codes = [e.code for e in errors if e.severity == "error"]
        assert codes == ["DuplicateStatement"]

    def test_leaf_requirement_without_policy_is_a_warning(self):
        graph = GoalGraph(nodes=(Goal("R", REQ),))
        findings = check_goal_structure(graph, _assets())
        assert [(f.code, f.severity) for f in findings] \
            == [("RequirementWithoutPolicy", "warning")]

    def test_refined_requirement_without_policy_is_not_flagged(self):
        graph = GoalGraph(
            nodes=(Goal("Parent", REQ), Goal("Child", REQ)),
            refinements=(Refinement("Parent", "Child"),),
            policy=(_statement(req="Child"),),
        )
        assert check_goal_structure(graph, _assets("S", "T")) == []


@pytest.fixture(scope="module")
def pyramid():
    return load_fixture("pyramid")


class TestLookupStatement:
    def test_exact_match(self, pyramid):
        _, graph = pyramid
        stmt = lookup_statement(graph, "Participant", AccessNeed.WRITE,
                                "Delivery Interaction", Permission.ALLOW)
        assert stmt is not None
        assert stmt.requirement == "Participant interaction"

    def test_no_row_for_different_access(self, pyramid):
        _, graph = pyramid
        assert lookup_statement(graph, "Participant", AccessNeed.INTERACT,
                                "Delivery Interaction", Permission.ALLOW) is None

    def test_write_only_statement_does_not_match_read(self, pyramid):
        _, graph = pyramid
        assert lookup_statement(graph, "Distribution Capability", AccessNeed.READ,
                                "Delivery Item", Permission.ALLOW) is None

    def test_permission_is_part_of_the_key(self):
        graph = GoalGraph(nodes=(Goal("R", REQ),), policy=(_statement(),))
        assert lookup_statement(graph, "S", AccessNeed.READ, "T",
                                Permission.DENY) is None

    def test_duplicates_resolve_to_the_first_in_document_order(self):
        graph = GoalGraph(
            nodes=(Goal("R", REQ), Goal("R2", REQ)),
            policy=(_statement(req="R"), _statement(req="R2")),
        )
        found = lookup_statement(graph, "S", AccessNeed.READ, "T", Permission.ALLOW)
        assert found is graph.policy[0]

    def test_replaced_graph_sees_its_own_policy(self):
        graph = GoalGraph(nodes=(Goal("R", REQ),), policy=(_statement(),))
        assert lookup_statement(graph, "S", AccessNeed.READ, "T",
                                Permission.ALLOW) is graph.policy[0]
        denying = dataclasses.replace(
            graph, policy=(_statement(permission=Permission.DENY),))
        assert lookup_statement(denying, "S", AccessNeed.READ, "T",
                                Permission.ALLOW) is None
        assert lookup_statement(denying, "S", AccessNeed.READ, "T",
                                Permission.DENY) is denying.policy[0]
        # The index is not a field: equality and repr see only the policy.
        assert graph == GoalGraph(nodes=(Goal("R", REQ),), policy=(_statement(),))
        assert repr(graph) == repr(GoalGraph(nodes=graph.nodes, policy=graph.policy))

    def test_only_a_graph_stating_an_interaction_twice_is_scanned(self):
        class Scanned(tuple):
            def __iter__(self):
                scans.append(self)
                return super().__iter__()

        scans, deny = [], Permission.DENY
        sound = GoalGraph(policy=Scanned((_statement(), _statement(resource="U", permission=deny))))
        assert lookup_statement(sound, "S", AccessNeed.READ, "T", deny) is None
        assert lookup_statement(sound, "S", AccessNeed.READ, "U", deny) is sound.policy[1]
        assert scans == []
        # The allow hides the denies after it from the index; a scan finds the first.
        unsound = GoalGraph(policy=Scanned((
            _statement(), _statement(req="R2", permission=deny), _statement(permission=deny))))
        assert lookup_statement(unsound, "S", AccessNeed.READ, "T", deny) is unsound.policy[1]
        assert scans == [unsound.policy]


class TestSharedIndexes:
    """A graph's indexes are read-only views, so no caller can change a later result."""

    def test_a_mutation_raises_and_changes_nothing(self):
        model, graph = load_fixture("pyramid")
        statement = graph.policy[0]
        report, paths = validate_access(model, graph), trace(graph, statement)
        child = next(iter(graph.parents))
        with pytest.raises(TypeError):
            graph.parents[child] = ("Bogus",)
        with pytest.raises(TypeError):
            del graph.policy_index[(statement.subject, statement.access, statement.resource)]
        with pytest.raises(AttributeError):
            graph.parents[child].append("Bogus")  # the parents come as a tuple
        with pytest.raises(AttributeError):
            graph.policy_index.clear()
        assert type(graph.parents[child]) is tuple
        assert trace(graph, statement) == paths
        assert validate_access(model, graph) == report

    def test_views_show_the_indexes_and_pickle_with_the_graph(self):
        _, graph = load_fixture("pyramid")
        assert dict(graph.policy_index) == graph._policy_index
        assert dict(graph.parents) == graph._parents
        assert pickle.loads(pickle.dumps(graph)) == graph


class TestTrace:
    def test_pyramid_statement_traces_to_root(self):
        _, graph = load_fixture("pyramid")
        stmt = lookup_statement(graph, "Distribution Capability", AccessNeed.WRITE,
                                "Delivery Item", Permission.ALLOW)
        assert trace(graph, stmt) == [
            ["Distribute data", "Capture requirements for data distribution"],
        ]

    def test_unrefined_requirement_yields_single_element_path(self):
        graph = GoalGraph(nodes=(Goal("R", REQ),), policy=(_statement(),))
        assert trace(graph, graph.policy[0]) == [["R"]]

    def test_diamond_yields_two_paths_in_document_order(self):
        # G refines into P1 and P2; both refine into requirement R.
        graph = GoalGraph(
            nodes=(
                Goal("G", GoalKind.GOAL),
                Goal("P1", GoalKind.GOAL),
                Goal("P2", GoalKind.GOAL),
                Goal("R", REQ),
            ),
            refinements=(
                Refinement("G", "P1"),
                Refinement("G", "P2"),
                Refinement("P1", "R"),
                Refinement("P2", "R"),
            ),
            policy=(_statement(),),
        )
        assert trace(graph, graph.policy[0]) == [
            ["R", "P1", "G"],
            ["R", "P2", "G"],
        ]

    def test_chain_deeper_than_the_recursion_limit(self):
        depth = 1200
        names = [f"G{i}" for i in range(depth)]
        graph = GoalGraph(
            nodes=tuple(Goal(n, GoalKind.GOAL) for n in names[:-1]) + (Goal("R", REQ),),
            refinements=tuple(Refinement(parent, child) for parent, child
                              in zip(names, names[1:-1] + ["R"])),
            policy=(_statement(),),
        )
        assert trace(graph, graph.policy[0]) == [["R"] + names[-2::-1]]

    @staticmethod
    def _stacked_diamonds(count: int) -> GoalGraph:
        # Level i: goal T{i} refines into L{i} and R{i}, both of which
        # refine into T{i+1}; the bottom one is the requirement R.
        tops = [f"T{i}" for i in range(count)] + ["R"]
        refinements = []
        for i in range(count):
            for side in (f"L{i}", f"R{i}"):
                refinements += [Refinement(tops[i], side), Refinement(side, tops[i + 1])]
        sides = [f"{s}{i}" for i in range(count) for s in "LR"]
        return GoalGraph(
            nodes=tuple(Goal(n, GoalKind.GOAL) for n in tops[:-1] + sides)
            + (Goal("R", REQ),),
            refinements=tuple(refinements),
            policy=(_statement(),),
        )

    def test_thirteen_stacked_diamonds_trace_every_path_in_order(self):
        graph = self._stacked_diamonds(13)

        def paths_up(node):  # depth first, parents in document order
            ups = graph.parents.get(node, [])
            return [[node] + path for up in ups for path in paths_up(up)] or [[node]]

        paths = trace(graph, graph.policy[0])
        assert len(paths) == 8192 <= MAX_TRACE_PATHS
        assert paths == paths_up("R")

    def test_fourteen_stacked_diamonds_raise(self):
        graph = self._stacked_diamonds(14)
        with pytest.raises(ValueError) as info:
            trace(graph, graph.policy[0])
        assert str(info.value) == "more than 10000 refinement paths from requirement 'R'"

    @staticmethod
    def _under_roots(count: int) -> GoalGraph:
        # Requirement R refined from count root goals: one path per root.
        roots = [f"G{i}" for i in range(count)]
        return GoalGraph(
            nodes=tuple(Goal(n, GoalKind.GOAL) for n in roots) + (Goal("R", REQ),),
            refinements=tuple(Refinement(root, "R") for root in roots),
            policy=(_statement(),),
        )

    def test_exactly_max_trace_paths_are_returned(self):
        graph = self._under_roots(MAX_TRACE_PATHS)
        assert MAX_TRACE_PATHS == 10_000
        assert trace(graph, graph.policy[0]) == [["R", f"G{i}"] for i in range(10_000)]

    def test_one_path_past_max_trace_paths_raises(self):
        graph = self._under_roots(MAX_TRACE_PATHS + 1)
        with pytest.raises(ValueError) as info:
            trace(graph, graph.policy[0])
        assert str(info.value) == "more than 10000 refinement paths from requirement 'R'"

    def test_every_consecutive_pair_is_a_refinement_edge(self):
        _, graph = load_fixture("pyramid")
        edges = {(r.child, r.parent) for r in graph.refinements}
        for stmt in graph.policy:
            for path in trace(graph, stmt):
                assert path[0] == stmt.requirement
                for child, parent in zip(path, path[1:]):
                    assert (child, parent) in edges
