"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import io
import json
import random
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import oracle  # noqa: E402
import program  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

PYRAMID = program.SRC / "accesslint" / "data" / "pyramid.json"


def test_generator_is_deterministic_per_seed():
    def texts(seed):
        fleet = [d.text for d in gen.fleet(seed, 40, 20)]
        audit = gen.enterprise_draft(random.Random(seed), 60, 200).doc("a").text
        deep = gen.deep_doc(random.Random(seed), "d", (30, 10), 4).text
        return fleet, audit, deep

    assert texts(3) == texts(3)
    assert texts(3) != texts(4)


def test_generator_answers_agree_with_the_oracle():
    for doc in gen.fleet(9, 40, 20):
        doc.confirm()
    for seed in range(200):  # the smallest documents have the fewest pairs to spare
        gen.small_doc(random.Random(seed), "tiny", 5).confirm()
    gen.enterprise_draft(random.Random(9), 80, 300).doc("a").confirm()
    gen.deep_doc(random.Random(9), "d", (40, 20), 4).confirm()


def test_oracle_reproduces_the_pyramid_warnings():
    warnings = oracle.validate(json.loads(PYRAMID.read_text(encoding="utf-8")))
    assert len(warnings) == 8
    assert oracle.summary(warnings) == {
        "undefined_access": 6, "unauthorised_access": 0, "no_read_up": 1,
        "no_write_down": 0, "no_write_up": 1, "no_read_down": 0}
    assert ("no_read_up", "Formatting Rule", "read", "Data Item") in warnings
    assert ("no_write_up", "Participant", "write", "Delivery Interaction") in warnings


def test_oracle_checks_reject_wrong_reports():
    expected = [("undefined_access", "A 0001", "read", "B 0002"),
                ("no_read_up", "C 0003", "read", "B 0002")]
    text = ("undefined_access: A 0001 --read--> B 0002\n"
            "no_read_up: C 0003 --read--> B 0002\n\n"
            "Simple Security Property  Y\n*-Property                N\n"
            "Simple Integrity Property N\nIntegrity *-Property      N\n"
            "Absent policies           Y\n")
    assert oracle.check_text_report(text, expected) is None
    assert oracle.check_text_report(text.replace("A 0001", "A 0009"), expected)
    assert oracle.check_text_report(text.replace("Absent policies           Y",
                                                 "Absent policies           N"), expected)
    assert oracle.check_text_report(text, expected[:1])


def test_closure_inherits_ancestor_needs_but_not_needs_upon_self():
    data = {"assets": [{"name": "P", "kind": "system"},
                       {"name": "C", "kind": "system", "parent": "P"},
                       {"name": "R", "kind": "system"}],
            "associations": [{"source": "P", "target": "R", "sourceNeeds": ["read"]},
                             {"source": "P", "target": "C", "sourceNeeds": ["write"]}]}
    assert oracle.closure(data) == [("C", "read", "R"), ("P", "write", "C"), ("P", "read", "R")]


def test_fleet_invalid_documents_exit_two(tmp_path):
    modules = program.import_accesslint()
    invalid = [doc for doc in gen.fleet(11, 120, 20) if not doc.valid]
    assert len(invalid) == 6
    for doc in invalid:
        path = tmp_path / f"{doc.name}.json"
        path.write_text(doc.text, encoding="utf-8")
        for argv in (["validate", str(path)], ["check", str(path)],
                     ["export", str(path), "--view", "goal"]):
            err = io.StringIO()
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                code = modules["cli"].main(argv)
            assert code == 2, (doc.name, argv)
            assert doc.error in err.getvalue(), (doc.name, argv, err.getvalue())


def test_every_workload_runs_and_checks_clean(tmp_path):
    for name, cls in WORKLOADS.items():
        modules = program.import_accesslint()
        workload = cls(1, tmp_path, program.SRC)
        workloads.save(workload, tmp_path)
        runner = workloads.Runner(workloads.load(tmp_path))
        runner.workload.attach(modules["api"])
        for _ in range(3):
            runner.op()
        run.spawn_cold(runner)
        assert runner.failures == [], name


def test_setup_process_times_import_preparation_and_warm_up(tmp_path):
    built = run.run_child([str(run.CHILD), "build", "policy-churn", "3", str(tmp_path)])
    assert built.returncode == 0, built.stderr
    timed = run.run_child([str(run.CHILD), "setup", str(tmp_path)])
    assert timed.returncode == 0, timed.stderr
    parts = json.loads(timed.stdout.splitlines()[-1])
    assert parts["failures"] == []
    assert parts["attempted"] == workloads.PolicyChurn.warmup
    for part in ("import_s", "prepare_s", "warmup_s"):
        assert parts[part] > 0, part


def test_traced_ops_fill_every_per_layer_metric(tmp_path):
    modules = program.import_accesslint()
    runner = workloads.Runner(WORKLOADS["enterprise-audit"](2, tmp_path, program.SRC))
    runner.workload.attach(modules["api"])
    tracer = tracing.Tracer(modules)
    for _ in range(2):
        i = runner.prepare()
        with tracer:
            elapsed = runner.attempt(i)
        tracer.end_op(elapsed)
    assert runner.failures == []
    table = tracer.table(1.0)
    filled_by_run = {"raw.ops_per_s", "raw.op_p50_ms", "speed.probe_ms"}
    assert set(table) == set(tracing.PER_LAYER) - filled_by_run
    for metric in ("modelio.parse_ms", "validation.validate_access_ms", "goals.trace_ms",
                   "model.check_structure_ms", "goals.check_goal_structure_ms"):
        assert table[metric] > 0, metric
    assert table["validation.triples"] == workloads.AUDIT_NEEDS
    assert 0 < table["goals.lookup_hit_ratio"] < 1
    assert table["cli.calls"] == 0 and table["validation.calls"] == 2


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER


def test_without_the_program_the_benchmark_fails_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ci-fleet", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
