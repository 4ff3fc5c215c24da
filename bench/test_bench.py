"""The benchmark's own tests: smoke runs, metric names, a negative control,
and the tracer's install/uninstall contract.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import shared

RUN = os.path.join(shared.BENCH_DIR, "run.py")
with open(os.path.join(shared.ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)


def _run(args, cwd=shared.ROOT):
    return subprocess.run([sys.executable, RUN] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def _result(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_emits_exactly_the_declared_metrics(workload, trace):
    proc = _run(["--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--smoke"])
    assert proc.returncode == 0, proc.stderr
    result = _result(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    facts = json.loads(proc.stdout.strip().splitlines()[-2])["facts"]
    assert facts["nproc"] and facts["python"] and facts["seed"] == 3


def test_tracer_names_match_benchmark_json():
    import tracer
    assert [name for name, _ in tracer.metric_names()] == [
        m["name"] for m in BENCHMARK["per_layer"]]
    names = [w["name"] for w in BENCHMARK["workloads"]]
    assert names == list(shared.WORKLOADS)


def _session_result(capsys, workload):
    import run
    code = run.main(["--workload", workload, "--seed", "5", "--seconds", "1",
                     "--smoke"])
    out = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(out[-1])


def test_wrong_expected_answer_counts_as_failure(monkeypatch, capsys):
    import cli_mix
    monkeypatch.setitem(cli_mix.HYPOTHESES, "crown", (True, True, 0))
    code, result = _session_result(capsys, "cli-mix")
    assert code == 1
    assert result["correct"] is False
    assert 1 <= result["failed"] < result["attempted"]


def test_wrong_ground_truth_fails_every_oracle_query(monkeypatch, capsys):
    monkeypatch.setattr(shared, "inner_class_count", lambda nfixed, field: 99)
    code, result = _session_result(capsys, "oracle-enum")
    assert code == 1
    assert result["failed"] == result["attempted"] >= 1


def test_tracer_restores_every_binding():
    import tracer
    shared.use_source_tree()
    import incalg.cli
    import incalg.involutions
    from incalg.fia import IncFn
    from incalg.idealization import DLinearMap
    from incalg.fields import PrimeField
    before = (incalg.cli.check_hypotheses, incalg.involutions.check_hypotheses,
              vars(IncFn)["__mul__"], vars(DLinearMap)["from_function"],
              vars(PrimeField)["add"], incalg.cli.main)
    tr = tracer.Tracer().install()
    try:
        assert incalg.cli.check_hypotheses is incalg.involutions.check_hypotheses
        assert incalg.cli.check_hypotheses is not before[0]
        assert vars(IncFn)["__mul__"] is not before[2]
    finally:
        tr.uninstall()
    after = (incalg.cli.check_hypotheses, incalg.involutions.check_hypotheses,
             vars(IncFn)["__mul__"], vars(DLinearMap)["from_function"],
             vars(PrimeField)["add"], incalg.cli.main)
    assert all(a is b for a, b in zip(before, after))


def test_tracer_self_time_excludes_nested_spans():
    import tracer
    shared.use_source_tree()
    import incalg.involutions as inv
    from incalg.fields import PrimeField
    from incalg.posets import Poset, PosetMap
    poset = Poset.from_json(shared.poset_json("diamond"))
    lam = PosetMap(poset, poset, shared.lambda_map("diamond", "flip"), anti=True)
    tr = tracer.Tracer().install()
    try:
        inv.classify(poset, lam, PrimeField(3))
    finally:
        tr.uninstall()
    m = tracer.to_metrics(tr.state)
    assert m["involutions.classify.calls"] == 1
    assert m["involutions.check_hypotheses.calls"] == 1
    assert m["involutions.classify.self_ms"] < m["involutions.classify.total_ms"]
    assert m["fia.mul.terms"] >= m["fia.IncFn.__mul__.calls"] > 0


def test_wrong_library_answer_fails_every_recognize_query(monkeypatch, capsys):
    shared.use_source_tree()
    import recognize_raw
    from incalg.involutions import base_involution, equivalent_inner

    def unconjugated(state, n):
        raw, rep = state["queries"][n]
        spec = base_involution(rep.alg, rep.lam, rep.k)
        return spec, equivalent_inner(spec, rep)
    monkeypatch.setattr(recognize_raw, "query", unconjugated)
    code, result = _session_result(capsys, "recognize-raw")
    assert code == 1
    assert result["failed"] == result["attempted"] >= 1


def test_same_seed_same_inputs_other_seed_other_inputs():
    import recognize_raw
    a = recognize_raw.generate(7, True)
    assert a == recognize_raw.generate(7, True)
    assert a != recognize_raw.generate(8, True)


def test_refuses_to_run_without_the_library_sources(tmp_path):
    shutil.copy(os.path.join(shared.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(shared.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "oracle-enum", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
