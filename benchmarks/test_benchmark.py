"""Tests of the benchmark harness at tiny sizes.

Run with ``PYTHONPATH=src python -m pytest benchmarks``.  Each workload runs
with no failed check, the printed metric names match BENCHMARK.json, and
every kind of check fails when handed a corrupted result.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from time import sleep

import numpy as np
import pytest

import run
import workloads as wl
from tracing import Recorder, layer_summary, self_times

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One traced tiny run of every workload (two passes each)."""
    out = {}
    for name in run.WORKLOAD_NAMES:
        scratch = tmp_path_factory.mktemp(name) / "scratch"
        out[name] = run.run(name, seed=3, seconds=0, trace=True, scratch=scratch, tiny=True)
    return out


@pytest.fixture(scope="module")
def exact_pass(tmp_path_factory):
    inp = wl.exact_inputs(5, tmp_path_factory.mktemp("exact"), tiny=True)
    return inp, wl.exact_run(Recorder(), inp)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_workload_passes_every_check(traced, name):
    res = traced[name]
    assert res["attempted"] > 0
    assert res["failures"] == []
    assert len(res["pass_times"]) >= 1


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_per_layer_names_match_benchmark_json(traced, name):
    declared = [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]]
    units = run.per_layer_units()
    assert [(n, units[n][0]) for n in traced[name]["per_layer"]] == declared


def test_end_to_end_names_match_benchmark_json(traced):
    declared = [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]]
    assert [(n, u) for n, (u, _) in run.END_TO_END.items()] == declared
    values = run.end_to_end(0.5, traced["sim"])
    assert list(values) == [n for n, _ in declared]
    assert all(v > 0 for v in values.values())
    assert values["checks_passed_frac"] == 1.0


def test_experiment_ids_match_the_cli():
    from switchlab import cli

    assert run.EXPERIMENT_IDS == tuple(cli.EXPERIMENT_IDS)


def test_benchmark_json_lists_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOAD_NAMES)
    assert BENCHMARK["command"] == ["python3", "benchmarks/run.py"]


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_self_times_add_up_to_the_traced_pass(traced, name):
    m = traced[name]["per_layer"]
    busy = sum(m[f"{layer}.busy_s"] for layer in run.LAYERS)
    assert m["trace.pass_s"] > 0
    # medians of sums need not add up exactly across passes; the tiny runs
    # make two passes, one of them traced, so they do here
    assert busy + m["trace.unattributed_s"] == pytest.approx(m["trace.pass_s"], rel=1e-9)
    assert m["trace.unattributed_s"] < 0.05 * m["trace.pass_s"] + 1e-3


def test_layers_the_workload_calls_are_busy(traced):
    assert traced["artifacts"]["per_layer"]["cli.calls"] == 11
    assert traced["sim"]["per_layer"]["contention.simulate_crossbar.port_slots_per_s"] > 0
    assert traced["sim"]["per_layer"]["deflection.simulate_deflection.delivered_frac"] > 0.9
    exact = traced["exact"]["per_layer"]
    for layer in ("pathswitch", "sched", "matching", "graphcode"):
        assert exact[f"{layer}.busy_s"] > 0
        assert exact[f"{layer}.errors"] == 0
    assert exact["contention.calls"] == 0 and exact["cli.calls"] == 0
    assert exact["graphcode.flip_decode.success_frac"] == 1.0


def test_missing_sources_exit_nonzero_without_a_result(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "sim", "--seed", "0", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""


# --- tracing -------------------------------------------------------------------

def test_raising_call_is_counted_and_skips_its_dependants():
    rec = Recorder()
    rec.trace = True
    rec.pass_id = 0
    with rec.span("pass"):
        first = rec.call("pathswitch.bvn_decompose", lambda: 1 / 0)
        second = rec.call("pathswitch.reconstruct", lambda x: x, first)
    assert first is None and second is None
    assert rec.raised == 1
    assert [s["name"] for s in rec.spans] == ["pass", "pathswitch.bvn_decompose"]
    assert rec.spans[1]["error"] and rec.spans[1]["parent"] == 0


def test_self_time_subtracts_children():
    spans = [
        {"id": 0, "parent": None, "pass": 0, "name": "pass", "start": 0.0, "end": 10.0, "error": False},
        {"id": 1, "parent": 0, "pass": 0, "name": "sched.smoothness", "start": 1.0, "end": 4.0, "error": False},
        {"id": 2, "parent": 1, "pass": 0, "name": "matching.hall_check", "start": 2.0, "end": 3.0,
         "error": True},
    ]
    assert self_times(spans) == {0: 7.0, 1: 2.0, 2: 1.0}
    summary = layer_summary(spans, {}, {"sched": ("smoothness",), "matching": ("hall_check",)}, {})
    assert summary["sched.busy_s"] == 2.0 and summary["matching.busy_s"] == 1.0
    assert summary["matching.errors"] == 1 and summary["sched.share"] == 0.2
    assert summary["trace.unattributed_s"] == 7.0 and summary["trace.pass_s"] == 10.0


# --- each kind of check fails on a corrupted result ----------------------------

def test_swapped_pair_in_pi_fails():
    pi = list(range(8))
    realized = pi[:]
    realized[2], realized[5] = realized[5], realized[2]
    assert wl.ok_same_permutation(pi, pi)
    assert not wl.ok_same_permutation(realized, pi)


def test_csv_with_one_byte_changed_fails(tmp_path):
    (tmp_path / "a.csv").write_text("# experiment: a\nx,y\n1,2\n")
    before = wl.csv_digests(tmp_path)
    (tmp_path / "a.csv").write_text("# experiment: a\nx,y\n1,3\n")
    after = wl.csv_digests(tmp_path)
    assert wl.ok_same_csvs(before, before, "a.csv")
    assert not wl.ok_same_csvs(before, after, "a.csv")


def test_failing_validate_row_and_exit_code_fail(tmp_path):
    inp = wl.ArtifactsInputs(seed=0, outdir=tmp_path, ids=("fig6",))
    res = {"experiments": {"fig6": (0, "")},
           "validate": (1, "check,status,detail\nwfq_trace,FAIL,P2\nfig6_rows,pass,\n")}
    checks = wl.Checks()
    obs = wl.artifacts_check(inp, res, {}, checks)
    assert sorted(checks.failures) == ["validate exits 0", "validate row wfq_trace"]
    assert obs["cli.validate.fail_rows"] == 1


def test_simulator_checks_fail_on_corrupted_results():
    from switchlab import contention, deflection

    xb = contention.simulate_crossbar(16, 1.0, 4000, seed=1)
    assert wl.ok_crossbar(xb)
    shifted = dataclasses.replace(xb, load=dataclasses.replace(xb.load, carried_load=xb.load.carried_load - 0.02))
    assert not wl.ok_crossbar(shifted)

    dsim = deflection.simulate_deflection(4, 30, 1.0, 300, seed=1)
    assert all(wl.ok_loss(dsim, length) for length in wl.LOSS_LENGTHS)
    late = np.zeros_like(dsim.exits_by_stage)
    late[-1] = dsim.exits_by_stage.sum()  # every packet exits at the last stage
    assert not wl.ok_loss(dataclasses.replace(dsim, exits_by_stage=late), 20)


def test_exact_checks_pass_then_fail_on_corrupted_results(exact_pass):
    inp, res = exact_pass
    checks = wl.Checks()
    wl.exact_check(inp, res, {}, checks)
    assert checks.failures == [] and checks.attempted > 10

    def failures_with(**changes):
        checks = wl.Checks()
        wl.exact_check(inp, {**res, **changes}, {}, checks)
        return checks.failures

    recon = [list(row) for row in res["reconstruction"]]
    recon[0][0] += 1
    assert failures_with(reconstruction=recon) == ["reconstruct equals the capacity"]

    report, report_2d = res["wfq"]
    assert failures_with(wfq=(dataclasses.replace(report, kraft_sum=1.1), report_2d)) == [
        "wfq: Kraft sum <= 1 and smoothness >= entropy"]
    assert failures_with(hurr=(report, None)) == ["hurr: smoothness_2d accepts the capacity"]

    realized = list(res["realized"])
    realized[0], realized[1] = realized[1], realized[0]
    assert failures_with(realized=realized) == ["Benes realizes pi"]
    assert failures_with(route_valid=False) == ["Clos route assignment verifies"]

    words = res["codewords"]
    assert failures_with(codewords=words[:-1]) == ["codewords closed under XOR"]

    sent, result = res["decodes"][0]
    wrong = dataclasses.replace(result, word=tuple(b ^ 1 for b in sent))
    assert failures_with(decodes=[(sent, wrong)] + res["decodes"][1:]) == ["every single-bit error decodes"]
    assert failures_with(weights=None) == ["state weights are positive and sum to one"]

    assert "allocation line sums equal m" in failures_with(allocation=res["allocation"] * 1.01)


def test_clos_oracle_rejects_swapped_central_modules(exact_pass):
    from switchlab import matching

    inp, _ = exact_pass
    tags = matching.clos_route_assignment(inp.clos_requests)
    assert matching.verify_route_assignment(inp.clos_requests, tags)
    n = inp.clos_requests.spec.n
    same_module = next(j for j in range(1, len(tags)) if tags[j].central != tags[0].central
                       and inp.clos_requests.pairs[j][0] // n == inp.clos_requests.pairs[0][0] // n)
    bad = list(tags)
    bad[0] = dataclasses.replace(tags[0], central=tags[same_module].central)
    assert not matching.verify_route_assignment(inp.clos_requests, bad)


def test_predictions_name_declared_metrics_and_workloads():
    predictions = json.loads((run.HERE / "predictions.json").read_text())
    declared = {m["name"] for m in BENCHMARK["per_layer"] + BENCHMARK["end_to_end"]}
    assert set(predictions["workloads"]) == set(run.WORKLOAD_NAMES)
    for p in predictions["predictions"]:
        assert set(p["per_layer"]) <= declared
        for table in (p["moves"], p["unchanged"]):
            for metric, names in table.items():
                assert metric in declared and set(names) <= set(run.WORKLOAD_NAMES)


def test_calibration_rescales_to_reference_host_speed():
    from calibration import BOTH, Calibrator, corrected

    ref = 0.05
    # at reference speed a time is unchanged; a slower loop around it scales it down
    assert corrected([1.0, 4.0], [ref, ref, 2 * ref], ref) == pytest.approx([1.0, 4.0 * 2 / 3])
    with pytest.raises(ValueError):
        corrected([1.0], [ref], ref)
    with Calibrator(("python",)) as part, Calibrator(BOTH) as whole:
        assert 0 < part.reference < whole.reference
        assert 0 < part.measure() and 0 < whole.measure()
        children = [part._child, whole._child]
    assert [c.returncode for c in children] == [0, 0]


def test_host_clock_corrects_segments_and_leaves_out_calibration():
    from calibration import SEGMENT_S, HostClock

    ref = 0.05

    class SlowingHost:  # each loop takes longer than the one before
        reference = ref

        def __init__(self):
            self.loops = iter([ref, ref, 3 * ref])

        def measure(self):
            sleep(0.01)
            return next(self.loops)

    clock = HostClock(SlowingHost())
    clock.start()
    clock.checkpoint()  # too soon after the start: no loop
    sleep(SEGMENT_S)
    clock.checkpoint()  # first segment at reference speed
    sleep(0.05)
    wall, reference = clock.stop()  # second segment at half speed on average
    first, second = clock._walls
    assert first >= SEGMENT_S and second >= 0.05 and wall == first + second
    assert reference == pytest.approx(first + second / 2)
    assert clock.paused >= 0.02
