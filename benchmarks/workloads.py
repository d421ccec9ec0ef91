"""The benchmark's workloads: seeded inputs, one pass of calls into
switchlab, and the checks on what the pass returned.

A workload is a :class:`Workload` of four steps.  ``inputs`` builds
everything a pass needs from the seed (it is the timed set-up, together
with importing switchlab); ``prepare`` resets state between passes outside
the timed region; ``run`` is the timed pass and calls switchlab only
through :meth:`tracing.Recorder.call`; ``check`` compares the results, again
outside the timed region, and returns the per-pass observations that the
traced run reports per layer.

The ``ok_*`` functions are the comparisons themselves, kept pure so that
the benchmark's tests can hand them corrupted results.
"""

from __future__ import annotations

import hashlib
import io
import math
import random
import shutil
from contextlib import redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

from switchlab import cli, contention, deflection, graphcode, matching, pathswitch, sched
from switchlab.closmodel import ClosSpec
from switchlab.errors import PreconditionError

from calibration import BOTH
from tracing import Recorder


class Checks:
    """Tally of the comparisons made on call results."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(name)


@dataclass(frozen=True)
class Workload:
    inputs: Callable  # (seed, scratch dir, tiny) -> inputs
    prepare: Callable  # (inputs) -> None
    run: Callable  # (Recorder, inputs) -> results
    check: Callable  # (inputs, results, state dict, Checks) -> observations
    calibration: tuple[str, ...]  # the parts of the calibration loop that track its passes


def _no_prepare(inp) -> None:
    return None


# --- artifacts: every experiment id, then validate ------------------------------

@dataclass(frozen=True)
class ArtifactsInputs:
    seed: int
    outdir: Path
    ids: tuple[str, ...]


def artifacts_inputs(seed: int, scratch: Path, tiny: bool = False) -> ArtifactsInputs:
    # the experiments have fixed paper sizes, so there is no smaller variant
    return ArtifactsInputs(seed=seed, outdir=scratch / "artifacts", ids=tuple(cli.EXPERIMENT_IDS))


def artifacts_prepare(inp: ArtifactsInputs) -> None:
    # start each pass from an empty directory, so that a CSV an experiment
    # failed to write cannot pass as the previous pass's copy
    shutil.rmtree(inp.outdir, ignore_errors=True)
    inp.outdir.mkdir(parents=True)


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``cli.main(argv)`` with its standard output captured."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def artifacts_run(rec: Recorder, inp: ArtifactsInputs) -> dict:
    experiments = {
        exp: rec.call(f"cli.experiment.{exp}", run_cli,
                      ["experiment", exp, "--outdir", str(inp.outdir), "--seed", str(inp.seed)])
        for exp in inp.ids
    }
    validate = rec.call("cli.validate", run_cli, ["validate", "--outdir", str(inp.outdir)])
    return {"experiments": experiments, "validate": validate}


def validate_rows(text: str) -> list[tuple[str, str]]:
    """(check, status) of every row that ``switchlab validate`` printed."""
    lines = text.splitlines()
    if not lines or lines[0] != "check,status,detail":
        return []
    return [tuple(line.split(",", 2)[:2]) for line in lines[1:] if line]


def csv_digests(outdir: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(outdir.glob("*.csv"))}


def ok_same_csvs(reference: dict[str, str], current: dict[str, str], name: str) -> bool:
    return name in reference and reference[name] == current.get(name)


def artifacts_check(inp: ArtifactsInputs, res: dict, state: dict, checks: Checks) -> dict:
    for exp, out in res["experiments"].items():
        checks.expect(f"experiment {exp} exits 0", out is not None and out[0] == cli.EXIT_OK)
    out = res["validate"]
    checks.expect("validate exits 0", out is not None and out[0] == cli.EXIT_OK)
    rows = validate_rows(out[1]) if out is not None else []
    checks.expect("validate printed rows", bool(rows))
    for name, status in rows:
        checks.expect(f"validate row {name}", status == "pass")
    current = csv_digests(inp.outdir)
    reference = state.setdefault("csv_digests", current)
    if reference is not current:
        for name in sorted(set(reference) | set(current)):
            checks.expect(f"{name} byte-identical to the first pass", ok_same_csvs(reference, current, name))
    return {"cli.validate.fail_rows": sum(status != "pass" for _, status in rows)}


# --- sim: the Monte Carlo simulators at scale ----------------------------------

# (module size n, stages, offered load, slots): saturated and light load
DEFLECTION_CASES = ((16, 30, 1.0, 4000), (8, 30, 0.3, 8000))
# (ports N, offered load, slots); N = 512 sets the peak memory of the run
CROSSBAR_CASES = ((128, 1.0, 200_000), (512, 0.5, 50_000))
TINY_DEFLECTION_CASES = ((4, 30, 1.0, 300), (4, 30, 0.3, 300))
TINY_CROSSBAR_CASES = ((16, 1.0, 2000), (32, 0.5, 1000))
LOSS_LENGTHS = (10, 20, 30)


@dataclass(frozen=True)
class SimInputs:
    deflection: tuple[tuple, ...]  # cases, each with its seed appended
    crossbar: tuple[tuple, ...]


def sim_inputs(seed: int, scratch: Path, tiny: bool = False) -> SimInputs:
    dcases = TINY_DEFLECTION_CASES if tiny else DEFLECTION_CASES
    ccases = TINY_CROSSBAR_CASES if tiny else CROSSBAR_CASES
    seeds = [int(s) for s in np.random.SeedSequence(seed).generate_state(len(dcases) + len(ccases))]
    return SimInputs(
        deflection=tuple(c + (s,) for c, s in zip(dcases, seeds)),
        crossbar=tuple(c + (s,) for c, s in zip(ccases, seeds[len(dcases):])),
    )


def sim_run(rec: Recorder, inp: SimInputs) -> dict:
    return {
        "deflection": [
            rec.call("deflection.simulate_deflection", deflection.simulate_deflection,
                     n, stages, rho, slots, seed=s, work=slots * n * n * stages)
            for n, stages, rho, slots, s in inp.deflection
        ],
        "crossbar": [
            rec.call("contention.simulate_crossbar", contention.simulate_crossbar,
                     ports, rho, slots, seed=s, work=ports * slots)
            for ports, rho, slots, s in inp.crossbar
        ],
    }


def ok_crossbar(res: contention.CrossbarSimResult) -> bool:
    """Carried load within 5 standard errors of the analytic value; the
    standard error comes from the per-slot busy-count variance and the
    number of slots, as the acceptance suite's crossbar criterion does."""
    n = res.load.n_ports
    err = 5 * math.sqrt(res.busy_variance / res.slots) / n
    return abs(res.load.carried_load - contention.carried_load(res.load.offered_load, n)) <= err


def ok_loss(res: deflection.DeflectionSimResult, length: int) -> bool:
    """loss_after(L) <= loss_bound(rho, L) + 4 sigma, as the acceptance
    suite's deflection criterion does."""
    bound = deflection.loss_bound(res.rho, length)
    sigma = math.sqrt(bound * (1 - bound) / res.offered)
    return res.loss_after(length) <= bound + 4 * sigma


def exit_tv(res: deflection.DeflectionSimResult) -> float:
    """Total-variation distance between the simulated exit-stage law and
    the absorbing chain's, both conditioned on exit within the run."""
    par = deflection.DeflectionParams.from_rho(res.rho)
    model = deflection.absorption_series(par.p, par.q, res.stages).g_q[: res.stages + 1]
    return 0.5 * float(np.abs(res.exit_distribution() - model / model.sum()).sum())


def sim_check(inp: SimInputs, res: dict, state: dict, checks: Checks) -> dict:
    gaps, tvs, offered, exited = [], [], 0, 0
    for case, r in zip(inp.crossbar, res["crossbar"]):
        checks.expect(f"crossbar {case[:3]} carried load", r is not None and ok_crossbar(r))
        if r is not None:
            gaps.append(abs(r.load.carried_load - contention.carried_load(r.load.offered_load, r.load.n_ports)))
    for case, r in zip(inp.deflection, res["deflection"]):
        for length in LOSS_LENGTHS:
            if length <= case[1]:
                checks.expect(f"deflection {case[:4]} loss after {length}", r is not None and ok_loss(r, length))
        if r is not None:
            tvs.append(exit_tv(r))
            offered += r.offered
            exited += r.exited
    return {
        "contention.simulate_crossbar.carried_gap": max(gaps, default=0.0),
        "deflection.simulate_deflection.exit_tv": max(tvs, default=0.0),
        "deflection.simulate_deflection.delivered_frac": exited / offered if offered else 0.0,
    }


# --- exact: decomposition, schedulers, route assignment, graph codes ------------

# two orthogonal Latin squares per grid order; order 4 is the 16-variable
# code of the graph-code tests, order 3 its small stand-in for quick runs
LATIN_SQUARES = {
    4: ([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]],
        [[0, 1, 2, 3], [2, 3, 0, 1], [3, 2, 1, 0], [1, 0, 3, 2]]),
    3: ([[0, 1, 2], [1, 2, 0], [2, 0, 1]],
        [[0, 1, 2], [2, 0, 1], [1, 2, 0]]),
}
SCHEDULERS = (("wfq", sched.schedule_wfq), ("wf2q", sched.schedule_wf2q), ("hurr", sched.schedule_hurr))


def grid_code(order: int) -> graphcode.TannerCode:
    """order^2 variables on a grid; constraints are the rows, the columns
    and the symbol classes of two orthogonal Latin squares, so every
    variable has degree 4 and two variables share at most one constraint."""
    l1, l2 = LATIN_SQUARES[order]
    rows = [[0] * order**2 for _ in range(4 * order)]
    for i in range(order):
        for j in range(order):
            v = order * i + j
            rows[i][v] = 1
            rows[order + j][v] = 1
            rows[2 * order + l1[i][j]][v] = 1
            rows[3 * order + l2[i][j]][v] = 1
    return graphcode.TannerCode.from_rows(rows)


@dataclass(frozen=True)
class ExactInputs:
    traffic: pathswitch.TrafficMatrix
    modules: int
    frame: int
    benes_pi: list[int]
    clos_requests: matching.CallRequestSet
    code: graphcode.TannerCode
    graph: matching.BipartiteGraph
    code_picks: tuple[float, ...]  # which codewords to corrupt, as fractions of the list


def exact_inputs(seed: int, scratch: Path, tiny: bool = False) -> ExactInputs:
    k, m, frame, benes_n, clos_n, order = (6, 2, 16, 64, 4, 3) if tiny else (32, 4, 256, 4096, 64, 4)
    # the traffic matrix is drawn as the fig21 experiment draws one
    rng = np.random.default_rng(seed)
    lam = rng.uniform(0.2, 1.0, size=(k, k))
    lam *= 0.8 * m / max(lam.sum(axis=0).max(), lam.sum(axis=1).max())
    traffic = pathswitch.TrafficMatrix(tuple(map(tuple, lam)), ClosSpec(m=m, n=m, k=k))
    prng = random.Random(seed)
    benes_pi = list(range(benes_n))
    prng.shuffle(benes_pi)
    clos_pi = list(range(clos_n * clos_n))
    prng.shuffle(clos_pi)
    spec = ClosSpec(m=clos_n, n=clos_n, k=clos_n)
    code = grid_code(order)
    return ExactInputs(
        traffic=traffic,
        modules=m,
        frame=frame,
        benes_pi=benes_pi,
        clos_requests=matching.CallRequestSet.from_permutation(clos_pi, spec),
        code=code,
        graph=code.graph(),
        code_picks=tuple(prng.random() for _ in range(8 if tiny else 32)),
    )


def state_weights(dec: pathswitch.Decomposition) -> sched.WeightSet | None:
    """The decomposition's state weights as the schedulers' input, or
    ``None`` when they do not form a weight set (the check on them fails).
    Building it is input set-up, not a layer call, so it is not timed apart."""
    try:
        return sched.WeightSet(tuple(w for _, w in dec.states))
    except PreconditionError:
        return None


def exact_run(rec: Recorder, inp: ExactInputs) -> dict:
    res: dict = {}
    res["allocation"] = cap = rec.call("pathswitch.allocate_capacity", pathswitch.allocate_capacity, inp.traffic)
    res["rounding"] = rounding = rec.call("pathswitch.bandlimit_and_round", pathswitch.bandlimit_and_round,
                                          cap, inp.frame, modules=inp.modules)
    rounded = rounding[0] if rounding is not None else None
    res["decomposition"] = dec = rec.call("pathswitch.bvn_decompose", pathswitch.bvn_decompose, rounded)
    res["reconstruction"] = rec.call("pathswitch.reconstruct", pathswitch.Decomposition.reconstruct, dec)
    res["weights"] = weights = state_weights(dec) if dec is not None else None
    for name, scheduler in SCHEDULERS:
        seq = rec.call(f"sched.schedule_{name}", scheduler, weights)
        report = rec.call("sched.smoothness", sched.smoothness, seq, weights)
        patterns = [dec.states[s][0] for s in seq.slots] if seq is not None else None
        grid = rec.call("sched.grid_from_schedule", sched.grid_from_schedule, patterns)
        res[name] = (report, rec.call("sched.smoothness_2d", sched.smoothness_2d, grid, rounded))
    assignment = rec.call("matching.benes_full_assign", matching.benes_full_assign, inp.benes_pi)
    res["realized"] = rec.call("matching.realized_permutation",
                               matching.BenesAssignment.realized_permutation, assignment)
    tags = rec.call("matching.clos_route_assignment", matching.clos_route_assignment, inp.clos_requests)
    res["route_valid"] = rec.call("matching.verify_route_assignment", matching.verify_route_assignment,
                                  inp.clos_requests, tags)
    res["codewords"] = words = rec.call("graphcode.enumerate_codewords", graphcode.TannerCode.enumerate_codewords,
                                        inp.code)
    res["decodes"] = []
    for pick in inp.code_picks if words else ():
        sent = words[int(pick * len(words))]
        for v in range(len(sent)):
            received = list(sent)
            received[v] ^= 1
            res["decodes"].append((sent, rec.call("graphcode.flip_decode", graphcode.flip_decode, inp.code, received)))
    res["expansion"] = rec.call("graphcode.expansion_check", graphcode.expansion_check, inp.graph, 4, 0.5)
    res["hall"] = rec.call("matching.hall_check", matching.hall_check, inp.graph)
    return res


def ok_line_sums(cap, modules: int) -> bool:
    cap = np.asarray(cap)
    return bool((cap >= 0).all() and np.allclose(cap.sum(axis=0), modules, atol=1e-6)
                and np.allclose(cap.sum(axis=1), modules, atol=1e-6))


def ok_reconstruction(recon: list[list[Fraction]], capacity: pathswitch.CapacityMatrix) -> bool:
    return [tuple(row) for row in recon] == list(capacity.entries)


def ok_smoothness(report: sched.SmoothnessReport) -> bool:
    """Kraft sum at most 1 and average smoothness at least the entropy,
    with the float slack the scheduler tests allow."""
    return report.kraft_sum <= 1.0 + 1e-9 and report.average >= report.entropy - 1e-9


def ok_same_permutation(realized: list[int], pi: list[int]) -> bool:
    return list(realized) == list(pi)


def ok_closed_under_xor(words: list[tuple[int, ...]]) -> bool:
    masks = {sum(b << i for i, b in enumerate(w)) for w in words}
    return 0 in masks and all(a ^ b in masks for a in masks for b in masks)


def ok_decoded(result: graphcode.DecodeResult, sent: tuple[int, ...]) -> bool:
    return result.success and result.word == tuple(sent)


def ok_expansion(verdict: graphcode.ExpansionVerdict, graph: matching.BipartiteGraph) -> bool:
    """The reported worst subset really has the reported neighbourhood ratio."""
    size = len(verdict.worst_subset)
    return size > 0 and math.isclose(len(graph.neighborhood(verdict.worst_subset)) / size, verdict.worst_ratio)


def exact_check(inp: ExactInputs, res: dict, state: dict, checks: Checks) -> dict:
    obs: dict[str, float] = {}
    cap = res["allocation"]
    checks.expect("allocation line sums equal m", cap is not None and ok_line_sums(cap, inp.modules))
    rounding = res["rounding"]
    checks.expect("round-off within 1/F", rounding is not None and rounding[1] <= 1.0 / inp.frame + 1e-12)
    if rounding is not None:
        obs["pathswitch.bandlimit_and_round.max_err"] = rounding[1]
    recon = res["reconstruction"]
    checks.expect("reconstruct equals the capacity",
                  recon is not None and ok_reconstruction(recon, rounding[0]))
    if res["decomposition"] is not None:
        obs["pathswitch.bvn_decompose.states"] = res["decomposition"].state_count
    checks.expect("state weights are positive and sum to one", res["weights"] is not None)
    for name, _ in SCHEDULERS:
        report, report_2d = res[name]
        checks.expect(f"{name}: Kraft sum <= 1 and smoothness >= entropy", report is not None and ok_smoothness(report))
        checks.expect(f"{name}: smoothness_2d accepts the capacity", report_2d is not None)
        if report is not None:
            obs[f"sched.{name}.excess_bits"] = report.average - report.entropy
    checks.expect("Benes realizes pi", res["realized"] is not None and ok_same_permutation(res["realized"], inp.benes_pi))
    checks.expect("Clos route assignment verifies", res["route_valid"] is True)
    words = res["codewords"]
    checks.expect("codewords closed under XOR", words is not None and ok_closed_under_xor(words))
    # one check for all decodes, so that a broken decoder weighs in
    # checks_passed_frac as much as any other broken result
    decoded = sum(result is not None and ok_decoded(result, sent) for sent, result in res["decodes"])
    checks.expect("every single-bit error decodes", decoded == len(res["decodes"]))
    checks.expect("one decode per bit of every picked codeword",
                  len(res["decodes"]) == len(inp.code_picks) * inp.code.n_variables)
    checks.expect("expansion verdict consistent", res["expansion"] is not None and ok_expansion(res["expansion"], inp.graph))
    # every variable has degree 4 and no constraint more than 4, so counting
    # edges shows |N(A)| >= |A| for every set A of variables
    checks.expect("Hall condition holds", res["hall"] is not None and res["hall"].satisfied)
    if words is not None:
        obs["graphcode.enumerate_codewords.count"] = len(words)
    if res["decodes"]:
        obs["graphcode.flip_decode.success_frac"] = decoded / len(res["decodes"])
    return obs


WORKLOADS = {
    "artifacts": Workload(artifacts_inputs, artifacts_prepare, artifacts_run, artifacts_check, BOTH),
    "sim": Workload(sim_inputs, _no_prepare, sim_run, sim_check, BOTH),
    # pure-Python code throughout: the numpy part of the loop only adds noise
    "exact": Workload(exact_inputs, _no_prepare, exact_run, exact_check, ("python",)),
}
