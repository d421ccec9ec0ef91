"""switchlab benchmark: one workload, run as a closed loop of passes.

    python3 benchmarks/run.py --workload {artifacts,sim,exact} --seed N \
        --seconds S --trace {0,1}

Run it from anywhere; it benchmarks the switchlab sources in ``src/`` next to
this directory and writes its scratch files, traces and results under
``.bench_out/`` there.  One process and one thread run the passes back to back
until the next pass would end after ``--seconds``.  Every result is checked
outside the timed region.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (importing switchlab
and building the workload's inputs, measured in fresh interpreters and
reported as the median), ``pass_s`` (median wall time of one pass),
``checks_passed_frac`` and ``peak_rss_mb`` (``ru_maxrss`` of the benchmark
process: switchlab's own memory with the inputs and results it is handed,
plus the harness's bookkeeping; the calibration loop runs in a child
process between calls and is not counted).  Both times are corrected for the
host's speed and given in seconds of the reference host (calibration.py);
the raw wall times are printed beside them.  ``--trace 1`` prints the per-layer
metrics from the spans of a traced run; it alternates traced and untraced
passes so that the tracing overhead (``trace.overhead_s``, the difference of
their median host-corrected pass times) is measured under the same conditions.  A span costs
microseconds and a pass makes at most a few hundred calls, so that difference
is mostly the host's run-to-run noise.
The last line of standard output is one JSON object; the lines before it
give the same numbers for a reader, the sample counts and the provenance.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from calibration import Calibrator, HostClock, corrected
from tracing import PASS_SPAN, Recorder, layer_summary, read_trace, write_trace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("artifacts", "sim", "exact")
SETUP_PROBES = 5

# every layer is the switchlab module of that name; these are the public
# functions the workloads call, timed from the benchmark's side
EXPERIMENT_IDS = ("fig6", "fig10", "table2", "table4", "table5", "table6", "sec6c", "fig21",
                  "montecarlo", "boltzmann")
LAYERS = {
    "contention": ("simulate_crossbar",),
    "deflection": ("simulate_deflection",),
    "pathswitch": ("allocate_capacity", "bandlimit_and_round", "bvn_decompose", "reconstruct"),
    "sched": ("schedule_wfq", "schedule_wf2q", "schedule_hurr", "smoothness", "grid_from_schedule",
              "smoothness_2d"),
    "matching": ("benes_full_assign", "realized_permutation", "clos_route_assignment",
                 "verify_route_assignment", "hall_check"),
    "graphcode": ("enumerate_codewords", "flip_decode", "expansion_check"),
    "cli": tuple(f"experiment.{exp}" for exp in EXPERIMENT_IDS) + ("validate",),
}
# rate metric -> span whose recorded work (port-slots, wire-stages) it divides
RATES = {
    "contention.simulate_crossbar.port_slots_per_s": "contention.simulate_crossbar",
    "deflection.simulate_deflection.wire_stages_per_s": "deflection.simulate_deflection",
}
# measured from call results in each pass; a workload that never makes the
# call reports 0, and <layer>.calls tells the two cases apart
OBSERVED = {
    "contention.simulate_crossbar.carried_gap": ("ratio", "lower"),
    "deflection.simulate_deflection.delivered_frac": ("ratio", "higher"),
    "deflection.simulate_deflection.exit_tv": ("ratio", "lower"),
    "pathswitch.bvn_decompose.states": ("count", "lower"),
    "pathswitch.bandlimit_and_round.max_err": ("ratio", "lower"),
    "sched.wfq.excess_bits": ("bits", "lower"),
    "sched.wf2q.excess_bits": ("bits", "lower"),
    "sched.hurr.excess_bits": ("bits", "lower"),
    "graphcode.enumerate_codewords.count": ("count", "higher"),
    "graphcode.flip_decode.success_frac": ("ratio", "higher"),
    "cli.validate.fail_rows": ("count", "lower"),
}
END_TO_END = {
    "setup_s": ("s", "lower"),
    "pass_s": ("s", "lower"),
    "checks_passed_frac": ("ratio", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}


def per_layer_units() -> dict[str, tuple[str, str]]:
    """Every per-layer metric with its unit and better direction, in print order."""
    units: dict[str, tuple[str, str]] = {}
    for layer, functions in LAYERS.items():
        units[f"{layer}.busy_s"] = ("s", "lower")
        units[f"{layer}.errors"] = ("count", "lower")
        units[f"{layer}.calls"] = ("count", "lower")
        units[f"{layer}.share"] = ("ratio", "lower")
        for fn in functions:
            units[f"{layer}.{fn}.s"] = ("s", "lower")
    units.update({name: ("1/s", "higher") for name in RATES})
    units.update(OBSERVED)
    units.update({
        "trace.pass_s": ("s", "lower"),
        "trace.untraced_pass_s": ("s", "lower"),
        "trace.overhead_s": ("s", "lower"),
        "trace.unattributed_s": ("s", "lower"),
        "trace.passes": ("count", "higher"),
        "host.speed": ("ratio", "higher"),
    })
    return units


def provenance(seed: int) -> dict:
    import numpy
    import switchlab

    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        commit = out.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "switchlab").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "switchlab": switchlab.__version__,
    }


def scratch_dir(workload: str, seed: int) -> Path:
    return OUT / f"{workload}-seed{seed}-pid{os.getpid()}"


def setup_probe(workload: str, seed: int) -> float:
    """Seconds to import switchlab and build the workload's inputs; meant to
    run first thing in a fresh interpreter."""
    start = perf_counter()
    from workloads import WORKLOADS

    scratch = scratch_dir(workload, seed)
    try:
        WORKLOADS[workload].inputs(seed, scratch)
        return perf_counter() - start
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def measure_setup(workload: str, seed: int) -> tuple[float, float]:
    """Median set-up time over SETUP_PROBES fresh interpreters, in
    reference-host seconds and as wall time."""
    from workloads import WORKLOADS  # the probes import switchlab afresh, so this does not time it

    times, loops = [], []
    with Calibrator(WORKLOADS[workload].calibration) as cal:
        loops.append(cal.measure())
        for _ in range(SETUP_PROBES):
            out = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload,
                 "--seed", str(seed)],
                capture_output=True, text=True, timeout=120, check=True,
            )
            times.append(float(out.stdout.strip().splitlines()[-1]))
            loops.append(cal.measure())
    return statistics.median(corrected(times, loops, cal.reference)), statistics.median(times)


def run(workload: str, seed: int, seconds: float, trace: bool, scratch: Path, tiny: bool = False) -> dict:
    """Run the closed loop and return pass times, checks and, when traced,
    the per-layer metrics.  At least one pass runs, two when traced; a
    calibration loop runs before the first pass, after every pass and
    between the calls of a pass (calibration.HostClock)."""
    from workloads import WORKLOADS, Checks  # imports switchlab, so only once SRC is on the path

    wl = WORKLOADS[workload]
    inputs = wl.inputs(seed, scratch, tiny)
    rec = Recorder()
    checks = Checks()
    state: dict = {}
    observations: dict[int, dict] = {}
    walls: list[float] = []
    corrected_walls: list[float] = []
    elapsed: list[float] = []  # whole passes, calibration included
    traced: list[bool] = []
    with Calibrator(wl.calibration) as cal:
        clock = HostClock(cal)
        rec.between = clock.checkpoint
        start = perf_counter()
        for pass_id in itertools.count():
            rec.trace = trace and pass_id % 2 == 0
            rec.pass_id = pass_id
            wl.prepare(inputs)
            raised = rec.raised
            t0 = perf_counter()
            clock.start()
            with rec.span(PASS_SPAN) as span:
                results = wl.run(rec, inputs)
                wall, ref = clock.stop()
                if span is not None:
                    span["paused"] = clock.paused
            elapsed.append(perf_counter() - t0)
            walls.append(wall)
            corrected_walls.append(ref)
            traced.append(rec.trace)
            for _ in range(rec.raised - raised):
                checks.expect("call raised", False)
            obs = wl.check(inputs, results, state, checks)
            if rec.trace:
                observations[pass_id] = obs
            if len(walls) >= (2 if trace else 1) and perf_counter() - start + statistics.median(elapsed) > seconds:
                break
    out = {
        "pass_times": [w for w, t in zip(walls, traced) if not t],
        "pass_times_corrected": [c for c, t in zip(corrected_walls, traced) if not t],
        "host_speed": statistics.median(c / w for c, w in zip(corrected_walls, walls)),
        "attempted": checks.attempted,
        "failures": checks.failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if trace:
        path = scratch.parent / f"trace-{workload}-seed{seed}.json"
        write_trace(path, rec.spans, observations, {"workload": workload, "seed": seed})
        spans, observations = read_trace(path)
        layers = layer_summary(spans, observations, LAYERS, RATES)
        units = per_layer_units()
        metrics = {name: layers.get(name, 0.0) for name in units}
        metrics["trace.untraced_pass_s"] = statistics.median(out["pass_times"])
        metrics["host.speed"] = out["host_speed"]
        metrics["trace.overhead_s"] = (
            statistics.median(c for c, t in zip(corrected_walls, traced) if t)
            - statistics.median(out["pass_times_corrected"])
        )
        out["per_layer"] = metrics
        out["trace_file"] = str(path)
    return out


def end_to_end(setup_s: float, res: dict) -> dict[str, float]:
    return {
        "setup_s": setup_s,
        "pass_s": statistics.median(res["pass_times_corrected"]),
        "checks_passed_frac": 1.0 - len(res["failures"]) / res["attempted"],
        "peak_rss_mb": res["peak_rss_mb"],
    }


def pass_time_summary(times: list[float]) -> str:
    """Median and quartiles of the untraced pass times, and the highest
    whole percentile with at least ten passes beyond it, when there is one."""
    n = len(times)
    text = f"untraced pass_s over {n} passes: median {statistics.median(times):.6g} s"
    if n >= 2:
        q1, _, q3 = statistics.quantiles(times, n=4)
        text += f", quartiles {q1:.6g} {q3:.6g} s"
    if n > 10:
        pct = int(100 * (1 - 10 / n))
        text += f", p{pct} {statistics.quantiles(times, n=100)[pct - 1]:.6g} s"
    return text


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description="switchlab benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "switchlab" / "__init__.py").is_file():
        print(f"switchlab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        print(setup_probe(args.workload, args.seed))
        return 0

    setup_s, setup_wall_s = (None, None) if args.trace else measure_setup(args.workload, args.seed)
    scratch = scratch_dir(args.workload, args.seed)
    try:
        res = run(args.workload, args.seed, args.seconds, bool(args.trace), scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    failed = len(res["failures"])
    if args.trace:
        units = per_layer_units()
        metrics = {name: {"value": value, "unit": units[name][0]} for name, value in res["per_layer"].items()}
    else:
        values = end_to_end(setup_s, res)
        metrics = {name: {"value": values[name], "unit": unit} for name, (unit, _) in END_TO_END.items()}

    prov = provenance(args.seed)
    record = {"workload": args.workload, "trace": args.trace, "provenance": prov,
              "pass_times": res["pass_times"], "pass_times_corrected": res["pass_times_corrected"],
              "host_speed": res["host_speed"], "setup_wall_s": setup_wall_s,
              "failures": res["failures"], "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    for name in sorted(set(res["failures"])):
        print(f"[bench] check failed: {name} (x{res['failures'].count(name)})", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  passes {len(res['pass_times'])} untraced"
          + (f", {int(metrics['trace.passes']['value'])} traced" if args.trace else ""))
    print(f"failed_frac {failed / res['attempted']:.6g} ratio ({failed} of {res['attempted']} checks failed)")
    print(pass_time_summary(res["pass_times"]))
    print(f"host speed {res['host_speed']:.4g} of the reference host"
          + (f"; set-up wall time {setup_wall_s:.6g} s" if setup_wall_s is not None else ""))
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    if args.trace:
        print(f"trace written to {res['trace_file']}")
    print("provenance " + json.dumps(prov))
    print(json.dumps({"correct": failed == 0, "attempted": res["attempted"], "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
