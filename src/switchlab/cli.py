"""Command-line interface: one-off analyses (tradeoff, deflect, assign,
decompose, schedule, schedule2d) plus a deterministic experiment harness
(`experiment <id>`) that writes CSV artifacts and a `validate` command that
re-checks them.

All experiment output is plain CSV with a leading comment line naming the
experiment id; identical manifests yield byte-identical files.  Exit codes:
0 success, 1 validation failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from . import closmodel, contention, deflection, fixtures, matching, pathswitch, sched
from .closmodel import ClosSpec
from .errors import ConvergenceError, DomainError, PreconditionError, ResourceLimitError, check_count, check_real

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

# (file stem, comment tag, header, rows) of one CSV artifact
Table = tuple[str, str, list[str], list[list]]
# fn(data rows, tolerance) -> (ok, detail), and (check name, file stem, fn)
CheckFn = Callable[[list[list[str]], float], tuple[bool, str]]
Check = tuple[str, str, CheckFn]


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.10g}"
    return str(x)


def _csv_line(row) -> str:
    return ",".join(_fmt(v) for v in row)


def _write_csv(outdir: Path, table: Table) -> Path:
    stem, tag, header, rows = table
    path = outdir / f"{stem}.csv"
    path.write_text("\n".join([f"# experiment: {tag}", *map(_csv_line, [header, *rows])]) + "\n")
    return path


def _content_lines(text: str) -> list[str]:
    """Stripped lines of a text file, without blank and '#' comment lines."""
    return [ln for ln in map(str.strip, text.splitlines()) if ln and not ln.startswith("#")]


def _read_csv(path: Path) -> list[list[str]]:
    """Data rows of an artifact; ValueError when the header is missing or a
    row's field count differs from the header's."""
    lines = _content_lines(path.read_text())
    if not lines:
        raise ValueError("no header line")
    width = len(lines[0].split(","))
    rows = [ln.split(",") for ln in lines[1:]]
    if any(len(r) != width for r in rows):
        raise ValueError(f"a row does not have the header's {width} fields")
    return rows


def _unique_keys(pairs: Iterable[tuple]) -> dict:
    """The (key, value) ``pairs`` as a dict; a key given twice is a usage error, not overwritten."""
    raw = {}
    for key, val in pairs:
        if key in raw:
            raise DomainError(f"parameter {key} is given twice")
        raw[key] = val
    return raw


def _key_values(items: list[str], what: str) -> dict[str, str]:
    if bad := [item for item in items if "=" not in item]:
        raise DomainError(f"{what} is not key=value: {bad[0]!r}")
    return _unique_keys(map(str.strip, item.split("=", 1)) for item in items)


def _int_param(key: str, value) -> int:
    try:
        return int(str(value))
    except ValueError:
        raise DomainError(f"parameter {key}={value!r} is not an integer") from None


@dataclass
class ExperimentManifest:
    """Reproducible description of one experiment run."""

    experiment: str
    seed: int = 0
    outdir: Path = Path("out")
    params: dict = field(default_factory=dict)

    @classmethod
    def from_file(cls, path: Path) -> "ExperimentManifest":
        text = Path(path).read_text()
        if text.lstrip().startswith("{"):
            try:
                raw = json.loads(text, object_pairs_hook=_unique_keys)
            except json.JSONDecodeError as exc:
                raise DomainError(f"manifest is not valid JSON: {exc}") from None
        else:
            raw = _key_values(_content_lines(text), "manifest line")
        exp = raw.pop("experiment", None)
        if exp is None:
            raise DomainError("manifest misses the experiment id")
        seed = _int_param("seed", raw.pop("seed", cls.seed))  # a missing key takes its field's default
        outdir = raw.pop("outdir", cls.outdir)
        if not isinstance(outdir, (str, Path)):  # Path() of a JSON number, list or null raised a bare TypeError
            raise DomainError(f"manifest outdir {outdir!r} is not a path")
        return cls(experiment=str(exp), seed=seed, outdir=Path(outdir), params=raw)


# --- experiment writers -------------------------------------------------------
# Each takes the resolved integer params and the seed and returns its tables.

# the most rows one bandwidth-versus-PSNR table may hold (about 0.25 s)
MAX_TABLE_ROWS = 1 << 16


def _fig6_rows(n: int, max_m: int) -> list[list]:
    check_count(n, 1, f"ports per outer module n={n} must be >= 1")
    if max_m - n > MAX_TABLE_ROWS:
        raise ResourceLimitError(f"{max_m - n} central-module rows exceed {MAX_TABLE_ROWS}")
    rows = []
    for m in range(n + 1, max_m + 1):  # empty grid allowed: header-only CSV
        spec = ClosSpec(m=m, n=n, k=max(2, n))
        psnr_rand = contention.psnr(closmodel.random_routing_carried_load(spec, asymptotic_k=True))
        rows.append([m, closmodel.nonblocking_psnr(spec), psnr_rand,
                     closmodel.max_data_rate(m, psnr_rand)])
    return rows


def _exp_fig6(p: dict, seed: int) -> list[Table]:
    max_m = 4 * p["n"] if p["max_m"] is None else p["max_m"]
    return [("fig6", "fig6",
             ["central_modules", "psnr_nonblocking", "psnr_random", "rate_random_nats"],
             _fig6_rows(p["n"], max_m))]


def _load_sweep() -> list[deflection.DeflectionParams]:
    """Deflection constants at offered loads 0.05, 0.10, ..., 1."""
    return [deflection.DeflectionParams.from_rho(i / 20) for i in range(1, 21)]


def _ln_loss_bound(length: int) -> float:
    """ln loss_bound(1.0, length) in the log form slope_m (L + 2) + intercept_b,
    which stays finite where the bound underflows to 0 (from about 2000 stages)."""
    par = deflection.DeflectionParams.from_rho(1.0)
    return par.slope_m * (length + 2) + par.intercept_b


def _exp_fig10(p: dict, seed: int) -> list[Table]:
    sweep = _load_sweep()
    sim = deflection.simulate_deflection(p["n"], p["stages"], 1.0, p["slots"], seed=seed)
    return [
        ("fig10a", "fig10a", ["rho", "success_p", "deflect_q"], [[d.rho, d.p, d.q] for d in sweep]),
        ("fig10b", "fig10b", ["rho", "a", "c"], [[d.rho, d.a, d.c] for d in sweep]),
        ("fig10c", "fig10c", ["length", "ln_loss_bound", "empirical_loss"],
         [[length, _ln_loss_bound(length), sim.loss_after(length)] for length in range(2, p["stages"] + 1)]),
    ]


def _tag_rows(reqs: matching.CallRequestSet, tags: matching.RouteSet) -> list[list[int]]:
    """Per request: source, destination and its routing tag (central module,
    output module, output port)."""
    return np.column_stack([reqs.pairs, tags.central, tags.out_module, tags.out_port]).tolist()


def _exp_table2(p: dict, seed: int) -> list[Table]:
    reqs = fixtures.eight_port_request_set()
    tags = matching.clos_route_assignment(reqs)
    ok = int(matching.verify_route_assignment(reqs, tags))
    ref_ok = int(matching.verify_route_assignment(reqs, fixtures.eight_port_reference_tags()))
    return [("table2", "table2",
             ["source", "destination", "central", "out_module", "out_port",
              "assignment_valid", "reference_tags_valid"],
             [row + [ok, ref_ok] for row in _tag_rows(reqs, tags)])]


def _finish_columns(weights: sched.WeightSet) -> list[str]:
    return [f"finish_P{i + 1}" for i in range(len(weights))]


def _exp_table4(p: dict, seed: int) -> list[Table]:
    weights = fixtures.five_state_weights()
    return [("table4", "table4", ["slot"] + _finish_columns(weights) + ["selection"],
             [[tau] + [float(f) for f in finish] + [f"P{pick + 1}"]
              for tau, (finish, pick) in enumerate(sched.wfq_trace(weights), start=1)])]


def _exp_table5(p: dict, seed: int) -> list[Table]:
    weights = fixtures.five_state_weights()
    return [("table5", "table5", ["slot"] + _finish_columns(weights) + ["qualified", "selection"],
             [[tau] + [float(f) for f in tr.finish]
              + [" ".join(f"P{i + 1}" for i in tr.qualified), f"P{tr.selection + 1}"]
              for tau, tr in enumerate(sched.wf2q_trace(weights), start=1)])]


def _exp_table6(p: dict, seed: int) -> list[Table]:
    rows = []
    for entry in fixtures.scheduler_table():
        w = entry["weights"]
        rows.append([" ".join(str(float(x)) for x in w.weights),
                     sched.entropy(w) + sched.expected_random_smoothness_gap(w)]
                    + [sched.smoothness(schedule(w), w).average
                       for schedule in sched.SCHEDULERS.values()]
                    + [sched.entropy(w)])
    return [("table6", "table6", ["weights", "random", *sched.SCHEDULERS, "entropy"], rows)]


def _exp_sec6c(p: dict, seed: int) -> list[Table]:
    h_in, h_out, h_total = sched.entropy_2d(fixtures.capacity_4x4())
    rows = [["capacity_entropy", h_total, "", "", ""],
            ["input_entropy"] + list(h_in),
            ["output_entropy"] + list(h_out)]
    for name in fixtures.GRID_TOTALS:
        rep = sched.smoothness_2d(fixtures.reference_grid(name))
        rows.append([f"{name}_total", rep.total, "", "", ""])
        rows.append([f"{name}_input"] + list(rep.input_smoothness))
        rows.append([f"{name}_output"] + list(rep.output_smoothness))
    return [("sec6c", "sec6c", ["quantity", "v1", "v2", "v3", "v4"], rows)]


def _exp_fig21(p: dict, seed: int) -> list[Table]:
    k, m = p["k"], p["m"]
    spec = ClosSpec(m=m, n=m, k=k)  # rejects a bad shape before any draw
    pathswitch.TrafficMatrix.check_size(k)
    rng = np.random.default_rng(seed)
    lam = rng.uniform(0.2, 1.0, size=(k, k))
    lam *= 0.8 * m / max(lam.sum(axis=0).max(), lam.sum(axis=1).max())
    cap = pathswitch.allocate_capacity(pathswitch.TrafficMatrix(lam, spec))
    return [("fig21", "fig21", ["frame_size", "max_roundoff", "one_over_f"],
             [[f, pathswitch.bandlimit_and_round(cap, f, modules=m)[1], 1.0 / f]
              for f in (16, 32, 64, 128)])]


def _exp_montecarlo(p: dict, seed: int) -> list[Table]:
    ports = (8, 32)
    contention.check_run_size(p["slots"], max(ports), "ports")  # before any draw
    # first, so that bad deflection params fail before the crossbar runs
    cascade = deflection.simulate_deflection(p["n"], p["stages"], 1.0, p["dslots"], seed=seed)
    crossbar = []
    for n_ports in ports:
        for rho in (0.5, 1.0):
            sim = contention.simulate_crossbar(n_ports, rho, p["slots"], seed=seed)
            crossbar.append([n_ports, rho, sim.load.carried_load,
                             contention.carried_load(rho, n_ports),
                             sim.busy_mean, sim.busy_variance, sim.busy_skewness])
    return [
        ("montecarlo_crossbar", "montecarlo",
         ["ports", "rho", "carried_empirical", "carried_analytic",
          "busy_mean", "busy_variance", "busy_skewness"], crossbar),
        ("montecarlo_deflection", "montecarlo", ["length", "empirical_loss", "loss_bound"],
         [[length, cascade.loss_after(length), deflection.loss_bound(1.0, length)]
          for length in (*(x for x in (10, 15) if x < p["stages"]), p["stages"])]),
    ]


def _exp_boltzmann(p: dict, seed: int) -> list[Table]:
    rows = []
    for n_ports in (6, 8, 10):
        for packets in range(0, n_ports + 1):
            res = contention.maximize_entropy_bruteforce(n_ports, packets)
            rows.append([n_ports, packets,
                         " ".join(map(str, res.maximizer)), res.max_states,
                         " ".join(map(str, res.poisson_vector)), res.poisson_states])
    return [("boltzmann", "boltzmann",
             ["ports", "packets", "maximizer", "states", "poisson_vector", "poisson_states"],
             rows)]


# --- checks run by `validate` ---------------------------------------------------

def _every_row(pred: Callable[[list[str]], bool]) -> CheckFn:
    """A check that passes when ``pred`` holds on every data row."""
    return lambda rows, tol: (all(pred(r) for r in rows), "")


def _selections_are(states: tuple[int, ...]) -> CheckFn:
    """A check that the last column of a scheduler trace serves ``states``, as P1, P2, ..."""
    return lambda rows, tol: ([r[-1] for r in rows] == [f"P{i + 1}" for i in states],
                              " ".join(r[-1] for r in rows))


# re-derive the analytic column: a CSV value 1e-9 relative off it fails (CSVs print 10 digits)
def _loss_under_bound(r: list[str]) -> bool:  # length, ln_loss_bound, empirical_loss
    length = int(r[0])
    return (math.isclose(float(r[1]), _ln_loss_bound(length), rel_tol=1e-9)
            and float(r[2]) <= deflection.loss_bound(1.0, length) + 1e-2)


def _carried_load_matches(r: list[str]) -> bool:  # ports, rho, carried_empirical, carried_analytic
    carried = contention.carried_load(float(r[1]), int(r[0]))
    return math.isclose(float(r[3]), carried, rel_tol=1e-9) and abs(float(r[2]) - carried) < 5e-3


def _check_deflection_constants(rows: list[list[str]], tol: float) -> tuple[bool, str]:
    by_rho = {float(r[0]): (float(r[1]), float(r[2])) for r in rows}
    a, c = by_rho.get(1.0, (math.nan, math.nan))
    ok = abs(a - fixtures.DEFLECTION_A) <= tol and abs(c - fixtures.DEFLECTION_C) <= tol
    return ok, f"a={a:.5f} c={c:.5f}"


def _check_grid_totals(rows: list[list[str]], tol: float) -> tuple[bool, str]:
    values = {r[0]: [float(v) for v in r[1:] if v] for r in rows}
    ok = abs(values["capacity_entropy"][0] - fixtures.CAPACITY_ENTROPY) <= tol and all(
        abs(values[f"{name}_total"][0] - total) <= 2e-3
        for name, total in fixtures.GRID_TOTALS.items()
    )
    return ok, ""


def _check_scheduler_entropies(rows: list[list[str]], tol: float) -> tuple[bool, str]:
    table = fixtures.scheduler_table()
    if len(rows) != len(table):
        return False, f"{len(rows)} rows, expected {len(table)}"
    return all(abs(float(r[5]) - entry["entropy"]) <= 2e-3 for r, entry in zip(rows, table)), ""


def _check_poisson_shape(rows: list[list[str]], tol: float) -> tuple[bool, str]:
    ok = True
    for r in rows:
        n_ports, packets = int(r[0]), int(r[1])
        # the profile has a level per packet: refuse what boltzmann never writes before building it
        if not 0 <= packets <= n_ports <= contention.BRUTE_FORCE_LIMIT:
            return False, (f"{packets} packets on {n_ports} ports: "
                           f"need 0 <= packets <= ports <= {contention.BRUTE_FORCE_LIMIT}")
        vec = [int(v) for v in r[2].split()]
        for level, target in enumerate(contention.poisson_profile(packets / n_ports, packets)):
            actual = vec[level] / n_ports if level < len(vec) else 0.0
            ok &= abs(actual - target) <= max(2.0 / n_ports, 0.1)
    return ok, ""


# --- the registry -----------------------------------------------------------------

@dataclass(frozen=True)
class Experiment:
    """One experiment id: its integer params with their defaults, the writer
    of its CSV tables, and the checks `validate` runs on those tables."""

    params: dict[str, int | None]
    write: Callable[[dict[str, int], int], list[Table]]
    checks: list[Check]


EXPERIMENTS: dict[str, Experiment] = {
    "fig6": Experiment({"n": 16, "max_m": None}, _exp_fig6, []),  # max_m None: 4 * n
    "fig10": Experiment({"n": 4, "stages": 30, "slots": 4000}, _exp_fig10, [
        ("deflection_constants", "fig10b", _check_deflection_constants),
        ("deflection_loss_under_bound", "fig10c", _every_row(_loss_under_bound))]),
    "table2": Experiment({}, _exp_table2, [
        ("route_assignment_valid", "table2", _every_row(lambda r: r[5] == "1" and r[6] == "1"))]),
    "table4": Experiment({}, _exp_table4, [
        ("wfq_trace", "table4", _selections_are(fixtures.WFQ_SELECTIONS))]),
    "table5": Experiment({}, _exp_table5, [
        ("wf2q_trace", "table5", _selections_are(fixtures.WF2Q_SELECTIONS))]),
    "table6": Experiment({}, _exp_table6, [
        ("scheduler_entropy_column", "table6", _check_scheduler_entropies)]),
    "sec6c": Experiment({}, _exp_sec6c, [("grid_smoothness_totals", "sec6c", _check_grid_totals)]),
    "fig21": Experiment({"k": 4, "m": 8}, _exp_fig21, [
        ("roundoff_within_1_over_f", "fig21",
         _every_row(lambda r: float(r[1]) <= 1.0 / float(r[0]) + 1e-12))]),
    "montecarlo": Experiment({"slots": 200_000, "n": 4, "stages": 20, "dslots": 4000},
                             _exp_montecarlo, [
        ("crossbar_carried_load", "montecarlo_crossbar", _every_row(_carried_load_matches))]),
    "boltzmann": Experiment({}, _exp_boltzmann, [
        ("boltzmann_poisson_shape", "boltzmann", _check_poisson_shape)]),
}

EXPERIMENT_IDS = tuple(EXPERIMENTS)

# a key counts as known if any experiment declares it, so that one set of
# params can drive `experiment all`
_KNOWN_PARAMS = {key for exp in EXPERIMENTS.values() for key in exp.params}


def run_experiment(man: ExperimentManifest) -> list[Path]:
    exp = EXPERIMENTS.get(man.experiment)
    if exp is None:
        raise DomainError(f"unknown experiment id {man.experiment!r}")
    unknown = sorted(set(man.params) - _KNOWN_PARAMS)
    if unknown:
        raise DomainError(f"unknown experiment parameter {' '.join(unknown)}; "
                          f"known: {' '.join(sorted(_KNOWN_PARAMS))}")
    given = {key: _int_param(key, val) for key, val in man.params.items()}
    check_count(man.seed, 0, "seed must be an integer >= 0")  # before the writer: a refused run writes nothing
    tables = exp.write({key: given.get(key, default) for key, default in exp.params.items()},
                       man.seed)
    man.outdir.mkdir(parents=True, exist_ok=True)
    return [_write_csv(man.outdir, table) for table in tables]


def validate_outputs(outdir: Path, tolerance: float = 5e-4) -> tuple[list[dict], bool]:
    """Re-derive the key quantities and compare them with the CSV artifacts.

    Returns (report rows, all_ok).  A missing file is reported under its own
    name; a file that cannot be read or parsed, or holds no data rows, fails
    its check.
    """
    check_real(tolerance, 0.0, sys.float_info.max, f"tolerance {tolerance} must be finite and >= 0")
    report: list[dict] = []
    for exp in EXPERIMENTS.values():
        for name, stem, fn in exp.checks:
            path = outdir / f"{stem}.csv"
            if not path.exists():
                name, ok, detail = path.name, False, "missing output file"
            else:
                try:
                    rows = _read_csv(path)
                    ok, detail = fn(rows, tolerance) if rows else (False, f"no data rows in {path.name}")
                except (OSError, ValueError, IndexError, KeyError, ArithmeticError) as exc:
                    ok, detail = False, f"malformed {path.name}: {exc}"
            report.append({"check": name, "status": "pass" if ok else "FAIL", "detail": detail})
    all_ok = all(r["status"] == "pass" for r in report)
    return report, all_ok


# --- command implementations ---------------------------------------------------

def _cmd_tradeoff(args: argparse.Namespace) -> int:
    for row in _fig6_rows(args.n, args.max_m):
        print(_csv_line(row[:3]))
    return EXIT_OK


def _cmd_deflect(args: argparse.Namespace) -> int:
    check_count(args.seed, 0, "seed must be an integer >= 0")  # also without --slots, which alone reads it
    par = deflection.DeflectionParams.from_rho(args.rho)
    # simulate before printing, so a refused run prints nothing
    sim = (deflection.simulate_deflection(args.n, args.stages, args.rho, args.slots, seed=args.seed)
           if args.slots else None)
    print(f"rho={args.rho} p={par.p:.4f} q={par.q:.4f} a={par.a:.4f} c={par.c:.4f} "
          f"slope={par.slope_m:.4f} intercept={par.intercept_b:.4f}")
    if args.sweep:
        print("rho,success_p,deflect_q,a,c")
        for d in _load_sweep():
            print(_csv_line([d.rho, d.p, d.q, d.a, d.c]))
    if sim is not None:
        print("length,empirical_loss,loss_bound")
        for length in range(2, args.stages + 1):
            print(_csv_line([length, sim.loss_after(length), deflection.loss_bound(args.rho, length)]))
    return EXIT_OK


def _parse_permutation(text: str) -> list[int]:
    text = text.strip()
    try:  # the comma form takes ASCII decimals only: int() alone also reads "1_0" and fullwidth digits
        pi = json.loads(text) if text.startswith("[") else [
            int(v) if re.fullmatch(r"\s*[+-]?[0-9]+\s*", v) else None for v in text.split(",")]
    except ValueError:  # bad JSON
        pi = [None]
    if any(type(v) is not int for v in pi):  # int() would truncate 1.5 and read true as 1
        raise DomainError(f"permutation is not a list of integers: {text!r}")
    return pi


def _cmd_assign(args: argparse.Namespace) -> int:
    pi = _parse_permutation(args.permutation)
    n_ports = len(pi)
    n = args.n
    check_count(n, 1, "module width --n must be >= 1")
    if n_ports % n:
        raise DomainError("permutation size must be a multiple of the module width")
    spec = ClosSpec(m=args.m if args.m else n, n=n, k=n_ports // n)
    reqs = matching.CallRequestSet.from_permutation(pi, spec)
    tags = matching.clos_route_assignment(reqs)
    for label, col in zip("SDGQR", zip(*_tag_rows(reqs, tags))):
        print("\t".join([label, *map(str, col)]))
    ok = matching.verify_route_assignment(reqs, tags)
    print(f"valid={ok}")
    return EXIT_OK if ok else EXIT_FAIL


def _fraction(token: str) -> Fraction:
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise DomainError(f"not a rational number: {token!r}") from None


def _parse_matrix(path: Path, frame: int | None) -> pathswitch.CapacityMatrix:
    rows = [[_fraction(tok) for tok in line.replace(",", " ").split()]
            for line in _content_lines(path.read_text())]
    if rows and not any(map(any, rows)):  # m = 0: nothing downstream has a slot to grant
        raise DomainError("the capacity matrix is all zero")
    if frame and all(v.denominator == 1 for row in rows for v in row):
        # the usual on-disk form: an integer matrix already scaled by F
        return pathswitch.CapacityMatrix.from_integer_matrix([[int(v) for v in row] for row in rows], frame)
    return pathswitch.CapacityMatrix(rows, frame or math.lcm(*[v.denominator for row in rows for v in row]))


def _cmd_decompose(args: argparse.Namespace) -> int:
    cap = _parse_matrix(Path(args.matrix), args.frame)
    dec = pathswitch.bvn_decompose(cap)
    print(f"frame_size={cap.frame_size} modules={cap.modules} states={dec.state_count}")
    for idx, (pattern, weight) in enumerate(dec.states):
        print(f"state {idx} weight {weight}:")
        for row in pattern:
            print("  " + " ".join(str(int(v)) for v in row))
    print("frame: " + " ".join(map(str, dec.frame.tolist())))
    return EXIT_OK


def _weights_from_arg(text: str) -> sched.WeightSet:
    return sched.WeightSet(tuple(map(_fraction, text.split(","))))


def _cmd_schedule(args: argparse.Namespace) -> int:
    weights = _weights_from_arg(args.weights)
    if args.algorithm == "random":
        draws = sched.schedule_random(weights, args.slots, seed=args.seed)
        gap = sched.random_sequence_smoothness(draws, weights)  # before printing, so a refused run prints nothing
        print(" ".join(f"P{i + 1}" for i in draws[:64].tolist()))
        print(f"empirical_smoothness={gap:.4f} entropy={sched.entropy(weights):.4f}")
        return EXIT_OK
    seq = sched.SCHEDULERS[args.algorithm](weights)
    rep = sched.smoothness(seq, weights)
    print(" ".join(f"P{i + 1}" for i in seq.slots))
    print(f"smoothness={rep.average:.4f} entropy={rep.entropy:.4f} "
          f"kraft={rep.kraft_sum:.6f}")
    return EXIT_OK


def _cmd_schedule2d(args: argparse.Namespace) -> int:
    cap = _parse_matrix(Path(args.matrix), args.frame)
    if cap.size > len(sched.GRID_SYMBOLS):  # the grid names input modules by letter
        raise DomainError(f"{cap.size} modules exceed the {len(sched.GRID_SYMBOLS)} token-grid symbols")
    dec = pathswitch.bvn_decompose(cap)
    weights = sched.WeightSet(tuple(w for _, w in dec.states))
    seq = sched.SCHEDULERS[args.algorithm](weights)
    patterns = [dec.states[i][0] for i in seq.slots]
    grid = sched.grid_from_schedule(patterns)
    print(grid.to_text())
    rep = sched.smoothness_2d(grid)
    h_in, h_out, h_total = sched.entropy_2d(cap)
    print("metric,total," + ",".join(f"m{i+1}" for i in range(cap.size)))
    print(_csv_line(["smoothness", rep.total, *rep.input_smoothness]))
    print(_csv_line(["entropy", h_total, *h_in]))
    return EXIT_OK


def _cmd_experiment(args: argparse.Namespace) -> int:
    given = [name for name, value in (("experiment id", args.id), ("--outdir", args.outdir), ("--seed", args.seed),
                                      ("--param", args.param)) if value is not None]
    if args.manifest and given:  # each would be ignored
        raise DomainError(f"--manifest names the experiment id, outdir, seed and params: give no {' or '.join(given)}")
    if args.manifest:
        man = ExperimentManifest.from_file(Path(args.manifest))
    else:
        if not args.id:
            raise DomainError("experiment id or --manifest required")
        fields = {name: value for name, value in (("seed", args.seed), ("outdir", args.outdir)) if value is not None}
        man = ExperimentManifest(args.id, params=_key_values(args.param or [], "--param"), **fields)
    for exp in EXPERIMENT_IDS if man.experiment == "all" else (man.experiment,):
        for path in run_experiment(ExperimentManifest(exp, man.seed, man.outdir, man.params)):
            print(path)
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    outdir = Path(args.outdir)
    if not outdir.is_dir():
        raise DomainError(f"no output directory {outdir}")
    report, all_ok = validate_outputs(outdir, tolerance=args.tolerance)
    print("check,status,detail")
    for row in report:
        print(f"{row['check']},{row['status']},{row['detail']}")
    return EXIT_OK if all_ok else EXIT_FAIL


@functools.cache  # built on first use, once per process: parsing leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="switchlab",
        description="Switching-theory laboratory: models, assignments, schedulers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tradeoff", help="bandwidth versus PSNR table (CSV to stdout)")
    p.add_argument("--n", type=int, default=16, help="ports per outer module")
    p.add_argument("--max-m", type=int, default=64, help="largest central module count")
    p.set_defaults(func=_cmd_tradeoff)

    p = sub.add_parser("deflect", help="deflection constants and optional simulation")
    p.add_argument("--rho", type=float, default=1.0)
    p.add_argument("--n", type=int, default=4, help="module size")
    p.add_argument("--stages", type=int, default=20)
    p.add_argument("--slots", type=int, default=0, help="simulate this many slots")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sweep", action="store_true",
                   help="also print the load sweep of (p, q) and (a, c)")
    p.set_defaults(func=_cmd_deflect)

    p = sub.add_parser("assign", help="route a permutation through a Clos network")
    p.add_argument("permutation", help="comma list or JSON array of destinations")
    p.add_argument("--n", type=int, required=True, help="ports per outer module")
    p.add_argument("--m", type=int, default=0, help="central modules (default n)")
    p.set_defaults(func=_cmd_assign)

    p = sub.add_parser("decompose", help="decompose a capacity matrix into patterns")
    p.add_argument("matrix", help="file of rationals ('3/8') or decimals")
    p.add_argument("--frame", type=int, default=0,
                   help="frame denominator; an all-integer file is read as the "
                        "already-scaled matrix F*C")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("schedule", help="run a frame scheduler over weights")
    p.add_argument("weights", help="comma list, e.g. 0.5,0.125,0.125,0.125,0.125")
    p.add_argument("--algorithm", choices=(*sched.SCHEDULERS, "random"), default="wfq")
    p.add_argument("--slots", type=int, default=10000, help="random-schedule length")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_schedule)

    p = sub.add_parser("schedule2d", help="decompose, schedule and print token grids")
    p.add_argument("matrix")
    p.add_argument("--frame", type=int, default=0)
    p.add_argument("--algorithm", choices=tuple(sched.SCHEDULERS), default="wfq")
    p.set_defaults(func=_cmd_schedule2d)

    p = sub.add_parser("experiment", help="write deterministic CSV artifacts")
    p.add_argument("id", nargs="?", choices=EXPERIMENT_IDS + ("all",))
    p.add_argument("--manifest", help="key=value or JSON manifest file, which names the id, outdir, seed and params")
    p.add_argument("--outdir", type=Path, help=f"default {ExperimentManifest.outdir}")  # None unless given
    p.add_argument("--seed", type=int, help=f"default {ExperimentManifest.seed}")  # as --manifest requires
    p.add_argument("--param", action="append", help="extra key=value parameter")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("validate", help="check experiment outputs")
    p.add_argument("--outdir", default=ExperimentManifest.outdir)  # where experiment writes by default
    p.add_argument("--tolerance", type=float, default=5e-4)
    p.set_defaults(func=_cmd_validate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses its own exit codes
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (DomainError, PreconditionError, ResourceLimitError, ConvergenceError,
            OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
