import hashlib
import json
import time
import warnings
from pathlib import Path

import pytest

from switchlab import cli, fixtures
from switchlab import matching as mt
from switchlab.errors import ConvergenceError, ResourceLimitError


def _run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_tradeoff_outputs_rows(capsys):
    code, out, _ = _run(capsys, "tradeoff", "--n", "4", "--max-m", "8")
    assert code == cli.EXIT_OK
    lines = out.strip().splitlines()
    assert len(lines) == 4
    m, nb, rnd = lines[0].split(",")
    assert int(m) == 5 and float(nb) == 4.0
    assert float(nb) > float(rnd)


def test_deflect_constants_line(capsys):
    code, out, _ = _run(capsys, "deflect", "--rho", "1.0")
    assert code == cli.EXIT_OK
    assert f"a={fixtures.DEFLECTION_A:.4f}" in out and f"c={fixtures.DEFLECTION_C:.4f}" in out


def test_assign_reference_permutation(capsys):
    code, out, _ = _run(capsys, "assign", "1,3,2,0,6,4,7,5", "--n", "2")
    assert code == cli.EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0].startswith("S\t0\t1")
    assert lines[1] == "D\t1\t3\t2\t0\t6\t4\t7\t5"
    assert lines[-1] == "valid=True"


def test_schedule_wfq(capsys):
    code, out, _ = _run(capsys, "schedule", "0.5,0.125,0.125,0.125,0.125")
    assert code == cli.EXIT_OK
    assert out.splitlines()[0] == " ".join(f"P{i + 1}" for i in fixtures.WFQ_SELECTIONS)


@pytest.mark.parametrize("algorithm", ["wfq", "random"])
def test_one_weight_has_unsigned_zero_entropy(capsys, algorithm):
    code, out, _ = _run(capsys, "schedule", "1", "--algorithm", algorithm)
    assert code == cli.EXIT_OK
    assert "entropy=0.0000" in out.splitlines()[1] and "-0.0" not in out


# one row per refusal: (id, argv, input file or None, stderr prefix); {file} is the input file,
# {missing} a path that does not exist and {dir} an empty directory; in the input file {out}
# is the output directory an experiment would write, which argv names by --outdir without --manifest
NOT_UTF8 = b"\xff\xfe\x00"
REFUSALS = [
    ("tradeoff_n_0", ["tradeoff", "--n", "0"], None, "error: ports per outer module n=0 must be >= 1"),
    ("tradeoff_n_not_an_int", ["tradeoff", "--n", "x"], None, "usage: switchlab tradeoff"),
    ("deflect_rho_nan", ["deflect", "--rho", "nan"], None, "error: analysis holds for offered load in [0, 1] only"),
    ("deflect_n_1", ["deflect", "--n", "1", "--slots", "10"], None, "error: need module_size >= 2 and stages >= 2"),
    # without --slots the seed was never read, so the run printed its constants and exited 0
    ("deflect_seed_-1", ["deflect", "--seed", "-1"], None, "error: seed must be an integer >= 0\n"),
    ("assign_repeated_port", ["assign", "0,0", "--n", "2"], None,
     "error: sources and destinations must each be distinct"),
    ("assign_m_below_n", ["assign", "1,0,3,2", "--n", "2", "--m", "1"], None, "error: m >= n required"),
    ("decompose_zero_fraction", ["decompose", "{file}"], "0 0\n0 0\n", "error: the capacity matrix is all zero\n"),
    ("decompose_zero_integer", ["decompose", "{file}", "--frame", "4"], "0 0\n0 0\n",
     "error: the capacity matrix is all zero\n"),
    ("decompose_negative", ["decompose", "{file}"], "-1 2\n2 -1\n", "error: capacities must be nonnegative"),
    ("decompose_missing_file", ["decompose", "{missing}"], None, "error: [Errno 2] No such file or directory"),
    ("decompose_not_utf8", ["decompose", "{file}"], NOT_UTF8, "error: 'utf-8' codec can't decode byte 0xff"),
    ("schedule_zero_weight", ["schedule", "0.5,0.5,0"], None, "error: weights must be positive"),
    ("schedule_unknown_algorithm", ["schedule", "0.5,0.5", "--algorithm", "nope"], None, "usage: switchlab schedule"),
    ("schedule_random_too_short", ["schedule", "0.5,0.5", "--algorithm", "random", "--slots", "1"], None,
     "error: state 0 occurs too rarely to estimate"),
    ("schedule2d_zero_fraction", ["schedule2d", "{file}"], "0 0\n0 0\n", "error: the capacity matrix is all zero\n"),
    ("schedule2d_zero_integer", ["schedule2d", "{file}", "--frame", "4"], "0 0\n0 0\n",
     "error: the capacity matrix is all zero\n"),
    ("schedule2d_hurr_one_state", ["schedule2d", "{file}", "--algorithm", "hurr"], "1\n",
     "error: tree scheduling needs at least two states"),
    ("schedule2d_not_utf8", ["schedule2d", "{file}"], NOT_UTF8, "error: 'utf-8' codec can't decode byte 0xff"),
    ("experiment_no_id", ["experiment"], None, "error: experiment id or --manifest required"),
    ("experiment_unknown_param", ["experiment", "fig6", "--param", "zz=1"], None,
     "error: unknown experiment parameter zz"),
    ("experiment_manifest_outdir_number", ["experiment", "--manifest", "{file}"],
     '{"experiment": "fig6", "outdir": 5}', "error: manifest outdir 5 is not a path"),
    ("experiment_manifest_not_utf8", ["experiment", "--manifest", "{file}"], NOT_UTF8,
     "error: 'utf-8' codec can't decode byte 0xff"),
    # a flag beside a manifest, and a key given twice, were ignored or overwritten without a word
    ("experiment_manifest_beside_outdir", ["experiment", "--manifest", "{file}", "--outdir", "{dir}"],
     "experiment=fig6\nn=2\noutdir={out}\n", "error: --manifest names the experiment id, outdir, seed and params: "
     "give no --outdir\n"),
    ("experiment_manifest_beside_seed", ["experiment", "--manifest", "{file}", "--seed", "5"],
     "experiment=fig6\nn=2\noutdir={out}\n", "error: --manifest names the experiment id, outdir, seed and params: "
     "give no --seed\n"),
    ("experiment_manifest_beside_param", ["experiment", "--manifest", "{file}", "--param", "n=3"],
     '{"experiment": "fig6", "n": 2, "outdir": "{out}"}', "error: --manifest names the experiment id, outdir, "
     "seed and params: give no --param\n"),
    ("experiment_manifest_beside_id_and_flags", ["experiment", "fig10", "--manifest", "{file}", "--seed", "1",
                                                 "--outdir", "{dir}", "--param", "n=3"],
     "experiment=fig6\nn=2\noutdir={out}\n", "error: --manifest names the experiment id, outdir, seed and params: "
     "give no experiment id or --outdir or --seed or --param\n"),
    ("experiment_param_twice", ["experiment", "fig6", "--param", "n=2", "--param", "n=3"], None,
     "error: parameter n is given twice\n"),
    ("experiment_manifest_line_twice", ["experiment", "--manifest", "{file}"],
     "experiment=fig6\nn=2\noutdir={out}\nn=3\n", "error: parameter n is given twice\n"),
    ("experiment_manifest_seed_twice", ["experiment", "--manifest", "{file}"],
     "experiment=fig6\nseed=1\noutdir={out}\nseed=2\n", "error: parameter seed is given twice\n"),
    ("experiment_json_manifest_key_twice", ["experiment", "--manifest", "{file}"],
     '{"experiment": "fig6", "n": 2, "outdir": "{out}", "n": 3}', "error: parameter n is given twice\n"),
    ("validate_missing_outdir", ["validate", "--outdir", "{missing}"], None, "error: no output directory"),
    ("validate_outdir_is_a_file", ["validate", "--outdir", "{file}"], "", "error: no output directory"),
    ("validate_tolerance_nan", ["validate", "--outdir", "{dir}", "--tolerance", "nan"], None,
     "error: tolerance nan must be finite and >= 0"),
    ("no_command", [], None, "usage: switchlab"),
]


@pytest.mark.parametrize("argv, text, prefix", [row[1:] for row in REFUSALS], ids=[row[0] for row in REFUSALS])
def test_refusal(tmp_path, capsys, argv, text, prefix):
    # a refusal exits 2 within 1 s with one error line and nothing on stdout, no warning and nothing written
    source, empty, outdir = tmp_path / "input", tmp_path / "empty", tmp_path / "out"
    empty.mkdir()
    if text is not None:
        source.write_bytes(text if isinstance(text, bytes) else text.replace("{out}", str(outdir)).encode())
    argv = [arg.format(file=source, missing=tmp_path / "missing", dir=empty) for arg in argv]
    if argv[:1] == ["experiment"] and "--manifest" not in argv:
        argv += ["--outdir", str(outdir)]
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == cli.EXIT_USAGE and out == ""
    assert err.startswith(prefix) and sum("error:" in line for line in err.splitlines()) == 1
    assert len(err.splitlines()) == 1 or prefix.startswith("usage:")  # argparse prints its usage first
    assert not outdir.exists() and not list(empty.iterdir())


def test_decompose_and_schedule2d(tmp_path, capsys):
    matrix = tmp_path / "cap.txt"
    matrix.write_text("6 0 1 1\n1 4 3 0\n1 1 4 2\n0 3 0 5\n")
    code, out, _ = _run(capsys, "decompose", str(matrix), "--frame", "8")
    assert code == cli.EXIT_OK
    assert "frame_size=8" in out
    code, out, _ = _run(capsys, "schedule2d", str(matrix), "--frame", "8",
                        "--algorithm", "hurr")
    assert code == cli.EXIT_OK
    assert "smoothness," in out and "entropy," in out


def test_unknown_experiment_is_usage_error(tmp_path, capsys):
    code, _, err = _run(capsys, "experiment", "nope", "--outdir", str(tmp_path))
    assert code == cli.EXIT_USAGE


def test_empty_parameter_grid_writes_header_only(tmp_path, capsys):
    code, _, _ = _run(capsys, "experiment", "fig6", "--outdir", str(tmp_path),
                      "--param", "n=8", "--param", "max_m=8")
    assert code == cli.EXIT_OK
    lines = (tmp_path / "fig6.csv").read_text().strip().splitlines()
    assert len(lines) == 2  # comment + header, zero data rows


def test_experiment_manifest_roundtrip(tmp_path, capsys):
    manifest = tmp_path / "run.manifest"
    manifest.write_text(f"experiment=fig10\nseed=3\noutdir={tmp_path/'a'}\nslots=500\n")
    code, out, _ = _run(capsys, "experiment", "--manifest", str(manifest))
    assert code == cli.EXIT_OK
    assert (tmp_path / "a" / "fig10b.csv").exists()
    json_manifest = tmp_path / "run.json"
    json_manifest.write_text(json.dumps(
        {"experiment": "fig10", "seed": 3, "outdir": str(tmp_path / "b"), "slots": "500"}
    ))
    code, _, _ = _run(capsys, "experiment", "--manifest", str(json_manifest))
    assert code == cli.EXIT_OK
    a = (tmp_path / "a" / "fig10c.csv").read_bytes()
    b = (tmp_path / "b" / "fig10c.csv").read_bytes()
    assert a == b  # identical manifests give byte-identical artifacts


def test_experiment_rerun_is_deterministic(tmp_path, capsys):
    for sub in ("x", "y"):
        code, _, _ = _run(capsys, "experiment", "montecarlo",
                          "--outdir", str(tmp_path / sub), "--seed", "5",
                          "--param", "slots=20000", "--param", "dslots=500")
        assert code == cli.EXIT_OK
    for name in ("montecarlo_crossbar.csv", "montecarlo_deflection.csv"):
        assert (tmp_path / "x" / name).read_bytes() == (tmp_path / "y" / name).read_bytes()


# sha256 of every CSV of `experiment all` at seeds 0 and 1.  A change that
# alters the draws or the numbers on purpose updates this table and names the
# files it changed.
EXPERIMENT_ALL_SHA256 = {
    "boltzmann.csv": ("bbe2a66d409f7f193f704091a2a3905b6d1a6006e0da04a1cafe0234ccd54a9b",) * 2,
    "fig10a.csv": ("89cf72e325c88ca4efef5e72c210f534ed22cc306bf927efe474bc036b7f40a8",) * 2,
    "fig10b.csv": ("953057ec3a4c883f7d739c99a461c19b5478d8ba23a482c44ea499e66cb6bfc3",) * 2,
    "fig10c.csv": ("0066af64ee71865f2ffdc986012f5fe8e44cdb45811aac9382f5e32e38a4b7df",
                   "7cf25a1089a6b7a3cb46f860fb88b3f020e84bf42fafee03a96fdf4075bd963e"),
    "fig21.csv": ("6bc444ce8214d7e8ed06e32b3eb54aebce2a0dfcaa93f1856b375b255099f758",
                  "b84d4196a9db7dc4ff339e57b49b327acbc0534b98b0d38f0333848e74417f86"),
    "fig6.csv": ("1dde1d7f4fcfad20d95c785ed29858d214ac4e182d69e72602eb8d9394f4567d",) * 2,
    "montecarlo_crossbar.csv": ("b5fda388107e8dd1cf199b5adfd7b195ce2dbb07aa5e321491dc51dedceb62be",
                                "96e30c37dfd84700f1d9cdbce45689f5d61f8e7cec400f68808d4cb6d66cf0f2"),
    "montecarlo_deflection.csv": ("140441a5e89fa8e5d7213c6df2f8072c729dc003366aaffb6d74d8d5d5774c7f",
                                  "9a18b6d721713bc64894b2a7d59f6812be0b2bfc2970d157dc5b4dbdcd7f716d"),
    "sec6c.csv": ("b34523b7379b96a149c7790c60c67edc182a57cd2c2211be279757e7dfcc4515",) * 2,
    "table2.csv": ("24c4ea413f61946848a03700d0df6bdbc6a7dada9d2b1eb69ba1c717de66b91f",) * 2,
    "table4.csv": ("9cdf6b03279106ef5fe21b8695147dc92ae3d077a8275701583ab623d886479e",) * 2,
    "table5.csv": ("4921bb318d4b2b4f282225898effcceacd95f611005e60ecc845e5b294df7192",) * 2,
    "table6.csv": ("c11a68bcac85e098fd69d20e433e8c021aa8bdec21a025fa73977b3ecbe657b1",) * 2,
}


@pytest.mark.parametrize("seed", [0, 1])
def test_experiment_all_csvs_are_byte_identical(tmp_path, capsys, seed):
    code, _, _ = _run(capsys, "experiment", "all", "--seed", str(seed), "--outdir", str(tmp_path))
    assert code == cli.EXIT_OK
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.glob("*.csv")}
    assert got == {name: pair[seed] for name, pair in EXPERIMENT_ALL_SHA256.items()}


# the 4x4 fixture capacity matrix on disk: F * C with --frame 8, which builds it by
# CapacityMatrix.from_integer_matrix, and C itself, which builds it from Fractions
CAPACITY_FILES = {"integer": ("6 0 1 1\n1 4 3 0\n1 1 4 2\n0 3 0 5\n", ["--frame", "8"]),
                  "fraction": ("3/4 0 1/8 1/8\n1/8 1/2 3/8 0\n1/8 1/8 1/2 1/4\n0 3/8 0 5/8\n", [])}

# sha256 of the stdout of the commands that read a capacity matrix, the same for
# both files, and of the worked 8-port assignment
STDOUT_SHA256 = {
    ("decompose",): "2a0540eb45df05d68e66106f97fbc1a5edbd95f548a12b26a132f063ff5f76bf",
    ("schedule2d", "--algorithm", "wfq"): "83fe7498affe387aca208c64186510c39ab431128feac7ee8fd6defca73b7df1",
    ("schedule2d", "--algorithm", "wf2q"): "3b8674e1702478b3bb4c61cf9baae737080aba6fccc333ec9b62355044412985",
    ("schedule2d", "--algorithm", "hurr"): "ed94bccf60457f46358921ac374caa65c2a75df078407b0afa816431b234291d",
}
ASSIGN_SHA256 = "48f3afd37f992b56d10147aee32ad2e8dfae42ee6fed542c25225c5559c1222d"


@pytest.mark.parametrize("form", CAPACITY_FILES)
@pytest.mark.parametrize("command", STDOUT_SHA256, ids=" ".join)
def test_capacity_command_stdout_is_byte_identical(tmp_path, capsys, form, command):
    text, frame = CAPACITY_FILES[form]
    matrix = tmp_path / "cap.txt"
    matrix.write_text(text)
    code, out, _ = _run(capsys, command[0], str(matrix), *frame, *command[1:])
    assert code == cli.EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_SHA256[command]


def test_assign_stdout_is_byte_identical(capsys):
    code, out, _ = _run(capsys, "assign", "1,3,2,0,6,4,7,5", "--n", "2")
    assert code == cli.EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == ASSIGN_SHA256


def test_validate_full_run(tmp_path, capsys):
    for exp in ("fig10", "table2", "table4", "table5", "table6", "sec6c",
                "fig21", "boltzmann"):
        code, _, _ = _run(capsys, "experiment", exp, "--outdir", str(tmp_path),
                          "--param", "slots=800")
        assert code == cli.EXIT_OK
    code, _, _ = _run(capsys, "experiment", "montecarlo", "--outdir", str(tmp_path),
                      "--param", "slots=60000", "--param", "dslots=600")
    assert code == cli.EXIT_OK
    code, out, _ = _run(capsys, "validate", "--outdir", str(tmp_path))
    assert code == cli.EXIT_OK
    assert "FAIL" not in out


def test_validate_flags_tampered_csv(tmp_path, capsys):
    _run(capsys, "experiment", "table4", "--outdir", str(tmp_path))
    path = tmp_path / "table4.csv"
    path.write_text(path.read_text().replace("P2", "P5"))
    code, out, _ = _run(capsys, "validate", "--outdir", str(tmp_path))
    assert code == cli.EXIT_FAIL
    assert "wfq_trace,FAIL" in out


def test_validate_reports_missing_outputs(tmp_path, capsys):
    (tmp_path / "empty").mkdir()
    code, out, _ = _run(capsys, "validate", "--outdir", str(tmp_path / "empty"))
    assert code == cli.EXIT_FAIL
    assert "missing output file" in out


def test_validate_tolerance_override(tmp_path, capsys):
    _run(capsys, "experiment", "fig10", "--outdir", str(tmp_path),
         "--param", "slots=400")
    # absurdly tight tolerance must fail the constants check
    code, out, _ = _run(capsys, "validate", "--outdir", str(tmp_path),
                        "--tolerance", "1e-9")
    assert code == cli.EXIT_FAIL
    assert "deflection_constants,FAIL" in out


def test_missing_outdir_is_usage_error(tmp_path, capsys):
    code, _, _ = _run(capsys, "validate", "--outdir", str(tmp_path / "nothere"))
    assert code == cli.EXIT_USAGE


@pytest.mark.parametrize("name, text", [
    ("fig10b.csv", ""),
    ("table2.csv", "# experiment: table2\nsource,destination,central,out_module,out_port,"
                   "assignment_valid,reference_tags_valid\n0,1,0\n"),
], ids=["empty_fig10b", "short_table2_row"])
def test_validate_reports_malformed_file(tmp_path, capsys, name, text):
    (tmp_path / name).write_text(text)
    code, out, _ = _run(capsys, "validate", "--outdir", str(tmp_path))
    assert code == cli.EXIT_FAIL
    assert f"FAIL,malformed {name}" in out


def test_validate_judges_a_boltzmann_row_past_170_levels(tmp_path, capsys):
    # 200 packets on 6 ports, more than boltzmann ever writes: the row is
    # judged before its Poisson profile is built, not malformed
    (tmp_path / "boltzmann.csv").write_text(
        "# experiment: boltzmann\nports,packets,maximizer,states,poisson_vector,poisson_states\n6,200,6,1,6,1\n")
    code, out, _ = _run(capsys, "validate", "--outdir", str(tmp_path))
    assert code == cli.EXIT_FAIL
    assert "boltzmann_poisson_shape,FAIL" in out and "malformed boltzmann.csv" not in out


@pytest.fixture(scope="module")
def small_artifacts(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("artifacts")
    argv = ["experiment", "all", "--outdir", str(outdir), "--param", "slots=1000", "--param", "dslots=100"]
    assert cli.main(argv) == cli.EXIT_OK
    return outdir


def _header_only(text):
    return "".join(text.splitlines(keepends=True)[:2])


def _set_columns(values):
    """An edit that sets the named columns (name -> text) of every data row."""
    def edit(text):
        comment, header, *rows = text.splitlines()
        names = header.split(",")
        rows = [",".join(values.get(name, cell) for name, cell in zip(names, row.split(","))) for row in rows]
        return "\n".join([comment, header, *rows]) + "\n"
    return edit


def _drop_column(name):
    """An edit that removes the named column from the header and every data row."""
    def edit(text):
        comment, header, *rows = text.splitlines()
        i = header.split(",").index(name)
        rows = [",".join(cell for j, cell in enumerate(row.split(",")) if j != i) for row in (header, *rows)]
        return "\n".join([comment, *rows]) + "\n"
    return edit


@pytest.mark.parametrize("name, edit, check, detail", [
    ("fig10c.csv", _header_only, "deflection_loss_under_bound", "no data rows in fig10c.csv"),
    ("table2.csv", _header_only, "route_assignment_valid", "no data rows in table2.csv"),
    ("table6.csv", _header_only, "scheduler_entropy_column", "no data rows in table6.csv"),
    ("fig21.csv", _header_only, "roundoff_within_1_over_f", "no data rows in fig21.csv"),
    ("montecarlo_crossbar.csv", _header_only, "crossbar_carried_load",
     "no data rows in montecarlo_crossbar.csv"),
    ("boltzmann.csv", _header_only, "boltzmann_poisson_shape", "no data rows in boltzmann.csv"),
    ("table6.csv", lambda text: "".join(text.splitlines(keepends=True)[:5]), "scheduler_entropy_column",
     f"3 rows, expected {len(fixtures.scheduler_table())}"),
    # a Poisson profile of 10^9 levels would take minutes and gigabytes to build
    ("boltzmann.csv", lambda text: text + "6,1000000000,6,1,6,1\n", "boltzmann_poisson_shape",
     "1000000000 packets on 6 ports: need 0 <= packets <= ports <= 12"),
    # a table that agrees with its own analytic column: validate re-derives that column
    ("fig10c.csv", _set_columns({"ln_loss_bound": "0", "empirical_loss": "0.9"}),
     "deflection_loss_under_bound", ""),
    ("montecarlo_crossbar.csv", _set_columns({"carried_empirical": "0.1", "carried_analytic": "0.1"}),
     "crossbar_carried_load", ""),
    # values no experiment writes, a lost column and bytes that are not UTF-8
    ("fig21.csv", _set_columns({"max_roundoff": "nan"}), "roundoff_within_1_over_f", ""),
    ("montecarlo_crossbar.csv", _set_columns({"carried_empirical": "nan"}), "crossbar_carried_load", ""),
    ("fig10c.csv", _set_columns({"empirical_loss": "inf"}), "deflection_loss_under_bound", ""),
    ("table2.csv", _drop_column("central"), "route_assignment_valid",
     "malformed table2.csv: list index out of range"),
    ("table2.csv", lambda text: b"\xff" + text.encode(), "route_assignment_valid",
     "malformed table2.csv: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    ("fig21.csv", _set_columns({"frame_size": "0"}), "roundoff_within_1_over_f",
     "malformed fig21.csv: float division by zero"),
], ids=["fig10c_header", "table2_header", "table6_header", "fig21_header", "montecarlo_crossbar_header",
        "boltzmann_header", "table6_3_rows", "boltzmann_1e9_packets", "fig10c_own_bound",
        "montecarlo_crossbar_own_analytic", "fig21_nan_roundoff", "montecarlo_crossbar_nan_carried",
        "fig10c_inf_loss", "table2_dropped_column", "table2_not_utf8", "fig21_frame_0"])
def test_validate_fails_a_table_without_evidence(small_artifacts, tmp_path, capsys, name, edit, check, detail):
    # the edited table alone: every other check reports its missing file
    edited = edit((small_artifacts / name).read_text())
    (tmp_path / name).write_bytes(edited if isinstance(edited, bytes) else edited.encode())
    start = time.perf_counter()
    code, out, err = _run(capsys, "validate", "--outdir", str(tmp_path))
    assert time.perf_counter() - start < 1.0
    assert code == cli.EXIT_FAIL
    assert f"{check},FAIL,{detail}\n" in out
    assert "Traceback" not in out + err


def test_non_integer_param_is_usage_error(tmp_path, capsys):
    code, _, err = _run(capsys, "experiment", "fig6", "--outdir", str(tmp_path),
                        "--param", "n=abc")
    assert code == cli.EXIT_USAGE
    assert "n='abc' is not an integer" in err


def test_unknown_param_is_usage_error(tmp_path, capsys):
    code, _, err = _run(capsys, "experiment", "fig10", "--outdir", str(tmp_path),
                        "--param", "slot=3")
    assert code == cli.EXIT_USAGE
    assert "slot" in err
    assert not (tmp_path / "fig10a.csv").exists()


def test_unknown_manifest_key_is_usage_error(tmp_path, capsys):
    manifest = tmp_path / "run.manifest"
    manifest.write_text(f"experiment=fig10\noutdir={tmp_path / 'out'}\nslot=3\n")
    code, _, err = _run(capsys, "experiment", "--manifest", str(manifest))
    assert code == cli.EXIT_USAGE
    assert "slot" in err


def test_malformed_json_manifest_is_usage_error(tmp_path, capsys):
    manifest = tmp_path / "run.json"
    manifest.write_text('{"experiment": "fig10",')
    code, _, err = _run(capsys, "experiment", "--manifest", str(manifest))
    assert code == cli.EXIT_USAGE
    assert "not valid JSON" in err


@pytest.mark.parametrize("error", [ResourceLimitError, ConvergenceError])
def test_resource_and_convergence_errors_are_usage_errors(tmp_path, capsys, monkeypatch, error):
    def refuse(*args, **kwargs):
        raise error("refused")

    monkeypatch.setattr(cli.pathswitch, "allocate_capacity", refuse)
    code, _, err = _run(capsys, "experiment", "fig21", "--outdir", str(tmp_path))
    assert code == cli.EXIT_USAGE
    assert "error: refused" in err


@pytest.mark.parametrize("argv, matrix", [
    (["schedule", "0.5,abc"], None),
    (["decompose", "{matrix}"], "x\n"),
    (["decompose", "{matrix}"], "1/0\n"),
    (["schedule2d", "{matrix}"], "x\n"),
    (["schedule2d", "{matrix}"], "1/0\n"),
    (["decompose", "{matrix}", "--frame", "1"], "99999999999999999999 0\n0 99999999999999999999\n"),
    (["assign", "1,x", "--n", "2"], None),
    (["assign", "[1,0", "--n", "2"], None),
], ids=["weight_abc", "decompose_x", "decompose_1_0", "schedule2d_x", "schedule2d_1_0",
        "decompose_beyond_int64", "assign_x", "assign_bad_json"])
def test_malformed_input_is_usage_error(tmp_path, capsys, argv, matrix):
    path = tmp_path / "cap.txt"
    if matrix is not None:
        path.write_text(matrix)
    code, _, err = _run(capsys, *[arg.format(matrix=path) for arg in argv])
    assert code == cli.EXIT_USAGE
    assert err.startswith("error:")


def test_montecarlo_bad_cascade_fails_before_the_crossbar_runs(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(cli.contention, "simulate_crossbar", lambda *args, **kwargs: calls.append(args))
    code, _, err = _run(capsys, "experiment", "montecarlo", "--outdir", str(tmp_path),
                        "--param", "stages=1")
    assert code == cli.EXIT_USAGE
    assert err.startswith("error:")
    assert calls == []


@pytest.mark.parametrize("stages, lengths", [(5, [5]), (12, [10, 12])])
def test_montecarlo_short_cascade(tmp_path, capsys, stages, lengths):
    code, _, _ = _run(capsys, "experiment", "montecarlo", "--outdir", str(tmp_path),
                      "--param", f"stages={stages}", "--param", "slots=2000",
                      "--param", "dslots=200")
    assert code == cli.EXIT_OK
    rows = cli._read_csv(tmp_path / "montecarlo_deflection.csv")
    assert [int(row[0]) for row in rows] == lengths


@pytest.mark.parametrize("argv, code, fragment", [
    (["assign", "1,0", "--n", "0"], 2, "module width"),
    (["assign", "1,0", "--n", "-2"], 2, "module width"),
    (["experiment", "fig21", "--param", "k=0"], 2, "must all be >= 1"),
    (["schedule", "0.1234567,0.8765433"], 2, "exceed"),
    # memoryless scheduling keeps no frame, so the same weights still run
    (["schedule", "0.1234567,0.8765433", "--algorithm", "random", "--slots", "2000"], 0, None),
    (["schedule", "0.5,0.5", "--algorithm", "random", "--slots", "100000000000"], 2, "exceed"),
    (["schedule", "0.5,0.5", "--algorithm", "random", "--slots", "100"], 0, None),
    (["experiment", "fig10", "--param", "slots=0"], 2, "need slots >= 1"),
    (["experiment", "fig10", "--param", "slots=-3"], 2, "need slots >= 1"),
    (["experiment", "montecarlo", "--param", "dslots=0"], 2, "need slots >= 1"),
    (["deflect", "--slots", "-5", "--n", "4"], 2, "need slots >= 1"),
    (["deflect", "--rho", "0"], 2, "q > 0"),
    (["experiment", "montecarlo", "--param", "slots=1000000000000"], 2, "exceed"),
    (["experiment", "fig10", "--param", "slots=1000000000000"], 2, "exceed"),
    (["experiment", "fig10", "--param", "slots=10"], 0, None),
    (["deflect", "--slots", "1000000000000", "--n", "4"], 2, "exceed"),
    (["experiment", "fig10", "--param", "n=100000"], 2, "budget"),
    (["deflect", "--slots", "10", "--stages", "1000000000"], 2, "stages exceed"),
    (["experiment", "fig10", "--param", "stages=1000000000"], 2, "stages exceed"),
    (["experiment", "montecarlo", "--param", "stages=1000000000"], 2, "stages exceed"),
    (["experiment", "fig6", "--param", "n=0"], 2, "n=0 must be >= 1"),
    (["tradeoff", "--n", "0"], 2, "n=0 must be >= 1"),
    (["experiment", "fig6", "--param", "n=16", "--param", f"max_m={16 + cli.MAX_TABLE_ROWS + 1}"],
     2, "rows exceed"),
    (["experiment", "fig6", "--param", "max_m=100000000"], 2, "rows exceed"),
    (["tradeoff", "--max-m", "100000000"], 2, "rows exceed"),
    (["schedule2d", "{id27}", "--frame", "1"], 2, "27 modules exceed the 26"),
    # 2049 modules a side: one past the count-matrix cap
    (["assign", "{id4098}", "--n", "2"], 2, f"exceed {mt.MAX_COUNT_CELLS} cells"),
    # int() would truncate these JSON entries to a permutation
    (["assign", "[0.9, 1.5, 2, 3]", "--n", "2"], 2, "permutation is not a list of integers"),
    (["assign", "[true, false, 2, 3]", "--n", "2"], 2, "permutation is not a list of integers"),
    (["assign", "1_0,0,2,3,4,5,6,7,8,9,1", "--n", "1"], 2, "permutation is not a list of integers"),
    (["assign", "\uff11,0", "--n", "1"], 2, "permutation is not a list of integers"),
    # numpy's default_rng refused these with a traceback
    (["deflect", "--slots", "10", "--seed", "-1"], 2, "seed must be an integer >= 0"),
    (["schedule", "0.5,0.5", "--algorithm", "random", "--seed", "-1"], 2, "seed must be an integer >= 0"),
    (["experiment", "montecarlo", "--seed", "-1"], 2, "seed must be an integer >= 0"),
    (["experiment", "fig21", "--seed", "-1"], 2, "seed must be an integer >= 0"),
    (["experiment", "all", "--seed", "-1"], 2, "seed must be an integer >= 0"),
], ids=["assign_n_0", "assign_n_-2", "fig21_k_0", "frame_1e7", "frame_1e7_random",
        "random_1e11", "random_100", "fig10_slots_0", "fig10_slots_-3", "montecarlo_dslots_0",
        "deflect_slots_-5", "deflect_rho_0", "montecarlo_1e12", "fig10_1e12", "fig10_10", "deflect_1e12",
        "fig10_n_100000", "deflect_stages_1e9", "fig10_stages_1e9", "montecarlo_stages_1e9",
        "fig6_n_0", "tradeoff_n_0", "fig6_rows_over_cap", "fig6_max_m_1e8", "tradeoff_max_m_1e8",
        "schedule2d_27_modules", "assign_4098_ports", "assign_json_floats", "assign_json_bools",
        "assign_underscore", "assign_fullwidth_digit", "deflect_seed_-1", "random_seed_-1",
        "montecarlo_seed_-1", "fig21_seed_-1", "all_seed_-1"])
def test_run_size_table(tmp_path, tmp_path_factory, capsys, argv, code, fragment):
    # a refused command exits 2 at once, before any work, with one error line,
    # no traceback and nothing written
    id27 = tmp_path_factory.mktemp("input") / "id27.txt"
    id27.write_text("\n".join(" ".join("1" if i == j else "0" for j in range(27)) for i in range(27)))
    argv = [arg.format(id27=id27, id4098=",".join(map(str, range(4098)))) for arg in argv]
    if argv[0] == "experiment":
        argv = argv + ["--outdir", str(tmp_path)]
    start = time.perf_counter()
    got, out, err = _run(capsys, *argv)
    assert got == code
    assert time.perf_counter() - start < 1.0
    assert "Traceback" not in err
    if code == cli.EXIT_USAGE:
        assert err.startswith("error:") and fragment in err and out == ""
        assert not list(tmp_path.iterdir())


def test_fig10_runs_past_the_underflow_of_the_loss_bound(tmp_path, capsys):
    # loss_bound(1.0, L) underflows to 0 from about L = 2000: ln_loss_bound is
    # written and checked in its log form, which does not
    code, _, err = _run(capsys, "experiment", "fig10", "--outdir", str(tmp_path), "--param", "stages=3000")
    assert code == cli.EXIT_OK, err
    rows = cli._read_csv(tmp_path / "fig10c.csv")
    assert len(rows) == 2999 and all(float(r[1]) < 0 for r in rows)
    _, out, _ = _run(capsys, "validate", "--outdir", str(tmp_path))
    assert "deflection_loss_under_bound,pass," in out.splitlines()


def test_outdir_that_is_a_file_is_usage_error(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    code, out, err = _run(capsys, "experiment", "fig6", "--outdir", str(taken))
    assert code == cli.EXIT_USAGE
    assert err.startswith("error:") and out == ""


@pytest.mark.parametrize("k", [257, 100_000], ids=["k_257", "k_100000"])
def test_fig21_oversized_traffic_matrix_fails_before_drawing(tmp_path, capsys, monkeypatch, k):
    draws = []
    monkeypatch.setattr(cli.np.random, "default_rng", lambda *args: draws.append(args))
    code, _, err = _run(capsys, "experiment", "fig21", "--outdir", str(tmp_path),
                        "--param", f"k={k}")
    assert code == cli.EXIT_USAGE
    assert "exceeds" in err
    assert draws == []


@pytest.mark.parametrize("tolerance", ["nan", "inf", "-1e-3"])
def test_bad_validate_tolerance_is_usage_error(tmp_path, capsys, tolerance):
    _run(capsys, "experiment", "fig10", "--outdir", str(tmp_path), "--param", "slots=400")
    code, out, err = _run(capsys, "validate", "--outdir", str(tmp_path), f"--tolerance={tolerance}")
    assert code == cli.EXIT_USAGE
    assert err.startswith("error: tolerance") and out == ""


def test_one_parser_per_process_answers_as_fresh_parsers_do(tmp_path, capsys, monkeypatch):
    calls = [
        ["schedule", "0.5,0.25,0.25", "--algorithm", "wf2q"],
        ["schedule", "0.5,0.25,0.25", "--algorithm", "bogus"],  # a usage error
        ["experiment", "fig6", "--param", "max_m=8", "--param", "n=4", "--outdir", "{root}/a"],
        ["experiment", "fig6", "--param", "max_m=6", "--outdir", "{root}/b"],  # after a repeated --param
    ]

    def run_twice_each(root):
        seen = []
        for argv in calls:
            for _ in range(2):
                code, out, err = _run(capsys, *(a.format(root=root) for a in argv))
                seen.append((code, out.replace(str(root), "ROOT"), err))
        csvs = {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*.csv"))}
        return seen, csvs

    assert cli.build_parser() is cli.build_parser()
    cached = run_twice_each(tmp_path / "cached")
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)  # a new parser per call
    assert cli.build_parser() is not cli.build_parser()
    fresh = run_twice_each(tmp_path / "fresh")
    assert cached == fresh
    assert [code for code, _, _ in cached[0]] == [cli.EXIT_OK] * 2 + [cli.EXIT_USAGE] * 2 + [cli.EXIT_OK] * 4
    assert set(cached[1]) == {"a/fig6.csv", "b/fig6.csv"} and cached[1]["a/fig6.csv"] != cached[1]["b/fig6.csv"]


def test_repeated_param_lists_do_not_leak_between_parses():
    parser = cli.build_parser()  # the one that main reuses
    first = parser.parse_args(["experiment", "fig6", "--param", "a=1", "--param", "b=2"])
    second = parser.parse_args(["experiment", "fig6", "--param", "c=3"])
    third = parser.parse_args(["experiment", "fig6"])
    assert (first.param, second.param, third.param) == (["a=1", "b=2"], ["c=3"], None)
