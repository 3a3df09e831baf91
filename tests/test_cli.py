"""Run configs, dataset writing, resumable runs, and subcommand exit codes."""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import pytest

import plaqgate
from plaqgate import geophase
from plaqgate.cli import COMMANDS, REPORT_FIGURES, RunConfig, _build_parser, run
from plaqgate.pertgate import default_sweep_grid


def _run(tmp_path, *argv) -> int:
    return run(list(argv) + ["--output-dir", str(tmp_path)])


def _only_run_dir(tmp_path) -> str:
    entries = [p for p in tmp_path.iterdir() if p.is_dir()]
    assert len(entries) == 1
    return str(entries[0])


def _json_rows(out_dir, *argv) -> list[dict]:
    """Run one command into a fresh `out_dir` and read back its JSON dataset."""
    assert _run(out_dir, *argv, "--format", "json") == 0
    return json.load(open(os.path.join(_only_run_dir(out_dir), "data.json")))


# ---------------------------------------------------------------------------
# RunConfig
# ---------------------------------------------------------------------------

def test_config_rejects_unknown_command():
    with pytest.raises(ValueError):
        RunConfig(command="does-not-exist", params={})


def test_config_rejects_unknown_param_keys():
    with pytest.raises(ValueError, match="unknown parameter"):
        RunConfig(command="spectrum", params={"j": 1.0, "dJ": 0.2, "typo": 3})


def test_config_rejects_bad_format():
    with pytest.raises(ValueError, match="format"):
        RunConfig(command="spectrum", params={"j": 1.0, "dJ": 0.2}, format="xml")


def test_config_hash_ignores_output_dir():
    a = RunConfig("spectrum", {"j": 1.0, "dJ": 0.2}, output_dir="x")
    b = RunConfig("spectrum", {"j": 1.0, "dJ": 0.2}, output_dir="y")
    assert a.config_hash() == b.config_hash()
    assert len(a.config_hash()) == 8
    int(a.config_hash(), 16)  # hex digest prefix


def test_config_hash_tracks_inputs():
    base = RunConfig("spectrum", {"j": 1.0, "dJ": 0.2})
    assert base.config_hash() != RunConfig("spectrum", {"j": 1.0, "dJ": 0.3}).config_hash()
    assert base.config_hash() != RunConfig("spectrum", {"j": 1.0, "dJ": 0.2}, seed=1).config_hash()


# ---------------------------------------------------------------------------
# End-to-end runs
# ---------------------------------------------------------------------------

def test_spectrum_dataset_and_manifest(tmp_path):
    assert _run(tmp_path, "spectrum", "--dJ", "0.2") == 0
    run_dir = _only_run_dir(tmp_path)
    lines = open(os.path.join(run_dir, "data.csv")).read().splitlines()
    assert lines[0] == "label,energy,multiplicity"
    assert len(lines) == 7
    by_label = {ln.split(",")[0]: float(ln.split(",")[1]) for ln in lines[1:]}
    assert by_label["quintet"] == pytest.approx(8.8, abs=1e-12)
    assert by_label["singlet_low"] == pytest.approx(-3.2, abs=1e-12)

    manifest = json.load(open(os.path.join(run_dir, "manifest.json")))
    assert manifest["command"] == "spectrum"
    assert manifest["params"] == {"j": 1.0, "dJ": 0.2}
    assert manifest["seed"] == 0
    assert manifest["format"] == "csv"
    assert manifest["rows"] == 6
    assert manifest["fields"] == ["label", "energy", "multiplicity"]
    assert run_dir.endswith(manifest["config_hash"])


def test_json_format(tmp_path):
    assert _run(tmp_path, "pert-coeffs", "--dJ", "0.3", "--format", "json") == 0
    run_dir = _only_run_dir(tmp_path)
    rows = json.load(open(os.path.join(run_dir, "data.json")))
    assert len(rows) == 1
    assert set(rows[0]) == {"d_over_J", "lambda_z", "gamma_z", "delta_e"}


def test_same_seed_byte_identical(tmp_path):
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    assert _run(dir_a, "prepare-plus") == 0
    assert _run(dir_b, "prepare-plus") == 0
    name_a, name_b = _only_run_dir(dir_a), _only_run_dir(dir_b)
    assert os.path.basename(name_a) == os.path.basename(name_b)
    for fname in ("data.csv", "manifest.json"):
        bytes_a = open(os.path.join(name_a, fname), "rb").read()
        assert bytes_a == open(os.path.join(name_b, fname), "rb").read()


def test_resume_and_force(tmp_path, capsys):
    assert _run(tmp_path, "pert-coeffs", "--dJ", "0.3") == 0
    capsys.readouterr()
    assert _run(tmp_path, "pert-coeffs", "--dJ", "0.3") == 0
    assert "already complete" in capsys.readouterr().out
    assert _run(tmp_path, "pert-coeffs", "--dJ", "0.3", "--force") == 0
    assert "already complete" not in capsys.readouterr().out


def test_forced_run_reads_no_old_run(tmp_path, monkeypatch):
    import plaqgate.cli as cli

    assert _run(tmp_path, "pert-coeffs", "--dJ", "0.3") == 0

    def no_completeness_check(config):
        raise AssertionError("a forced run checked the old run")

    monkeypatch.setattr(cli, "_is_complete", no_completeness_check)
    assert _run(tmp_path, "pert-coeffs", "--dJ", "0.3", "--force") == 0


def test_config_hashes_once(monkeypatch):
    import plaqgate.cli as cli

    calls = []
    real_sha1 = cli.hashlib.sha1
    monkeypatch.setattr(cli.hashlib, "sha1", lambda data: calls.append(data) or real_sha1(data))
    config = RunConfig("spectrum", {"j": 1.0, "dJ": 0.2}, output_dir="out")
    assert config.run_dir() == os.path.join("out", f"spectrum-{config.config_hash()}")
    assert config.config_hash() == config.config_hash() and len(calls) == 1


def test_force_rewrite_is_atomic(tmp_path, monkeypatch):
    import plaqgate.cli as cli

    assert _run(tmp_path, "spectrum", "--dJ", "0.2") == 0
    run_dir = _only_run_dir(tmp_path)
    data = os.path.join(run_dir, "data.csv")
    inode = os.stat(data).st_ino
    assert _run(tmp_path, "spectrum", "--dJ", "0.2", "--force") == 0
    assert os.stat(data).st_ino == inode  # same bytes: the file is left as it is

    with open(data, "ab") as fh:  # a dataset the rerun must replace
        fh.write(b"stale\r\n")
    before = {n: open(os.path.join(run_dir, n), "rb").read() for n in os.listdir(run_dir)}

    def full_disk_open(path, *args, **kwargs):
        fh = open(path, *args, **kwargs)
        real_write = fh.write

        def write(chunk):
            real_write(chunk[:20])
            raise OSError(28, "No space left on device")

        fh.write = write
        return fh

    monkeypatch.setattr(cli, "open", full_disk_open, raising=False)
    assert _run(tmp_path, "spectrum", "--dJ", "0.2", "--force") == 2
    after = {n: open(os.path.join(run_dir, n), "rb").read() for n in os.listdir(run_dir)}
    assert after == before


def test_force_rewrite_of_plot_script_is_atomic(tmp_path, monkeypatch):
    assert _run(tmp_path, "report", "--figure", "allowed") == 0
    run_dir = _only_run_dir(tmp_path)
    with open(os.path.join(run_dir, "plot.gp"), "ab") as fh:  # a script the rerun must replace
        fh.write(b"stale\n")
    before = {n: open(os.path.join(run_dir, n), "rb").read() for n in os.listdir(run_dir)}

    def failing_replace(src, dst):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, "replace", failing_replace)
    assert _run(tmp_path, "report", "--figure", "allowed", "--force") == 2
    after = {n: open(os.path.join(run_dir, n), "rb").read() for n in os.listdir(run_dir)}
    assert after == before  # the old plot.gp is whole and no *.tmp is left


#: The commands of one benchmark round of cheap CLI calls
CHEAP_COMMANDS = [
    ["spectrum", "--dJ", "0.3"],
    ["prepare-plus", "--mode", "two_step"],
    ["prepare-plus", "--mode", "one_step"],
    ["pert-coeffs", "--dJ", "0.3"],
    ["pert-allowed", "--n", "1", "--m", "1"],
    ["hubbard-check", "--statistics", "both", "--t-over-u", "0.02"],
    ["geophase-table", "--statistics", "both"],
    ["report", "--figure", "coeffs"],
]


def test_cheap_commands_write_the_same_bytes_cold_and_warm(tmp_path):
    # a fresh interpreter runs every command twice, so the second run meets
    # the caches that the first one filled (ledger rows, logical basis, report rows)
    code = (f"from plaqgate import cli\nfor out in ('cold', 'warm'):\n"
            f"    for argv in {CHEAP_COMMANDS!r}:\n"
            f"        assert cli.run(argv + ['--output-dir', out, '--force']) == 0\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(plaqgate.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                   cwd=tmp_path, capture_output=True, check=True)

    def tree(root):
        return {os.path.relpath(os.path.join(d, n), root): open(os.path.join(d, n), "rb").read()
                for d, _, names in os.walk(root) for n in names}

    cold, warm = tree(tmp_path / "cold"), tree(tmp_path / "warm")
    assert len({os.path.dirname(name) for name in cold}) == len(CHEAP_COMMANDS)
    assert cold == warm


def _scipy_modules_after(code):
    """The scipy modules that a fresh interpreter has loaded after running `code` (last line)."""
    code += "\nimport sys\nprint(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    src = os.path.dirname(os.path.dirname(os.path.abspath(plaqgate.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, check=True)
    return proc.stdout.splitlines()[-1]


def test_import_path_is_free_of_scipy():
    # scipy.optimize is imported inside optctrl.optimize, its one caller; at
    # module level it would be most of the start-up of every CLI process
    modules = ["plaqgate", "plaqgate.cli"] + [
        f"plaqgate.{m}" for m in ("spincore", "plaquette", "pertgate", "geophase", "optctrl")]
    assert _scipy_modules_after(f"import {', '.join(modules)}") == "[]"


def test_geophase_dynamics_runs_without_scipy(tmp_path):
    # the return-time search is in-house, so a whole run loads no scipy module
    argv = ["geophase-dynamics", "--statistics", "both", "--output-dir", str(tmp_path), "--force"]
    assert _scipy_modules_after(f"from plaqgate import cli\nassert cli.run({argv!r}) == 0") == "[]"
    assert _only_run_dir(tmp_path)


def test_output_dir_env_default(tmp_path, monkeypatch):
    monkeypatch.setenv("PLAQGATE_OUTPUT_DIR", str(tmp_path))
    assert run(["pert-coeffs", "--dJ", "0.4"]) == 0
    assert _only_run_dir(tmp_path)


def test_pert_fidelity_rows(tmp_path):
    assert _run(
        tmp_path, "pert-fidelity", "--Jp", "0.05",
        "--dJ-min", "0.30", "--dJ-max", "0.33", "--dJ-step", "0.01",
    ) == 0
    run_dir = _only_run_dir(tmp_path)
    lines = open(os.path.join(run_dir, "data.csv")).read().splitlines()
    assert lines[0] == "d_over_J,Jp_over_J,n,m,t_c,F,leakage"
    assert len(lines) == 5
    d_col = [float(ln.split(",")[0]) for ln in lines[1:]]
    assert d_col == [0.30, 0.31, 0.32, 0.33]
    f_col = [float(ln.split(",")[5]) for ln in lines[1:]]
    assert all(f > 0.98 for f in f_col)


def test_geophase_dynamics_rows_follow_sector_order(tmp_path):
    assert _run(tmp_path, "geophase-dynamics", "--statistics", "fermion", "--u", "25") == 0
    lines = open(os.path.join(_only_run_dir(tmp_path), "data.csv")).read().splitlines()
    assert [ln.split(",")[1] for ln in lines[1:]] == ["SS", "ST", "TS", "TT"]
    assert all(ln.split(",")[-1] == "ok" for ln in lines[1:])


# The geophase-dynamics sweep loop: rows keep (statistics x sector) grid
# order, and a point that raises becomes a flagged row, not a failed run.

def test_sweep_preserves_grid_order(tmp_path):
    rows = _json_rows(tmp_path, "geophase-dynamics", "--statistics", "both", "--u", "25")
    assert [(r["statistics"], r["sector"]) for r in rows] == [
        (s, sec) for s in ("boson", "fermion") for sec in ("SS", "ST", "TS", "TT")]
    assert all(r["status"] == "ok" for r in rows)


def test_sweep_flags_failed_points(tmp_path, monkeypatch):
    real = geophase.tunneling_phase

    def failing(sector, params, statistics):
        if (statistics, sector) == ("fermion", "ST"):
            raise ValueError("bad point")
        return real(sector, params, statistics)

    monkeypatch.setattr(geophase, "tunneling_phase", failing)
    rows = _json_rows(tmp_path, "geophase-dynamics", "--statistics", "both", "--u", "25")
    assert [(r["statistics"], r["sector"]) for r in rows] == [
        (s, sec) for s in ("boson", "fermion") for sec in ("SS", "ST", "TS", "TT")]
    failed = rows[5]
    assert failed["status"] == "error: ValueError: bad point"
    assert failed["return_time"] is None
    assert [r["status"] for r in rows[:5] + rows[6:]] == ["ok"] * 7


def test_liedim_prints_dimension(tmp_path, capsys):
    assert _run(tmp_path, "optctrl-liedim") == 0
    assert capsys.readouterr().out.splitlines()[0] == "80"


def test_report_writes_plot_script(tmp_path):
    assert _run(tmp_path, "report", "--figure", "coeffs") == 0
    run_dir = _only_run_dir(tmp_path)
    assert os.path.exists(os.path.join(run_dir, "plot.gp"))
    manifest = json.load(open(os.path.join(run_dir, "manifest.json")))
    assert manifest["figure"] == "coeffs"
    assert "plot.gp" in manifest["artifacts"]
    assert manifest["fields"] == ["d_over_J", "lambda_z", "gamma_z"]


def test_report_coeffs_rows_are_pert_coeffs_rows(tmp_path):
    report = _json_rows(tmp_path / "report", "report", "--figure", "coeffs")
    assert [row["d_over_J"] for row in report] == [float(r) for r in default_sweep_grid()]
    for k, row in enumerate(report):
        (single,) = _json_rows(tmp_path / str(k), "pert-coeffs", "--dJ", repr(row["d_over_J"]))
        del single["delta_e"]
        assert row == single


def test_report_allowed_rows_are_pert_allowed_rows(tmp_path):
    expected = []
    for n, m in ((1, 1), (1, 2), (2, 1), (3, 4)):
        for row in _json_rows(tmp_path / f"{n}-{m}", "pert-allowed", "--n", str(n), "--m", str(m)):
            del row["residual"]
            expected.append(row)
    assert _json_rows(tmp_path / "report", "report", "--figure", "allowed") == expected


def test_report_figure_choices_are_the_figure_table():
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    figure = next(a for a in sub.choices["report"]._actions if a.dest == "figure")
    assert sorted(figure.choices) == sorted(REPORT_FIGURES)


# ---------------------------------------------------------------------------
# The command table
# ---------------------------------------------------------------------------

COMMON_FLAGS = {"-h", "--help", "--seed", "--output-dir", "--format", "--force"}

# A default (or minimal-required) invocation of each command and the config
# hash it has always had; a changed key, default or hash shows here.
PINNED_CONFIGS = {
    "spectrum": (["--dJ", "0.2"], "855fa84c"),
    "prepare-plus": ([], "5eb1c49e"),
    "pert-coeffs": (["--dJ", "0.3"], "5bb7042d"),
    "pert-fidelity": (["--Jp", "0.1"], "4cda0529"),
    "pert-allowed": ([], "39571778"),
    "pert-validate": (["--dJ", "0.3", "--Jp", "0.05"], "ccab6e45"),
    "optctrl-optimize": ([], "7f92cf94"),
    "optctrl-gradcheck": ([], "5e07602f"),
    "optctrl-robustness": (["--result", "result.json"], "953037b6"),
    "optctrl-liedim": ([], "0b83db49"),
    "geophase-table": ([], "052fe2a6"),
    "geophase-dynamics": ([], "6ffbe106"),
    "schwinger-check": ([], "0610cb34"),
    "hubbard-check": ([], "716fd6cf"),
    "report": (["--figure", "pertfid"], "64462497"),
}


@pytest.mark.parametrize("name", list(COMMANDS))
def test_command_table_pins_flags_and_config_hash(name, tmp_path, monkeypatch):
    _, help_text, options = COMMANDS[name]
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    parsed_flags = {flag for action in sub.choices[name]._actions for flag in action.option_strings}
    assert parsed_flags == COMMON_FLAGS | {flag for flag, _ in options}

    def stub(config):
        return ["x"], [{"x": 1}], None

    monkeypatch.setitem(COMMANDS, name, (stub, help_text, options))
    argv, config_hash = PINNED_CONFIGS[name]
    assert _run(tmp_path, name, *argv) == 0
    assert os.path.basename(_only_run_dir(tmp_path)) == f"{name}-{config_hash}"


# ---------------------------------------------------------------------------
# Exit codes
# ---------------------------------------------------------------------------

def test_exit_2_unknown_subcommand(tmp_path):
    assert _run(tmp_path, "no-such-command") == 2


def test_exit_2_missing_required_flag(tmp_path):
    assert _run(tmp_path, "spectrum") == 2


@pytest.mark.parametrize("argv, message", [
    # d/J = 3 sits on a pole of the perturbative coefficients
    pytest.param(("pert-coeffs", "--dJ", "3.0"), "is a pole", id="pert-coeffs-pole"),
    # an empty search: no harmonics, or no descent at all
    pytest.param(("optctrl-optimize", "--L", "0"), "n_harmonics >= 1", id="optimize-L0"),
    pytest.param(("optctrl-optimize", "--restarts", "0"), "restarts >= 1",
                 id="optimize-restarts0"),
    # no slices
    pytest.param(("optctrl-optimize", "--steps", "0"), "steps must be >= 1",
                 id="optimize-steps0"),
    pytest.param(("optctrl-gradcheck", "--points", "1", "--steps", "0"), "steps must be >= 1",
                 id="gradcheck-steps0"),
    # a check of no points would pass having checked nothing
    pytest.param(("optctrl-gradcheck", "--points", "0"), "--points must be >= 1",
                 id="gradcheck-points0"),
    # a finite-difference or sweep step that is not positive
    pytest.param(("optctrl-gradcheck", "--points", "1", "--fd-step", "0"),
                 "fd_step must be positive", id="gradcheck-fd-step0"),
    pytest.param(("pert-fidelity", "--Jp", "0.1", "--dJ-step", "0"),
                 "--dJ-step must be positive", id="pert-fidelity-dJ-step0"),
    pytest.param(("pert-fidelity", "--Jp", "0.1", "--dJ-step", "-0.01"),
                 "--dJ-step must be positive", id="pert-fidelity-dJ-step-negative"),
    # an empty grid would write a header-only dataset
    pytest.param(("pert-fidelity", "--Jp", "0.1", "--dJ-min", "0.9", "--dJ-max", "0.1"),
                 "--dJ-min must not exceed --dJ-max", id="pert-fidelity-dJ-min-above-max"),
    # NaN is outside the regime, not a matrix for the eigensolver
    pytest.param(("hubbard-check", "--t-over-u", "nan"), "outside the superexchange regime",
                 id="hubbard-check-nan"),
])
def test_exit_2_bad_value(tmp_path, capsys, argv, message):
    assert _run(tmp_path, *argv) == 2
    assert message in capsys.readouterr().err


def test_exit_3_nonconverged_gradcheck(tmp_path):
    # an absurd finite-difference step makes the check fail numerically
    code = _run(
        tmp_path, "optctrl-gradcheck", "--points", "1", "--steps", "60",
        "--fd-step", "0.5",
    )
    assert code == 3


def test_exit_2_hubbard_check_outside_superexchange_regime(tmp_path, capsys):
    assert _run(tmp_path, "hubbard-check", "--t-over-u", "0") == 2
    assert "t/U = 0 is outside the superexchange regime" in capsys.readouterr().err
