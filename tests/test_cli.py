"""Run configs, dataset writing, resumable runs, and subcommand exit codes."""
from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import pytest

import plaqgate
from plaqgate import geophase, optctrl
from plaqgate.cli import COMMANDS, REPORT_FIGURES, RunConfig, _build_parser, run
from plaqgate.pertgate import sweep_grid


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


@pytest.mark.parametrize("fmt, cut", [
    ("csv", lambda text: ""),
    ("json", lambda text: json.dumps(json.loads(text)[:-1])),
], ids=["emptied-csv", "json-one-row-short"])
def test_damaged_dataset_is_recomputed(tmp_path, capsys, fmt, cut):
    # a run directory counts as complete only while its dataset holds the manifest's rows
    argv = ("spectrum", "--dJ", "0.3", "--format", fmt)
    assert _run(tmp_path, *argv) == 0
    data = os.path.join(_only_run_dir(tmp_path), f"data.{fmt}")
    original = open(data, "rb").read()
    with open(data, "w") as fh:
        fh.write(cut(original.decode()))
    capsys.readouterr()
    assert _run(tmp_path, *argv) == 0
    assert "already complete" not in capsys.readouterr().out
    assert open(data, "rb").read() == original
    assert _run(tmp_path, *argv) == 0
    assert "already complete" in capsys.readouterr().out


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


def _fresh_python(code: str, cwd=None) -> str:
    """The stdout of `code` run by a fresh interpreter that imports this plaqgate."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(plaqgate.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          cwd=cwd, capture_output=True, text=True, check=True).stdout


def test_cheap_commands_write_the_same_bytes_cold_and_warm(tmp_path):
    # a fresh interpreter runs every command twice, so the second run meets
    # the caches that the first one filled (ledger rows, logical basis, report rows)
    _fresh_python(f"from plaqgate import cli\nfor out in ('cold', 'warm'):\n"
                  f"    for argv in {CHEAP_COMMANDS!r}:\n"
                  f"        assert cli.run(argv + ['--output-dir', out, '--force']) == 0\n",
                  cwd=tmp_path)

    def tree(root):
        return {os.path.relpath(os.path.join(d, n), root): open(os.path.join(d, n), "rb").read()
                for d, _, names in os.walk(root) for n in names}

    cold, warm = tree(tmp_path / "cold"), tree(tmp_path / "warm")
    assert len({os.path.dirname(name) for name in cold}) == len(CHEAP_COMMANDS)
    assert cold == warm


#: Every command but optctrl-optimize and the optctrl-robustness of its result,
#: at settings that run in well under a second
FAST_COMMANDS = CHEAP_COMMANDS + [
    ["pert-fidelity", "--Jp", "0.1", "--dJ-min", "0.3", "--dJ-max", "0.32"],
    ["pert-validate", "--dJ", "0.3", "--Jp", "0.05"],
    ["optctrl-gradcheck", "--points", "1", "--steps", "60"],
    ["optctrl-liedim"],
    ["geophase-dynamics", "--statistics", "both"],
    ["schwinger-check"],
    ["report", "--figure", "pertfid"],
    ["report", "--figure", "allowed"],
]


def test_fast_commands_build_no_full_fock_space(tmp_path):
    # the link work runs in fixed-N sectors: a space with total_number=None is
    # the 729-state one. A fresh interpreter, so no cache filled earlier hides a build.
    assert {argv[0] for argv in FAST_COMMANDS} == set(COMMANDS) - {
        "optctrl-optimize", "optctrl-robustness"}
    code = ("from plaqgate import cli, geophase\n"
            "built, init = [], geophase.TwoBandFockSpace.__post_init__\n"
            "geophase.TwoBandFockSpace.__post_init__ = lambda self: (\n"
            "    built.append(self.total_number), init(self))\n"
            "full = []\n"
            f"for argv in {FAST_COMMANDS!r}:\n"
            "    assert cli.run(argv + ['--output-dir', 'out', '--force']) == 0\n"
            "    full += [argv[0]] * built.count(None)\n"
            "    built.clear()\n"
            "print(full)\n")
    assert _fresh_python(code, cwd=tmp_path).splitlines()[-1] == "[]"


def test_hubbard_check_builds_only_the_operators_it_reads(tmp_path):
    # per statistics S^2 and the two-site hop; the link exchange and unit hop are built
    # only where a link Hamiltonian reads them. A fresh interpreter, so no cache hides a build.
    code = ("from plaqgate import cli, geophase\n"
            "calls, op = [], geophase.TwoBandFockSpace.operator\n"
            "geophase.TwoBandFockSpace.operator = lambda self, s: calls.append(1) or op(self, s)\n"
            "argv = ['hubbard-check', '--statistics', 'both', '--output-dir', 'out']\n"
            "assert cli.run(argv) == 0\n"
            "print(len(calls))\n")
    assert _fresh_python(code, cwd=tmp_path).splitlines()[-1] == "4"


def _scipy_modules_after(code):
    """The scipy modules that a fresh interpreter has loaded after running `code` (last line)."""
    code += "\nimport sys\nprint(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    return _fresh_python(code).splitlines()[-1]


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


def test_overflowing_link_energy_flags_its_rows(tmp_path):
    """U_L^aa = 1e308 is finite, but a boson doublon's 2 U_L^aa is not: no ok row holds a NaN."""
    rows = _json_rows(tmp_path, "geophase-dynamics", "--statistics", "both", "--u-l-aa", "1e308")
    for row in rows:
        if row["statistics"] == "boson":
            assert row["status"].startswith("error: ValueError: non-finite link spectrum")
        assert row["status"] != "ok" or math.isfinite(row["phase"])


def test_ill_conditioned_link_spectrum_flags_its_rows(tmp_path):
    """At U_L^aa = 1e20 rounding eps max|E| swamps t: fermion TS read a phase of 0.143 where pi
    is due. Such rows are errors; at 1e4 every row stays ok and resonant TS reads pi."""
    rows = _json_rows(tmp_path / "1e20", "geophase-dynamics", "--statistics", "fermion",
                      "--u-l-aa", "1e20")
    assert len(rows) == 4
    assert all(r["status"].startswith("error: ValueError: ill-conditioned link spectrum")
               for r in rows)
    rows = _json_rows(tmp_path / "1e4", "geophase-dynamics", "--statistics", "both",
                      "--u-l-aa", "1e4")
    assert [r["status"] for r in rows] == ["ok"] * 8
    assert abs(rows[6]["phase"] - math.pi) <= 1e-2  # fermion TS: (1, 0) off, (1, 2) resonant


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
    assert [row["d_over_J"] for row in report] == [float(r) for r in sweep_grid(0.05, 0.95, 0.01)]
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


def _help_options(command: str) -> dict[str, str]:
    """Each flag of a command's parser -> the value its help shows (metavar or {choices})."""
    shown = {}
    for line in _build_parser()[1][command].format_help().splitlines():
        if line.startswith("  -"):
            for invocation in line[2:].split("  ")[0].split(", "):
                flag, _, value = invocation.partition(" ")
                shown[flag] = value
    return shown


def test_report_figure_choices_are_the_figure_table():
    figures = _help_options("report")["--figure"]
    assert sorted(figures.strip("{}").split(",")) == sorted(REPORT_FIGURES)


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
    assert set(_help_options(name)) == COMMON_FLAGS | {flag for flag, _ in options}

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


def _parsed_by_top_level_parser(argv) -> int:
    """The exit code of the top-level parser reading the whole argv: `run`'s reference."""
    try:
        _build_parser()[0].parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    return 0


@pytest.mark.parametrize("argv", [[], ["--help"], ["nope"], ["spectrum", "--bogus"],
                                  ["spectrum"], ["spectrum", "--help"],
                                  ["spectrum", "--dJ", "0.2", "extra", "--bogus"]])
def test_parsing_once_keeps_messages_and_exit_codes(argv, capsys):
    """`run` hands a known command straight to its own parser; what it prints and returns
    is byte for byte what the top-level parser gives for the same argv."""
    code = _parsed_by_top_level_parser(argv)
    expected = capsys.readouterr()
    assert code == (0 if "--help" in argv else 2)
    assert run(argv) == code
    assert capsys.readouterr() == expected


_GOOD_RESULT = {"x": [[0.1]] * 5, "T": 1.0, "infidelity": 0.5, "seed": 0}
#: Result files that optctrl-robustness must refuse, each one field or the type off a good one
BAD_RESULTS = {
    "horizon-nan.json": {**_GOOD_RESULT, "T": float("nan")},
    "no-x.json": {k: v for k, v in _GOOD_RESULT.items() if k != "x"},
    "list.json": list(_GOOD_RESULT.values()),
    "seed-null.json": {**_GOOD_RESULT, "seed": None},
}


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
    # below 1e-4 the eigensolve's rounding swamps the gap: rel_error read 0.50 at 1e-9
    pytest.param(("hubbard-check", "--t-over-u", "1e-9"), "outside the superexchange regime",
                 id="hubbard-check-1e-9"),
    # beyond |d/J| ~ 7.5e8 the rounding of the d levels swamps J: a 4J level would read -8.9e284
    pytest.param(("spectrum", "--dJ", "1e300"), "are not resolved", id="spectrum-dJ-1e300"),
    # m = 0 would divide the phase-matching level by zero
    pytest.param(("pert-allowed", "--m", "0"), "n and m must be positive integers",
                 id="pert-allowed-m0"),
    # non-finite link energies: a cached error row per sector, or no row flagged resonant
    pytest.param(("geophase-dynamics", "--u", "nan"), "link energies must be finite",
                 id="dynamics-u-nan"),
    pytest.param(("geophase-dynamics", "--u", "inf"), "link energies must be finite",
                 id="dynamics-u-inf"),
    pytest.param(("geophase-dynamics", "--u-l-aa", "nan"), "link energies must be finite",
                 id="dynamics-u-l-aa-nan"),
    pytest.param(("geophase-table", "--bias-surplus", "nan"), "link energies must be finite",
                 id="table-bias-surplus-nan"),
    # attractive or vanishing links carry no physics here: boson SS read -2 pi at --u -1
    *(pytest.param(("geophase-dynamics", "--u", u), f"U_R^ab = {float(u)}", id=f"dynamics-u{u}")
      for u in ("0", "-1")),
    *(pytest.param(("geophase-table", flag, u), f"{name} = {float(u)}", id=f"table{flag[1:]}{u}")
      for flag, name in (("--u-l-aa", "U_L^aa"), ("--u-r-ab", "U_R^ab")) for u in ("0", "-1")),
    # non-finite pulse and coupling values: a NaN fidelity or deviation, or a failed solve
    pytest.param(("prepare-plus", "--angle-scale", "nan"), "angle_scale must be finite",
                 id="prepare-plus-angle-scale-nan"),
    pytest.param(("prepare-plus", "--angle-scale", "inf"), "angle_scale must be finite",
                 id="prepare-plus-angle-scale-inf"),
    pytest.param(("pert-fidelity", "--Jp", "nan"), "J, d and J' must be finite",
                 id="pert-fidelity-Jp-nan"),
    pytest.param(("pert-fidelity", "--Jp", "inf"), "J, d and J' must be finite",
                 id="pert-fidelity-Jp-inf"),
    pytest.param(("pert-coeffs", "--dJ", "nan"), "d/J must be finite", id="pert-coeffs-nan"),
    pytest.param(("pert-coeffs", "--dJ", "inf"), "d/J must be finite", id="pert-coeffs-inf"),
    # finite input with a non-finite cell, no row, or an overflow reported as non-convergence
    pytest.param(("pert-coeffs", "--dJ", "1e308"), "--dJ = 1e+308 gives non-finite coefficients",
                 id="pert-coeffs-1e308"),
    pytest.param(("pert-fidelity", "--Jp", "0.05", "--dJ-min", "1.5", "--dJ-max", "2"),
                 "--dJ-min 1.5 to --dJ-max 2.0 holds no d/J in (0, 1)",
                 id="pert-fidelity-no-ratio-in-range"),
    pytest.param(("pert-fidelity", "--Jp", "1e308"), "--Jp = 1e+308 is too large",
                 id="pert-fidelity-Jp-1e308"),
    pytest.param(("pert-validate", "--dJ", "0.3", "--Jp", "1e308"), "--Jp = 1e+308 is too large",
                 id="pert-validate-Jp-1e308"),
    # J' is the weak coupling: above J'/J = 1 t_c underflows and H loses Hermiticity
    pytest.param(("pert-validate", "--dJ", "0.3", "--Jp", "1e154"), "--Jp = 1e+154 is too large",
                 id="pert-validate-Jp-1e154"),
    *(pytest.param(("pert-fidelity", "--Jp", jp, "--dJ-min", "0.3", "--dJ-max", "0.3"),
                   f"--Jp = {float(jp)} is too large", id=f"pert-fidelity-Jp-{jp}")
      for jp in ("1e154", "1e100")),
    # a horizon of nan or 0 compares nothing and reports max_deviation = 0
    *(pytest.param(("pert-validate", "--dJ", "0.3", "--Jp", "0.05", "--horizon-tc", h),
                   "horizon must be positive and finite", id=f"pert-validate-horizon-{h}")
      for h in ("nan", "inf", "0")),
    # the message names the flag and its value, not only its product with t_c (inf at 1e308)
    *(pytest.param(("pert-validate", "--dJ", "0.3", "--Jp", "0.05", "--horizon-tc", h),
                   f"--horizon-tc = {float(h)} gives a horizon of",
                   id=f"pert-validate-horizon-tc{h}")
      for h in ("-1", "0", "1e308")),
    # a non-finite horizon, given or read back, fails at the pulse and not in the propagation
    pytest.param(("optctrl-optimize", "--t-horizon", "nan"),
                 "pulse horizon must be positive and finite", id="optimize-t-horizon-nan"),
    pytest.param(("optctrl-robustness", "--result", "horizon-nan.json"),
                 "pulse horizon must be positive and finite", id="robustness-horizon-nan"),
    # a result file of the wrong shape: a named field or type, not a traceback
    pytest.param(("optctrl-robustness", "--result", "no-x.json"), "lacks the field 'x'",
                 id="robustness-missing-x"),
    pytest.param(("optctrl-robustness", "--result", "list.json"),
                 "must be a JSON object, got list", id="robustness-not-object"),
    pytest.param(("optctrl-robustness", "--result", "seed-null.json"), "holds a bad value",
                 id="robustness-seed-null"),
    # no descent, or a target that no infidelity meets or every one does
    pytest.param(("optctrl-optimize", "--max-iter", "0"), "max_iter must be >= 1",
                 id="optimize-max-iter0"),
    pytest.param(("optctrl-optimize", "--target-eps", "nan"),
                 "target_eps must be finite and >= 0, got nan", id="optimize-target-eps-nan"),
    # a non-finite scale of the Hamiltonian, or no number at all
    *(pytest.param(("optctrl-robustness", "--result", "good.json", "--deltas", f"0,{d}"),
                   f"--deltas must be finite, got '0,{d}'", id=f"robustness-deltas-{d}")
      for d in ("nan", "inf")),
    pytest.param(("optctrl-robustness", "--result", "good.json", "--deltas", "0,abc"),
                 "--deltas must be comma-separated numbers, got '0,abc'",
                 id="robustness-deltas-abc"),
    # a finite scale or shift far out of range needs about 1,000 squarings, which gave a NaN
    # infidelity or a NaN gradient error
    pytest.param(("optctrl-robustness", "--result", "good.json", "--deltas", "0,1e300"),
                 "slices need a finite 1-norm of h dt <= 2^30", id="robustness-deltas-1e300"),
    pytest.param(("optctrl-gradcheck", "--points", "1", "--steps", "1", "--fd-step", "1e300"),
                 "slices need a finite 1-norm of h dt <= 2^30", id="gradcheck-fd-step-1e300"),
    # a J' whose square underflows, or whose t_c overflows: a NaN row or a division by zero
    pytest.param(("pert-fidelity", "--Jp", "1e-300", "--dJ-min", "0.3", "--dJ-max", "0.3"),
                 "J' = 1e-300 is too small", id="pert-fidelity-Jp-1e-300"),
    pytest.param(("pert-validate", "--dJ", "0.3", "--Jp", "1e-300"),
                 "J' = 1e-300 is too small", id="pert-validate-Jp-1e-300"),
])
def test_exit_2_bad_value(tmp_path, capsys, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    for name, payload in {**BAD_RESULTS, "good.json": _GOOD_RESULT}.items():
        with open(name, "w") as fh:
            json.dump(payload, fh)
    assert _run(tmp_path, *argv) == 2
    assert message in capsys.readouterr().err


def test_exit_3_nonconverged_gradcheck(tmp_path):
    # an absurd finite-difference step makes the check fail numerically
    code = _run(
        tmp_path, "optctrl-gradcheck", "--points", "1", "--steps", "60",
        "--fd-step", "0.5",
    )
    assert code == 3


def test_exit_3_nan_gradcheck(tmp_path, capsys, monkeypatch):
    # a NaN error must fail the gate too, not pass as max(0.0, nan) = 0.0
    monkeypatch.setattr(optctrl, "gradient_check", lambda *args, **kwargs: float("nan"))
    assert _run(tmp_path, "optctrl-gradcheck", "--points", "1", "--steps", "1") == 3
    assert "worst relative error nan" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_exit_2_hubbard_check_outside_superexchange_regime(tmp_path, capsys):
    assert _run(tmp_path, "hubbard-check", "--t-over-u", "0") == 2
    assert "t/U = 0 is outside the superexchange regime" in capsys.readouterr().err
