"""Command-line front end: sweeps, figure datasets, and reproducibility plumbing.

Every run writes a dataset (CSV or JSON) plus a manifest.json echoing the
fully resolved configuration into a run directory named by a hash of that
configuration, so a dataset can always be regenerated byte-identically.

Usage examples:

    plaqgate spectrum --dJ 0.2
    plaqgate prepare-plus --mode two_step
    plaqgate pert-coeffs --dJ 0.3
    plaqgate pert-fidelity --dJ-min 0.05 --dJ-max 0.95 --Jp 0.1 --n 1
    plaqgate pert-allowed --n 1 --m 1
    plaqgate pert-validate --dJ 0.3 --Jp 0.05
    plaqgate optctrl-liedim
    plaqgate optctrl-gradcheck --points 5
    plaqgate optctrl-optimize --seed 6 --restarts 1
    plaqgate optctrl-robustness --result runs/optctrl-optimize-issued/result.json
    plaqgate geophase-table --statistics both
    plaqgate geophase-dynamics --statistics boson --sector all
    plaqgate schwinger-check
    plaqgate hubbard-check --t-over-u 0.02 --statistics fermion
    plaqgate report --figure pertfid

Exit codes: 0 success, 2 bad flags or values, 3 numerical non-convergence.
The default output directory is $PLAQGATE_OUTPUT_DIR or ./runs.

A run whose directory already holds a matching manifest and dataset is
skipped; with --force nothing of the old run is read, and the command runs
and rewrites its files. A config hashes once, however often its run
directory and manifest ask for the hash.
"""
from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import geophase, optctrl, pertgate, plaquette

ARTIFACT_VERSION = "1"
OUTPUT_ENV = "PLAQGATE_OUTPUT_DIR"

@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run description; unknown parameter keys are rejected."""

    command: str
    params: dict
    seed: int = 0
    output_dir: str = ""
    format: str = "csv"

    def __post_init__(self) -> None:
        if self.command not in COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        extra = set(self.params) - set(_param_keys(self.command))
        if extra:
            raise ValueError(f"unknown parameter keys for {self.command}: {sorted(extra)}")
        if self.format not in ("csv", "json"):
            raise ValueError(f"format must be csv or json, got {self.format!r}")

    def identity(self) -> dict:
        """Everything that determines the run's output; output_dir is not part of it."""
        return {
            "artifact_version": ARTIFACT_VERSION,
            "command": self.command,
            "params": {k: _jsonable(v) for k, v in sorted(self.params.items())},
            "seed": self.seed,
            "format": self.format,
        }

    @functools.cached_property
    def _hash(self) -> str:
        payload = json.dumps(self.identity(), sort_keys=True)
        return hashlib.sha1(payload.encode()).hexdigest()[:8]

    def config_hash(self) -> str:
        return self._hash

    def run_dir(self) -> str:
        return os.path.join(self.output_dir, f"{self.command}-{self.config_hash()}")


def _jsonable(v):
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, (np.floating, np.integer, np.bool_)):
        return v.item()
    return v


def _fmt_cell(v) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    return str(v)


def _replace_file(path: str, text: str) -> None:
    """Write `text` to `path` via a temporary file and os.replace, so a failed write
    leaves the old file whole; a file already holding these bytes is left as it is."""
    data = text.encode()
    if os.path.exists(path):
        with open(path, "rb") as fh:
            if fh.read() == data:
                return
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_dataset(config: RunConfig, fieldnames, rows, extra) -> str:
    """Atomically write the artifacts, the dataset, then the manifest; returns the run directory.

    `extra` joins the manifest; its "artifacts" (file name -> text) become files listed by name.
    """
    run_dir = config.run_dir()
    os.makedirs(run_dir, exist_ok=True)
    artifacts = (extra or {}).get("artifacts", {})
    for name, text in artifacts.items():
        _replace_file(os.path.join(run_dir, name), text)
    if config.format == "csv":
        data_path = os.path.join(run_dir, "data.csv")
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(fieldnames)
        writer.writerows([_fmt_cell(row.get(k, "")) for k in fieldnames] for row in rows)
        text = buf.getvalue()
    else:
        data_path = os.path.join(run_dir, "data.json")
        text = _json_text([{k: _jsonable(row.get(k)) for k in fieldnames} for row in rows])
    _replace_file(data_path, text)
    manifest = {
        **config.identity(),
        "config_hash": config.config_hash(),
        "dataset": os.path.basename(data_path),
        "fields": list(fieldnames),
        "rows": len(rows),
        **(extra or {}),
    }
    if artifacts:
        manifest["artifacts"] = list(artifacts)
    _replace_file(os.path.join(run_dir, "manifest.json"), _json_text(manifest))
    return run_dir


def _is_complete(config: RunConfig) -> bool:
    """A run whose manifest has this config's hash and whose dataset holds the manifest's rows:
    CSV records after the header, or the items of the JSON list. An emptied or truncated
    dataset fails; an edited one with as many rows still passes."""
    try:
        with open(os.path.join(config.run_dir(), "manifest.json")) as fh:
            manifest = json.load(fh)
        if manifest.get("config_hash") != config.config_hash():
            return False
        with open(os.path.join(config.run_dir(), manifest["dataset"]), newline="") as fh:
            if manifest["dataset"].endswith(".json"):
                data = json.load(fh)
                rows = len(data) if isinstance(data, list) else -1
            else:
                rows = sum(1 for _ in csv.reader(fh)) - 1
    except (OSError, ValueError, KeyError, TypeError, AttributeError, csv.Error):
        return False
    return rows == manifest.get("rows")


# ---------------------------------------------------------------------------
# Command handlers: each takes its RunConfig, returns (fieldnames, rows, extra or None)
# ---------------------------------------------------------------------------

def _cmd_spectrum(config: RunConfig):
    j = config.params["j"]
    spec = plaquette.plaquette_spectrum(j, config.params["dJ"] * j)
    rows = [
        {"label": "singlet_low", "energy": spec.singlets[0], "multiplicity": 1},
        {"label": "triplet_diag", "energy": spec.triplets[0], "multiplicity": 3},
        {"label": "triplet_edge_a", "energy": spec.triplets[1], "multiplicity": 3},
        {"label": "triplet_edge_b", "energy": spec.triplets[2], "multiplicity": 3},
        {"label": "singlet_high", "energy": spec.singlets[1], "multiplicity": 1},
        {"label": "quintet", "energy": spec.quintet, "multiplicity": 5},
    ]
    return ["label", "energy", "multiplicity"], rows, None


def _cmd_prepare_plus(config: RunConfig):
    mode = config.params["mode"]
    state = plaquette.prepare_plus(mode=mode, angle_scale=config.params["angle_scale"])
    basis = plaquette.logical_basis()
    target = (basis.ket0 + basis.ket1) / np.sqrt(2.0)
    fid = float(abs(np.vdot(target, state)) ** 2)
    rows = [{"mode": mode, "angle_scale": config.params["angle_scale"], "fidelity": fid}]
    return ["mode", "angle_scale", "fidelity"], rows, None


def _coeff_row(r: float) -> dict:
    """lambda_z, gamma_z and the logical splitting at d/J = r (J = 1)."""
    c = pertgate.effective_coeffs(1.0, r)
    return {"d_over_J": r, "lambda_z": c.lambda_z, "gamma_z": c.gamma_z, "delta_e": c.delta_e}


def _cmd_pert_coeffs(config: RunConfig):
    rows = [_coeff_row(config.params["dJ"])]
    if not all(map(math.isfinite, rows[0].values())):  # 8(J - d) overflows at |d/J| ~ 1e308
        raise ValueError(f"--dJ = {config.params['dJ']} gives non-finite coefficients: {rows[0]}")
    return list(rows[0]), rows, None


def _check_jp(jp: float) -> None:
    """J' is the weak coupling: --Jp = J'/J must not exceed 1 (`PertParams` owns nan, inf
    and the sign). Far above it t_c underflows and the 256-dim operator loses Hermiticity."""
    if math.isfinite(jp) and jp > 1.0:
        raise ValueError(f"--Jp = {jp} is too large: J'/J must be at most 1")


def _cmd_pert_fidelity(config: RunConfig):
    p = config.params
    if not p["dJ_step"] > 0:
        raise ValueError(f"--dJ-step must be positive, got {p['dJ_step']}")
    if not p["dJ_min"] <= p["dJ_max"]:
        raise ValueError(f"--dJ-min must not exceed --dJ-max, got {p['dJ_min']} > {p['dJ_max']}")
    _check_jp(p["jp"])
    d_values = pertgate.sweep_grid(p["dJ_min"], p["dJ_max"], p["dJ_step"])
    rows = pertgate.sweep(d_values, [p["jp"]], n=p["n"], m=p["m"], target=p["target"])
    if not rows:  # the sweep skips d/J outside (0, 1), the poles and lambda_z = 1/8
        raise ValueError(f"--dJ-min {p['dJ_min']} to --dJ-max {p['dJ_max']} holds no d/J in "
                         "(0, 1) off the poles and lambda_z = 1/8")
    return list(pertgate.SWEEP_FIELDS), rows, None


def _allowed_rows(n: int, m: int) -> list[dict]:
    """The allowed ratios of (n, m) with lambda_z and its distance from the level."""
    level = pertgate.phase_level(n, m)
    rows = []
    for r in pertgate.allowed_ratios(n, m):
        lam = pertgate.effective_coeffs(1.0, r).lambda_z
        rows.append({"n": n, "m": m, "ratio": r, "lambda_z": lam, "residual": abs(lam - level)})
    return rows


def _cmd_pert_allowed(config: RunConfig):
    rows = _allowed_rows(config.params["n"], config.params["m"])
    return ["n", "m", "ratio", "lambda_z", "residual"], rows, None


def _cmd_pert_validate(config: RunConfig):
    p = config.params
    params = pertgate.PertParams(j=1.0, d=p["dJ"], jp=p["jp"])
    _check_jp(p["jp"])
    horizon = p["horizon_tc"] * pertgate.gate_time(params)
    if not 0 < horizon < math.inf:
        raise ValueError(f"--horizon-tc = {p['horizon_tc']} gives a horizon of {horizon}, but "
                         "the horizon must be positive and finite")
    dev = pertgate.validate_effective(params, horizon)
    rows = [{"d_over_J": p["dJ"], "Jp_over_J": p["jp"], "horizon": horizon, "max_deviation": dev}]
    return list(rows[0]), rows, None


def _cmd_optctrl_optimize(config: RunConfig):
    p = config.params
    result = optctrl.optimize(
        config.seed,
        n_harmonics=p["l"],
        t_horizon=p["t_horizon"],
        restarts=p["restarts"],
        max_iter=p["max_iter"],
        target_eps=p["target_eps"],
        steps=p["steps"],
    )
    pulse = optctrl.PulseParams(result.x_final, p["t_horizon"])
    fields = ["seed", "infidelity", "iterations", "restarts_used", "gradient_norm", "max_amplitude"]
    rows = [dict(zip(fields, (config.seed, result.infidelity, result.iterations,
                              result.restarts_used, result.gradient_norm,
                              float(pulse.max_amplitudes().max()))))]
    return fields, rows, {"artifacts": {
        "result.json": optctrl.result_json_text(result, p["t_horizon"]),
        "pulse.csv": optctrl.pulse_csv_text(pulse)}}


def _cmd_optctrl_gradcheck(config: RunConfig):
    p = config.params
    if p["points"] < 1:
        raise ValueError(f"--points must be >= 1, got {p['points']}")
    rng = np.random.default_rng(config.seed)
    errors = [optctrl.gradient_check(optctrl.PulseParams(optctrl._draw_start(rng, 20), 1.0),
                                     steps=p["steps"], fd_step=p["fd_step"])
              for _ in range(p["points"])]
    if not all(err <= 1e-5 for err in errors):  # a NaN error fails too
        raise RuntimeError(f"gradient check failed: worst relative error {np.max(errors):.2e}")
    return ["point", "max_rel_error"], [{"point": k, "max_rel_error": err}
                                        for k, err in enumerate(errors)], None


def _cmd_optctrl_robustness(config: RunConfig):
    p = config.params
    pulse, infid, seed = optctrl.load_result_json(p["result"])
    try:
        deltas = [float(d) for d in p["deltas"].split(",")]
    except ValueError:
        raise ValueError(f"--deltas must be comma-separated numbers, got {p['deltas']!r}") from None
    if not np.isfinite(deltas).all():
        raise ValueError(f"--deltas must be finite, got {p['deltas']!r}")
    infs = optctrl.robustness_sweep(pulse, deltas)
    rows = [{"delta": d, "infidelity": i} for d, i in zip(deltas, infs)]
    return ["delta", "infidelity"], rows, {"source_infidelity": infid, "source_seed": seed}


def _cmd_optctrl_liedim(config: RunConfig):
    dim = len(optctrl.lie_closure(optctrl.control_operators()))
    print(dim)
    return ["dimension"], [{"dimension": dim}], None


def _statistics(choice: str) -> tuple[str, ...]:
    """The statistics a --statistics choice names; "both" is boson then fermion."""
    return geophase.STATISTICS if choice == "both" else (choice,)


def _cmd_geophase_table(config: RunConfig):
    p = config.params
    rows = []
    for stat in _statistics(p["statistics"]):
        params = geophase.link_params(stat, p["u_l_aa"], p["u_r_ab"], p["bias_surplus"])
        rows += [dict(zip(geophase.LEDGER_FIELDS, e.row()))
                 for e in geophase.resonance_table(params, stat)]
    return list(geophase.LEDGER_FIELDS), rows, None


def _cmd_geophase_dynamics(config: RunConfig):
    p = config.params
    sectors = list(geophase.SECTORS) if p["sector"] == "all" else [p["sector"]]
    u = p["u"]
    u_l_aa = p["u_l_aa"] if p["u_l_aa"] is not None else geophase.LEFT_REPULSION_RATIO * u
    rows = []
    for statistics in _statistics(p["statistics"]):
        params = geophase.link_params(statistics, u_l_aa, u)  # bad energies fail the run, not a row
        for sector in sectors:
            row = {"statistics": statistics, "sector": sector}
            try:
                t_ret, phase, leak = geophase.tunneling_phase(sector, params, statistics)
                row.update(return_time=t_ret, phase=phase, leakage=leak, status="ok")
            except Exception as exc:  # flagged, the run continues
                row["status"] = f"error: {type(exc).__name__}: {exc}"
            rows.append(row)
    fields = ["statistics", "sector", "return_time", "phase", "leakage", "status"]
    return fields, rows, None


def _cmd_schwinger_check(config: RunConfig):
    residual = geophase.fixed_number_schwinger_check()
    print(residual)
    return ["residual"], [{"residual": residual}], None


def _cmd_hubbard_check(config: RunConfig):
    p = config.params
    rows = []
    for stat in _statistics(p["statistics"]):
        gap, ref = geophase.superexchange_hubbard_check(p["t_over_u"], stat)
        rows.append({"statistics": stat, "t_over_u": p["t_over_u"], "gap": gap,
                     "four_t2_over_u": ref, "rel_error": abs(gap - ref) / ref})
    return ["statistics", "t_over_u", "gap", "four_t2_over_u", "rel_error"], rows, None


#: figure -> (schema, fields, rows, gnuplot). `rows()` computes the dataset
#: with the rows of the command that owns the figure, once per process
#: (`_figure_rows`); `fields` picks the columns the figure shows.
REPORT_FIGURES = {
    "pertfid": (
        "Gate fidelity vs d/J at J'/J in {0.05, 0.1, 0.2} (columns: "
        + ", ".join(pertgate.SWEEP_FIELDS) + ")",
        list(pertgate.SWEEP_FIELDS),
        lambda: pertgate.sweep(pertgate.sweep_grid(0.05, 0.95, 0.01), [0.05, 0.1, 0.2]),
        'set xlabel "d/J"\nset ylabel "F"\nset key bottom\n'
        "plot for [jp in \"0.05 0.1 0.2\"] 'data.csv' "
        'using 1:($2 == jp + 0 ? $6 : 1/0) every ::1 with lines title "J\'/J = ".jp\n',
    ),
    "coeffs": (
        "Effective coupling coefficients vs d/J (columns: d_over_J, lambda_z, gamma_z)",
        ["d_over_J", "lambda_z", "gamma_z"],
        lambda: [_coeff_row(float(r)) for r in pertgate.sweep_grid(0.05, 0.95, 0.01)],
        'set xlabel "d/J"\n'
        "plot 'data.csv' using 1:2 every ::1 with lines title \"lambda_z\", "
        "'data.csv' using 1:3 every ::1 with lines title \"gamma_z\"\n",
    ),
    "allowed": (
        "Allowed d/J ratios for small (n, m) (columns: n, m, ratio, lambda_z)",
        ["n", "m", "ratio", "lambda_z"],
        lambda: [row for nm in ((1, 1), (1, 2), (2, 1), (3, 4)) for row in _allowed_rows(*nm)],
        "plot 'data.csv' using 3:4 every ::1 with points title \"allowed ratios\"\n",
    ),
}


@functools.lru_cache(maxsize=None)
def _figure_rows(figure: str) -> tuple[dict, ...]:
    """A report figure's rows, computed once per process: they depend on the figure alone."""
    return tuple(REPORT_FIGURES[figure][2]())


def _cmd_report(config: RunConfig):
    figure = config.params["figure"]
    schema, fields, _, gnuplot = REPORT_FIGURES[figure]
    return fields, _figure_rows(figure), {"figure": figure, "schema": schema,
                                          "artifacts": {"plot.gp": gnuplot}}


_STATISTICS = {"choices": (*geophase.STATISTICS, "both"), "default": "both"}

#: --Jp of pert-fidelity and pert-validate; `_check_jp` holds its domain
_JP_FLAG = ("--Jp", {"dest": "jp", "type": float, "required": True,
                     "help": "coupling ratio J'/J, in (0, 1]"})

#: name -> (handler, help, options). Each option is (flag, argparse kwargs);
#: its params key is the argparse dest, the flag with "-" changed to "_"
#: unless the kwargs give `dest`.
COMMANDS = {
    "spectrum": (_cmd_spectrum, "plaquette energy levels", (
        ("--j", {"type": float, "default": 1.0}),
        ("--dJ", {"type": float, "required": True, "help": "diagonal ratio d/J"}))),
    "prepare-plus": (_cmd_prepare_plus, "logical |+> preparation fidelity", (
        ("--mode", {"choices": ("two_step", "one_step"), "default": "two_step"}),
        ("--angle-scale", {"type": float, "default": 1.0}))),
    "pert-coeffs": (_cmd_pert_coeffs, "effective coupling coefficients at one d/J", (
        ("--dJ", {"type": float, "required": True}),)),
    "pert-fidelity": (_cmd_pert_fidelity, "echo-gate fidelity sweep over d/J", (
        ("--dJ-min", {"type": float, "default": 0.05}),
        ("--dJ-max", {"type": float, "default": 0.95}),
        ("--dJ-step", {"type": float, "default": 0.01}),
        _JP_FLAG,
        ("--n", {"type": int, "default": 1}),
        ("--m", {"type": int, "default": 1}),
        ("--target", {"choices": ("effective", "corrected_cphase", "cphase_literal"),
                      "default": "effective"}))),
    "pert-allowed": (_cmd_pert_allowed, "allowed d/J ratios for phase matching", (
        ("--n", {"type": int, "default": 1}),
        ("--m", {"type": int, "default": 1}))),
    "pert-validate": (_cmd_pert_validate, "full vs effective dynamics deviation", (
        ("--dJ", {"type": float, "required": True}),
        _JP_FLAG,
        ("--horizon-tc", {"type": float, "default": 0.1, "help": "horizon as a fraction of t_c"}))),
    "optctrl-optimize": (_cmd_optctrl_optimize, "pulse optimization for the 4-site gate", (
        ("--L", {"dest": "l", "type": int, "default": 20}),
        ("--t-horizon", {"type": float, "default": 1.0}),
        ("--restarts", {"type": int, "default": 10}),
        ("--max-iter", {"type": int, "default": 2000,
                        "help": "L-BFGS iterations per descent; the polish takes min(300, this)"}),
        ("--target-eps", {"type": float, "default": 1e-7}),
        ("--steps", {"type": int, "default": 400}))),
    "optctrl-gradcheck": (_cmd_optctrl_gradcheck, "analytic vs finite-difference gradient", (
        ("--points", {"type": int, "default": 20}),
        ("--steps", {"type": int, "default": 250}),
        ("--fd-step", {"type": float, "default": 1e-6}))),
    "optctrl-robustness": (_cmd_optctrl_robustness, "infidelity under scaled Hamiltonian", (
        ("--result", {"required": True, "help": "result.json from optctrl-optimize"}),
        ("--deltas", {"default": "0,1e-5,1e-4,1e-3,1e-2,3e-2,1e-1"}))),
    "optctrl-liedim": (_cmd_optctrl_liedim, "dimension of the control Lie closure", ()),
    "geophase-table": (_cmd_geophase_table, "tunneling energy ledger", (
        ("--statistics", _STATISTICS),
        ("--u-l-aa", {"type": float, "default": geophase.LEFT_REPULSION_RATIO * 50.0,
                      "help": "in units of t, > 0"}),
        ("--u-r-ab", {"type": float, "default": 50.0, "help": "in units of t, > 0"}),
        ("--bias-surplus", {
            "type": float, "default": None,
            "help": "Delta - omega in units of t (default: resonant per statistics)"}))),
    "geophase-dynamics": (_cmd_geophase_dynamics, "sector return phases", (
        ("--statistics", _STATISTICS),
        ("--sector", {"choices": (*geophase.SECTORS, "all"), "default": "all"}),
        ("--u", {"type": float, "default": 50.0,
                 "help": "interaction scale in units of t, > 0"}),
        ("--u-l-aa", {
            "type": float, "default": None,
            "help": "left repulsion in units of t, > 0 "
                    f"(default {geophase.LEFT_REPULSION_RATIO} u, off accidental zeros)"}))),
    "schwinger-check": (_cmd_schwinger_check, "two-band spin identity residual", ()),
    "hubbard-check": (_cmd_hubbard_check, "superexchange gap vs 4t^2/U", (
        ("--t-over-u", {"type": float, "default": 0.02}),
        ("--statistics", _STATISTICS))),
    "report": (_cmd_report, "figure-ready datasets", (
        ("--figure", {"required": True, "choices": sorted(REPORT_FIGURES)}),)),
}


def _param_keys(command: str) -> list[str]:
    """The params keys of a command, in the order its options are declared."""
    return [kw.get("dest", flag[2:].replace("-", "_")) for flag, kw in COMMANDS[command][2]]


@functools.lru_cache(maxsize=None)
def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The parser and its command parsers by name, built once; parsing leaves them unchanged."""
    parser = argparse.ArgumentParser(prog="plaqgate", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, options) in COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--output-dir", default=None)  # resolved in run(), see OUTPUT_ENV
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--force", action="store_true", help="recompute even if complete")
        for flag, kwargs in options:
            sp.add_argument(flag, **kwargs)
    return parser, sub.choices


def _parse(argv: list) -> tuple[str, argparse.Namespace]:
    """(command, its options). A known command's own parser reads the rest of argv once; the
    top-level parser handles no command, an unknown one and --help, and reports leftovers."""
    parser, commands = _build_parser()
    if not argv or argv[0] not in COMMANDS:
        args = parser.parse_args(argv)
        return args.command, args
    args, extras = commands[argv[0]].parse_known_args(argv[1:])
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return argv[0], args


def run(argv) -> int:
    """Parse argv, execute the subcommand, write dataset + manifest."""
    try:
        command, args = _parse(list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    params = {key: getattr(args, key) for key in _param_keys(command)}
    try:
        config = RunConfig(
            command=command,
            params=params,
            seed=args.seed,
            output_dir=(
                args.output_dir if args.output_dir is not None
                else os.environ.get(OUTPUT_ENV, "runs")
            ),
            format=args.format,
        )
        if not args.force and _is_complete(config):
            print(f"{config.run_dir()} already complete; use --force to recompute")
            return 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fields, rows, extra = COMMANDS[command][0](config)
        run_dir = write_dataset(config, fields, rows, extra)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, ArithmeticError) as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return 3
    print(run_dir)
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
