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


def write_dataset(config: RunConfig, fieldnames, rows, extra=None) -> str:
    """Atomically write the dataset, then the manifest, into the run directory; returns it."""
    run_dir = config.run_dir()
    os.makedirs(run_dir, exist_ok=True)
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
    }
    if extra:
        manifest.update(extra)
    _replace_file(os.path.join(run_dir, "manifest.json"), _json_text(manifest))
    return run_dir


def _is_complete(config: RunConfig) -> bool:
    path = os.path.join(config.run_dir(), "manifest.json")
    if not os.path.exists(path):
        return False
    try:
        with open(path) as fh:
            manifest = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return False
    return (
        manifest.get("config_hash") == config.config_hash()
        and os.path.exists(os.path.join(config.run_dir(), manifest.get("dataset", "")))
    )


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
    return list(rows[0]), rows, None


def _cmd_pert_fidelity(config: RunConfig):
    p = config.params
    if not p["dJ_step"] > 0:
        raise ValueError(f"--dJ-step must be positive, got {p['dJ_step']}")
    if not p["dJ_min"] <= p["dJ_max"]:
        raise ValueError(f"--dJ-min must not exceed --dJ-max, got {p['dJ_min']} > {p['dJ_max']}")
    d_values = np.round(np.arange(p["dJ_min"], p["dJ_max"] + 1e-12, p["dJ_step"]), 10)
    rows = pertgate.sweep(d_values, [p["jp"]], n=p["n"], m=p["m"], target=p["target"])
    return list(pertgate.SWEEP_FIELDS), rows, None


def _allowed_rows(n: int, m: int) -> list[dict]:
    """The allowed ratios of (n, m) with lambda_z and its distance from the level."""
    level = 0.125 + (2 * n - 1) / (16.0 * m)
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
    horizon = p["horizon_tc"] * pertgate.gate_time(params)
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
    run_dir = config.run_dir()
    os.makedirs(run_dir, exist_ok=True)
    _replace_file(os.path.join(run_dir, "result.json"),
                  optctrl.result_json_text(result, p["t_horizon"]))
    _replace_file(os.path.join(run_dir, "pulse.csv"), optctrl.pulse_csv_text(pulse))
    fields = ["seed", "infidelity", "iterations", "restarts_used", "gradient_norm", "max_amplitude"]
    rows = [dict(zip(fields, (config.seed, result.infidelity, result.iterations,
                              result.restarts_used, result.gradient_norm,
                              float(pulse.max_amplitudes().max()))))]
    return fields, rows, {"artifacts": ["result.json", "pulse.csv"]}


def _cmd_optctrl_gradcheck(config: RunConfig):
    p = config.params
    if p["points"] < 1:
        raise ValueError(f"--points must be >= 1, got {p['points']}")
    rng = np.random.default_rng(config.seed)
    rows, worst = [], 0.0
    for k in range(p["points"]):
        pulse = optctrl.PulseParams(optctrl._draw_start(rng, 20), 1.0)
        err = optctrl.gradient_check(pulse, steps=p["steps"], fd_step=p["fd_step"])
        worst = max(worst, err)
        rows.append({"point": k, "max_rel_error": err})
    if worst > 1e-5:
        raise RuntimeError(f"gradient check failed: worst relative error {worst:.2e}")
    return ["point", "max_rel_error"], rows, None


def _cmd_optctrl_robustness(config: RunConfig):
    p = config.params
    pulse, infid, seed = optctrl.load_result_json(p["result"])
    deltas = [float(d) for d in p["deltas"].split(",")]
    infs = optctrl.robustness_sweep(pulse, deltas)
    rows = [{"delta": d, "infidelity": i} for d, i in zip(deltas, infs)]
    return ["delta", "infidelity"], rows, {"source_infidelity": infid, "source_seed": seed}


def _cmd_optctrl_liedim(config: RunConfig):
    dim = len(optctrl.lie_closure(optctrl.control_operators()))
    print(dim)
    return ["dimension"], [{"dimension": dim}], None


def _statistics(choice: str) -> tuple[str, ...]:
    """The statistics a --statistics choice names; "both" is boson then fermion."""
    return ("boson", "fermion") if choice == "both" else (choice,)


def _geophase_params(
    statistics: str, u_l_aa: float, u_r_ab: float, bias_surplus: "float | None" = None
) -> geophase.OnsiteParams:
    """Link energies at omega = max(20 U_R^ab, 1), t = 1 and Delta - omega = bias_surplus.

    The default bias is resonant: Delta - omega is 0 for bosons, U_R^ab for fermions.
    """
    if bias_surplus is None:
        bias_surplus = 0.0 if statistics == "boson" else u_r_ab
    omega = max(20.0 * u_r_ab, 1.0)
    return geophase.OnsiteParams(mu_l=omega + bias_surplus, mu_r=0.0, omega=omega, u_l_aa=u_l_aa,
                                 u_r_aa=u_r_ab, u_r_bb=u_r_ab, u_r_ab=u_r_ab, t=1.0)


def _cmd_geophase_table(config: RunConfig):
    p = config.params
    rows = []
    for stat in _statistics(p["statistics"]):
        params = _geophase_params(stat, p["u_l_aa"], p["u_r_ab"], p["bias_surplus"])
        rows += [dict(zip(geophase.LEDGER_FIELDS, e.row()))
                 for e in geophase.resonance_table(params, stat)]
    return list(geophase.LEDGER_FIELDS), rows, None


def _cmd_geophase_dynamics(config: RunConfig):
    p = config.params
    sectors = list(geophase.SECTORS) if p["sector"] == "all" else [p["sector"]]
    u = p["u"]
    u_l_aa = p["u_l_aa"] if p["u_l_aa"] is not None else 1.546 * u
    rows = []
    for statistics in _statistics(p["statistics"]):
        for sector in sectors:
            row = {"statistics": statistics, "sector": sector}
            try:
                params = _geophase_params(statistics, u_l_aa, u)
                t_ret, phase, leak = geophase.tunneling_phase(sector, params, statistics)
                row.update(return_time=t_ret, phase=phase, leakage=leak, status="ok")
            except Exception as exc:  # flagged, the run continues
                row["status"] = f"error: {type(exc).__name__}: {exc}"
            rows.append(row)
    fields = ["statistics", "sector", "return_time", "phase", "leakage", "status"]
    return fields, rows, None


def _cmd_schwinger_check(config: RunConfig):
    residual = geophase.schwinger_identity_check(geophase.TwoBandFockSpace("boson"))
    print(residual)
    return ["residual"], [{"residual": residual}], None


def _cmd_hubbard_check(config: RunConfig):
    p = config.params
    rows = []
    for stat in _statistics(p["statistics"]):
        gap, ref = plaquette.superexchange_hubbard_check(p["t_over_u"], 1.0, stat)
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
        lambda: pertgate.sweep(pertgate.default_sweep_grid(), [0.05, 0.1, 0.2]),
        'set xlabel "d/J"\nset ylabel "F"\nset key bottom\n'
        "plot for [jp in \"0.05 0.1 0.2\"] 'data.csv' "
        'using 1:($2 == jp + 0 ? $6 : 1/0) every ::1 with lines title "J\'/J = ".jp\n',
    ),
    "coeffs": (
        "Effective coupling coefficients vs d/J (columns: d_over_J, lambda_z, gamma_z)",
        ["d_over_J", "lambda_z", "gamma_z"],
        lambda: [_coeff_row(float(r)) for r in pertgate.default_sweep_grid()],
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
    rows = _figure_rows(figure)
    run_dir = config.run_dir()
    os.makedirs(run_dir, exist_ok=True)
    _replace_file(os.path.join(run_dir, "plot.gp"), gnuplot)
    return fields, rows, {"figure": figure, "schema": schema, "artifacts": ["plot.gp"]}


_STATISTICS = {"choices": ("boson", "fermion", "both"), "default": "both"}

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
        ("--Jp", {"dest": "jp", "type": float, "required": True, "help": "coupling ratio J'/J"}),
        ("--n", {"type": int, "default": 1}),
        ("--m", {"type": int, "default": 1}),
        ("--target", {"choices": ("effective", "corrected_cphase", "cphase_literal"),
                      "default": "effective"}))),
    "pert-allowed": (_cmd_pert_allowed, "allowed d/J ratios for phase matching", (
        ("--n", {"type": int, "default": 1}),
        ("--m", {"type": int, "default": 1}))),
    "pert-validate": (_cmd_pert_validate, "full vs effective dynamics deviation", (
        ("--dJ", {"type": float, "required": True}),
        ("--Jp", {"dest": "jp", "type": float, "required": True}),
        ("--horizon-tc", {"type": float, "default": 0.1, "help": "horizon as a fraction of t_c"}))),
    "optctrl-optimize": (_cmd_optctrl_optimize, "pulse optimization for the 4-site gate", (
        ("--L", {"dest": "l", "type": int, "default": 20}),
        ("--t-horizon", {"type": float, "default": 1.0}),
        ("--restarts", {"type": int, "default": 10}),
        ("--max-iter", {"type": int, "default": 2000}),
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
        ("--u-l-aa", {"type": float, "default": 77.3, "help": "in units of t"}),
        ("--u-r-ab", {"type": float, "default": 50.0, "help": "in units of t"}),
        ("--bias-surplus", {
            "type": float, "default": None,
            "help": "Delta - omega in units of t (default: resonant per statistics)"}))),
    "geophase-dynamics": (_cmd_geophase_dynamics, "sector return phases", (
        ("--statistics", _STATISTICS),
        ("--sector", {"choices": ("SS", "ST", "TS", "TT", "all"), "default": "all"}),
        ("--u", {"type": float, "default": 50.0, "help": "interaction scale in units of t"}),
        ("--u-l-aa", {
            "type": float, "default": None,
            "help": "left repulsion in units of t (default 1.546 u, off accidental zeros)"}))),
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
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once; parsing leaves it unchanged."""
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
    return parser


def run(argv) -> int:
    """Parse argv, execute the subcommand, write dataset + manifest."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    params = {key: getattr(args, key) for key in _param_keys(args.command)}
    try:
        config = RunConfig(
            command=args.command,
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
            fields, rows, extra = COMMANDS[args.command][0](config)
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
