"""The four benchmark workloads: inputs from a seed, timed items, and checks.

A workload makes its whole item list from the seed, warms the program up
with one untimed call, and then runs items. An item is a short list of
calls into plaqgate's public functions ("operations"); the item is timed as
a whole. `check` compares what the calls returned with oracle.py, or with
properties the method must have, and returns a list of failures (empty
when every output is right). Outputs of failed operations are None and are
not checked.
"""
from __future__ import annotations

import contextlib
import csv
import io
import os
import warnings
from fractions import Fraction

import numpy as np

import oracle
from plaqgate import cli, optctrl, pertgate


def _cli(args: list, outdir: str) -> str:
    """cli.run with --force into `outdir`; returns the run directory.

    A nonzero exit code raises, so the operation counts as failed.
    """
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run(args + ["--output-dir", outdir, "--force"])
    if code != 0:
        raise RuntimeError(f"plaqgate {' '.join(args)} exited with {code}")
    return buf.getvalue().strip().splitlines()[-1]


def _rows(run_dir: str) -> list[dict]:
    with open(os.path.join(run_dir, "data.csv"), newline="") as fh:
        return list(csv.DictReader(fh))


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


class Workload:
    name = ""
    #: probe.py kernels like the work that dominates this workload
    probe: tuple[str, ...]

    def __init__(self, seed: int, outdir: str) -> None:
        self.rng = np.random.default_rng([seed % 2**64, 0])
        self.outdir = outdir
        self.items: list = []

    def warmup(self) -> None:
        raise NotImplementedError

    def operations(self, item) -> list:
        """Zero-argument callables making up one item, in order."""
        raise NotImplementedError

    def check(self, outputs: list) -> list[str]:
        """Failures among outputs[i], the outputs of self.items[i]."""
        raise NotImplementedError


class EchoSweep(Workload):
    """One gate_fidelity(target="effective") per point of the pertfid grid."""

    name = "echo-sweep"
    probe = ("small", "eigh256")
    JP_VALUES = (0.05, 0.1, 0.2)
    ORACLE_POINTS = 3

    def __init__(self, seed: int, outdir: str) -> None:
        super().__init__(seed, outdir)
        grid = np.round(np.arange(0.05, 0.95 + 1e-9, 0.01), 10)
        points = [(float(r), jp) for jp in self.JP_VALUES for r in grid
                  if abs(oracle.lambda_z(r) - Fraction(1, 8)) >= 1e-12]
        with warnings.catch_warnings():  # J'/J = 0.2 is outside the weak-coupling regime
            warnings.simplefilter("ignore", pertgate.WeakCouplingWarning)
            self.items = [(r, jp, pertgate.PertParams(j=1.0, d=r, jp=jp))
                          for r, jp in (points[k] for k in self.rng.permutation(len(points)))]
        self.oracle_items = [int(k) for k in
                             self.rng.choice(len(self.items), self.ORACLE_POINTS, replace=False)]

    def warmup(self) -> None:
        pertgate.gate_fidelity(pertgate.PertParams(j=1.0, d=0.305, jp=0.05), target="effective")

    def operations(self, item) -> list:
        return [lambda: pertgate.gate_fidelity(item[2], target="effective")]

    def check(self, outputs) -> list[str]:
        bad = []
        for (r, jp, _), (rep,) in zip(self.items, outputs):
            if rep is None:
                continue
            where = f"d/J={r} J'/J={jp}"
            # leakage is ||(1-P) U P||_F^2 summed over the four logical inputs,
            # so the mean leaked population leakage/4 is what lies in [0, 1]
            if not 0.0 <= rep.leakage / 4.0 <= 1.0:
                bad.append(f"{where}: leakage/4 = {rep.leakage / 4} outside [0, 1]")
            if not 0.0 <= rep.fidelity <= 1.0 - rep.leakage / 4.0 + 1e-12:
                bad.append(f"{where}: F={rep.fidelity} above 1 - leakage/4 = {1 - rep.leakage / 4}")
            if not _close(rep.t_c, oracle.gate_time(r, jp), 1e-12):
                bad.append(f"{where}: t_c {rep.t_c} != closed form {oracle.gate_time(r, jp)}")
        for k in self.oracle_items:
            (r, jp, _), (rep,) = self.items[k], outputs[k]
            if rep is None:
                continue
            _, fid, leak = oracle.echo_gate_figures(r, jp)
            if abs(rep.fidelity - fid) > 1e-8 or abs(rep.leakage - leak) > 1e-8:
                bad.append(f"d/J={r} J'/J={jp}: (F, leakage)=({rep.fidelity}, {rep.leakage}) "
                           f"!= full-space ({fid}, {leak})")
        return bad


class Grape(Workload):
    """Per random pulse: the 400-slice gradient and the 2000-slice propagator."""

    name = "grape"
    probe = ("small",)
    PULSES = 44
    STEPS, POLISH_STEPS = 400, 2000
    ORACLE_PULSES = 2
    FD_STEP = 1e-5

    def __init__(self, seed: int, outdir: str) -> None:
        super().__init__(seed, outdir)
        self.items = [optctrl.PulseParams(oracle.draw_pulse(self.rng), 1.0)
                      for _ in range(self.PULSES)]
        self.oracle_items = [int(k) for k in
                             self.rng.choice(self.PULSES, self.ORACLE_PULSES, replace=False)]
        self.directions = [self.rng.standard_normal((5, 20)) for _ in self.oracle_items]

    def warmup(self) -> None:
        pulse = optctrl.PulseParams(oracle.draw_pulse(np.random.default_rng(0)), 1.0)
        optctrl.fidelity_and_gradient(pulse, steps=self.STEPS)
        optctrl.propagate(pulse, steps=self.POLISH_STEPS)

    def operations(self, item) -> list:
        return [lambda: optctrl.fidelity_and_gradient(item, steps=self.STEPS),
                lambda: optctrl.propagate(item, steps=self.POLISH_STEPS)]

    def check(self, outputs) -> list[str]:
        bad = []
        for k, (fg, u) in enumerate(outputs):
            if fg is not None and not 0.0 <= fg[0] <= 1.0:
                bad.append(f"pulse {k}: F={fg[0]} outside [0, 1]")
            if u is not None:
                dev = float(np.abs(u.conj().T @ u - np.eye(16)).max())
                if dev > 1e-12:
                    bad.append(f"pulse {k}: propagate result not unitary (|U^dag U - 1| = {dev:.2e})")
        ops, target = oracle.control_operators(), oracle.control_target()

        def fid(x, steps):
            return oracle.gate_overlap(oracle.slice_product(x, steps, ops), target)

        for k, v in zip(self.oracle_items, self.directions):
            x = self.items[k].x
            fg, u = outputs[k]
            if fg is not None:
                ref = fid(x, self.STEPS)
                if abs(fg[0] - ref) > 1e-10:
                    bad.append(f"pulse {k}: F={fg[0]} != slice-product F={ref}")
                h = self.FD_STEP
                fd = (fid(x + h * v, self.STEPS) - fid(x - h * v, self.STEPS)) / (2 * h)
                gv = float(np.sum(fg[1] * v))
                if abs(fd - gv) > 1e-6 * abs(fd):
                    bad.append(f"pulse {k}: grad.v={gv} != central difference {fd}")
            if u is not None:
                ref = fid(x, self.POLISH_STEPS)
                got = oracle.gate_overlap(u, target)
                if abs(got - ref) > 1e-10:
                    bad.append(f"pulse {k}: propagate F={got} != slice-product F={ref}")
        return bad


class Links(Workload):
    """Every sector of `geophase-dynamics --statistics both` per interaction scale.

    An item is one interaction scale. Its eight (statistics, sector) points
    run as eight `geophase-dynamics` calls, not as one `--sector all` call,
    so that the probe runs between them: a boson sector takes 1-1.6 s.
    """

    name = "links"
    probe = ("zgemm729",)
    RUNS = 3
    POINTS = tuple((stat, sector) for stat in ("boson", "fermion")
                   for sector in ("SS", "ST", "TS", "TT"))
    U_RANGE = (40.0, 80.0)

    def __init__(self, seed: int, outdir: str) -> None:
        super().__init__(seed, outdir)
        self.items = [float(u) for u in self.rng.uniform(*self.U_RANGE, size=self.RUNS)]

    def warmup(self) -> None:
        _cli(["geophase-dynamics", "--statistics", "fermion", "--sector", "SS"], self.outdir)

    def operations(self, item) -> list:
        return [lambda args=["geophase-dynamics", "--statistics", stat, "--sector", sector,
                             "--u", repr(item)]: _cli(args, self.outdir)
                for stat, sector in self.POINTS]

    @staticmethod
    def check_rows(u: float, rows: list[dict]) -> list[str]:
        bad = []
        if len(rows) != 8:
            bad.append(f"u={u}: {len(rows)} rows, expected 8")
        t_hop = 1.0  # the command works in units of the tunneling amplitude
        for row in rows:
            where = f"u={u} {row['statistics']} {row['sector']}"
            if row["status"] != "ok":
                bad.append(f"{where}: status {row['status']!r}")
                continue
            leak, phase, t_ret = (float(row[k]) for k in ("leakage", "phase", "return_time"))
            if not 0.0 <= leak <= 1.0:
                bad.append(f"{where}: leakage {leak} outside [0, 1]")
            expected = oracle.RESONANT_PHASES.get((row["statistics"], row["sector"]))
            if expected is None:
                if abs(phase) >= 0.1:
                    bad.append(f"{where}: off-resonant |phase| {abs(phase)} >= 0.1")
                continue
            if abs(abs(phase) - expected) > 1e-2:
                bad.append(f"{where}: |phase| {abs(phase)} not within 1e-2 of {expected}")
            if abs(t_ret - np.pi / t_hop) > 1e-3:
                bad.append(f"{where}: return time {t_ret} not within 1e-3 of pi/t")
        return bad

    def check(self, outputs) -> list[str]:
        bad = []
        for u, run_dirs in zip(self.items, outputs):
            if None not in run_dirs:
                bad += self.check_rows(u, [row for d in run_dirs for row in _rows(d)])
        return bad


class CliSmall(Workload):
    """One round of the cheap subcommands through cli.run, parameters drawn per round."""

    name = "cli-small"
    probe = ("small",)
    ROUNDS = 80
    NM = ((1, 1), (1, 2), (2, 1), (3, 4))

    def __init__(self, seed: int, outdir: str) -> None:
        super().__init__(seed, outdir)
        self.items = [
            {"dJ": float(self.rng.uniform(0.05, 0.95)),
             "nm": self.NM[int(self.rng.integers(len(self.NM)))],
             "t_over_u": float(self.rng.uniform(0.005, 0.095))}
            for _ in range(self.ROUNDS)
        ]

    @staticmethod
    def commands(p: dict) -> list[list[str]]:
        n, m = p["nm"]
        return [
            ["spectrum", "--dJ", repr(p["dJ"])],
            ["prepare-plus", "--mode", "two_step"],
            ["prepare-plus", "--mode", "one_step"],
            ["pert-coeffs", "--dJ", repr(p["dJ"])],
            ["pert-allowed", "--n", str(n), "--m", str(m)],
            ["hubbard-check", "--statistics", "both", "--t-over-u", repr(p["t_over_u"])],
            ["geophase-table", "--statistics", "both"],
            ["report", "--figure", "coeffs"],
        ]

    def warmup(self) -> None:
        for args in self.commands({"dJ": 0.3, "nm": (1, 1), "t_over_u": 0.02}):
            _cli(args, self.outdir)

    def operations(self, item) -> list:
        return [lambda args=args: _cli(args, self.outdir) for args in self.commands(item)]

    @staticmethod
    def check_command(p: dict, command: str, rows: list[dict]) -> list[str]:
        """Failures of one command's dataset against closed forms and the quartic."""
        bad = []
        where = f"{command} {p}"
        if command == "spectrum":
            got = [float(r["energy"]) for r in rows]
            want = oracle.plaquette_levels(1.0, p["dJ"])
            if len(got) != len(want) or max(abs(a - b) for a, b in zip(got, want)) > 1e-10:
                bad.append(f"{where}: levels {got} != {want}")
        elif command == "prepare-plus":
            if float(rows[0]["fidelity"]) < 1.0 - 1e-10:
                bad.append(f"{where}: {rows[0]['mode']} fidelity {rows[0]['fidelity']}")
        elif command == "pert-coeffs":
            r = Fraction(p["dJ"])
            for key, want in (("lambda_z", oracle.lambda_z(r)), ("gamma_z", oracle.gamma_z(r)),
                              ("delta_e", 8 * (1 - r))):
                if not _close(float(rows[0][key]), float(want), 1e-12):
                    bad.append(f"{where}: {key} {rows[0][key]} != {float(want)}")
        elif command == "pert-allowed":
            got = sorted(float(r["ratio"]) for r in rows)
            want = oracle.allowed_ratios(*p["nm"])
            if len(got) != len(want) or max(abs(a - b) for a, b in zip(got, want)) > 1e-9:
                bad.append(f"{where}: allowed ratios {got} != quartic roots {want}")
        elif command == "hubbard-check":
            want = oracle.hubbard_gap(p["t_over_u"], 1.0)
            for r in rows:
                if not _close(float(r["gap"]), want, 1e-9):
                    bad.append(f"{where}: {r['statistics']} gap {r['gap']} != {want}")
            if {r["statistics"] for r in rows} != {"boson", "fermion"}:
                bad.append(f"{where}: statistics {[r['statistics'] for r in rows]}")
        elif command == "geophase-table":
            for stat, want in oracle.RESONANT_ROWS.items():
                got = {(int(r["n_L"]), int(r["n_R_a"]), Fraction(r["j_R"]))
                       for r in rows if r["statistics"] == stat and r["resonant"] == "true"}
                if got != want:
                    bad.append(f"{where}: {stat} resonant rows {sorted(got)} != {sorted(want)}")
        elif command == "report":
            if len(rows) != 91:
                bad.append(f"{where}: {len(rows)} rows, expected 91")
            for r in rows:
                x = Fraction(r["d_over_J"])
                if not (_close(float(r["lambda_z"]), float(oracle.lambda_z(x)), 1e-12)
                        and _close(float(r["gamma_z"]), float(oracle.gamma_z(x)), 1e-12)):
                    bad.append(f"{where}: coefficients at d/J={r['d_over_J']} off the closed form")
        return bad

    def check(self, outputs) -> list[str]:
        bad = []
        for p, outs in zip(self.items, outputs):
            for args, run_dir in zip(self.commands(p), outs):
                if run_dir is not None:
                    bad += self.check_command(p, args[0], _rows(run_dir))
        return bad


WORKLOADS = {w.name: w for w in (EchoSweep, Grape, Links, CliSmall)}
