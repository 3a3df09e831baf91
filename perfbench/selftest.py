"""Show that every workload's check rejects wrong answers.

    python3 perfbench/selftest.py

For each workload, a few items run through the program; their outputs must
pass the check. Then one output at a time is corrupted (a fidelity off by
1e-6, one gradient component flipped, a return phase of 0 on a resonant
link, a spectrum level moved by 1e-8, ...) and the check must fail. Exits 1
if a genuine output is rejected or a corrupted one accepted.
"""
from __future__ import annotations

import copy
import dataclasses
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from workloads import CliSmall, EchoSweep, Grape, Links, _rows  # noqa: E402

SEED = 7
problems: list[str] = []


def expect(label: str, failures: list[str], should_fail: bool) -> None:
    ok = bool(failures) == should_fail
    verdict = "rejected" if failures else "accepted"
    print(f"{'ok ' if ok else 'BAD'} {label}: {verdict}"
          + (f" ({failures[0][:100]})" if failures else ""))
    if not ok:
        problems.append(label)


def run_items(w) -> list:
    return [[op() for op in w.operations(item)] for item in w.items]


def with_output(outputs: list, item: int, op: int, value) -> list:
    out = copy.copy(outputs)
    out[item] = list(out[item])
    out[item][op] = value
    return out


def echo_sweep(outdir: str) -> None:
    w = EchoSweep(SEED, outdir)
    w.items, w.oracle_items = w.items[:3], [0]
    out = run_items(w)
    expect("echo-sweep genuine outputs", w.check(out), False)
    rep0, rep1, rep2 = out[0][0], out[1][0], out[2][0]
    for label, k, rep in (
        ("echo-sweep gate fidelity off by 1e-6",
         0, dataclasses.replace(rep0, fidelity=rep0.fidelity - 1e-6)),
        ("echo-sweep leakage off by 1e-6",
         0, dataclasses.replace(rep0, leakage=rep0.leakage + 1e-6)),
        ("echo-sweep t_c off by 1e-9 relative",
         1, dataclasses.replace(rep1, t_c=rep1.t_c * (1 + 1e-9))),
        ("echo-sweep F above 1 - leakage/4",
         2, dataclasses.replace(rep2, fidelity=1.0 - rep2.leakage / 4 + 1e-9)),
        ("echo-sweep leakage above 4", 2, dataclasses.replace(rep2, leakage=4.5)),
    ):
        expect(label, w.check(with_output(out, k, 0, rep)), True)


def grape(outdir: str) -> None:
    w = Grape(SEED, outdir)
    w.items, w.oracle_items, w.directions = w.items[:2], [0], w.directions[:1]
    out = run_items(w)
    expect("grape genuine outputs", w.check(out), False)
    (f0, g0), _ = out[0]
    flipped = g0.copy()
    big = np.unravel_index(np.argmax(np.abs(g0 * w.directions[0])), g0.shape)
    flipped[big] = -flipped[big]
    u1 = out[1][1]
    for label, k, op, value in (
        ("grape fidelity off by 1e-6", 0, 0, (f0 + 1e-6, g0)),
        ("grape one gradient component flipped", 0, 0, (f0, flipped)),
        ("grape fidelity above 1", 1, 0, (1.0 + 1e-9, out[1][0][1])),
        ("grape propagator scaled by 1 + 1e-11", 1, 1, u1 * (1 + 1e-11)),
        ("grape propagator of another pulse", 0, 1, u1),
    ):
        expect(label, w.check(with_output(out, k, op, value)), True)


def links(outdir: str) -> None:
    w = Links(SEED, outdir)
    w.items = w.items[:1]
    out = run_items(w)
    expect("links genuine outputs", w.check(out), False)
    u, rows = w.items[0], [row for run_dir in out[0] for row in _rows(run_dir)]

    def edited(stat: str, sector: str, **changes) -> list[dict]:
        new = [dict(r) for r in rows]
        for r in new:
            if (r["statistics"], r["sector"]) == (stat, sector):
                r.update({k: str(v) for k, v in changes.items()})
        return new

    for label, new in (
        ("links return phase 0 on a resonant link", edited("boson", "ST", phase=0.0)),
        ("links resonant phase off by 0.02", edited("fermion", "TS", phase=np.pi - 0.02)),
        ("links return time off by 2e-3", edited("boson", "SS", return_time=np.pi + 2e-3)),
        ("links off-resonant phase 0.2", edited("boson", "TT", phase=0.2)),
        ("links leakage above 1", edited("fermion", "SS", leakage=1.5)),
        ("links failed point", edited("fermion", "ST", status="error: RuntimeError")),
        ("links missing row", rows[:-1]),
    ):
        expect(label, Links.check_rows(u, new), True)


def cli_small(outdir: str) -> None:
    w = CliSmall(SEED, outdir)
    w.items = w.items[:1]
    out = run_items(w)
    expect("cli-small genuine outputs", w.check(out), False)
    p = w.items[0]
    rows = {args[0] + (args[2] if args[0] == "prepare-plus" else ""): _rows(d)
            for args, d in zip(w.commands(p), out[0])}

    def edited(key: str, index: int, field: str, fn) -> tuple[str, list[dict]]:
        new = [dict(r) for r in rows[key]]
        new[index][field] = fn(new[index][field])
        return key, new

    scale = lambda f: (lambda v: repr(float(v) * f))  # noqa: E731
    shift = lambda d: (lambda v: repr(float(v) + d))  # noqa: E731
    flip = lambda v: "false" if v == "true" else "true"  # noqa: E731
    for label, (key, new) in (
        ("cli-small spectrum level moved by 1e-8", edited("spectrum", 2, "energy", shift(1e-8))),
        ("cli-small prepare-plus fidelity 1 - 1e-9",
         edited("prepare-plusone_step", 0, "fidelity", lambda v: repr(1 - 1e-9))),
        ("cli-small pert-coeffs gamma_z off by 1e-10 relative",
         edited("pert-coeffs", 0, "gamma_z", scale(1 + 1e-10))),
        ("cli-small allowed ratio moved by 1e-8", edited("pert-allowed", 0, "ratio", shift(1e-8))),
        ("cli-small allowed ratio missing", ("pert-allowed", rows["pert-allowed"][1:])),
        ("cli-small hubbard gap off by 1e-8 relative",
         edited("hubbard-check", 1, "gap", scale(1 + 1e-8))),
        ("cli-small ledger resonance flag flipped", edited("geophase-table", 2, "resonant", flip)),
        ("cli-small report lambda_z off by 1e-10 relative",
         edited("report", 40, "lambda_z", scale(1 + 1e-10))),
    ):
        command = "prepare-plus" if key.startswith("prepare-plus") else key
        expect(label, CliSmall.check_command(p, command, new), True)


def main() -> int:
    os.makedirs(os.path.join(ROOT, ".perfbench_tmp"), exist_ok=True)
    outdir = tempfile.mkdtemp(prefix="selftest-", dir=os.path.join(ROOT, ".perfbench_tmp"))
    try:
        for case in (echo_sweep, grape, links, cli_small):
            case(outdir)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    if problems:
        print(f"{len(problems)} check(s) misbehaved: {problems}")
        return 1
    print("every check accepts genuine outputs and rejects each corruption")
    return 0


if __name__ == "__main__":
    sys.exit(main())
