"""Span tracing around the public functions of plaqgate, installed from outside.

Each traced function is replaced, in its own module and in every plaqgate
module that imported it by name, with a wrapper that records a span (name,
start, end, parent). numpy.linalg.eigh and numpy.kron are wrapped with
counters only, so that the span of the caller keeps their time as its own.
Spans stay in memory; `layer_metrics` turns them into per-name self times
and call counts, and `spans` can be written out after the run.
"""
from __future__ import annotations

import importlib
import os
import sys
import time

import numpy as np

#: (module, attribute) of each traced function; names drop the "plaqgate." prefix.
TRACED_FUNCTIONS = (
    ("plaqgate.spincore", "pauli_dot"),
    ("plaqgate.spincore", "eig_hermitian"),
    ("plaqgate.spincore", "unitary_evolve"),
    ("plaqgate.plaquette", "heisenberg_plaquette"),
    ("plaqgate.plaquette", "plaquette_spectrum"),
    ("plaqgate.plaquette", "logical_basis"),
    ("plaqgate.pertgate", "superplaquette_hamiltonian"),
    ("plaqgate.pertgate", "echo_gate"),
    ("plaqgate.pertgate", "gate_fidelity"),
    ("plaqgate.pertgate", "allowed_ratios"),
    ("plaqgate.optctrl", "fidelity_and_gradient"),
    ("plaqgate.optctrl", "propagate"),
    ("plaqgate.geophase", "onsite_hamiltonian"),
    ("plaqgate.geophase", "tunneling_hamiltonian"),
    ("plaqgate.geophase", "link_tunneling_phase"),
    ("plaqgate.geophase", "tunneling_phase"),
    ("plaqgate.cli", "run"),
    ("plaqgate.cli", "write_dataset"),
)

#: (module, class, method, span name) of each traced method.
TRACED_METHODS = (
    ("plaqgate.geophase", "TwoBandFockSpace", "__init__", "geophase.TwoBandFockSpace"),
    ("plaqgate.geophase", "TwoBandFockSpace", "operator", "geophase.TwoBandFockSpace.operator"),
    ("plaqgate.geophase", "TwoBandFockSpace", "total_spin_squared",
     "geophase.TwoBandFockSpace.total_spin_squared"),
)

#: Span names whose call counts are reported next to their self time.
COUNTED_SPANS = (
    "spincore.pauli_dot",
    "spincore.eig_hermitian",
    "geophase.TwoBandFockSpace",
    "geophase.TwoBandFockSpace.operator",
    "cli.run",
)


def _dataset_bytes(run_dir: str) -> int:
    names = ("data.csv", "data.json", "manifest.json")
    return sum(os.path.getsize(os.path.join(run_dir, n))
               for n in names if os.path.exists(os.path.join(run_dir, n)))


class Tracer:
    """Installs the wrappers; `uninstall` restores every replaced attribute."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self.eigh_calls = 0
        self.eigh_n3 = 0
        self.kron_calls = 0
        self.dataset_bytes = 0
        self._undo: list[tuple] = []

    # -- wrappers -------------------------------------------------------------

    def _span_wrapper(self, name: str, fn, after=None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                spans[idx][2] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(out)
            return out

        return wrapper

    def _count_written(self, run_dir: str) -> None:
        self.dataset_bytes += _dataset_bytes(run_dir)

    def _eigh(self, fn):
        def wrapper(a, *args, **kwargs):
            shape = np.shape(a)
            self.eigh_calls += 1
            self.eigh_n3 += int(np.prod(shape[:-2], dtype=np.int64)) * int(shape[-1]) ** 3
            return fn(a, *args, **kwargs)

        return wrapper

    def _kron(self, fn):
        def wrapper(*args, **kwargs):
            self.kron_calls += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- install / uninstall --------------------------------------------------

    def _replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        plaq_modules = [m for n, m in sys.modules.items()
                        if n == "plaqgate" or n.startswith("plaqgate.")]
        for mod_name, attr in TRACED_FUNCTIONS:
            orig = getattr(importlib.import_module(mod_name), attr)
            after = self._count_written if attr == "write_dataset" else None
            wrapped = self._span_wrapper(f"{mod_name.split('.', 1)[1]}.{attr}", orig, after)
            for mod in plaq_modules:
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        self._replace(mod, name, wrapped)
        for mod_name, cls_name, meth, span_name in TRACED_METHODS:
            cls = getattr(importlib.import_module(mod_name), cls_name)
            self._replace(cls, meth, self._span_wrapper(span_name, vars(cls)[meth]))
        self._replace(np.linalg, "eigh", self._eigh(np.linalg.eigh))
        self._replace(np, "kron", self._kron(np.kron))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results --------------------------------------------------------------

    def self_times(self) -> dict:
        """{name: (calls, self seconds)}; self = duration minus child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = {}
        for (name, start, end, _), inner in zip(self.spans, child):
            calls, total = out.get(name, (0, 0.0))
            out[name] = (calls + 1, total + (end - start) - inner)
        return out


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics in the benchmark's naming; zero for a layer never called."""
    times = tracer.self_times()
    names = [f"{m.split('.', 1)[1]}.{a}" for m, a in TRACED_FUNCTIONS]
    names += [t[3] for t in TRACED_METHODS]
    metrics = {
        "numpy.linalg.eigh.calls": (tracer.eigh_calls, "count"),
        "numpy.linalg.eigh.n3": (tracer.eigh_n3, "count"),
        "numpy.kron.calls": (tracer.kron_calls, "count"),
        "cli.write_dataset.bytes": (tracer.dataset_bytes, "B"),
    }
    for name in names:
        calls, self_s = times.get(name, (0, 0.0))
        metrics[f"{name}.self_ms"] = (self_s * 1e3, "ms")
        if name in COUNTED_SPANS:
            metrics[f"{name}.calls"] = (calls, "count")
    return metrics
