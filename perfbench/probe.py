"""Machine-speed probes: fixed kernels timed beside the program's calls.

The machine this benchmark was built on shares its cores with other tenants,
and its speed drifts by a third over seconds and minutes. A probe is a fixed
computation on fixed inputs, made by the benchmark and never by plaqgate,
of the kind of work that dominates a workload. It runs before every timed
operation and after the last one. Each operation's time is then multiplied
by REFERENCE_S / (the mean of the probes on either side of it). The result
is the operation's time at the machine speed at which the probe takes
REFERENCE_S. Only the program's speed moves that figure, because the probe
code never changes.

Kernels:
    small     100 x eigh(kron(4x4, 4x4)): interpreter and small numpy calls,
              like the 16-dim builds of `cli-small` and the slice loop of `grape`
    eigh256   one 256-dim real symmetric eigensolve, like `echo-sweep`'s
    zgemm729  one 729-dim complex matrix product, like the dense
              number-operator products of `links`

The inputs are made on each call, so a probe holds no memory between calls
and stays out of the workloads' peak RSS.
"""
from __future__ import annotations

import time

import numpy as np

#: seconds each kernel took on the reference machine (2-core Xeon VM, see README.md)
REFERENCE_S = {"small": 7.0e-3, "eigh256": 9.0e-3, "zgemm729": 37.0e-3}


def _small() -> None:
    a = np.arange(16.0).reshape(4, 4)
    a = a + a.T
    for _ in range(100):
        np.linalg.eigh(np.kron(a, a))


def _eigh256() -> None:
    m = np.cos(np.add.outer(np.arange(256.0), 1.7 * np.arange(256.0)))
    np.linalg.eigh(m + m.T)


def _zgemm729() -> None:
    z = np.full((729, 729), 0.5 + 0.5j)
    z @ z


KERNELS = {"small": _small, "eigh256": _eigh256, "zgemm729": _zgemm729}


def measure(kernels: tuple[str, ...]) -> float:
    """Run the named kernels once; returns their seconds as a share of the reference.

    1.0 means the machine runs at the reference speed, 1.3 that it is 30 % slower.
    """
    share = 0.0
    for name in kernels:
        start = time.perf_counter()
        KERNELS[name]()
        share += (time.perf_counter() - start) / REFERENCE_S[name]
    return share / len(kernels)
