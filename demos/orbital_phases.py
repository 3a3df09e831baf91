"""
Geometric phases from orbital tunneling cycles
==============================================

A particle tunneling to a neighbouring doubly-occupied site and back picks
up a deterministic pi phase when the virtual configuration is resonant, and
almost no phase when it is detuned by an interaction gap dE1. The first-
order gaps form a small ledger of exact rational coefficients in the bias,
the left repulsion, and the right inter-orbital repulsion — reproduced here
for both statistics, followed by the exact return dynamics.
"""

import numpy as np

from plaqgate.geophase import (
    SECTORS,
    OnsiteParams,
    TwoBandFockSpace,
    link_tunneling_phase,
    resonance_table,
    schwinger_identity_check,
    superexchange_hubbard_check,
    tunneling_phase,
)

U0 = 50.0       # the right-site repulsion U_R, in units of the tunneling t
OMEGA = 600.0   # band splitting
U_L_AA = 77.3   # generic left repulsion (avoids accidental degeneracies)


def params(bias_surplus: float) -> OnsiteParams:
    return OnsiteParams(delta=OMEGA + bias_surplus, omega=OMEGA, u_l_aa=U_L_AA, u_r=U0, t=1.0)


# the gap ledger: delta E_1 = c0 (Delta - omega) + c1 U_L^aa + c2 U_R^ab,
# with the resonant rows flagged at the statistics' natural bias
for stat, surplus in (("boson", 0.0), ("fermion", U0)):
    print(f"{stat} ledger (bias surplus {surplus:g}):")
    for e in resonance_table(params(surplus), stat):
        cfg = e.config
        flag = "  <- resonant" if e.resonant_at_bias else ""
        print(f"  (n_L, n_Ra, j_R) = ({cfg.n_l}, {cfg.n_r_a}, {cfg.j_r}): "
              f"c = ({e.c0}, {e.c1}, {e.c2}){flag}")

# exact return dynamics of the resonant boson link: a clean two-level cycle
t_ret, phase, leak = link_tunneling_phase(1, 0, 0.5, params(0.0), "boson")
print(f"\nresonant boson link: return at t = {t_ret:.6f} (pi = {np.pi:.6f}), "
      f"phase = {phase:+.6f}, leakage = {leak:.1e}")

# four-site logical sectors at U/t = 50: the singlet-triplet sector carries
# one resonant link (phase pi), the doubly-resonant sector two (phase 2 pi),
# and the off-resonant sectors stay close to zero with tiny leakage
print("\nboson sector return phases at U/t = 50")
for sector in SECTORS:
    t_ret, phase, leak = tunneling_phase(sector, params(0.0), "boson")
    print(f"  {sector}: phase = {phase:+.4f}, leakage = {leak:.1e}")

# two supporting identities behind the construction
residual = schwinger_identity_check(TwoBandFockSpace("boson"))
print(f"\ntwo-band spin-identity residual: {residual:.2e}")
for stat in ("boson", "fermion"):
    gap, ref = superexchange_hubbard_check(0.02, stat)
    print(f"superexchange gap ({stat}, t/U = 0.02): {gap:.6e} vs 4 t^2/U = {ref:.6e}")
