"""Control operators, Lie closure, slice propagation, and the exact gradient."""
from __future__ import annotations

import concurrent.futures
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import (
    all_pairs_lie_closure,
    cf4_fidelity,
    full_space_fidelity_and_gradient,
    full_space_propagate,
    slice_exponentials,
    span_contains,
    whole_batch_block_propagators,
)
from plaqgate import optctrl
from plaqgate.optctrl import (
    _CHUNK,
    BLOCK_LABELS,
    FULL_DIM,
    N_CONTROLS,
    PulseParams,
    _block_propagators,
    _block_slices,
    _draw_start,
    _gate_overlap,
    _product_tree,
    _slice_amplitudes,
    _slice_powers,
    _slice_scale,
    _slice_sine_basis,
    _tail_order,
    control_blocks,
    control_operators,
    control_register,
    fidelity_and_gradient,
    gradient_check,
    lie_closure,
    load_result_json,
    optimize,
    propagate,
    pulse_csv_text,
    result_json_text,
    robustness_sweep,
    target_gate,
)
from plaqgate.spincore import pauli_site

try:
    import resource
except ImportError:  # not on every platform; the fault count needs it
    resource = None


def _random_pulse(seed: int, n_harmonics: int = 4) -> PulseParams:
    rng = np.random.default_rng(seed)
    return PulseParams(rng.uniform(-0.6, 0.6, size=(5, n_harmonics)), 1.0)


# ---------------------------------------------------------------------------
# Control operators and the target gate
# ---------------------------------------------------------------------------

def test_control_operators_hermitian():
    for op in control_operators():
        assert np.linalg.norm(op - op.conj().T) < 1e-12


def test_exchange_controls_have_singlet_triplet_spectrum():
    ops = control_operators()
    for op in ops[:2]:
        vals = np.unique(np.round(np.linalg.eigvalsh(op), 9))
        np.testing.assert_array_equal(vals, [-3.0, 1.0])


def test_exchange_controls_commute():
    o1, o2 = control_operators()[:2]
    assert np.linalg.norm(o1 @ o2 - o2 @ o1) < 1e-12


def test_zz_control_on_polarized_state():
    o3 = control_operators()[2]
    up = np.zeros(FULL_DIM)
    up[0] = 1.0  # |all spins up> in the register's bit convention
    assert abs(np.real(up @ o3 @ up) - 2.0) < 1e-12


def test_field_controls_traceless():
    ops = control_operators()
    assert abs(np.trace(ops[3])) < 1e-12
    assert abs(np.trace(ops[4])) < 1e-12


def test_target_gate_properties():
    u = target_gate()
    np.testing.assert_allclose(u @ u, np.eye(FULL_DIM), atol=1e-12)
    assert abs(np.trace(u) - (-2.0)) < 1e-12
    vals = np.sort(np.real(np.linalg.eigvals(u)))
    assert np.sum(vals < 0) == 9  # triplet (x) triplet block picks up the sign


_BLOCK_ARRAYS = {
    f"block{b}_{field}": (lambda b=b, field=field: getattr(control_blocks()[b], field))
    for b in range(len(BLOCK_LABELS))
    for field in ("basis", "controls", "target")
}


@pytest.mark.parametrize(
    "cached",
    [target_gate, control_operators, *_BLOCK_ARRAYS.values(), lambda: _slice_sine_basis(20, 1.0, 400)],
    ids=["target_gate", "control_operators", *_BLOCK_ARRAYS, "slice_sine_basis"],
)
def test_cached_operators_are_read_only(cached):
    arr = cached()
    assert cached() is arr
    with pytest.raises(ValueError, match="read-only"):
        arr += 0


def test_target_gate_logical_restriction():
    # on (singlet, triplet-0) states of each pair the gate is diag(1,1,1,-1)
    reg = control_register()
    up, dn = np.array([1.0, 0.0]), np.array([0.0, 1.0])

    def pair_state(kind: str) -> np.ndarray:
        sign = -1.0 if kind == "s" else 1.0
        return (np.kron(dn, up) + sign * np.kron(up, dn)) / np.sqrt(2.0)

    u = target_gate()
    states = []
    for left in ("s", "t"):
        for right in ("s", "t"):
            # register order (2, 3, 1', 4'): site 2 is the least-significant bit
            states.append(np.kron(pair_state(right), pair_state(left)))
    mat = np.array([[np.vdot(a, u @ b) for b in states] for a in states])
    np.testing.assert_allclose(mat, np.diag([1, 1, 1, -1]), atol=1e-12)


# ---------------------------------------------------------------------------
# Lie closure
# ---------------------------------------------------------------------------

def test_lie_closure_dimension_is_80():
    assert len(lie_closure(control_operators())) == 80


def test_lie_closure_contains_product_term():
    ops = control_operators()
    assert span_contains(lie_closure(ops), ops[0] @ ops[1])


def test_single_operator_closure():
    o1 = control_operators()[0]
    assert len(lie_closure([o1])) == 2


@pytest.mark.parametrize("generators, dim", [
    (control_operators, 80),
    (lambda: [control_operators()[0]], 2),
    (lambda: list(control_blocks()[0].controls), 49),
    (lambda: list(control_blocks()[1].controls), 9),
    (lambda: list(control_blocks()[2].controls), 22),
], ids=["five_controls", "one_control", "block7", "block3", "block6"])
def test_lie_closure_matches_all_pairs_oracle(generators, dim):
    # the generator-only closure spans the same algebra as bracketing all pairs
    rows, oracle = lie_closure(generators()), all_pairs_lie_closure(generators())
    assert len(rows) == len(oracle) == dim
    assert np.abs(rows @ rows.T - np.eye(dim)).max() <= 1e-12
    assert np.abs(oracle - (oracle @ rows.T) @ rows).max() <= 1e-12
    assert np.abs(rows - (rows @ oracle.T) @ oracle).max() <= 1e-12


# ---------------------------------------------------------------------------
# The real 7 + 3 + 6 blocks
# ---------------------------------------------------------------------------

def _block_matrix() -> np.ndarray:
    return np.hstack([b.basis for b in control_blocks()])


def test_block_basis_is_orthonormal():
    basis = _block_matrix()
    assert basis.shape == (FULL_DIM, FULL_DIM)
    assert np.abs(basis.conj().T @ basis - np.eye(FULL_DIM)).max() <= 1e-14


def test_controls_and_target_are_real_and_block_diagonal():
    basis = _block_matrix()
    dims = [b.target.shape[0] for b in control_blocks()]
    ends = np.cumsum(dims)
    mask = np.zeros((FULL_DIM, FULL_DIM), dtype=bool)
    for end, d in zip(ends, dims):
        mask[end - d:end, end - d:end] = True
    for k, op in enumerate([*control_operators(), target_gate()]):
        rotated = basis.conj().T @ op @ basis
        assert np.abs(rotated[~mask]).max() <= 1e-14
        assert np.abs(rotated.imag).max() <= 1e-14
        for block, end, d in zip(control_blocks(), ends, dims):
            own = block.controls[k] if k < 5 else block.target
            assert np.abs(rotated[end - d:end, end - d:end] - own).max() <= 1e-14


def _joint_swap() -> np.ndarray:
    # SWAP(2,3) SWAP(1',4') permutes the bits (0 1)(2 3) of the register index
    swap = np.zeros((FULL_DIM, FULL_DIM))
    for n in range(FULL_DIM):
        bits = [(n >> i) & 1 for i in range(4)]
        image = bits[1] | bits[0] << 1 | bits[3] << 2 | bits[2] << 3
        swap[image, n] = 1.0
    return swap


def _spin_parity() -> np.ndarray:
    reg = control_register()
    spin = [sum(pauli_site(reg, s, a) for s in reg.site_labels) / 2.0 for a in "xyz"]
    lam, vecs = np.linalg.eigh(sum(s @ s for s in spin))
    total = np.rint((np.sqrt(1.0 + 4.0 * lam) - 1.0) / 2.0)  # S(S+1) -> S
    return (vecs * (-1.0) ** total) @ vecs.conj().T


def test_blocks_carry_their_invariants():
    assert [b.target.shape[0] for b in control_blocks()] == [7, 3, 6]
    swap, parity = _joint_swap(), _spin_parity()
    for block, (j, p) in zip(control_blocks(), BLOCK_LABELS):
        assert (block.swap, block.spin_parity) == (j, p)
        assert np.abs(swap @ block.basis - j * block.basis).max() <= 1e-14
        assert np.abs(parity @ block.basis - p * block.basis).max() <= 1e-13


def test_block_lie_closures_sum_to_80():
    dims = [len(lie_closure(list(b.controls))) for b in control_blocks()]
    assert dims == [49, 9, 22]
    assert sum(dims) == 80


@pytest.mark.slow
@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    x=st.integers(1, 20).flatmap(
        lambda n_harmonics: arrays(np.float64, (5, n_harmonics), elements=st.floats(-2.0, 2.0))
    ),
    steps=st.integers(1, 300),
    t_horizon=st.floats(0.1, 3.0),
)
def test_block_path_matches_full_space_oracle(x, steps, t_horizon):
    # gradient_check compares two blockwise computations, so a wrong block
    # basis would cancel out there; only the full-space oracle catches it
    pulse = PulseParams(x, t_horizon)
    f, grad = fidelity_and_gradient(pulse, steps=steps)
    f_ref, grad_ref = full_space_fidelity_and_gradient(pulse, steps)
    assert abs(f - f_ref) <= 1e-12
    assert np.abs(grad - grad_ref).max() <= 1e-12
    assert np.abs(propagate(pulse, steps=steps) - full_space_propagate(pulse, steps)).max() <= 1e-12


def _pulse_at_theta(theta: float, steps: int) -> PulseParams:
    # scale a drawn pulse so that the largest block theta (the 1-norm of
    # h dt that sets the squarings and the series cuts) is exactly `theta`
    x = _random_pulse(11, n_harmonics=5).x
    dt, _, alphas = _slice_amplitudes(x, 1.0, steps)
    scales = [_block_slices(alphas, dt, b, {})[1:] for b in control_blocks()]
    norm = max(scaled * 2.0 ** s for scaled, s in scales)
    return PulseParams(x * (theta / norm), 1.0)


@pytest.mark.parametrize(
    "theta, squarings, order",
    [(0.249, 0, 14), (6.0, 5, 13)],
    ids=["longest-series", "five-squarings"],
)
def test_gradient_matches_full_space_oracle_at_series_extremes(theta, squarings, order):
    # just under theta = 1/4 no squaring is needed and the adjoint series is
    # at its longest; far above it the gradient runs back through squarings
    steps = 7
    pulse = _pulse_at_theta(theta, steps)
    dt, _, alphas = _slice_amplitudes(pulse.x, pulse.t_horizon, steps)
    cuts = []
    for block in control_blocks():
        _, scaled, n_squarings = _block_slices(alphas, dt, block, {})
        cuts.append((n_squarings, _tail_order(2.0 * scaled, 2)))
    assert max(cuts) == (squarings, order)
    f, grad = fidelity_and_gradient(pulse, steps=steps)
    f_ref, grad_ref = full_space_fidelity_and_gradient(pulse, steps)
    assert abs(f - f_ref) <= 1e-12
    assert np.abs(grad - grad_ref).max() <= 1e-12


# ---------------------------------------------------------------------------
# Slice exponentials
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("theta", [1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0, 1e3])
def test_slice_exponentials_match_eigh_exponential(theta):
    # theta is the batch's largest 1-norm of h dt. Up to theta = 1/4 no
    # squaring is needed and both errors stay at rounding: measured <= 2.2e-15,
    # 4.5x inside 1e-14. Above it each of the ~log2(4 theta) squarings can
    # double the error: at theta = 1e3, 8.7e-13 against a bound of 4e-11.
    rng = np.random.default_rng(17)
    h = rng.standard_normal((64, 7, 7))
    h += np.swapaxes(h, 1, 2)
    dt = 0.5
    h *= theta / (dt * np.abs(h).sum(axis=1).max())
    lam, vecs = np.linalg.eigh(h)
    ref = (vecs * np.exp(-1j * lam * dt)[:, None, :]) @ np.swapaxes(vecs, 1, 2)
    u = slice_exponentials(h, dt)
    bound = 1e-14 * max(1.0, 4.0 * theta)
    assert np.abs(u - ref).max() <= bound
    assert np.abs(np.swapaxes(u.conj(), 1, 2) @ u - np.eye(7)).max() <= bound


def test_slice_exponentials_of_zero_and_empty_batches():
    u = slice_exponentials(np.zeros((3, 7, 7)), 0.1)
    assert u.dtype == complex
    np.testing.assert_array_equal(u, np.broadcast_to(np.eye(7), (3, 7, 7)))
    assert slice_exponentials(np.zeros((0, 7, 7)), 0.1).shape == (0, 7, 7)


def _one_norm(h: np.ndarray, dt: float) -> float:
    # the largest 1-norm of h dt over the whole batch, taken without chunks
    return np.abs(h * dt).sum(axis=-2).max(initial=0.0)


@pytest.mark.parametrize("slices", [0, 1, _CHUNK, _CHUNK + 1, 2000])
@pytest.mark.parametrize("theta", [0.2, 3.0], ids=["no-squaring", "squarings"])
def test_slice_scale_forms_a_in_place_bit_for_bit(slices, theta):
    # A = h dt / 2^s is formed once, in place, by the two IEEE operations of the
    # whole-batch reference, and the returned theta is the reference's over 2^s;
    # for `_block_slices`, h of a block is alphas @ controls
    rng, dt = np.random.default_rng(slices), 0.3
    h = rng.standard_normal((slices, 7, 7))
    h += np.swapaxes(h, 1, 2)
    h *= theta / max(_one_norm(h, dt), 1e-300)
    a = h * dt
    results = [(h, a, *_slice_scale(a))]
    for block in control_blocks():
        d = block.target.shape[0]
        controls = block.controls.reshape(N_CONTROLS, d * d)
        alphas = rng.standard_normal((slices, N_CONTROLS))
        alphas *= theta / max(_one_norm((alphas @ controls).reshape(-1, d, d), dt), 1e-300)
        results.append(((alphas @ controls).reshape(slices, d, d),
                        *_block_slices(alphas, dt, block, {})))
    for h, a, scaled, s in results:
        assert (s == 0) if theta < 0.25 or not slices else (s >= 3)
        assert a.tobytes() == ((h * dt) / 2.0 ** s).tobytes()
        assert scaled == _one_norm(h, dt) / 2 ** s


def test_slice_scale_refuses_more_than_32_squarings():
    # the s squarings multiply each slice's rounding by up to 2^s; 2^s eps
    # exceeds 1e-6 above s = 32, at a 1-norm of h dt above 2^30
    assert _slice_scale(np.full((1, 1, 1), 2.0 ** 30))[1] == 32
    with pytest.raises(ValueError, match="s <= 32"):
        _slice_scale(np.full((1, 1, 1), 2.0 ** 31))


# ---------------------------------------------------------------------------
# Propagation
# ---------------------------------------------------------------------------

def test_propagate_zero_pulse_is_identity():
    u = propagate(PulseParams(np.zeros((5, 3)), 1.0), steps=50)
    np.testing.assert_allclose(u, np.eye(FULL_DIM), atol=1e-12)


def test_propagate_unitary_at_two_resolutions():
    pulse = _random_pulse(0)
    for steps in (400, 800):
        u = propagate(pulse, steps=steps)
        assert np.linalg.norm(u @ u.conj().T - np.eye(FULL_DIM)) < 1e-9


def test_propagate_commuting_case_oracle():
    # a single control with a single harmonic commutes with itself at all
    # times, so the exact evolution is the exponential of the integrated
    # sliced Hamiltonian
    from plaqgate.spincore import unitary_evolve

    x = np.zeros((5, 1))
    x[0, 0] = 0.8
    pulse = PulseParams(x, 1.0)
    steps = 600
    u = propagate(pulse, steps=steps)
    o1 = control_operators()[0]
    mids = (np.arange(steps) + 0.5) / steps
    area = np.sum(0.8 * np.sin(np.pi * mids)) / steps
    np.testing.assert_allclose(u, unitary_evolve(o1, area), atol=1e-10)


def test_propagate_time_reversal():
    pulse = _random_pulse(1)
    x_rev = pulse.x * ((-1.0) ** np.arange(1, pulse.n_harmonics + 1))
    u = propagate(pulse, steps=700)
    u_rev = propagate(PulseParams(x_rev, 1.0), steps=700)
    np.testing.assert_allclose(u_rev @ u, np.eye(FULL_DIM), atol=1e-8)


@pytest.mark.parametrize("steps", [131, 300, 2000])
@pytest.mark.parametrize("control", range(5))
def test_propagate_unitarity_does_not_grow_with_steps(control, steps):
    # slices that share their eigenvectors (one harmonic of 1e-244) once lost
    # unitarity linearly in the step count (2e-12 to 3.5e-12 at 2,000 steps); the
    # Taylor slices give 3.3e-15 at every step count, the rounding of the
    # 16-dim basis change
    x = np.zeros((5, 1))
    x[control, 0] = 1e-244
    u = propagate(PulseParams(x, 1.0), steps=steps)
    assert np.linalg.norm(u.conj().T @ u - np.eye(FULL_DIM)) <= 1e-14


_STREAM_STEPS = [1, 2, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1, 400, 2000, 2049]


def _assembled(block_unitaries) -> np.ndarray:
    return sum(b.basis @ u @ b.basis.conj().T for b, u in zip(control_blocks(), block_unitaries))


@pytest.mark.parametrize("steps", _STREAM_STEPS)
@pytest.mark.parametrize("kind", ["drawn", "five-squarings", "zero"])
def test_streamed_propagation_matches_whole_batch_bit_for_bit(kind, steps):
    # aligned power-of-two chunks are whole subtrees of the pairwise product
    # tree, so streaming them changes no bit of U, across chunk edges too
    pulse = {"drawn": _random_pulse(12, n_harmonics=6),
             "five-squarings": _pulse_at_theta(6.0, steps),
             "zero": PulseParams(np.zeros((5, 3)), 1.0)}[kind]
    ref = whole_batch_block_propagators(pulse.x, pulse.t_horizon, steps)
    assert np.array_equal(propagate(pulse, steps=steps), _assembled(ref))
    deltas = [0.0, 0.3]
    expected = [1.0 - float(_gate_overlap(whole_batch_block_propagators(
        (1.0 - d) * pulse.x, pulse.t_horizon, steps))) for d in deltas]
    assert robustness_sweep(pulse, deltas, steps=steps) == expected


@pytest.mark.parametrize("kind", ["drawn", "scaled-x40"])
def test_real_propagator_matches_complex_slice_product(kind):
    # U_b read from the root of the real 2d x 2d embeddings against the complex
    # product tree of the same slices, theta and s from every slice. The
    # x40 pulse needs 2 or 3 squarings per block. Measured at most 6.9e-15, bound 1e-13
    rng = np.random.default_rng(8)
    x = {"drawn": _draw_start(rng, 20), "scaled-x40": 40.0 * _draw_start(rng, 20)}[kind]
    steps = 400
    dt, _, alphas = _slice_amplitudes(x, 1.0, steps)
    for block, u in zip(control_blocks(), _block_propagators(x, 1.0, steps)):
        a, theta, squarings = _block_slices(alphas, dt, block, {})
        if kind == "scaled-x40":
            assert squarings >= 2
        ref = _product_tree(_slice_powers(a, theta, squarings, {}, {})[-1], {})[-1][0]
        assert u.shape == ref.shape == block.target.shape
        assert np.abs(u - ref).max() <= 1e-13


def test_gradient_check_working_set_is_bounded():
    # the 2 x 100 shifted pulses propagated as two whole batches peaked at
    # 79.6 MB; streamed one pulse at a time the peak was about 2 MB, and with
    # the workspace filled a call allocates 0.46 MB
    pulse = _random_pulse(14, n_harmonics=20)
    gradient_check(pulse)  # fill the caches and the workspace
    tracemalloc.start()
    try:
        gradient_check(pulse)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5e6


def test_propagate_working_set_is_bounded():
    # the whole-batch path held (2000, d, d) temporaries, a 6.4 MB peak; the
    # streamed path held one chunk at a time (about 1.6 MB), and with the
    # workspace filled a call allocates 0.28 MB
    pulse = _random_pulse(13, n_harmonics=20)
    propagate(pulse, steps=2000)  # fill the caches and the workspace
    tracemalloc.start()
    try:
        propagate(pulse, steps=2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3e6


def _workspace_buffers() -> list[np.ndarray]:
    """Every byte buffer of this thread's workspaces, the gradient's per-block dicts included."""
    found, todo = [], [bufs for _, bufs in vars(optctrl._WORKSPACE).values()]
    while todo:
        for value in todo.pop().values():
            if isinstance(value, dict):
                todo.append(value)
            else:
                found.append(value[0])
    return found


def _leaves(result) -> list:
    return list(result) if isinstance(result, (tuple, list)) else [result]


def test_workspace_keeps_bits_and_shares_no_memory():
    # each call, made on the buffers that the other calls left, gives the bits of
    # the same call on an emptied workspace; no later call changes an earlier
    # result, and no result, cached array or oracle output lies in a buffer
    pulse = _random_pulse(15, n_harmonics=20)
    calls = [lambda: fidelity_and_gradient(pulse, 400),
             lambda: fidelity_and_gradient(pulse, 250),
             lambda: propagate(pulse, 2000),
             lambda: gradient_check(pulse, steps=80),
             lambda: robustness_sweep(pulse, [0.0, 0.05], steps=300)]
    for call in calls:
        call()
    warm = []
    for call in calls:
        warm.append(call())
        assert not any(np.shares_memory(leaf, buf)
                       for leaf in _leaves(warm[-1]) for buf in _workspace_buffers())
    kept = [[np.copy(leaf) for leaf in _leaves(result)] for result in warm]
    for call, result in zip(calls, warm):
        optctrl._WORKSPACE.__dict__.clear()
        fresh = call()
        assert all(np.array_equal(a, b) for a, b in zip(_leaves(fresh), _leaves(result)))
    for result, copies in zip(warm, kept):
        assert all(np.array_equal(a, b) for a, b in zip(_leaves(result), copies))
    dt, _, alphas = _slice_amplitudes(pulse.x, 1.0, 300)
    others = [whole_batch_block_propagators(pulse.x, 1.0, 300),
              _slice_powers(*_block_slices(alphas, dt, control_blocks()[0], {}), {}, {}),
              _slice_sine_basis(20, 1.0, 400),
              [getattr(b, f) for b in control_blocks() for f in ("basis", "controls", "target")]]
    buffers = _workspace_buffers()
    assert len(buffers) > 10
    assert not any(np.shares_memory(leaf, buf)
                   for result in others for leaf in _leaves(result) for buf in buffers)


def test_threads_keep_their_own_workspace():
    # four threads on two cores, switching often, each on its own buffers: every
    # concurrent call gives the bits of the serial one; shared buffers would mix
    # them, since numpy releases the interpreter lock inside matmul
    pulses = [_random_pulse(seed, n_harmonics=20) for seed in (17, 18, 19, 20)]
    calls = [(fidelity_and_gradient, 400), (propagate, 2000)]
    serial = [[_leaves(fn(p, steps)) for fn, steps in calls] for p in pulses]

    def work(p):
        return [[_leaves(fn(p, steps)) for fn, steps in calls] for _ in range(3)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with concurrent.futures.ThreadPoolExecutor(len(pulses)) as pool:
            results = [f.result(timeout=120) for f in [pool.submit(work, p) for p in pulses]]
    finally:
        sys.setswitchinterval(interval)
    for runs, expected in zip(results, serial):
        for run in runs:
            assert all(np.array_equal(a, b) for got, want in zip(run, expected)
                       for a, b in zip(got, want))


@pytest.mark.skipif(not hasattr(resource, "RUSAGE_THREAD"), reason="needs per-thread rusage")
def test_warm_gradient_takes_no_page_faults():
    # fresh slice arrays on every call took 5,107 minor faults per warm 2000-slice
    # gradient, as glibc trimmed and unmapped the freed heap; with the retained
    # workspace the measured count is 0
    pulse = _random_pulse(16, n_harmonics=20)
    for _ in range(2):
        fidelity_and_gradient(pulse, 2000)
    before = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt
    for _ in range(5):
        fidelity_and_gradient(pulse, 2000)
    assert resource.getrusage(resource.RUSAGE_THREAD).ru_minflt - before <= 5 * 100


@pytest.mark.parametrize("steps, fresh_peak", [(400, 3.33e6), (2000, 1.68e6)],
                         ids=["gradient-400", "propagate-2000"])
def test_workspace_holds_one_working_set_per_path(steps, fresh_peak):
    # the bytes a path keeps are one call's working set: a call on an emptied
    # workspace peaks, and keeps, at most the peak of the code that allocated
    # every array afresh (3.33 MB and 1.68 MB) plus 1 MB. Measured: 3.60 MB
    # peak and 3.50 MB kept for the gradient, 2.49 and 2.26 MB for the propagator
    pulse = _random_pulse(13, n_harmonics=20)
    call = {400: lambda: fidelity_and_gradient(pulse, 400),
            2000: lambda: propagate(pulse, 2000)}[steps]
    call()  # fill the caches
    optctrl._WORKSPACE.__dict__.clear()
    tracemalloc.start()
    try:
        call()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held <= peak <= fresh_peak + 1e6


def test_propagation_calls_no_eigh(monkeypatch):
    # the cached block basis is built (with one eigh) before eigh is patched out
    pulse = _random_pulse(9)
    control_blocks()

    def no_eigh(*args, **kwargs):
        raise AssertionError("eigh called on the propagation path")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    propagate(pulse, steps=300)
    robustness_sweep(pulse, [0.0, 0.1], steps=300)


def test_gradient_calls_no_eigh(monkeypatch):
    # the gradient is the adjoint of the Taylor slice exponentials, not a
    # sum over slice eigenbases
    pulse = _random_pulse(9)
    control_blocks()

    def no_eigh(*args, **kwargs):
        raise AssertionError("eigh called on the gradient path")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    fidelity_and_gradient(pulse, steps=300)
    assert gradient_check(pulse, steps=80) <= 1e-5


def test_propagate_rejects_bad_steps():
    with pytest.raises(ValueError):
        propagate(_random_pulse(0), steps=0)


def test_empty_or_degenerate_requests_raise():
    # every slice path checks the slice count; an empty search and a step
    # that is not positive (NaN included) are refused before any work
    pulse = _random_pulse(0)
    for call in (lambda: fidelity_and_gradient(pulse, steps=0),
                 lambda: gradient_check(pulse, steps=0),
                 lambda: robustness_sweep(pulse, [0.0], steps=0)):
        with pytest.raises(ValueError, match="steps must be >= 1"):
            call()
    for fd_step in (0.0, -1e-6, float("nan")):
        with pytest.raises(ValueError, match="fd_step"):
            gradient_check(pulse, steps=10, fd_step=fd_step)
    for kwargs in (dict(n_harmonics=0), dict(restarts=0)):
        with pytest.raises(ValueError, match="n_harmonics >= 1 and restarts >= 1"):
            optimize(0, **kwargs)


def test_propagate_rejects_overflowing_pulse():
    # finite coefficients whose slice Hamiltonians overflow must not pass as
    # a NaN norm, which would end the Taylor sum at the identity
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="finite"):
        propagate(PulseParams(np.full((5, 4), 1e308), 1.0), steps=10)


@pytest.mark.parametrize("call", [propagate, fidelity_and_gradient])
def test_pulse_beyond_32_squarings_is_refused(call):
    # a finite coefficient of 1e300 needs about 1,000 squarings, which gave a NaN
    # U, F and gradient; it is refused like an overflowing pulse
    x = np.zeros((5, 4))
    x[0, 0] = 1e300
    with pytest.raises(ValueError, match="s <= 32"):
        call(PulseParams(x, 1.0), 400)


def test_pulse_boundary_values():
    pulse = _random_pulse(3)
    amps = pulse.amplitudes(np.array([0.0, pulse.t_horizon]))
    np.testing.assert_allclose(amps, 0.0, atol=1e-12)


def test_pulse_params_validation():
    with pytest.raises(ValueError):
        PulseParams(np.zeros((4, 3)), 1.0)  # wrong control count
    with pytest.raises(ValueError):
        PulseParams(np.zeros((5, 3)), -1.0)


# ---------------------------------------------------------------------------
# Fidelity and gradient
# ---------------------------------------------------------------------------

def test_zero_pulse_fidelity():
    f, _ = fidelity_and_gradient(PulseParams(np.zeros((5, 2)), 1.0), steps=50)
    assert abs(f - 1.0 / 64.0) < 1e-12


def test_fidelity_bounded():
    for seed in range(3):
        f, _ = fidelity_and_gradient(_random_pulse(seed), steps=200)
        assert 0.0 <= f <= 1.0 + 1e-12


def test_fidelity_phase_invariance():
    # F uses |trace|^2, so the value at the discretized optimum is insensitive
    # to a global phase on the target; proxy check: gradient at zero pulse
    # vanishes by symmetry of the trace
    _, grad = fidelity_and_gradient(PulseParams(np.zeros((5, 4)), 1.0), steps=100)
    assert np.abs(grad).max() < 1e-12


@pytest.mark.parametrize("seed", [0, 1])
def test_gradient_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    pulse = PulseParams(rng.uniform(-0.5, 0.5, size=(5, 3)), 1.0)
    assert gradient_check(pulse, steps=80) <= 1e-5


@pytest.mark.parametrize("steps", [80, 250])
def test_gradient_check_keeps_its_bits(steps):
    # each shifted pulse propagates on its own, and the overlaps of each sign are
    # reduced over the stacked unitaries at once: a trace summed per pulse, over a
    # 2-D array, rounds otherwise and moved the error by about 1e-2 relative
    pulse, fd_step = _random_pulse(21, n_harmonics=20), 1e-6
    _, grad = fidelity_and_gradient(pulse, steps)
    shifts = fd_step * np.eye(pulse.x.size).reshape(-1, *pulse.x.shape)
    f_plus, f_minus = (_gate_overlap([np.stack(us) for us in zip(*(
        whole_batch_block_propagators(pulse.x + sign * shift, 1.0, steps) for shift in shifts))])
        for sign in (1.0, -1.0))
    fd = ((f_plus - f_minus) / (2.0 * fd_step)).reshape(pulse.x.shape)
    expected = float(np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-10))
    assert gradient_check(pulse, steps, fd_step) == expected


# ---------------------------------------------------------------------------
# Continuous time: the fourth-order commutator-free reference (tests/oracles.py)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def cf4_case():
    """A drawn 20-harmonic start pulse, T = 1, and its CF4 fidelity at 3,200 steps."""
    pulse = PulseParams(_draw_start(np.random.default_rng(5), 20), 1.0)
    return pulse, cf4_fidelity(pulse, 3200)


def test_cf4_reference_is_fourth_order(cf4_case):
    """Each halving of the step cuts the error by 2^4. Measured: 1.7e-6, 1.0e-7, 6.4e-9,
    4.0e-10 and 2.5e-11 at 50 to 800 steps, ratios 16.0 to 16.5."""
    pulse, reference = cf4_case
    errors = [abs(cf4_fidelity(pulse, steps) - reference) for steps in (50, 100, 200, 400, 800)]
    for coarse, fine in zip(errors, errors[1:]):
        assert 12.0 <= coarse / fine <= 20.0, errors


def test_midpoint_fidelity_error_is_second_order(cf4_case):
    """The program's midpoint F lies c (T/S)^2 from continuous time, with one c at 400 and
    2,000 slices (the descent and the polish grids). Measured: -3.01e-6 and -1.20e-7, c = -0.48."""
    pulse, reference = cf4_case
    c = [(fidelity_and_gradient(pulse, steps)[0] - reference) * (steps / pulse.t_horizon) ** 2
         for steps in (400, 2000)]
    assert abs(c[1] - c[0]) <= 0.05 * abs(c[0]), c


# ---------------------------------------------------------------------------
# Optimization plumbing (full-scale runs live in the acceptance suite)
# ---------------------------------------------------------------------------

def test_optimize_deterministic():
    kwargs = dict(n_harmonics=3, restarts=1, max_iter=40, steps=100, polish_steps=0)
    a = optimize(7, **kwargs)
    b = optimize(7, **kwargs)
    assert a.infidelity == b.infidelity
    np.testing.assert_array_equal(a.x_final, b.x_final)


def test_optimize_single_harmonic_cannot_reach_target():
    result = optimize(0, n_harmonics=1, restarts=2, max_iter=150, steps=150, polish_steps=0)
    assert result.infidelity > 1e-3
    assert result.infidelity >= 0.0


def test_optimize_improves_over_start():
    result = optimize(4, n_harmonics=6, restarts=1, max_iter=120, steps=150, polish_steps=0)
    assert result.infidelity < 1.0 - 1.0 / 64.0  # strictly better than doing nothing
    assert result.restarts_used == 1
    assert result.iterations > 0


def test_optimize_polish_honours_max_iter():
    # one descent and the polish, each of at most max_iter L-BFGS iterations
    result = optimize(0, n_harmonics=3, restarts=1, max_iter=2, steps=10, polish_steps=20)
    assert 0 < result.iterations <= 2 * 2


@pytest.mark.parametrize("target_eps", [0.0, 0.236], ids=["ends-on-its-own", "target-stops"])
def test_optimize_iterations_are_lbfgs_iterations(monkeypatch, target_eps):
    # the line search can evaluate the objective more than once per
    # iteration: the target-stop case takes 8 calls in 5 iterations
    import scipy.optimize

    real_minimize, counted = scipy.optimize.minimize, []

    def minimize(*args, callback, **kwargs):
        def counting(xk):
            counted.append(xk)
            callback(xk)

        return real_minimize(*args, callback=counting, **kwargs)

    monkeypatch.setattr(scipy.optimize, "minimize", minimize)
    result = optimize(4, n_harmonics=6, restarts=1, max_iter=30, steps=150, polish_steps=0,
                      target_eps=target_eps)
    assert (result.infidelity <= target_eps) == (target_eps > 0.0)
    assert result.iterations == len(counted) > 0


@pytest.mark.parametrize("steps", [1, 2, 7, 131, 400, _CHUNK + 1, 2000])
def test_gradient_and_propagator_share_one_slice_path(monkeypatch, steps):
    # the objective and the propagator must exponentiate the slices with one
    # Taylor routine and get its cos A and sin A bit for bit; two series differ
    # in the last bits. The propagator multiplies the slices as real 2d x 2d
    # embeddings, which round otherwise than the gradient's complex products,
    # so F agrees to rounding only: at most 5.6e-16 (measured), bound 1e-14
    cos_sin, calls = optctrl._slice_cos_sin, []

    def recording(*args):  # copies: the results live in buffers that later calls reuse
        calls.append([np.copy(r) for r in cos_sin(*args)])
        return calls[-1]

    monkeypatch.setattr(optctrl, "_slice_cos_sin", recording)
    pulse = _random_pulse(10, n_harmonics=6)
    f, _ = fidelity_and_gradient(pulse, steps=steps)
    f_streamed = _gate_overlap(_block_propagators(pulse.x, pulse.t_horizon, steps))
    gradient, streamed = calls[:len(control_blocks())], calls[len(control_blocks()):]
    for cos, sin in gradient:
        chunks = [c for c in streamed if c[0].shape[-1] == cos.shape[-1]]
        assert len(chunks) == -(-steps // _CHUNK)
        for k, whole in ((0, cos), (1, sin)):
            assert np.array_equal(np.concatenate([c[k] for c in chunks]), whole)
    assert abs(f - f_streamed) <= 1e-14


def test_robustness_sweep_baseline():
    pulse = _random_pulse(5)
    infs = robustness_sweep(pulse, [0.0, 0.05], steps=300)
    f, _ = fidelity_and_gradient(pulse, steps=300)
    assert abs(infs[0] - (1.0 - f)) < 1e-12
    assert len(infs) == 2


_PULSES = st.integers(1, 6).flatmap(
    lambda n_harmonics: arrays(np.float64, (5, n_harmonics), elements=st.floats(-2.0, 2.0))
)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(x=_PULSES, steps=st.integers(1, 300), t_horizon=st.floats(0.1, 3.0))
def test_propagate_is_unitary_on_drawn_pulses(x, steps, t_horizon):
    # each Taylor slice is unitary to rounding, so the error can at worst add
    # up linearly in the step count, which the bound allows for; in practice
    # it stays far below it (3e-14 at 2,000 steps, and
    # test_propagate_unitarity_does_not_grow_with_steps)
    u = propagate(PulseParams(x, t_horizon), steps=steps)
    bound = steps * 8 * FULL_DIM * np.finfo(float).eps
    assert np.linalg.norm(u.conj().T @ u - np.eye(FULL_DIM)) <= bound


@settings(max_examples=25, deadline=None, derandomize=True)
@given(x=_PULSES, delta=st.floats(-0.5, 0.5), steps=st.integers(1, 200))
def test_robustness_sweep_is_infidelity_of_scaled_pulse(x, delta, steps):
    pulse = PulseParams(x, 1.0)
    f, _ = fidelity_and_gradient(PulseParams((1.0 - delta) * x, 1.0), steps=steps)
    assert abs(robustness_sweep(pulse, [delta], steps=steps)[0] - (1.0 - f)) <= 1e-15


# ---------------------------------------------------------------------------
# Export round trips
# ---------------------------------------------------------------------------

def test_pulse_csv_export():
    lines = pulse_csv_text(_random_pulse(6)).strip().splitlines()
    assert lines[0] == "t,alpha_1,alpha_2,alpha_3,alpha_4,alpha_5"
    assert len(lines) == 1001
    first = [float(v) for v in lines[1].split(",")]
    last = [float(v) for v in lines[-1].split(",")]
    assert first[0] == 0.0 and abs(last[0] - 1.0) < 1e-12
    # pulses start and end at zero
    assert all(abs(v) < 1e-12 for v in first[1:])
    assert all(abs(v) < 1e-12 for v in last[1:])


def test_result_json_round_trip(tmp_path):
    from plaqgate.optctrl import OptimizationResult

    x = _random_pulse(8).x
    result = OptimizationResult(
        x_final=x, infidelity=1.5e-6, iterations=10, gradient_norm=1e-7,
        restarts_used=2, seed=8,
    )
    path = tmp_path / "result.json"
    path.write_text(result_json_text(result, 1.0))
    pulse, infid, seed = load_result_json(path)
    np.testing.assert_array_equal(pulse.x, x)
    assert pulse.t_horizon == 1.0
    assert infid == 1.5e-6
    assert seed == 8
