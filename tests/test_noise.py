"""Tests for Kraus channels, the calibrated model, and trajectory execution.

The reference oracle here evolves a full density matrix through the same
gate/channel sequence; trajectory averages must agree with it.
"""

import hashlib
import math
import re
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qsnapshot.circuit import (
    Gate,
    QuantumCircuit,
    _local_views,
    ancilla_expectation,
    apply_gate,
    apply_matrix,
    build_swap_test,
    lower_to_basis,
    mottonen_prepare,
)
from qsnapshot.core import Rng, random_pure_state
from qsnapshot.noise import (
    COMPLETENESS_TOL,
    ChannelApplication,
    KrausChannel,
    NoiseModel,
    NoiseParams,
    UnsupportedRegimeError,
    _channel_step,
    bit_flip_channel,
    depolarizing_channel,
    execute_trajectories,
    calibrated_noise_model,
    thermal_relaxation_channel,
)


# ---------------------------------------------------------------------------
# Density-matrix reference (test-only oracle)


def _expand(op, qubits, n):
    """Lift a local operator (qubits[0] = most significant local bit) to n qubits."""
    d = 2**n
    full = np.zeros((d, d), dtype=np.complex128)
    k = len(qubits)
    for col in range(d):
        local_col = 0
        for j, q in enumerate(qubits):
            local_col |= ((col >> q) & 1) << (k - 1 - j)
        rest = col
        for q in qubits:
            rest &= ~(1 << q)
        for local_row in range(2**k):
            amp = op[local_row, local_col]
            if amp == 0:
                continue
            row = rest
            for j, q in enumerate(qubits):
                row |= ((local_row >> (k - 1 - j)) & 1) << q
            full[row, col] += amp
    return full


def _gate_unitary(gate, n):
    from qsnapshot.circuit import _single_qubit_matrix, _cx_permutation

    mat = _single_qubit_matrix(gate)
    if mat is not None:
        return _expand(mat, gate.qubits, n)
    if gate.kind == "CX":
        perm = _cx_permutation(n, *gate.qubits)
        u = np.zeros((2**n, 2**n), dtype=np.complex128)
        u[np.arange(2**n), perm] = 1.0
        return u
    if gate.kind in ("ID", "DELAY"):
        return np.eye(2**n, dtype=np.complex128)
    raise ValueError(gate.kind)


def dm_execute(circuit, model):
    """Exact density-matrix evolution of a lowered circuit: returns ancilla <Z>."""
    n = circuit.n_qubits
    d = 2**n
    rho = np.zeros((d, d), dtype=np.complex128)
    rho[0, 0] = 1.0

    def apply_channel(rho, channel, qubits):
        out = np.zeros_like(rho)
        for k in channel.operators:
            full = _expand(k, qubits, n)
            out += full @ rho @ full.conj().T
        return out

    for gate in circuit.gates:
        apps = model.channels_for(gate)
        if gate.kind != "MEASURE":
            u = _gate_unitary(gate, n)
            rho = u @ rho @ u.conj().T
        for app in apps:
            if app.scope == "pair":
                rho = apply_channel(rho, app.channel, gate.qubits)
            else:
                for q in gate.qubits:
                    rho = apply_channel(rho, app.channel, (q,))
    probs = np.diag(rho).real
    idx = np.arange(d)
    return float(np.sum(probs[(idx & 1) == 0]) - np.sum(probs[(idx & 1) == 1]))


# ---------------------------------------------------------------------------
# Channel-step reference and channels that exercise each of its paths


def _per_row_channel_step(amps, channel, qubits, n_qubits, rng):
    """The channel step with every chosen operator in one per-row stack; the
    step with a shared matrix for the most frequent choice must match it."""
    if channel.is_identity:
        return amps
    batch = amps.shape[0]
    u = rng.uniform(batch)
    if channel._mix_weights is not None:
        probs = channel._mix_weights[:, None]
    else:
        views = [v.reshape(batch, -1) for v in _local_views(amps, qubits, n_qubits)]
        if channel._effect_diagonals is not None:
            populations = np.array([np.sum(np.abs(v) ** 2, axis=1) for v in views])
            probs = channel._effect_diagonals @ populations
        else:
            m = np.stack(views, axis=1)
            gram = np.einsum("bir,bjr->bij", m, m.conj())
            probs = np.einsum("kij,bji->kb", channel._effects, gram).real
        probs = np.clip(probs, 0.0, None)
        probs /= probs.sum(axis=0, keepdims=True)
    choice = (u[None, :] > np.cumsum(probs, axis=0)).sum(axis=0)
    choice = np.minimum(choice, len(channel.operators) - 1)
    rows = np.flatnonzero(~channel._skip[choice])
    if rows.size == 0:
        return amps
    sub = apply_matrix(amps[rows], channel._stack[choice[rows]], qubits, n_qubits)
    if channel._mix_weights is None:
        sub /= np.linalg.norm(sub, axis=1, keepdims=True)
    out = amps.copy()
    out[rows] = sub
    return out


def _per_row_trajectories(circuit, model, trajectories, rng):
    """execute_trajectories with one row per trajectory: the full
    (trajectories, 2^n) array, every channel step by _per_row_channel_step."""
    n = circuit.n_qubits
    amps = np.zeros((trajectories, 2**n), dtype=np.complex128)
    amps[:, 0] = 1.0
    for gate in circuit.gates:
        if gate.kind != "MEASURE":
            amps = apply_gate(amps, gate, n)
        for app in model.channels_for(gate):
            for qubits in [gate.qubits] if app.scope == "pair" else [(q,) for q in gate.qubits]:
                amps = _per_row_channel_step(amps, app.channel, qubits, n, rng)
    idx = np.arange(2**n)
    p1 = np.sum(np.abs(amps[:, (idx & 1) == 1]) ** 2, axis=1)
    return float(np.mean(1.0 - 2.0 * p1))


@st.composite
def _lowered_circuits(draw):
    """A small lowered circuit of X, SX, RZ, CX, ID, DELAY and RESET gates
    that measures qubit 0."""
    n = draw(st.integers(1, 3))
    circ = QuantumCircuit(n)
    kinds = ["X", "SX", "RZ", "ID", "DELAY", "RESET"] + (["CX"] if n > 1 else [])
    for _ in range(draw(st.integers(0, 14))):
        kind = draw(st.sampled_from(kinds))
        if kind == "CX":
            circ.add("CX", *draw(st.permutations(range(n)))[:2])
            continue
        param = {"RZ": st.floats(-math.pi, math.pi), "DELAY": st.floats(0.0, 5e4)}.get(kind)
        circ.add(kind, draw(st.integers(0, n - 1)),
                 param=None if param is None else draw(param))
    return circ.add("MEASURE", 0)


def _damping_in_x_basis():
    """Amplitude damping conjugated by H: non-diagonal effects, not a mixture."""
    h = np.array([[1, 1], [1, -1]], dtype=np.complex128) / math.sqrt(2.0)
    return KrausChannel(tuple(h @ k @ h for k in
                              thermal_relaxation_channel(100.0, 100.0, 30000.0).operators), 1)


_CALIBRATED = {id(app.channel): app.channel
               for apps in calibrated_noise_model().assignments.values() for app in apps}
_STEP_CHANNELS = {
    **{f"calibrated {i}": channel for i, channel in enumerate(_CALIBRATED.values())},
    "flip 0.8": bit_flip_channel(0.8),  # the usual draw is X, not the identity
    "depolarizing 0.9": depolarizing_channel(0.9, 2),
    "relaxation 200 us": thermal_relaxation_channel(100.0, 80.0, 200000.0),
    "general": _damping_in_x_basis(),
}


class TestGateKernel:
    """apply_matrix, RESET and the channel step against dense references."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), name=st.sampled_from(sorted(_STEP_CHANNELS)))
    def test_channel_step_matches_per_row_stack_bit_for_bit(self, data, name):
        channel = _STEP_CHANNELS[name]
        n = data.draw(st.integers(channel.arity, 3))
        qubits = tuple(data.draw(st.permutations(range(n)))[:channel.arity])
        batch = data.draw(st.sampled_from([1, 2, 7, 300]))
        seed = data.draw(st.integers(0, 2**32 - 1))
        gen = np.random.default_rng(seed)
        amps = gen.normal(size=(batch, 2**n)) + 1j * gen.normal(size=(batch, 2**n))
        amps /= np.linalg.norm(amps, axis=1, keepdims=True)
        rng, reference_rng = Rng(seed), Rng(seed)
        rows, cls = _channel_step(amps.copy(), np.arange(batch), channel, qubits, n, rng)
        got = rows[cls]
        want = _per_row_channel_step(amps.copy(), channel, qubits, n, reference_rng)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert rng.uniform(4).tobytes() == reference_rng.uniform(4).tobytes()  # same draws used

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), form=st.sampled_from(["flat", "batched", "stack"]))
    def test_apply_matrix_matches_dense_operator(self, data, form):
        n = data.draw(st.integers(1, 5))
        k = data.draw(st.integers(1, min(2, n)))
        qubits = tuple(data.draw(st.permutations(range(n)))[:k])
        gen = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        batch = 1 if form == "flat" else 3
        mats = gen.normal(size=(batch, 2**k, 2**k)) + 1j * gen.normal(size=(batch, 2**k, 2**k))
        if form != "stack":
            mats[:] = mats[0]
        amps = gen.normal(size=(batch, 2**n)) + 1j * gen.normal(size=(batch, 2**n))
        expected = np.array([_expand(m, qubits, n) @ row for m, row in zip(mats, amps)])
        if form == "flat":
            got = apply_matrix(amps[0], mats[0], qubits, n)
            assert got.shape == (2**n,)
            got = got[None]
        else:
            got = apply_matrix(amps, mats if form == "stack" else mats[0], qubits, n)
        assert got.shape == expected.shape
        assert np.max(np.abs(got - expected)) <= 1e-12

    def test_reset_batch_matches_projective_reference(self):
        n, q = 3, 1
        gen = np.random.default_rng(4)
        amps = gen.normal(size=(3, 8)) + 1j * gen.normal(size=(3, 8))
        amps[1, [i for i in range(8) if not (i >> q) & 1]] = 0.0  # all weight on |1>
        amps /= np.linalg.norm(amps, axis=1, keepdims=True)
        project = _expand(np.array([[1, 0], [0, 0]]), (q,), n)
        lower = _expand(np.array([[0, 1], [0, 0]]), (q,), n)  # |0><1|
        expected = []
        for row in amps:
            kept = project @ row
            norm = np.linalg.norm(kept)
            expected.append(kept / norm if norm > 1e-12 else lower @ row)
        got = apply_gate(amps, Gate("RESET", (q,)), n)
        assert np.max(np.abs(got - np.array(expected))) <= 1e-12
        for row, flat in zip(got, amps):
            assert np.array_equal(row, apply_gate(flat, Gate("RESET", (q,)), n))

    def test_mixture_rows_drawing_identity_keep_their_bytes(self):
        ch = depolarizing_channel(0.4, 2)
        gen = np.random.default_rng(5)
        amps = gen.normal(size=(300, 8)) + 1j * gen.normal(size=(300, 8))
        amps /= np.linalg.norm(amps, axis=1, keepdims=True)
        # operator 0 is the identity; a row draws it when u <= its weight
        identity_rows = Rng(9).uniform(len(amps)) <= ch._mix_weights[0]
        rows, cls = _channel_step(amps, np.arange(len(amps)), ch, (2, 0), 3, Rng(9))
        out = rows[cls]
        assert 0 < identity_rows.sum() < len(amps)
        assert out[identity_rows].tobytes() == amps[identity_rows].tobytes()
        assert not np.any(np.all(out[~identity_rows] == amps[~identity_rows], axis=1))


class TestChannels:
    def test_completeness_enforced(self):
        with pytest.raises(ValueError):
            KrausChannel((np.eye(2) * 0.5,), 1)

    def test_bit_flip(self):
        p = 2.003e-04
        ch = bit_flip_channel(p)
        # flip probability on |0> equals ||K_1 |0>||^2
        flip = abs(ch.operators[1][1, 0]) ** 2
        assert flip == pytest.approx(p, rel=1e-12)
        assert bit_flip_channel(0.0).is_identity
        assert len(bit_flip_channel(1.0).operators) == 1

    def test_bit_flip_bounds(self):
        with pytest.raises(ValueError):
            bit_flip_channel(1.5)

    def test_depolarizing_operator_counts(self):
        assert len(depolarizing_channel(1.701e-02, 1).operators) == 4
        assert len(depolarizing_channel(0.02, 2).operators) == 16
        assert depolarizing_channel(0.0, 1).is_identity

    def test_depolarizing_bad_arity(self):
        with pytest.raises(ValueError):
            depolarizing_channel(0.1, 3)

    def test_thermal_relaxation_gamma(self):
        # gamma = 1 - exp(-1216 ns / 272.21 us) = 4.4572e-03
        ch = thermal_relaxation_channel(272.21, 188.1, 1216.0)
        rho1 = np.diag([0.0, 1.0]).astype(np.complex128)
        out = sum(k @ rho1 @ k.conj().T for k in ch.operators)
        gamma_expected = 1.0 - math.exp(-1216.0 / 272210.0)
        assert out[0, 0].real == pytest.approx(gamma_expected, rel=1e-9)

    def test_thermal_relaxation_limits(self):
        assert thermal_relaxation_channel(100.0, 80.0, 0.0).is_identity
        ch = thermal_relaxation_channel(100.0, 80.0, 1e9)
        rho1 = np.diag([0.0, 1.0]).astype(np.complex128)
        out = sum(k @ rho1 @ k.conj().T for k in ch.operators)
        assert out[0, 0].real == pytest.approx(1.0, abs=1e-6)

    def test_thermal_relaxation_regime(self):
        with pytest.raises(UnsupportedRegimeError):
            thermal_relaxation_channel(100.0, 150.0, 10.0)


class TestNoiseParams:
    def test_defaults_match_calibration_table(self):
        p = NoiseParams()
        assert p.bit_flip_p == 2.003e-04
        assert p.depol_1q == 1.701e-02
        assert p.depol_2q == 0.02
        assert p.t1 == 272.21
        assert p.t2 == 188.1
        assert p.readout_len == 1216.0

    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseParams(bit_flip_p=2.0)
        with pytest.raises(ValueError):
            NoiseParams(t1=10.0, t2=100.0)

    @pytest.mark.parametrize("name,value", [
        ("t1", math.nan), ("t2", math.nan), ("t1", math.inf),
        ("readout_len", math.nan), ("gate_len_1q", math.inf), ("gate_len_2q", math.nan),
    ])
    def test_non_finite_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            NoiseParams(**{name: value})

    @pytest.mark.parametrize("t1,t2", [(0.0, 0.0), (100.0, 0.0), (100.0, -5.0)])
    def test_non_positive_times_rejected(self, t1, t2):
        with pytest.raises(ValueError, match="must be positive"):
            NoiseParams(t1=t1, t2=t2)

    def test_t2_above_t1_is_unsupported(self):
        # t1 < t2 <= 2 t1 is physical, but thermal_relaxation_channel rejects it
        with pytest.raises(UnsupportedRegimeError):
            NoiseParams(t1=100.0, t2=150.0)
        assert NoiseParams(t1=100.0, t2=100.0).t2 == 100.0

    def test_from_file(self, tmp_path):
        cfg = tmp_path / "noise.cfg"
        cfg.write_text("# comment\nbit_flip_p = 0.001\nt1=100\nt2=90\n")
        p = NoiseParams.from_file(cfg)
        assert p.bit_flip_p == 0.001
        assert p.t1 == 100.0

    def test_from_file_unknown_key(self, tmp_path):
        cfg = tmp_path / "noise.cfg"
        cfg.write_text("bogus=1\n")
        with pytest.raises(ValueError):
            NoiseParams.from_file(cfg)

    def test_from_file_repeated_key(self, tmp_path):
        cfg = tmp_path / "noise.cfg"
        cfg.write_text("t1 = 100\nt1 = 50\nt2 = 80\n")
        with pytest.raises(ValueError, match=re.escape(f"{cfg}:2: repeated key 't1'")):
            NoiseParams.from_file(cfg)

    @pytest.mark.parametrize("value", ["abc", "", "1e"])
    def test_from_file_bad_value_names_its_line(self, tmp_path, value):
        cfg = tmp_path / "noise.cfg"
        cfg.write_text(f"# comment\nt2 = 80\nt1 = {value}\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{cfg}:3: t1 = {value!r} is not a number")):
            NoiseParams.from_file(cfg)


class TestCalibratedModel:
    def test_cx_has_16_operator_depolarizing(self):
        model = calibrated_noise_model()
        apps = model.assignments["CX"]
        assert len(apps[0].channel.operators) == 16
        assert apps[0].scope == "pair"

    def test_single_qubit_assignments(self):
        model = calibrated_noise_model()
        for kind in ("RZ", "SX", "X"):
            kinds = [len(a.channel.operators) for a in model.assignments[kind]]
            assert kinds == [4, 2]  # depolarizing then bit flip

    def test_zeroed_params_match_noiseless(self):
        params = NoiseParams(bit_flip_p=0.0, depol_1q=0.0, depol_2q=0.0,
                             readout_len=0.0, gate_len_1q=0.0, gate_len_2q=0.0,
                             t1=1e12, t2=1e12)
        model = calibrated_noise_model(params)
        rng = Rng(0)
        a = random_pure_state(1, rng)
        b = random_pure_state(1, rng)
        test = lower_to_basis(build_swap_test(1, mottonen_prepare(a), mottonen_prepare(b)))
        exact = ancilla_expectation(test)
        noisy = execute_trajectories(test, model, 50, Rng(1))
        assert noisy == pytest.approx(exact, abs=1e-9)

    @settings(max_examples=80, deadline=None)
    @given(t1=st.floats(1e-3, 1e6), t2_ratio=st.floats(1e-6, 1.0),
           lengths=st.lists(st.floats(0.0, 1e5), min_size=4, max_size=4),
           probs=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3))
    def test_every_calibrated_channel_is_complete(self, t1, t2_ratio, lengths, probs):
        params = NoiseParams(bit_flip_p=probs[0], depol_1q=probs[1], depol_2q=probs[2],
                             t1=t1, t2=t1 * t2_ratio, readout_len=lengths[0],
                             gate_len_1q=lengths[1], gate_len_2q=lengths[2])
        model = calibrated_noise_model(params)
        apps = [a for kind_apps in model.assignments.values() for a in kind_apps]
        apps += model.channels_for(Gate("DELAY", (0,), lengths[3]))
        for app in apps:
            ops = np.array(app.channel.operators)
            total = np.einsum("kji,kjl->il", ops.conj(), ops)
            assert np.max(np.abs(total - np.eye(len(total)))) <= COMPLETENESS_TOL

    def test_two_qubit_channel_on_one_qubit_kind_rejected(self):
        with pytest.raises(ValueError):
            NoiseModel({"X": [ChannelApplication(depolarizing_channel(0.1, 2))]})

    def test_golden_trajectories_every_channel_kind(self):
        # X, SX, RZ, CX (pair and operand channels), ID, DELAY and MEASURE:
        # the digest pins the mean and how many draws the run consumed
        circ = (QuantumCircuit(2).add("X", 1).add("SX", 0).add("RZ", 0, param=0.3)
                .add("CX", 1, 0).add("ID", 1).add("DELAY", 0, param=500.0)
                .add("SX", 1).add("CX", 0, 1).add("MEASURE", 0))
        rng = Rng(12)
        mean = execute_trajectories(circ, calibrated_noise_model(), 64, rng)
        digest = hashlib.sha256(np.array([mean, *rng.uniform(4)], dtype="<f8").tobytes())
        assert digest.hexdigest() == (
            "2559c5ec3a6fb64f05ab0c1224c9e15279f5a9c9d9ddbd3df17301c8127f2ca7")


_SATURATED = NoiseParams(depol_1q=0.5, depol_2q=0.5, bit_flip_p=0.3, t1=20.0, t2=10.0)
_NOISE_PARAMS = st.one_of(
    st.just(_SATURATED),
    st.builds(lambda probs, t1, t2_ratio, lengths: NoiseParams(
        bit_flip_p=probs[0], depol_1q=probs[1], depol_2q=probs[2], t1=t1, t2=t1 * t2_ratio,
        readout_len=lengths[0], gate_len_1q=lengths[1], gate_len_2q=lengths[2]),
        st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3), st.floats(1.0, 1e3),
        st.floats(1e-3, 1.0), st.lists(st.floats(0.0, 5e3), min_size=3, max_size=3)),
)

# Two-sided false-alarm rate of each sigma-bounded comparison below, under the
# normal approximation to a mean of T >= 2000 bounded terms.
FALSE_ALARM = 1e-6
K_SIGMA = NormalDist().inv_cdf(1.0 - FALSE_ALARM / 2.0)  # 4.89


def _one_qubit_counterexample():
    """Found by the property below: one class, an RZ on a generic state."""
    circ = QuantumCircuit(1)
    for kind, param in [("X", None), ("SX", None), ("ID", None), ("RZ", 0.8557572005151188),
                        ("ID", None), ("RESET", None), ("SX", None), ("ID", None),
                        ("RESET", None), ("DELAY", 1.0), ("X", None), ("SX", None),
                        ("RZ", 2.625), ("X", None), ("MEASURE", None)]:
        circ.add(kind, 0, param=param)
    return circ


class TestTrajectories:
    @settings(max_examples=60, deadline=None)
    @example(circ=_one_qubit_counterexample(), trajectories=2, seed=0,
             params=NoiseParams(bit_flip_p=0.0, depol_1q=0.0, depol_2q=0.0, t1=1.0, t2=1.0,
                                readout_len=0.0, gate_len_1q=0.0, gate_len_2q=0.0))
    @given(circ=_lowered_circuits(), params=_NOISE_PARAMS,
           trajectories=st.sampled_from([1, 2, 7, 300]), seed=st.integers(0, 2**32 - 1))
    def test_classes_match_one_row_per_trajectory_bit_for_bit(self, circ, params,
                                                              trajectories, seed):
        model = calibrated_noise_model(params)
        rng, reference_rng = Rng(seed), Rng(seed)
        got = execute_trajectories(circ, model, trajectories, rng)
        want = _per_row_trajectories(circ, model, trajectories, reference_rng)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
        assert rng.uniform(4).tobytes() == reference_rng.uniform(4).tobytes()  # same draws used

    @pytest.mark.parametrize("n", [1, 2])
    def test_swap_test_mean_within_k_sigma_of_density_matrix(self, n):
        # z per trajectory lies in [-1, 1] with mean mu = exact, so its standard
        # deviation is at most sqrt(1 - mu^2); the mean of T has sigma / sqrt(T)
        model = calibrated_noise_model()
        rng = Rng(40 + n)
        trajectories = 2000
        for same in (False, True):
            a = random_pure_state(n, rng)
            b = a if same else random_pure_state(n, rng)
            test = lower_to_basis(build_swap_test(n, mottonen_prepare(a), mottonen_prepare(b)))
            exact = dm_execute(test, model)
            est = execute_trajectories(test, model, trajectories, rng)
            sigma = math.sqrt(1.0 - exact**2)
            assert abs(est - exact) <= K_SIGMA * sigma / math.sqrt(trajectories)

    def test_identity_model_matches_analytic(self):
        rng = Rng(2)
        a = random_pure_state(2, rng)
        b = random_pure_state(2, rng)
        test = lower_to_basis(build_swap_test(2, mottonen_prepare(a), mottonen_prepare(b)))
        exact = ancilla_expectation(test)
        est = execute_trajectories(test, NoiseModel({}), 10, Rng(3))
        assert est == pytest.approx(exact, abs=1e-9)

    def test_deterministic_given_seed(self):
        a = random_pure_state(1, Rng(4))
        test = lower_to_basis(
            build_swap_test(1, mottonen_prepare(a), QuantumCircuit(1))
        )
        model = calibrated_noise_model()
        e1 = execute_trajectories(test, model, 200, Rng(5))
        e2 = execute_trajectories(test, model, 200, Rng(5))
        assert e1 == e2

    def test_unlowered_circuit_rejected(self):
        circ = QuantumCircuit(1).add("H", 0).add("MEASURE", 0)
        with pytest.raises(ValueError):
            execute_trajectories(circ, NoiseModel({}), 10, Rng(0))

    def test_agrees_with_density_matrix_oracle(self):
        # 1-qubit SWAP test (3 qubits) under the default model
        rng = Rng(6)
        a = random_pure_state(1, rng)
        b = random_pure_state(1, rng)
        test = lower_to_basis(build_swap_test(1, mottonen_prepare(a), mottonen_prepare(b)))
        model = calibrated_noise_model()
        exact = dm_execute(test, model)
        est = execute_trajectories(test, model, 5000, Rng(7))
        assert abs(est - exact) < 0.01

    def test_unbiased_on_simple_circuits(self):
        # X then measure under the default model, 1 and 2 qubits
        model = calibrated_noise_model()
        for n in (1, 2):
            circ = QuantumCircuit(n)
            circ.add("X", 0)
            if n == 2:
                circ.add("CX", 0, 1)
            circ.add("MEASURE", 0)
            exact = dm_execute(circ, model)
            samples = [
                execute_trajectories(circ, model, 500, Rng(100 + n * 10 + r))
                for r in range(4)
            ]
            stderr = np.std(samples) / math.sqrt(len(samples)) + 1e-6
            assert abs(np.mean(samples) - exact) < 3 * stderr + 0.01

    def test_repeated_x_fidelity_decays(self):
        # population error vs the ideal grows with circuit depth
        model = calibrated_noise_model()
        errors = []
        for reps in (10, 40, 100):
            circ = QuantumCircuit(1)
            for _ in range(reps):
                circ.add("X", 0)
            circ.add("MEASURE", 0)
            ideal = 1.0 if reps % 2 == 0 else -1.0
            est = execute_trajectories(circ, model, 2000, Rng(8))
            errors.append(abs(est - ideal))
        assert errors[0] < errors[1] < errors[2]

    def test_noise_cannot_inflate_overlap(self):
        # noisy SWAP estimate <= noiseless + 0.02 on standard states
        from qsnapshot.harness import standard_states

        model = calibrated_noise_model()
        for std in standard_states(1):
            prep = mottonen_prepare(std.vector)
            test = lower_to_basis(build_swap_test(1, prep, prep))
            noisy = execute_trajectories(test, model, 1000, Rng(9))
            assert noisy <= 1.0 + 0.02

    def test_general_channel_path(self):
        # a channel with non-diagonal, non-unitary effects exercises the Gram path
        theta = 0.3
        k0 = np.array([[1, 0], [0, math.cos(theta)]], dtype=np.complex128)
        k1 = np.array([[0, math.sin(theta)], [0, 0]], dtype=np.complex128)
        h = (1 / math.sqrt(2)) * np.array([[1, 1], [1, -1]])
        ch = KrausChannel((k0 @ h, k1 @ h), 1)
        assert ch._mix_weights is None and ch._effect_diagonals is None
        model = NoiseModel({"X": [ChannelApplication(ch)]})
        circ = QuantumCircuit(1).add("X", 0).add("MEASURE", 0)
        exact = dm_execute(circ, model)
        est = execute_trajectories(circ, model, 4000, Rng(11))
        assert abs(est - exact) < 0.05
