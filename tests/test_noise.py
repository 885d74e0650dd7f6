"""Tests for Kraus channels, the calibrated model, and trajectory execution.

The reference oracle here evolves a full density matrix through the same
gate/channel sequence; trajectory averages must agree with it.
"""

import hashlib
import math
import re
from statistics import NormalDist
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qsnapshot import noise
from qsnapshot.circuit import (
    Gate,
    QuantumCircuit,
    _column_sums,
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
    KrausChannel,
    NoiseModel,
    NoiseParams,
    UnsupportedRegimeError,
    _Classes,
    _channel_step,
    bit_flip_channel,
    depolarizing_channel,
    execute_trajectory_batch,
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
    from qsnapshot.circuit import _MATRICES, _cx_permutation

    if gate.kind in _MATRICES:
        return _expand(_MATRICES[gate.kind](gate.param), gate.qubits, n)
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
        if gate.kind != "MEASURE":
            u = _gate_unitary(gate, n)
            rho = u @ rho @ u.conj().T
        for channel, qubits in model.steps(gate):
            rho = apply_channel(rho, channel, qubits)
    probs = np.diag(rho).real
    idx = np.arange(d)
    return float(np.sum(probs[(idx & 1) == 0]) - np.sum(probs[(idx & 1) == 1]))


# ---------------------------------------------------------------------------
# Channel-step reference and channels that exercise each of its paths


def _row_views(amps, qubits, n_qubits):
    """The local views of a row-major (batch, 2^n) array, each as a
    (batch, 2^(n-k)) array: the references below reduce them row by row."""
    tensor = amps.reshape((-1,) + (2,) * n_qubits)  # axis 1 + j is qubit n-1-j
    k = len(qubits)
    views = []
    for c in range(2**k):
        index = [slice(None)] * (1 + n_qubits)
        for j, q in enumerate(qubits):
            index[n_qubits - q] = (c >> (k - 1 - j)) & 1
        views.append(tensor[tuple(index)].reshape(len(amps), -1))
    return views


def _rows_apply(amps, apply, *args):
    """A kernel call on row-major amplitudes: the kernel takes the batch axis
    last, and its result comes back as a C-ordered (batch, 2^n) array."""
    return np.ascontiguousarray(apply(amps.T, *args).T)


def _per_row_channel_step(amps, channel, qubits, n_qubits, rng):
    """The channel step with every chosen operator in one per-row stack; the
    step with a shared matrix for the most frequent choice must match it."""
    if channel.is_identity:
        return amps
    batch = amps.shape[0]
    u = rng.uniform(batch)
    if channel._mix_cum is not None:
        cum = channel._mix_cum[:, None]
    else:
        views = _row_views(amps, qubits, n_qubits)
        if channel._effect_diagonals is not None:
            populations = np.array([np.sum(np.abs(v) ** 2, axis=1) for v in views])
            probs = channel._effect_diagonals @ populations
        else:
            m = np.stack(views, axis=1)
            gram = np.einsum("bir,bjr->bij", m, m.conj())
            probs = np.einsum("kij,bji->kb", channel._effects, gram).real
        probs = np.clip(probs, 0.0, None)
        probs /= probs.sum(axis=0, keepdims=True)
        cum = np.cumsum(probs, axis=0)
    choice = (u[None, :] > cum).sum(axis=0)
    choice = np.minimum(choice, len(channel.operators) - 1)
    rows = np.flatnonzero(~channel._skip[choice])
    if rows.size == 0:
        return amps
    sub = _rows_apply(amps[rows], apply_matrix, channel._stack[..., choice[rows]], qubits,
                      n_qubits)
    if channel._mix_cum is None:
        sub /= np.linalg.norm(sub, axis=1, keepdims=True)
    out = amps.copy()
    out[rows] = sub
    return out


def execute_trajectories(circuit, model, trajectories, rng):
    """Mean ancilla <Z> of one lowered circuit: a one-circuit batch, the loop
    reference of the multi-circuit properties."""
    return float(execute_trajectory_batch([circuit], model, trajectories, rng)[0])


def _per_row_trajectories(circuit, model, trajectories, rng):
    """execute_trajectories with one row per trajectory: the full
    (trajectories, 2^n) array, every channel step by _per_row_channel_step."""
    n = circuit.n_qubits
    amps = np.zeros((trajectories, 2**n), dtype=np.complex128)
    amps[:, 0] = 1.0
    for gate in circuit.gates:
        if gate.kind != "MEASURE":
            amps = _rows_apply(amps, apply_gate, gate, n)
        for channel, qubits in model.steps(gate):
            amps = _per_row_channel_step(amps, channel, qubits, n, rng)
    idx = np.arange(2**n)
    p1 = np.sum(np.abs(amps[:, (idx & 1) == 1]) ** 2, axis=1)
    return float(np.mean(1.0 - 2.0 * p1))


def _class_states(amps, channel, qubits, n_qubits, u):
    """One channel step on one class per row of ``amps``: each trajectory's
    state afterwards, one row each."""
    classes = _Classes(amps.T.copy(), np.arange(len(amps)), np.zeros(len(amps), dtype=int))
    _channel_step(classes, channel, qubits, n_qubits, u)
    return classes.rows[:, classes.ids].T


_PARAMS = {"RZ": st.floats(-math.pi, math.pi), "DELAY": st.floats(0.0, 5e4)}


@st.composite
def _lowered_circuits(draw, like=None):
    """A small lowered circuit of X, SX, RZ, CX, ID and DELAY gates
    that measures qubit 0; given ``like``, its gates with some RZ angles and
    DELAY durations drawn anew."""
    if like is not None:
        circ = QuantumCircuit(like.n_qubits)
        for g in like.gates:
            fresh = g.kind in _PARAMS and draw(st.booleans())
            circ.add(g.kind, *g.qubits, param=draw(_PARAMS[g.kind]) if fresh else g.param)
        return circ
    n = draw(st.integers(1, 5))  # from width 4 on, a row sum runs over 8 or more terms
    circ = QuantumCircuit(n)
    kinds = ["X", "SX", "RZ", "ID", "DELAY"] + (["CX"] if n > 1 else [])
    for _ in range(draw(st.integers(0, 14))):
        kind = draw(st.sampled_from(kinds))
        if kind == "CX":
            circ.add("CX", *draw(st.permutations(range(n)))[:2])
            continue
        param = _PARAMS.get(kind)
        circ.add(kind, draw(st.integers(0, n - 1)),
                 param=None if param is None else draw(param))
    return circ.add("MEASURE", 0)


@st.composite
def _circuit_batches(draw):
    """1-6 lowered circuits of mixed widths, each a variant of one of up to
    three drawn circuits: some share a gate structure, some do not."""
    bases = draw(st.lists(_lowered_circuits(), min_size=1, max_size=3))
    return [draw(_lowered_circuits(like=draw(st.sampled_from(bases))))
            for _ in range(draw(st.integers(1, 6)))]


def _damping_in_x_basis(t1=100.0, t2=100.0, duration=30000.0):
    """Amplitude damping conjugated by H: non-diagonal effects, not a mixture."""
    h = np.array([[1, 1], [1, -1]], dtype=np.complex128) / math.sqrt(2.0)
    return KrausChannel(tuple(h @ k @ h for k in
                              thermal_relaxation_channel(t1, t2, duration).operators))


_CALIBRATED = {id(channel): channel
               for channels in calibrated_noise_model().assignments.values()
               for channel in channels}
_STEP_CHANNELS = {
    **{f"calibrated {i}": channel for i, channel in enumerate(_CALIBRATED.values())},
    "flip 0.8": bit_flip_channel(0.8),  # the usual draw is X, not the identity
    "depolarizing 0.9": depolarizing_channel(0.9, 2),
    "relaxation 200 us": thermal_relaxation_channel(100.0, 80.0, 200000.0),
    "general": _damping_in_x_basis(),
    # a mixture whose identity is not operator 0: some movers keep their rows
    "identity second": KrausChannel(tuple(
        math.sqrt(w) * noise._PAULIS[a] for w, a in ((0.4, "X"), (0.3, "I"), (0.3, "Z")))),
}


def _check_channel_step(channel, qubits, n, batch, seed):
    """The class step on ``batch`` random rows equals the per-row reference, bit
    for bit, and uses the same draws."""
    gen = np.random.default_rng(seed)
    amps = gen.normal(size=(batch, 2**n)) + 1j * gen.normal(size=(batch, 2**n))
    amps /= np.linalg.norm(amps, axis=1, keepdims=True)
    rng, reference_rng = Rng(seed), Rng(seed)
    got = _class_states(amps, channel, qubits, n, rng.uniform(batch))
    want = _per_row_channel_step(amps.copy(), channel, qubits, n, reference_rng)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert rng.uniform(4).tobytes() == reference_rng.uniform(4).tobytes()  # same draws used


class TestGateKernel:
    """apply_matrix and the channel step against dense references."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), name=st.sampled_from(sorted(_STEP_CHANNELS)))
    def test_channel_step_matches_per_row_stack_bit_for_bit(self, data, name):
        channel = _STEP_CHANNELS[name]
        n = data.draw(st.integers(channel.arity, 3))
        qubits = tuple(data.draw(st.permutations(range(n)))[:channel.arity])
        batch = data.draw(st.sampled_from([1, 2, 7, 300]))
        _check_channel_step(channel, qubits, n, batch, data.draw(st.integers(0, 2**32 - 1)))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_channel_step_with_identity_and_other_movers(self, seed):
        # at 300 rows each seed draws both movers that keep their rows (the
        # identity, operator 1) and movers that take operator 2
        _check_channel_step(_STEP_CHANNELS["identity second"], (0,), 1, 300, seed)

    @pytest.mark.parametrize("batch", [1, 2, 5])
    @pytest.mark.parametrize("m", [1, 2, 3, 7, 8, 9, 16, 24, 31, 128, 129, 136, 256, 1000])
    def test_column_sums_round_as_numpy_row_sums(self, m, batch):
        # every column as numpy sums one contiguous row: pairwise from 8 terms
        gen = np.random.default_rng(m * 10 + batch)
        x = gen.normal(size=(m, batch)) * 10.0 ** gen.integers(-8, 8, size=(m, batch))
        assert _column_sums(x).tobytes() == x.T.copy().sum(axis=1).tobytes()

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
            stack = np.moveaxis(mats, 0, -1) if form == "stack" else mats[0]
            got = apply_matrix(amps.T, stack, qubits, n).T
        assert got.shape == expected.shape
        assert np.max(np.abs(got - expected)) <= 1e-12

    def test_mixture_rows_drawing_identity_keep_their_bytes(self):
        ch = depolarizing_channel(0.4, 2)
        gen = np.random.default_rng(5)
        amps = gen.normal(size=(300, 8)) + 1j * gen.normal(size=(300, 8))
        amps /= np.linalg.norm(amps, axis=1, keepdims=True)
        # operator 0 is the identity; a row draws it when u <= its weight
        identity_rows = Rng(9).uniform(len(amps)) <= ch._mix_cum[0]
        out = _class_states(amps, ch, (2, 0), 3, Rng(9).uniform(len(amps)))
        assert 0 < identity_rows.sum() < len(amps)
        assert out[identity_rows].tobytes() == amps[identity_rows].tobytes()
        assert not np.any(np.all(out[~identity_rows] == amps[~identity_rows], axis=1))


class TestChannels:
    def test_completeness_enforced(self):
        with pytest.raises(ValueError):
            KrausChannel((np.eye(2) * 0.5,))

    def test_zero_operators_dropped_and_arity_from_shape(self):
        ch = KrausChannel((np.zeros((4, 4)), np.eye(4), np.zeros((4, 4))))
        assert len(ch.operators) == 1 and ch.arity == 2 and ch.is_identity
        assert bit_flip_channel(1.0).operators[0].tobytes() == noise._PAULIS["X"].tobytes()
        assert bit_flip_channel(1.0).arity == 1
        with pytest.raises(AttributeError):
            ch.arity = 1

    @pytest.mark.parametrize("operators,message", [
        ((np.eye(8),), "must all be 2x2 or all 4x4, got shapes [(8, 8)]"),
        ((np.eye(2), np.zeros((4, 4))),
         "must all be 2x2 or all 4x4, got shapes [(2, 2), (4, 4)]"),
        ((np.zeros((2, 2)),), "needs at least one non-zero Kraus operator"),
        ((), "needs at least one non-zero Kraus operator"),
        *(((np.eye(d), np.full((d, d), bad)), "a Kraus operator has a non-finite entry")
          for d in (2, 4) for bad in (np.nan, np.inf, -np.inf)),
    ], ids=["8x8", "mixed-shapes", "all-zero", "empty",
            *(f"{bad}-{d}x{d}" for d in (2, 4) for bad in ("nan", "inf", "-inf"))])
    def test_rejects_what_is_no_channel(self, operators, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            KrausChannel(operators)

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

    @settings(max_examples=200, deadline=None)
    @given(t1=st.floats(1e-3, 1e6), t2_ratio=st.floats(1e-6, 1.0),
           duration=st.one_of(st.just(0.0), st.floats(1e-6, 1e8)))
    def test_thermal_relaxation_keeps_every_nonzero_product(self, t1, t2_ratio, duration):
        # an operator's peak is 1, sqrt(gamma) or sqrt(lam) sqrt(1 - gamma), each
        # factor the square root of a double, so a non-zero peak is at least
        # about sqrt(2^-53) = 1.05e-8: the channel has no tiny operator to filter
        t2 = t1 * t2_ratio
        e1, e2 = math.exp(-duration / (t1 * 1000.0)), math.exp(-duration / (t2 * 1000.0))
        gamma = 1.0 - e1
        lam = 1.0 if e1 == 0.0 else min(max(1.0 - (e2 * e2) / e1, 0.0), 1.0)
        damp = [np.array([[1, 0], [0, math.sqrt(1 - gamma)]], dtype=np.complex128),
                np.array([[0, math.sqrt(gamma)], [0, 0]], dtype=np.complex128)]
        deph = [np.array([[1, 0], [0, math.sqrt(1 - lam)]], dtype=np.complex128),
                np.array([[0, 0], [0, math.sqrt(lam)]], dtype=np.complex128)]
        products = [d @ a for d in deph for a in damp]
        ops = thermal_relaxation_channel(t1, t2, duration).operators
        assert [k.tobytes() for k in ops] == [k.tobytes() for k in products if k.any()]

    @pytest.mark.parametrize("phase", [1.0, -1.0, 1j, complex(math.cos(0.3), math.sin(0.3))],
                             ids=["one", "minus-one", "i", "e^0.3i"])
    def test_phase_times_identity_draws_nothing(self, phase):
        ch = KrausChannel((phase * np.eye(2),))
        assert ch.is_identity
        rng = Rng(0)
        circ = QuantumCircuit(1).add("X", 0).add("MEASURE", 0)
        assert execute_trajectories(circ, NoiseModel({"X": [ch]}), 8, rng) == -1.0
        assert rng.uniform(4).tobytes() == Rng(0).uniform(4).tobytes()

    def test_thermal_relaxation_regime(self):
        with pytest.raises(UnsupportedRegimeError):
            thermal_relaxation_channel(100.0, 150.0, 10.0)
        with pytest.raises(ValueError, match=re.escape("duration must be finite, got nan")):
            thermal_relaxation_channel(100.0, 80.0, math.nan)


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

    @pytest.mark.parametrize("t1,t2,error,message", [
        (100.0, 150.0, UnsupportedRegimeError, "t2=150.0 > t1=100.0 is not supported"),
        (100.0, -5.0, ValueError, "t2 must be positive, got -5.0"),
        (math.nan, 80.0, ValueError, "t1 must be finite, got nan"),
        (100.0, math.inf, ValueError, "t2 must be finite, got inf"),
    ], ids=["t2-above-t1", "negative", "nan", "inf"])
    def test_one_relaxation_rule_for_params_model_and_channel(self, t1, t2, error, message):
        builders = [lambda: NoiseParams(t1=t1, t2=t2), lambda: NoiseModel({}, t1=t1, t2=t2),
                    lambda: thermal_relaxation_channel(t1, t2, 60.0)]
        for build in builders:
            with pytest.raises(error, match=re.escape(message)):
                build()

    @pytest.mark.parametrize("times", [{"t1": 100.0}, {"t2": 80.0}])
    def test_model_takes_t1_and_t2_together(self, times):
        with pytest.raises(ValueError, match="t1 and t2 must be given together"):
            NoiseModel({}, **times)

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

    def test_from_file_line_without_equals_names_its_line(self, tmp_path):
        cfg = tmp_path / "noise.cfg"
        cfg.write_text("t1 = 100\nt2 80  # no '='\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{cfg}:2: expected key=value, got 't2 80'")):
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
        depolarizing = model.assignments["CX"][0]
        assert len(depolarizing.operators) == 16
        channel, qubits = model.steps(Gate("CX", (1, 0)))[0]
        assert channel is depolarizing and qubits == (1, 0)  # on the pair, not per operand

    def test_single_qubit_assignments(self):
        model = calibrated_noise_model()
        for kind in ("RZ", "SX", "X"):
            kinds = [len(channel.operators) for channel in model.assignments[kind]]
            assert kinds == [4, 2]  # depolarizing then bit flip

    def test_zeroed_params_match_noiseless(self):
        params = NoiseParams(bit_flip_p=0.0, depol_1q=0.0, depol_2q=0.0,
                             readout_len=0.0, gate_len_1q=0.0, gate_len_2q=0.0,
                             t1=1e12, t2=1e12)
        model = calibrated_noise_model(params)
        rng = Rng(0)
        a = random_pure_state(1, rng)
        b = random_pure_state(1, rng)
        test = lower_to_basis(build_swap_test(mottonen_prepare(a), mottonen_prepare(b)))
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
        channels = [channel for assigned in model.assignments.values() for channel in assigned]
        channels += [channel for channel, _ in model.steps(Gate("DELAY", (0,), lengths[3]))]
        for channel in channels:
            ops = np.array(channel.operators)
            total = np.einsum("kji,kjl->il", ops.conj(), ops)
            assert np.max(np.abs(total - np.eye(len(total)))) <= COMPLETENESS_TOL

    def test_two_qubit_channel_on_one_qubit_kind_rejected(self):
        with pytest.raises(ValueError):
            NoiseModel({"X": [depolarizing_channel(0.1, 2)]})

    @pytest.mark.parametrize("assignments,message", [
        ({"H": [bit_flip_channel(0.1)]}, "channel assigned to non-basis gate kind 'H'"),
        ({"X": [np.eye(2)]}, "assignments must hold KrausChannel entries"),
    ], ids=["non-basis-kind", "not-a-channel"])
    def test_rejects_what_is_no_assignment(self, assignments, message):
        with pytest.raises(ValueError, match=message):
            NoiseModel(assignments)

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

    def test_golden_two_qubit_swap_tests(self):
        # width 5: the population, norm and <Z> sums run over 16 or 32 terms;
        # recorded before the kernel took the batch axis last
        rng = Rng(15)
        means = execute_trajectory_batch(_two_qubit_swap_tests(), calibrated_noise_model(), 300,
                                         rng)
        digest = hashlib.sha256(np.array([*means, *rng.uniform(4)], dtype="<f8").tobytes())
        assert digest.hexdigest() == (
            "a73be9b0f99ee15100a952eb06beea707b0d513822c3d70691cfc7901285606b")

    @pytest.mark.parametrize("trajectories,expected", [
        (1, "af9e137fb623369b2fd24984f6cd0dbbfc5b255c07e1874556b2d384439526c3"),
        (64, "7b9c0c3f6507c2fa7069837b16da950bf9c66a291eb0632cff63242a082e39f8"),
    ])
    def test_golden_rates_at_zero_and_one(self, trajectories, expected):
        # flip rate 1, 2-qubit depolarizing rate 1 (a zero operator beside 15
        # Paulis), 1-qubit depolarizing rate 0 and zero durations: the digest
        # pins the mean and how many draws the run consumed
        params = NoiseParams(bit_flip_p=1.0, depol_1q=0.0, depol_2q=1.0, readout_len=0.0,
                             gate_len_1q=0.0, gate_len_2q=660.0)
        circ = (QuantumCircuit(2).add("X", 1).add("SX", 0).add("RZ", 0, param=0.3)
                .add("CX", 1, 0).add("ID", 1).add("DELAY", 0, param=0.0)
                .add("DELAY", 1, param=500.0).add("MEASURE", 0))
        rng = Rng(18)
        mean, = execute_trajectory_batch([circ], calibrated_noise_model(params), trajectories,
                                         rng)
        digest = hashlib.sha256(np.array([mean, *rng.uniform(4)], dtype="<f8").tobytes())
        assert digest.hexdigest() == expected


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


def _eight_term_circuit():
    """Width 4 with no channel step, so no trajectory ever moves: a run with
    one class for all T would sum its 8 <Z> terms pairwise, where one row per
    trajectory sums them one after another."""
    circ = QuantumCircuit(4)
    for q in range(4):
        circ.add("SX", q)
    return circ.add("RZ", 0, param=0.5).add("SX", 0).add("MEASURE", 0)


_QUIET = NoiseParams(bit_flip_p=0.0, depol_1q=0.0, depol_2q=0.0, t1=1.0, t2=1.0,
                     readout_len=0.0, gate_len_1q=0.0, gate_len_2q=0.0)


def _renumbering_circuit():
    """Under the saturated model at T = 7 most steps empty some classes, so
    the columns after them shift down and the ids are remapped."""
    circ = QuantumCircuit(2)
    for _ in range(3):
        circ.add("SX", 0).add("CX", 0, 1)
    return circ.add("MEASURE", 0)


def _two_qubit_swap_tests():
    """Two SWAP tests at n = 2 of one structure: at T = 1 each rounds apart
    when the two run as one batch, so each must run alone."""
    rng = Rng(0)
    prep = mottonen_prepare(random_pure_state(2, rng))
    return [lower_to_basis(build_swap_test(prep, mottonen_prepare(random_pure_state(2, rng))))
            for _ in range(2)]


class TestTrajectories:
    @settings(max_examples=60, deadline=None)
    @example(circ=_renumbering_circuit(), trajectories=7, seed=0, params=_SATURATED)
    @example(circ=_eight_term_circuit(), trajectories=2, seed=0, params=_QUIET)
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

    @settings(max_examples=40, deadline=None)
    @example(circ=_renumbering_circuit(), params=_SATURATED, trajectories=7, seed=0)
    @given(circ=_lowered_circuits(), params=st.sampled_from([NoiseParams(), _SATURATED]),
           trajectories=st.sampled_from([1, 2, 7, 300]), seed=st.integers(0, 2**32 - 1))
    def test_every_trajectory_holds_a_live_column(self, circ, params, trajectories, seed):
        # after every step: ids index columns, count each column's trajectories
        # as size does, and leave no column empty
        checked = []

        def step(classes, *args):
            _channel_step(classes, *args)
            columns = classes.rows.shape[1]
            assert 0 <= classes.ids.min() and classes.ids.max() < columns
            counts = np.bincount(classes.ids, minlength=columns)
            assert np.array_equal(counts, classes.size) and counts.all()
            checked.append(columns)

        with mock.patch.object(noise, "_channel_step", step):
            execute_trajectories(circ, calibrated_noise_model(params), trajectories, Rng(seed))
        assert checked  # every circuit measures, and MEASURE has a relaxation step

    @settings(max_examples=40, deadline=None)
    @given(circ=_lowered_circuits(), params=_NOISE_PARAMS,
           trajectories=st.sampled_from([1, 2, 7, 300]), seed=st.integers(0, 2**32 - 1),
           data=st.data())
    def test_zero_operators_change_nothing(self, circ, params, trajectories, seed, data):
        model = calibrated_noise_model(params)

        def padded(channel):
            ops = list(channel.operators)
            for _ in range(data.draw(st.integers(1, 3))):
                ops.insert(data.draw(st.integers(0, len(ops))), np.zeros_like(ops[0]))
            return KrausChannel(tuple(ops))

        padded_model = NoiseModel({kind: [padded(channel) for channel in channels]
                                   for kind, channels in model.assignments.items()},
                                  t1=model.t1, t2=model.t2)
        for kind, channels in model.assignments.items():
            for a, b in zip(channels, padded_model.assignments[kind]):
                assert [k.tobytes() for k in a.operators] == [k.tobytes() for k in b.operators]
                assert (a.arity, a.is_identity) == (b.arity, b.is_identity)
                n = a.arity + 1
                gen = np.random.default_rng(seed)
                amps = gen.normal(size=(5, 2**n)) + 1j * gen.normal(size=(5, 2**n))
                amps /= np.linalg.norm(amps, axis=1, keepdims=True)
                u, qubits = gen.uniform(size=5), tuple(range(n))[-a.arity:]
                assert (_class_states(amps, a, qubits, n, u).tobytes()
                        == _class_states(amps, b, qubits, n, u).tobytes())
        runs = []
        for m in (model, padded_model):
            rng = Rng(seed)
            means = execute_trajectory_batch([circ], m, trajectories, rng)
            runs.append((means.tobytes(), rng.uniform(4).tobytes()))
        assert runs[0] == runs[1]

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
            test = lower_to_basis(build_swap_test(mottonen_prepare(a), mottonen_prepare(b)))
            exact = dm_execute(test, model)
            est = execute_trajectories(test, model, trajectories, rng)
            sigma = math.sqrt(1.0 - exact**2)
            assert abs(est - exact) <= K_SIGMA * sigma / math.sqrt(trajectories)

    @pytest.mark.parametrize("saturated", [False, True], ids=["paper", "saturated"])
    @pytest.mark.parametrize("path", ["unitary mixture", "diagonal effects", "general Gram"])
    def test_each_step_path_batched_within_k_sigma(self, path, saturated):
        # one channel path at a time, at the model's rates, on three SWAP tests
        # run as one batch, each against the dense reference
        p = _SATURATED if saturated else NoiseParams()
        if path == "unitary mixture":
            apps = {"SX": [depolarizing_channel(p.depol_1q), bit_flip_channel(p.bit_flip_p)],
                    "CX": [depolarizing_channel(p.depol_2q, 2)]}
        else:
            relax = (thermal_relaxation_channel if path == "diagonal effects"
                     else _damping_in_x_basis)
            apps = {"CX": [relax(p.t1, p.t2, p.gate_len_2q)],
                    "MEASURE": [relax(p.t1, p.t2, p.readout_len)]}
        model = NoiseModel(apps)
        channels = [ch for channels in apps.values() for ch in channels]
        assert all((ch._mix_cum is not None) == (path == "unitary mixture") and
                   (ch._effect_diagonals is not None) == (path != "general Gram")
                   for ch in channels)
        rng, trajectories = Rng(70 + len(path) + saturated), 2000
        a = random_pure_state(1, rng)
        tests = [lower_to_basis(build_swap_test(mottonen_prepare(a), mottonen_prepare(b)))
                 for b in (a, random_pure_state(1, rng), random_pure_state(1, rng))]
        means = execute_trajectory_batch(tests, model, trajectories, rng)
        for test, mean in zip(tests, means):
            exact = dm_execute(test, model)
            sigma = math.sqrt(1.0 - exact**2)
            assert abs(mean - exact) <= K_SIGMA * sigma / math.sqrt(trajectories)

    @settings(max_examples=40, deadline=None)
    @example(circuits=_two_qubit_swap_tests(), params=NoiseParams(), trajectories=1, seed=0,
             before=0)
    @given(circuits=_circuit_batches(), params=_NOISE_PARAMS,
           trajectories=st.sampled_from([1, 2, 7]), seed=st.integers(0, 2**32 - 1),
           before=st.integers(0, 3))
    def test_mixed_batch_is_a_loop_bit_for_bit(self, circuits, params, trajectories, seed,
                                               before):
        # 0-3 earlier draws start the generator inside a Philox block
        model = calibrated_noise_model(params)
        rng, loop_rng, reference_rng = Rng(seed), Rng(seed), Rng(seed)
        for gen in (rng, loop_rng, reference_rng):
            gen.uniform(before)
        got = execute_trajectory_batch(circuits, model, trajectories, rng)
        loop = [execute_trajectories(c, model, trajectories, loop_rng) for c in circuits]
        want = [_per_row_trajectories(c, model, trajectories, reference_rng) for c in circuits]
        assert got.tobytes() == np.array(loop).tobytes() == np.array(want).tobytes()
        draws = {gen.uniform(4).tobytes() for gen in (rng, loop_rng, reference_rng)}
        assert len(draws) == 1  # each generator ends where the loop leaves it

    def test_batch_inputs_checked(self):
        model, rng = calibrated_noise_model(), Rng(0)
        x = QuantumCircuit(2).add("X", 1).add("RZ", 0, param=0.1).add("MEASURE", 0)
        other_angle = QuantumCircuit(2).add("X", 1).add("RZ", 0, param=0.2).add("MEASURE", 0)
        assert execute_trajectory_batch([x, other_angle], model, 4, rng).shape == (2,)
        with pytest.raises(ValueError, match="at least one circuit, got 0 circuits"):
            execute_trajectory_batch([], model, 4, rng)
        with pytest.raises(ValueError, match="trajectories must be >= 1"):
            execute_trajectory_batch([x], model, 0, rng)
        with pytest.raises(ValueError, match="not lowered"):
            execute_trajectory_batch([x, QuantumCircuit(1).add("H", 0).add("MEASURE", 0)],
                                     model, 4, rng)
        with pytest.raises(ValueError, match="must measure exactly qubit 0"):
            execute_trajectory_batch([x, QuantumCircuit(2).add("X", 0).add("MEASURE", 1)],
                                     model, 4, rng)

    def test_identity_model_matches_analytic(self):
        rng = Rng(2)
        a = random_pure_state(2, rng)
        b = random_pure_state(2, rng)
        test = lower_to_basis(build_swap_test(mottonen_prepare(a), mottonen_prepare(b)))
        exact = ancilla_expectation(test)
        est = execute_trajectories(test, NoiseModel({}), 10, Rng(3))
        assert est == pytest.approx(exact, abs=1e-9)

    def test_deterministic_given_seed(self):
        a = random_pure_state(1, Rng(4))
        test = lower_to_basis(
            build_swap_test(mottonen_prepare(a), QuantumCircuit(1))
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
        test = lower_to_basis(build_swap_test(mottonen_prepare(a), mottonen_prepare(b)))
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
            test = lower_to_basis(build_swap_test(prep, prep))
            noisy = execute_trajectories(test, model, 1000, Rng(9))
            assert noisy <= 1.0 + 0.02

    def test_general_channel_path(self):
        # a channel with non-diagonal, non-unitary effects exercises the Gram path
        theta = 0.3
        k0 = np.array([[1, 0], [0, math.cos(theta)]], dtype=np.complex128)
        k1 = np.array([[0, math.sin(theta)], [0, 0]], dtype=np.complex128)
        h = (1 / math.sqrt(2)) * np.array([[1, 1], [1, -1]])
        ch = KrausChannel((k0 @ h, k1 @ h))
        assert ch._mix_cum is None and ch._effect_diagonals is None
        model = NoiseModel({"X": [ch]})
        circ = QuantumCircuit(1).add("X", 0).add("MEASURE", 0)
        exact = dm_execute(circ, model)
        est = execute_trajectories(circ, model, 4000, Rng(11))
        assert abs(est - exact) < 0.05
