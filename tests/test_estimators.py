"""Tests for decoders, the generator network, and both reconstruction engines."""

import hashlib
import math
import re
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qsnapshot.circuit import (
    QuantumCircuit,
    ancilla_expectation,
    build_swap_test,
    lower_to_basis,
    final_probabilities,
    mottonen_prepare,
)
from qsnapshot import estimators as estimators_module
from qsnapshot.core import (
    NORM_TOL,
    PSD_TOL,
    DensityMatrix,
    Rng,
    StateVector,
    hilbert_schmidt_overlap,
    overlap_fidelity,
    random_pure_state,
    uhlmann_fidelity,
)
from qsnapshot.harness import _random_rank2_density
from qsnapshot.noise import NoiseParams, calibrated_noise_model, execute_trajectory_batch
from qsnapshot.estimators import (
    Adam,
    DensityOracle,
    EsConfig,
    FidelityOracle,
    GeneratorNetwork,
    GradientConfig,
    ReconstructionReport,
    decode_densities,
    decode_states,
    decode_unitaries,
    reconstruct,
    train_gradient,
    train_qeswap,
)

SQ2 = 1.0 / math.sqrt(2.0)


# One-row references of the batched paths, so that the batch properties below
# compare against a loop.


def decode_candidate_state(raw: np.ndarray) -> StateVector:
    """Pair consecutive entries as (re, im) and normalize to a unit vector."""
    return StateVector.from_amplitudes(decode_states([raw])[0])


def decode_candidate_unitary(raw: np.ndarray) -> np.ndarray:
    """QR-orthogonalize the decoded matrix; R's diagonal made real-positive."""
    return decode_unitaries([raw])[0]


def decode_candidate_density(raw: np.ndarray) -> DensityMatrix:
    """rho = M M^dagger / Tr(M M^dagger) for the unconstrained decoded M."""
    rho = decode_densities([raw])[0]
    return DensityMatrix(rho.shape[0].bit_length() - 1, rho)


def execute_trajectories(circuit, model, trajectories: int, rng: Rng) -> float:
    """Mean ancilla <Z> of one lowered circuit: a one-circuit batch."""
    return float(execute_trajectory_batch([circuit], model, trajectories, rng)[0])


def _maximally_mixed(n: int) -> DensityMatrix:
    d = 2**n
    return DensityMatrix(n, np.eye(d) / d)


class TestDecodeState:
    def test_basis(self):
        s = decode_candidate_state(np.array([1.0, 0, 0, 0]))
        assert np.allclose(s.amplitudes, [1, 0])

    def test_phase_irrelevant(self):
        s = decode_candidate_state(np.array([0.0, 0, 0, 1]))
        assert overlap_fidelity(s, StateVector.computational_basis(1, 1)) == pytest.approx(1.0)

    def test_normalization(self):
        s = decode_candidate_state(np.array([3.0, 0, 4, 0]))
        assert np.allclose(s.amplitudes, [0.6, 0.8])

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            decode_candidate_state(np.zeros(4))

    def test_bad_length(self):
        with pytest.raises(ValueError):
            decode_candidate_state(np.ones(6))

    def test_unit_norm_always(self):
        rng = Rng(0)
        for _ in range(50):
            s = decode_candidate_state(rng.normal(8))
            assert abs(np.linalg.norm(s.amplitudes) - 1.0) < 1e-12


class TestDecodeUnitary:
    @staticmethod
    def encode(m):
        raw = np.empty(2 * m.size)
        raw[0::2] = m.real.ravel()
        raw[1::2] = m.imag.ravel()
        return raw

    def test_identity(self):
        q = decode_candidate_unitary(self.encode(np.eye(2, dtype=complex)))
        assert np.allclose(q, np.eye(2), atol=1e-12)

    def test_scaling_absorbed(self):
        q = decode_candidate_unitary(self.encode(2.0 * np.eye(2, dtype=complex)))
        assert np.allclose(q, np.eye(2), atol=1e-12)

    def test_rank_deficient(self):
        with pytest.raises(ValueError, match="zero matrix"):
            decode_candidate_unitary(self.encode(np.zeros((2, 2), dtype=complex)))

    def test_unitarity_random(self):
        rng = Rng(1)
        for _ in range(50):
            n = int(rng.integers(1, 4))
            q = decode_candidate_unitary(rng.normal(2 * 4**n))
            d = 2**n
            assert np.max(np.abs(q.conj().T @ q - np.eye(d))) < 1e-10


class TestDecodeDensity:
    @staticmethod
    def encode(m):
        raw = np.empty(2 * m.size)
        raw[0::2] = m.real.ravel()
        raw[1::2] = m.imag.ravel()
        return raw

    def test_pure_projector(self):
        rho = decode_candidate_density(self.encode(np.diag([1.0, 0.0]).astype(complex)))
        assert np.allclose(rho.entries, np.diag([1.0, 0.0]), atol=1e-12)

    def test_maximally_mixed(self):
        rho = decode_candidate_density(self.encode(np.eye(2, dtype=complex)))
        assert np.allclose(rho.entries, np.eye(2) / 2, atol=1e-12)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            decode_candidate_density(np.zeros(8))

    def test_invariants_random(self):
        rng = Rng(2)
        for _ in range(50):
            rho = decode_candidate_density(rng.normal(8))
            vals = np.linalg.eigvalsh(rho.entries)
            assert abs(np.trace(rho.entries).real - 1.0) < 1e-10
            assert vals[0] > -1e-9


@st.composite
def _raw_stacks(draw, matrix: bool):
    """(batch, raw_dim) raws at n = 1..3 with zero and rank-deficient rows mixed in."""
    n = draw(st.integers(1, 3))
    d = 2**n
    raws = draw(hnp.arrays(np.float64, (draw(st.integers(1, 6)), 2 * (d * d if matrix else d)),
                           elements=st.floats(-4, 4, width=64)))
    for row in raws:
        kind = draw(st.sampled_from(["as drawn", "zero", "rank one"]))
        if kind == "zero":
            row[:] = 0.0
        elif kind == "rank one" and matrix:  # every column equal to the first
            row.reshape(d, d, 2)[:] = row.reshape(d, d, 2)[:, :1]
    return raws


@st.composite
def _state_pairs(draw):
    """Two normalized states of one width, 1..3 qubits; amplitudes are often
    exactly zero, so that preparations leave rotations out."""
    n = draw(st.integers(1, 3))
    entries = st.one_of(st.just(0.0), st.floats(-1.0, 1.0, allow_subnormal=False))
    parts = draw(hnp.arrays(np.float64, (2, 2, 2**n), elements=entries))
    assume(parts[0].any() and parts[1].any())
    return tuple(StateVector.normalized(re + 1j * im) for re, im in parts)


def _one_row_results(decode, raws):
    """The one-row decoder on each row, or the first error it raises."""
    try:
        return [decode(raw) for raw in raws]
    except ValueError as exc:
        return exc


def _same_bytes(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestBatchDecoders:
    """Each batch decoder equals its one-row reference, row by row."""

    @settings(max_examples=60, deadline=None)
    @given(raws=_raw_stacks(matrix=False))
    # a row whose squared entries underflow, then a zero row
    @example(raws=np.array([[1.12278462e-161] * 4, [0.0] * 4]))
    def test_states(self, raws):
        expected = _one_row_results(decode_candidate_state, raws)
        if isinstance(expected, Exception):
            with pytest.raises(type(expected), match=re.escape(str(expected))):
                decode_states(raws)
        else:
            assert _same_bytes(decode_states(raws), np.stack([s.amplitudes for s in expected]))

    @settings(max_examples=60, deadline=None)
    @given(raws=_raw_stacks(matrix=True))
    def test_densities(self, raws):
        expected = _one_row_results(decode_candidate_density, raws)
        if isinstance(expected, Exception):
            with pytest.raises(type(expected), match=re.escape(str(expected))):
                decode_densities(raws)
        else:
            assert _same_bytes(decode_densities(raws), np.stack([r.entries for r in expected]))

    @settings(max_examples=60, deadline=None)
    @given(raws=_raw_stacks(matrix=True), k=st.integers(-1000, 1000))
    def test_densities_hold_every_invariant_by_construction(self, raws, k):
        # what check_density asserted on every decode, at any scale of the raws
        scaled = raws * 2.0**k
        if not scaled.any(axis=1).all():
            with pytest.raises(ValueError, match="cannot normalize a zero matrix"):
                decode_densities(scaled)
            return
        rho = decode_densities(scaled)
        assert np.isfinite(rho).all()
        assert (rho == np.swapaxes(rho.conj(), 1, 2)).all()  # Hermitian to the bit
        assert np.abs(np.trace(rho, axis1=1, axis2=2).real - 1.0).max() <= NORM_TOL
        assert np.linalg.eigvalsh(rho)[:, 0].min() >= -PSD_TOL

    @settings(max_examples=60, deadline=None)
    @given(raws=_raw_stacks(matrix=False), k=st.integers(-1000, 1000))
    def test_states_have_unit_norm_by_construction(self, raws, k):
        # what check_unit_norm asserted on every decode, at any scale of the raws
        raws[~raws.any(axis=1), 0] = 1.0  # a zero row becomes a single entry
        scaled = raws * 2.0**k
        assume(scaled.any(axis=1).all())
        norms = np.array([np.linalg.norm(row) for row in decode_states(scaled)])
        assert np.abs(norms - 1.0).max() <= NORM_TOL

    @settings(max_examples=60, deadline=None)
    @given(raws=_raw_stacks(matrix=True), k=st.integers(-1000, 1000))
    # R_11 is subnormal, so numpy's 1 / |R_11| in a complex division overflows
    @example(raws=np.array([[1.0] + [2.22507386e-311] * 7]), k=0)
    def test_unitaries_are_unitary_by_construction(self, raws, k):
        # what check_unitary asserted, now at any rank and any scale of the raws
        raws[~raws.any(axis=1), 0] = 1.0  # a zero row becomes a single entry
        scaled = raws * 2.0**k
        assume(scaled.any(axis=1).all())
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # as under python -W error
            q = decode_unitaries(scaled)
        gram = np.swapaxes(q.conj(), 1, 2) @ q
        assert np.abs(gram - np.eye(q.shape[1])).max() <= 1e-10

    # M = [[1, 1], [0, 0]], whose R_11 is zero, at scales where a perturbation
    # of fixed size would change no bit or swamp the raw
    @pytest.mark.parametrize("k", [0, 600, -600])
    def test_rank_one_raw_decodes_at_any_scale(self, k):
        raw = np.array([[1.0, 0, 1, 0, 0, 0, 0, 0]]) * 2.0**k
        assert (decode_unitaries(raw)[0, :, 0] == [1, 0]).all()

    # 2^-565 and 2^531 put the raws at about 1e-170 and 1e160
    @pytest.mark.parametrize("k", [300, -300, 600, -600, 1000, -1000, -565, 531, 100, -100])
    @pytest.mark.parametrize("decode,width", [(decode_states, 8), (decode_densities, 32),
                                              (decode_unitaries, 32)],
                             ids=["states", "densities", "unitaries"])
    def test_power_of_two_scale_changes_no_bit(self, decode, width, k):
        raws = Rng(9).normal((50, width))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # as under python -W error
            assert _same_bytes(decode(raws * 2.0**k), decode(raws))

    @settings(max_examples=60, deadline=None)
    @given(raws=_raw_stacks(matrix=True))
    def test_unitaries(self, raws):
        expected = _one_row_results(decode_candidate_unitary, raws)
        if isinstance(expected, Exception):  # only a zero row is rejected
            with pytest.raises(type(expected), match=re.escape(str(expected))):
                decode_unitaries(raws)
        else:
            assert _same_bytes(decode_unitaries(raws), np.stack(expected))

    @pytest.mark.parametrize("decode", [decode_states, decode_unitaries, decode_densities])
    def test_non_finite_raws_rejected(self, decode):
        raws = Rng(6).normal((2, 8))
        raws[1, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            decode(raws)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("decode", [decode_states, decode_unitaries, decode_densities])
    def test_non_finite_raws_rejected_before_any_warning(self, decode, bad):
        raws = Rng(6).normal((2, 8))
        raws[1, 3] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # as under python -W error
            with pytest.raises(ValueError, match="non-finite"):
                decode(raws)


def _serial_uhlmann(rho: np.ndarray, sigma: np.ndarray) -> float:
    """The per-matrix Uhlmann formula, written out independently of the oracle."""
    vals, vecs = np.linalg.eigh(rho)
    sqrt_rho = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T
    vals = np.clip(np.linalg.eigvalsh(sqrt_rho @ sigma @ sqrt_rho), 0.0, None)
    vals[vals < 1e-14] = 0.0
    f = float(np.sum(np.sqrt(vals)) ** 2)
    return min(f, 1.0) if f <= 1.0 + 1e-8 else f


class TestBatchedDensityOracles:
    """evaluate_batch equals the per-matrix formulas on 5,000 decoded rows."""

    N_ROWS = 5000

    @pytest.fixture(scope="class", params=[1, 2, 3])
    def case(self, request):
        n = request.param
        rng = Rng(70 + n)
        target = _random_rank2_density(n, rng)
        rhos = decode_densities(rng.normal((self.N_ROWS, 2 * 4**n)))
        return n, target, rhos

    def test_hilbert_schmidt(self, case):
        n, target, rhos = case
        oracle = DensityOracle(target, "hilbert_schmidt")
        batch = oracle.evaluate_batch(rhos).tolist()
        assert batch == [hilbert_schmidt_overlap(target, DensityMatrix(n, r)) for r in rhos]
        assert batch[:50] == [oracle.evaluate(DensityMatrix(n, r)) for r in rhos[:50]]
        assert oracle.evaluations == self.N_ROWS + 50

    def test_uhlmann(self, case):
        n, target, rhos = case
        oracle = DensityOracle(target, "uhlmann")
        batch = oracle.evaluate_batch(rhos).tolist()
        assert batch == [_serial_uhlmann(target.entries, r) for r in rhos]
        assert batch[:50] == [oracle.evaluate(DensityMatrix(n, r)) for r in rhos[:50]]
        assert batch[:50] == [uhlmann_fidelity(target, DensityMatrix(n, r)) for r in rhos[:50]]
        assert oracle.evaluations == self.N_ROWS + 50

    def test_uhlmann_rejects_stack_that_is_not_unit_trace(self):
        target = _random_rank2_density(2, Rng(43))
        with pytest.raises(ValueError, match="exceeds 1 beyond 1e-8") as err:
            DensityOracle(target, "uhlmann").evaluate_batch(2 * target.entries[None])
        # F(rho, 2 rho) = 2, and the message names it
        assert float(str(err.value).split()[2]) == pytest.approx(2.0)

    # the ids are the names the two signals had as separate oracle classes
    @pytest.mark.parametrize("signal", ["hilbert_schmidt", "uhlmann"],
                             ids=["HilbertSchmidtOracle", "UhlmannOracle"])
    def test_width_mismatch(self, signal):
        oracle = DensityOracle(_maximally_mixed(2), signal)
        with pytest.raises(ValueError, match="qubit count mismatch: 2 vs 1"):
            oracle.evaluate(_maximally_mixed(1))
        with pytest.raises(ValueError, match="qubit count mismatch: 2 vs 3"):
            oracle.evaluate_batch(np.stack([np.eye(8) / 8] * 2))
        assert oracle.evaluations == 0

    @pytest.mark.parametrize("signal", ["hilbert_schmidt", "uhlmann"])
    @pytest.mark.parametrize("shape", [(1, 3, 3), (2, 2), (2, 4, 2), (1, 0, 0)])
    def test_non_stack_shape_rejected(self, signal, shape):
        oracle = DensityOracle(_maximally_mixed(2), signal)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # as under python -W error
            with pytest.raises(ValueError, match=re.escape(f"candidates of shape {shape} are")):
                oracle.evaluate_batch(np.ones(shape))
        assert oracle.evaluations == 0


class TestOracles:
    def test_counter_increments(self):
        target = mottonen_prepare(random_pure_state(1, Rng(3)))
        oracle = FidelityOracle(target)
        oracle.evaluate(StateVector.computational_basis(1))
        oracle.evaluate(StateVector.computational_basis(1))
        assert oracle.evaluations == 2

    def test_analytic_matches_direct_overlap(self):
        t = random_pure_state(2, Rng(4))
        oracle = FidelityOracle(mottonen_prepare(t))
        c = random_pure_state(2, Rng(5))
        assert oracle.evaluate(c) == pytest.approx(overlap_fidelity(t, c), abs=1e-9)

    def test_shots_mode_needs_count_and_rng(self):
        prep = QuantumCircuit(1)
        with pytest.raises(ValueError, match="shots must be >= 1, got 0"):
            FidelityOracle(prep, shots=0, rng=Rng(0))
        with pytest.raises(ValueError, match="requires an rng"):
            FidelityOracle(prep, shots=100)  # missing rng

    def test_noisy_mode_needs_model(self):
        prep = QuantumCircuit(1)
        model = calibrated_noise_model(NoiseParams())
        with pytest.raises(ValueError, match="requires an rng"):
            FidelityOracle(prep, noise_model=model)  # missing rng
        with pytest.raises(ValueError, match="not both"):
            FidelityOracle(prep, shots=100, noise_model=model, rng=Rng(0))

    @pytest.mark.parametrize("trajectories", [0, -1])
    def test_noisy_mode_needs_trajectories(self, trajectories):
        # rejected when built, not at the first evaluate
        model = calibrated_noise_model(NoiseParams())
        with pytest.raises(ValueError, match=f"trajectories must be >= 1, got {trajectories}"):
            FidelityOracle(QuantumCircuit(1), noise_model=model, trajectories=trajectories,
                           rng=Rng(0))

    @settings(max_examples=150, deadline=None)
    @given(pair=_state_pairs())
    # an amplitude of 1e-9 beside one near 1, where the arcsin of the weight
    # ratio rounds the RY angle to pi
    @example(pair=(StateVector.normalized([1e-9 + 1e-9j, 1 + 1e-9j]),
                   StateVector.normalized([1, 1])))
    def test_analytic_evaluate_equals_overlap_fidelity(self, pair):
        target, candidate = pair
        oracle = FidelityOracle(mottonen_prepare(target))
        assert abs(oracle.evaluate(candidate) - overlap_fidelity(target, candidate)) <= 1e-12

    def test_hilbert_schmidt_oracle(self):
        rho = _maximally_mixed(1)
        assert DensityOracle(rho, "hilbert_schmidt").evaluate(rho) == pytest.approx(0.5)

    def test_uhlmann_oracle(self):
        rho = _maximally_mixed(1)
        assert DensityOracle(rho, "uhlmann").evaluate(rho) == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("signal", ["hs", "Uhlmann", "", None])
    def test_density_oracle_rejects_unknown_signal(self, signal):
        with pytest.raises(ValueError, match="expected hilbert_schmidt or uhlmann"):
            DensityOracle(_maximally_mixed(1), signal)

    def test_oracle_opacity(self):
        """Estimators touch nothing on the oracle but evaluate/n_qubits/evaluations."""

        class SpyOracle:
            n_qubits = 1

            def __init__(self):
                self.target = mottonen_prepare(random_pure_state(1, Rng(6)))
                self.inner = FidelityOracle(self.target)
                self.accessed = set()

            def __getattr__(self, name):
                raise AssertionError(f"estimator accessed oracle attribute {name!r}")

            def evaluate(self, candidate):
                return self.inner.evaluate(candidate)

            @property
            def evaluations(self):
                return self.inner.evaluations

        spy = SpyOracle()
        report = train_qeswap(spy, EsConfig(max_iter=3, seed=0, stop_threshold=2.0))
        assert report.epochs == 3


NOISE_SATURATED = NoiseParams(depol_1q=0.5, depol_2q=0.5, bit_flip_p=0.3, t1=20.0, t2=10.0)


def _edge_state(kind: str, n: int, rng: Rng) -> StateVector:
    """A state whose Mottonen preparation hits one of the gate-skip rules."""
    d = 2**n
    if kind == "basis":  # every RY angle zero, no RZ cascade
        return StateVector.computational_basis(n, int(rng.integers(0, d)))
    if kind == "real":  # real-positive amplitudes: no RZ cascade
        return StateVector.normalized(np.abs(rng.normal(d)) + 0.1)
    if kind == "uniform":  # equal real amplitudes: no RZ cascade, zero RY angles past n = 1
        return StateVector.normalized(np.ones(d))
    if kind == "zeros":  # exact zeros, the upper half among them: zero RY angles
        amps = rng.normal(d) + 1j * rng.normal(d)
        amps[rng.uniform(d) < 0.3] = 0.0
        amps[0], amps[d // 2:] = 1.0j, 0.0
        return StateVector.normalized(amps)
    return random_pure_state(n, rng)


def _serial_expectations(prep, candidates) -> list:
    """The reference: one SWAP-test circuit built and simulated per candidate."""
    return [
        ancilla_expectation(build_swap_test(prep, mottonen_prepare(c)))
        for c in candidates
    ]


class TestBatchedOracle:
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
           kinds=st.lists(st.sampled_from(["haar", "basis", "real", "zeros"]),
                          min_size=1, max_size=8))
    def test_batch_equals_serial_bit_for_bit(self, n, seed, kinds):
        rng = Rng(seed)
        prep = mottonen_prepare(_edge_state(kinds[-1], n, rng))
        candidates = [_edge_state(kind, n, rng) for kind in kinds]
        batch = FidelityOracle(prep).evaluate_batch(candidates)
        assert batch.tolist() == _serial_expectations(prep, candidates)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("kind", ["basis", "real", "zeros"])
    def test_skipped_rotations_are_exact_identities(self, kind, n):
        rng = Rng(50 + n)
        candidates = [_edge_state(kind, n, rng) for _ in range(5)]
        candidates.insert(2, random_pure_state(n, rng))  # a full-template row
        skipped = [sum(g.kind in ("RY", "RZ") for g in mottonen_prepare(c).gates)
                   < 2 * (2**n - 1) for c in candidates]
        assert skipped == [True, True, False, True, True, True]
        for prep in (mottonen_prepare(random_pure_state(n, rng)),
                     mottonen_prepare(_edge_state(kind, n, rng))):
            batch = FidelityOracle(prep).evaluate_batch(candidates)
            assert batch.tolist() == _serial_expectations(prep, candidates)

    def test_single_evaluate_is_a_one_row_batch(self):
        prep = mottonen_prepare(random_pure_state(3, Rng(60)))
        candidates = [random_pure_state(3, Rng(61 + i)) for i in range(4)]
        singles = [FidelityOracle(prep).evaluate(c) for c in candidates]
        assert singles == FidelityOracle(prep).evaluate_batch(candidates).tolist()
        assert singles == _serial_expectations(prep, candidates)

    def test_shots_draw_like_sample_shots(self):
        n, shots = 2, 200
        prep = mottonen_prepare(random_pure_state(n, Rng(21)))
        candidates = [random_pure_state(n, Rng(22 + i)) for i in range(5)]
        oracle = FidelityOracle(prep, shots=shots, rng=Rng(9))
        zeros = (oracle.evaluate_batch(candidates) + 1.0) / 2.0 * shots
        rng = Rng(9)  # the serial sampler: each SWAP test built alone, drawn in turn
        counts = []
        for c in candidates:
            probs = final_probabilities(build_swap_test(prep, mottonen_prepare(c)))
            outcomes = rng._gen.choice(probs.size, size=shots, p=probs / probs.sum())
            counts.append(np.count_nonzero(outcomes % 2 == 0))
        assert zeros.tolist() == counts

    def test_noisy_batch_is_serial_evaluate(self):
        prep = mottonen_prepare(random_pure_state(1, Rng(23)))
        model = calibrated_noise_model(NoiseParams())
        candidates = [random_pure_state(1, Rng(24 + i)) for i in range(3)]

        def oracle():
            return FidelityOracle(prep, noise_model=model, trajectories=16, rng=Rng(25))

        serial = oracle()
        expected = [serial.evaluate(c) for c in candidates]
        batched = oracle()
        assert batched.evaluate_batch(candidates).tolist() == expected
        assert batched.evaluations == serial.evaluations == 3

    @settings(max_examples=20, deadline=None)
    @example(n=1, saturated=False, trajectories=2000, seed=1, before=3,
             kinds=["haar", "basis", "haar", "uniform", "haar", "real", "haar", "haar"])
    @given(n=st.integers(1, 2), saturated=st.booleans(),
           trajectories=st.sampled_from([1, 2, 7, 300]), seed=st.integers(0, 2**32 - 1),
           before=st.integers(0, 3), kinds=st.lists(
               st.sampled_from(["haar", "basis", "uniform", "real"]), min_size=1, max_size=7))
    def test_noisy_batch_is_serial_bit_for_bit(self, n, saturated, trajectories, seed, before,
                                               kinds):
        # mixed kinds lower to several gate structures; 0-3 earlier draws start
        # the oracle's generator inside a Philox block
        params = NOISE_SATURATED if saturated else NoiseParams()
        model = calibrated_noise_model(params)
        rng = Rng(seed)
        prep = mottonen_prepare(random_pure_state(n, rng))
        candidates = [_edge_state(kind, n, rng) for kind in kinds]

        def started():
            gen = Rng(seed + 1)
            gen.uniform(before)
            return gen

        batch_rng, loop_rng, serial_rng = started(), started(), started()
        batch = FidelityOracle(prep, noise_model=model, trajectories=trajectories,
                               rng=batch_rng).evaluate_batch(candidates)
        one = FidelityOracle(prep, noise_model=model, trajectories=trajectories, rng=loop_rng)
        loop = np.array([one.evaluate(c) for c in candidates])
        serial = np.array([execute_trajectories(  # the candidate-by-candidate engine
            lower_to_basis(build_swap_test(prep, mottonen_prepare(c))), model,
            trajectories, serial_rng) for c in candidates])
        assert batch.tobytes() == loop.tobytes() == serial.tobytes()
        draws = {gen.uniform(4).tobytes() for gen in (batch_rng, loop_rng, serial_rng)}
        assert len(draws) == 1  # each generator ends where the serial loop leaves it

    def test_candidate_width_must_match_target(self):
        oracle = FidelityOracle(mottonen_prepare(random_pure_state(2, Rng(34))))
        with pytest.raises(ValueError, match="qubit count mismatch: 2 vs 1"):
            oracle.evaluate(random_pure_state(1, Rng(35)))

    @pytest.mark.parametrize("mode", ["analytic", "shots", "noisy"])
    @pytest.mark.parametrize("shape, message", [
        ((1, 3), "candidates of shape (1, 3) are not a (batch, 2^n) stack"),
        ((1, 8), "qubit count mismatch: 2 vs 3"),
        ((1, 2), "qubit count mismatch: 2 vs 1"),
    ])
    def test_rejected_batch_is_not_counted(self, mode, shape, message):
        signal = {"analytic": {}, "shots": {"shots": 10, "rng": Rng(37)},
                  "noisy": {"noise_model": calibrated_noise_model(NoiseParams()),
                            "trajectories": 2, "rng": Rng(37)}}[mode]
        oracle = FidelityOracle(mottonen_prepare(random_pure_state(2, Rng(36))), **signal)
        with pytest.raises(ValueError, match=re.escape(message)):
            oracle.evaluate_batch(np.ones(shape))
        assert oracle.evaluations == 0

    def test_batch_accounting(self):
        oracle = FidelityOracle(mottonen_prepare(random_pure_state(2, Rng(30))))
        oracle.evaluate_batch([random_pure_state(2, Rng(31 + i)) for i in range(7)])
        assert oracle.evaluations == 7
        oracle.evaluate(random_pure_state(2, Rng(40)))
        assert oracle.evaluations == 8

    def test_engine_scores_a_population_as_one_batch(self):
        class CountingOracle(FidelityOracle):
            def evaluate_batch(self, candidates):
                self.batches.append(len(candidates))
                return super().evaluate_batch(candidates)

        oracle = CountingOracle(mottonen_prepare(random_pure_state(1, Rng(32))))
        oracle.batches = []
        report = train_qeswap(oracle, EsConfig(population=6, max_iter=3, seed=0,
                                               stop_threshold=2.0))
        assert oracle.batches == [6, 6, 6]
        assert oracle.evaluations == report.oracle_evals == 18

    def test_oracle_without_batch_method_uses_evaluate(self):
        class SerialOracle:
            n_qubits = 1

            def __init__(self):
                self.inner = FidelityOracle(mottonen_prepare(random_pure_state(1, Rng(33))))
                self.calls = 0

            def evaluate(self, candidate):
                self.calls += 1
                return self.inner.evaluate(candidate)

            @property
            def evaluations(self):
                return self.inner.evaluations

        oracle = SerialOracle()
        report = train_qeswap(oracle, EsConfig(population=6, max_iter=3, seed=0,
                                               stop_threshold=2.0))
        assert oracle.calls == oracle.evaluations == report.oracle_evals == 18


class TestGeneratorNetwork:
    def test_shapes(self):
        net = GeneratorNetwork(4, Rng(7))
        dims = [w.shape for w in net.weights]
        assert dims == [(256, 512), (512, 1024), (1024, 1024), (1024, 512),
                        (512, 256), (256, 4)]

    def test_backward_matches_numeric_gradient(self):
        net = GeneratorNetwork(4, Rng(8))
        z = Rng(9).uniform(256)
        direction = Rng(10).normal(4)

        def scalar(ws):
            saved = net.weights[0]
            net.weights[0] = ws
            out, _ = net.forward(z)
            net.weights[0] = saved
            return float(out @ direction)

        out, cache = net.forward(z)
        grads_w, _ = net.backward(cache, direction)
        col, row = grads_w[0]  # the gradient is their outer product
        w0 = net.weights[0]
        eps = 1e-6
        rng = Rng(11)
        for _ in range(5):
            i = int(rng.integers(0, w0.shape[0]))
            j = int(rng.integers(0, w0.shape[1]))
            bumped = w0.copy()
            bumped[i, j] += eps
            plus = scalar(bumped)
            bumped[i, j] -= 2 * eps
            minus = scalar(bumped)
            numeric = (plus - minus) / (2 * eps)
            assert col[i] * row[j] == pytest.approx(numeric, rel=1e-4, abs=1e-8)

    def test_backward_reads_erf_from_the_forward_cache(self):
        from scipy.special import erf  # the reference; the package never loads scipy

        net = GeneratorNetwork(4, Rng(8))
        z = 4.0 * Rng(9).normal(256)  # wide enough that both erf branches run
        _, (hidden, activations) = net.forward(z)
        assert all((np.abs(pre) > math.sqrt(2.0)).any() for pre, _ in hidden)
        recomputed = [(pre, erf(pre / math.sqrt(2.0))) for pre, _ in hidden]
        direction = Rng(10).normal(4)
        cached = net.backward((hidden, activations), direction)
        fresh = net.backward((recomputed, activations), direction)
        for a, b in zip(cached[0] + cached[1], fresh[0] + fresh[1], strict=True):
            assert all(_same_bytes(x, y) for x, y in zip(a, b, strict=True))


# |x| near the branch points of Cephes' erf: 1 (T/U to P/Q), 8 (its erfc's P/Q to
# R/S) and sqrt(MAXLOG) ~ 26.64, past which its erfc underflows
_ERF_EDGES = [sign * c for c in (1.0, 8.0, math.sqrt(709.782712893384)) for sign in (1, -1)]
_ERF_INPUTS = st.one_of(
    st.floats(),  # subnormals, +-0, +-inf and NaNs, signalling ones included
    *(st.floats(c - 0.01, c + 0.01) for c in _ERF_EDGES),
    st.sampled_from([np.nextafter(1.0, 2.0), np.nextafter(8.0, 0.0), 26.6, 26.7, 1e300]),
)


@settings(max_examples=300, deadline=None)
@given(xs=st.lists(_ERF_INPUTS, min_size=1, max_size=40))
@example(xs=[-0.0, 5e-324, 1.0, -1.0])  # only the |x| <= 1 branch
@example(xs=[math.nan, -math.inf, math.inf, 8.0, -1e-310])
def test_erf_matches_scipy_bit_for_bit(xs):
    from scipy.special import erf

    x = np.array(xs, dtype="<f8")
    assert _same_bytes(estimators_module._erf(x), erf(x))


class _WholeArrayAdam:
    """The whole-array Adam update the blocked in-place one must reproduce."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, shapes, lr):
        self.lr = lr
        self.step_count = 0
        self.m = [np.zeros(s) for s in shapes]
        self.v = [np.zeros(s) for s in shapes]

    def step(self, params, grads):
        self.step_count += 1
        t = self.step_count
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= self.BETA1
            m += (1 - self.BETA1) * g
            v *= self.BETA2
            v += (1 - self.BETA2) * g * g
            m_hat = m / (1 - self.BETA1**t)
            v_hat = v / (1 - self.BETA2**t)
            p -= self.lr * m_hat / (np.sqrt(v_hat) + self.EPS)


class TestAdam:
    @pytest.fixture(params=[1, 2, 3])
    def workers(self, request, monkeypatch):
        monkeypatch.setattr(Adam, "WORKERS", request.param)
        return request.param

    def test_minimizes_quadratic(self):
        p = np.array([5.0])
        adam = Adam([p.shape], lr=0.1)
        for _ in range(500):
            adam.step([p], [(np.ones(1), 2 * p)])
        assert abs(p[0]) < 1e-3

    @pytest.mark.parametrize("size", [1, Adam.BLOCK - 1, Adam.BLOCK, Adam.BLOCK + 1,
                                      2 * Adam.BLOCK + 7])
    def test_blocked_update_matches_whole_array_bit_for_bit(self, size, workers):
        # (37, 1500) spans two row blocks, (3, BLOCK + 5) has rows longer than a
        # block, and 40 columns give blocks of 819 rows, which 1000 rows do not fill
        shapes = [(size,), (37, 1500), (3, Adam.BLOCK + 5), (1000, 40), (3,)]
        gen = np.random.default_rng(size)
        params = [gen.normal(size=s) for s in shapes]
        expected = [p.copy() for p in params]
        adam, reference = Adam(shapes, lr=1e-3), _WholeArrayAdam(shapes, lr=1e-3)
        for _ in range(4):
            # products from 1e-9 to 1e3: the eps term and the large steps both matter;
            # a 1-D parameter takes the factors a bias does
            factors = [(gen.normal(size=s[0]) * 10.0 ** gen.integers(-5, 2, size=s[0])
                        if len(s) == 2 else np.ones(1),
                        gen.normal(size=s[-1]) * 10.0 ** gen.integers(-4, 2, size=s[-1]))
                       for s in shapes]
            before = [(col.copy(), row.copy()) for col, row in factors]
            adam.step(params, factors)
            reference.step(expected, [np.outer(col, row).reshape(s)
                                      for (col, row), s in zip(before, shapes)])
            assert all(_same_bytes(x, y) for f, b in zip(factors, before) for x, y in zip(f, b))
        for got, want in [(params, expected), (adam.m, reference.m), (adam.v, reference.v)]:
            for a, b in zip(got, want):
                assert a.shape == b.shape
                assert a.tobytes() == b.tobytes()

    def test_many_small_blocks_on_more_workers_than_cpus(self, monkeypatch):
        # 8 workers share 623 blocks of at most 64 elements, switching threads
        # every microsecond: a block updated twice or not at all, or a scratch
        # array two workers write, changes the bytes
        monkeypatch.setattr(Adam, "BLOCK", 64)
        monkeypatch.setattr(Adam, "WORKERS", 8)
        shapes = [(300, 100), (100,), (7, 130)]
        gen = np.random.default_rng(5)
        params = [gen.normal(size=s) for s in shapes]
        expected = [p.copy() for p in params]
        adam, reference = Adam(shapes, lr=1e-3), _WholeArrayAdam(shapes, lr=1e-3)
        interval, threads = sys.getswitchinterval(), threading.active_count()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                factors = [(gen.normal(size=s[0]) if len(s) == 2 else np.ones(1),
                            gen.normal(size=s[-1])) for s in shapes]
                adam.step(params, factors)
                reference.step(expected, [np.outer(col, row).reshape(s)
                                          for (col, row), s in zip(factors, shapes)])
        finally:
            sys.setswitchinterval(interval)
        assert threading.active_count() == threads  # every helper was joined
        for got, want in [(params, expected), (adam.m, reference.m), (adam.v, reference.v)]:
            assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))

    @staticmethod
    def _overflowing_step():
        """An Adam and a step whose g^2 overflows in block 1 alone, which falls
        to a helper thread whenever there is one."""
        p = np.zeros(3 * Adam.BLOCK)
        row = np.ones(p.size)
        row[Adam.BLOCK + 1] = 1e200
        adam = Adam([p.shape], lr=0.1)
        return adam, lambda: adam.step([p], [(np.ones(1), row)])

    @pytest.mark.parametrize("state, error", [({}, RuntimeWarning),
                                              ({"over": "raise"}, FloatingPointError)])
    def test_helper_errors_raise_in_the_caller(self, workers, state, error):
        adam, step = self._overflowing_step()
        with warnings.catch_warnings(), np.errstate(**state):
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(error, match="overflow"):
                step()

    def test_callers_errstate_holds_in_every_worker(self, workers):
        adam, step = self._overflowing_step()
        with warnings.catch_warnings(), np.errstate(over="ignore"):
            warnings.simplefilter("error", RuntimeWarning)
            step()
        assert adam.v[0][Adam.BLOCK + 1] == math.inf and adam.step_count == 1

    @pytest.mark.parametrize("view", [lambda a: a[:, ::2], np.asfortranarray])
    def test_non_contiguous_parameter_rejected(self, view):
        p = view(np.zeros((4, 6)))
        adam = Adam([p.shape], lr=0.1)
        with pytest.raises(ValueError, match="C-contiguous"):
            adam.step([p], [(np.ones(4), np.ones(6))])

    def test_parameter_of_another_shape_rejected(self):
        p = np.zeros((2, 3))
        adam = Adam([(3, 2)], lr=0.1)
        with pytest.raises(ValueError, match="shapes it was built for"):
            adam.step([p], [(np.ones(2), np.ones(3))])
        assert not p.any() and adam.step_count == 0

    @pytest.mark.parametrize("factors", [
        [(np.ones(1), np.ones(3))],  # one pair for two parameters
        [(np.ones(1), np.ones(3)), (np.ones(1), np.ones(3))],  # 3 elements for 2
        [(np.ones(1), np.ones(3)), (np.ones(2), np.ones(2))],  # 4 elements for 2
        [(np.ones(1), np.ones(3)), (np.ones((2, 1)), np.ones(1))],  # a 2-D factor
        [(np.ones(1), np.ones(3)), (1.0, np.ones(2))],  # a scalar factor
    ])
    def test_gradients_must_match_parameters(self, workers, factors):
        params = [np.zeros(3), np.zeros(2)]
        adam = Adam([p.shape for p in params], lr=0.1)
        with pytest.raises(ValueError):
            adam.step(params, factors)
        assert not any(p.any() for p in params) and adam.step_count == 0


class TestReport:
    def test_best_must_match_trace(self):
        with pytest.raises(ValueError, match="best_fidelity must equal the trace maximum"):
            ReconstructionReport(method="qeswap", representation="statevector", n_qubits=1,
                                 best_fidelity=0.5, epochs=2, oracle_evals=100,
                                 fidelity_trace=[0.4, 0.9], seed=0)



class TestQESwap:
    def test_converges_on_zero_target(self):
        oracle = FidelityOracle(QuantumCircuit(1))
        report = train_qeswap(oracle, EsConfig(max_iter=20, seed=0,
                                               stop_threshold=0.99))
        assert report.best_fidelity >= 0.99
        assert report.epochs <= 20

    def test_evaluation_accounting_exact(self):
        oracle = FidelityOracle(mottonen_prepare(random_pure_state(1, Rng(12))))
        config = EsConfig(population=50, max_iter=7, seed=1, stop_threshold=2.0)
        report = train_qeswap(oracle, config)
        assert report.oracle_evals == 7 * 50
        assert oracle.evaluations == report.oracle_evals

    def test_zero_spread_skips_update(self):
        class ConstantOracle:
            n_qubits = 1
            evaluations = 0

            def evaluate(self, candidate):
                self.evaluations += 1
                return 0.5

        report = train_qeswap(ConstantOracle(),
                              EsConfig(max_iter=3, seed=2, stop_threshold=2.0))
        assert report.best_fidelity == 0.5

    def test_advantage_translation_invariance(self):
        # adding a constant to every reward leaves the trajectory identical
        base = FidelityOracle(mottonen_prepare(random_pure_state(1, Rng(13))))

        class ShiftedOracle:
            n_qubits = 1

            def __init__(self, shift):
                self.inner = FidelityOracle(
                    mottonen_prepare(random_pure_state(1, Rng(13))))
                self.shift = shift
                self.evaluations = 0

            def evaluate(self, candidate):
                self.evaluations += 1
                return self.inner.evaluate(candidate) + self.shift

        cfg = dict(max_iter=4, seed=3, stop_threshold=2.0)
        r0 = train_qeswap(ShiftedOracle(0.0), EsConfig(**cfg))
        r1 = train_qeswap(ShiftedOracle(0.17), EsConfig(**cfg))
        assert np.allclose(np.array(r1.fidelity_trace) - 0.17,
                           r0.fidelity_trace, atol=1e-12)

    def test_best_is_max_of_trace(self):
        oracle = FidelityOracle(mottonen_prepare(random_pure_state(2, Rng(14))))
        report = train_qeswap(oracle, EsConfig(max_iter=10, seed=4,
                                               stop_threshold=2.0))
        assert report.best_fidelity == max(report.fidelity_trace)

    @pytest.mark.parametrize("probed", [False, True])
    def test_top_row_wrapped_only_when_kept_or_probed(self, monkeypatch, probed):
        built = []

        class CountedDensity(DensityMatrix):
            def __post_init__(self):
                built.append(self)
                super().__post_init__()

        decode, _ = estimators_module._DECODERS["density"]
        monkeypatch.setitem(estimators_module._DECODERS, "density", (decode, CountedDensity))
        target = _random_rank2_density(2, Rng(42))
        probe = (lambda c: uhlmann_fidelity(target, c)) if probed else None
        report = reconstruct("qeswap", "density", DensityOracle(target, "hilbert_schmidt"),
                             EsConfig(max_iter=40, seed=3, stop_threshold=2.0, probe=probe))
        trace = report.fidelity_trace
        kept = sum(f > max(trace[:i], default=-math.inf) for i, f in enumerate(trace))
        assert 1 < kept < report.epochs
        assert len(built) == (report.epochs if probed else kept)
        first_best = trace.index(report.best_fidelity)
        assert report.final_candidate is built[first_best if probed else -1]

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            EsConfig(population=1)
        with pytest.raises(ValueError):
            EsConfig(sigma=0.0)

    @pytest.mark.parametrize("make,message", [
        (lambda: EsConfig(max_iter=0), "max_iter must be >= 1, got 0"),
        (lambda: EsConfig(max_iter=-3), "max_iter must be >= 1, got -3"),
        (lambda: GradientConfig(epochs=0), "epochs must be >= 1, got 0"),
        (lambda: GradientConfig(lr=0.0), "lr must be positive, got 0.0"),
        (lambda: GradientConfig(lr=-1e-4), "lr must be positive, got -0.0001"),
        (lambda: GradientConfig(lr=math.nan), "lr must be finite, got nan"),
        (lambda: GradientConfig(lr=math.inf), "lr must be finite, got inf"),
        (lambda: EsConfig(seed=-1), "seed must be a 64-bit unsigned integer, got -1"),
        (lambda: EsConfig(seed=1.5), "seed must be a 64-bit unsigned integer, got 1.5"),
        (lambda: GradientConfig(seed=2**64),
         f"seed must be a 64-bit unsigned integer, got {2**64}"),
        (lambda: GradientConfig(seed=1.0), "seed must be a 64-bit unsigned integer, got 1.0"),
    ], ids=["es-0", "es-neg", "grad-0", "lr-0", "lr-neg", "lr-nan", "lr-inf", "es-seed-neg",
            "es-seed-float", "grad-seed-2^64", "grad-seed-float"])
    def test_rejects_empty_budget_or_bad_rate(self, make, message):
        # an empty budget would report best_fidelity -inf with no candidate
        with pytest.raises(ValueError, match=message):
            make()


class TestGradient:
    def test_early_stop_on_degenerate_oracle(self):
        class AlwaysOne:
            n_qubits = 1
            evaluations = 0

            def evaluate(self, candidate):
                self.evaluations += 1
                return 1.0

        report = train_gradient(AlwaysOne(), GradientConfig(epochs=50, seed=0))
        assert report.epochs == 1
        assert report.best_fidelity == 1.0

    def test_evaluation_accounting_exact(self):
        # full-budget run: evals == epochs * (1 + 4d), d = 2^n
        oracle = FidelityOracle(mottonen_prepare(random_pure_state(1, Rng(15))))
        report = train_gradient(oracle,
                                GradientConfig(epochs=3, seed=1, stop_threshold=2.0))
        assert report.oracle_evals == 3 * (1 + 4 * 2)
        assert oracle.evaluations == report.oracle_evals

    def test_finite_difference_gradient_consistency(self):
        # the engine's central difference at eps agrees with an independent
        # central difference at eps/10 on the same decoded-fidelity map
        target = random_pure_state(1, Rng(16))
        oracle = FidelityOracle(mottonen_prepare(target))
        net = GeneratorNetwork(4, Rng(17))
        z = Rng(18).uniform(256)
        raw, _ = net.forward(z)
        raw = raw / np.linalg.norm(raw)  # unit scale keeps curvature moderate

        def loss(r):
            return 1.0 - oracle.evaluate(decode_candidate_state(r))

        for eps in (1e-3,):
            for j in range(4):
                bump = np.zeros(4)
                bump[j] = eps
                g_eng = (loss(raw + bump) - loss(raw - bump)) / (2 * eps)
                bump[j] = eps / 10
                g_ref = (loss(raw + bump) - loss(raw - bump)) / (2 * eps / 10)
                assert g_eng == pytest.approx(g_ref, rel=1e-3, abs=1e-9)

    def test_converges_on_one_qubit(self):
        oracle = FidelityOracle(QuantumCircuit(1))
        report = train_gradient(oracle, GradientConfig(epochs=200, seed=2,
                                                       stop_threshold=0.99))
        assert report.best_fidelity >= 0.99


class TestReconstructDispatch:
    def test_invalid_combinations(self):
        oracle = FidelityOracle(QuantumCircuit(1))
        with pytest.raises(ValueError):
            reconstruct("newton", "statevector", oracle)
        with pytest.raises(ValueError):
            reconstruct("qeswap", "mps", oracle)

    @pytest.mark.parametrize("method,config", [("gradient", GradientConfig()),
                                               ("qeswap", EsConfig())])
    def test_no_config_is_the_engine_default(self, method, config):
        default = reconstruct(method, "statevector", FidelityOracle(QuantumCircuit(1)))
        given = reconstruct(method, "statevector", FidelityOracle(QuantumCircuit(1)), config)
        assert _trajectory_digest(default) == _trajectory_digest(given)

    def test_unitary_representation_converges(self):
        target = random_pure_state(1, Rng(19))
        oracle = FidelityOracle(mottonen_prepare(target))
        report = reconstruct("qeswap", "unitary", oracle,
                             EsConfig(max_iter=40, seed=5, stop_threshold=0.99))
        assert report.best_fidelity >= 0.99
        assert report.epochs <= 40
        assert not report.mixed_state_flag

    def test_density_representation_sets_flag(self):
        target = _maximally_mixed(1)
        report = reconstruct("qeswap", "density", DensityOracle(target, "hilbert_schmidt"),
                             EsConfig(max_iter=5, seed=6, stop_threshold=2.0))
        assert report.mixed_state_flag

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("representation", ["statevector", "density"])
    def test_width_is_the_oracle_width(self, representation, n):
        # reconstruct takes no width: it reads the oracle's
        if representation == "density":
            oracle = DensityOracle(_maximally_mixed(n), "hilbert_schmidt")
        else:
            oracle = FidelityOracle(QuantumCircuit(n))
        report = reconstruct("qeswap", representation, oracle,
                             EsConfig(population=4, max_iter=1, seed=0, stop_threshold=2.0))
        assert report.n_qubits == report.final_candidate.n_qubits == oracle.n_qubits == n
        assert report.mixed_state_flag == (representation == "density")

    def test_plus_target_statevector(self):
        target = StateVector.from_amplitudes([SQ2, SQ2])
        oracle = FidelityOracle(mottonen_prepare(target))
        report = reconstruct("qeswap", "statevector", oracle,
                             EsConfig(max_iter=30, seed=7, stop_threshold=0.99))
        assert report.best_fidelity >= 0.99


def _trajectory_digest(report) -> str:
    """SHA-256 over both traces (little-endian float64), epochs and evals."""
    h = hashlib.sha256()
    for seq in (report.fidelity_trace, report.validation_trace):
        h.update(np.asarray(seq, dtype="<f8").tobytes())
        h.update(b"|")
    h.update(f"{report.epochs}|{report.oracle_evals}".encode())
    return h.hexdigest()


def _golden_run(case):
    """Small fixed-seed reconstructions covering every engine path."""
    target = random_pure_state(1, Rng(40))
    prep = mottonen_prepare(target)

    def probe(candidate):
        return overlap_fidelity(target, candidate)

    if case == "gradient-statevector":
        return reconstruct("gradient", "statevector", FidelityOracle(prep),
                           GradientConfig(epochs=4, seed=1, stop_threshold=2.0,
                                          probe=probe))
    if case == "gradient-statevector-stop":
        return reconstruct("gradient", "statevector", FidelityOracle(prep),
                           GradientConfig(epochs=50, lr=1e-3, seed=2,
                                          stop_threshold=0.9, probe=probe,
                                          stop_on_probe=True))
    if case == "gradient-unitary":
        return reconstruct("gradient", "unitary", FidelityOracle(prep),
                           GradientConfig(epochs=2, seed=3, stop_threshold=2.0))
    if case == "qeswap-statevector":
        return reconstruct("qeswap", "statevector", FidelityOracle(prep),
                           EsConfig(population=8, max_iter=8, seed=8,
                                    stop_threshold=0.999, probe=probe,
                                    stop_on_probe=True))
    if case == "qeswap-unitary":
        return reconstruct("qeswap", "unitary", FidelityOracle(prep),
                           EsConfig(population=8, max_iter=6, seed=5,
                                    stop_threshold=0.99))
    if case == "qeswap-shots":
        oracle = FidelityOracle(prep, shots=64, rng=Rng(6))
        return reconstruct("qeswap", "statevector", oracle,
                           EsConfig(population=6, max_iter=4, seed=6,
                                    stop_threshold=2.0))
    if case == "qeswap-noisy":
        oracle = FidelityOracle(prep, noise_model=calibrated_noise_model(NoiseParams()),
                                trajectories=8, rng=Rng(7))
        return reconstruct("qeswap", "statevector", oracle,
                           EsConfig(population=4, max_iter=2, seed=7,
                                    stop_threshold=2.0))
    if case == "qeswap-statevector-n3":
        target3 = random_pure_state(3, Rng(41))
        return reconstruct("qeswap", "statevector", FidelityOracle(mottonen_prepare(target3)),
                           EsConfig(population=50, max_iter=20, seed=9,
                                    stop_threshold=2.0,
                                    probe=lambda c: overlap_fidelity(target3, c)))
    if case in ("qeswap-density-hs", "qeswap-density-uhlmann"):
        rho = _random_rank2_density(2, Rng(42))
        signal = "hilbert_schmidt" if case.endswith("hs") else "uhlmann"
        return reconstruct("qeswap", "density", DensityOracle(rho, signal),
                           EsConfig(population=50, max_iter=30, seed=10,
                                    stop_threshold=2.0,
                                    probe=lambda c: uhlmann_fidelity(rho, c)))
    if case == "gradient-density":
        rho = decode_candidate_density(Rng(8).normal(8))
        return reconstruct("gradient", "density", DensityOracle(rho, "hilbert_schmidt"),
                           GradientConfig(epochs=3, seed=8, stop_threshold=2.0))
    raise AssertionError(case)


# Digests of the fixed-seed runs above. Any change to the order of RNG draws,
# oracle calls, stop checks or updates changes them.
GOLDEN_TRAJECTORIES = {
    "gradient-statevector":
        "2ba2e46944ff9d2fd6c1cef4743ae3d284bfeb96068b67c76012dab6fec40934",
    "gradient-statevector-stop":
        "7179036599386908109a995b37b9a8729af418569a22848b112c19dc0faa0390",
    "gradient-unitary":
        "f681aa0a1b3c8e4597bb3cfccba6a2242f0683ff3f488b794f5083bfa651b87e",
    "qeswap-statevector":
        "86b4d8a0773c8754e66d055dd772793a68b5f615c3d203fb71fb12f815e0a7aa",
    "qeswap-unitary":
        "6780e4a59ed2f57e2476765ee7e8e67d226cc8ce4d4e2e8f534550d5fe0d1de7",
    "qeswap-shots":
        "839d8822c8b4d6409d6957c77eeb276c453f39346891bce66b8a38ef24fa57cd",
    "qeswap-noisy":
        "b82aaa65a7a36b72d863b922f03d9019925218fa7c18d68f5fee9a32b6b5d4da",
    "gradient-density":
        "d16556f2247c4c326f97621de7595a9ec64744a80e6c591264de4a033563bb05",
    "qeswap-statevector-n3":
        "8c7fdee42896e882f8b632f9a8d815367daef99a5697fbdf9724cf7f41519942",
    "qeswap-density-hs":
        "4cbeaba2e7372dd957f9214672083d3c6c5b05cc93de4b1e85fb4b7d346d45cd",
    "qeswap-density-uhlmann":
        "b976c2fc2702f5a0dd8db93ea7e192aae9e9eb99781fa7db3856d4df01de3d53",
}


@pytest.mark.parametrize("case", sorted(GOLDEN_TRAJECTORIES))
def test_golden_trajectory(case):
    assert _trajectory_digest(_golden_run(case)) == GOLDEN_TRAJECTORIES[case], KERNEL_HINT


def _kernel_primitives() -> dict:
    """Fixed inputs through each BLAS or LAPACK call whose last bits depend on
    the kernel OpenBLAS picks for the CPU, and which the goldens carry."""
    rng = Rng(16)
    advantages, noise = rng.normal(50), rng.normal((50, 16))
    activations, weights = rng.normal(256), rng.normal((256, 512))
    rhos = decode_densities(rng.normal((50, 32)))
    return {
        "es-update": advantages @ noise,  # _EsEngine.tell at n = 3
        "network-layer": activations @ weights,  # GeneratorNetwork's first layer
        "eigvalsh": np.linalg.eigvalsh(rhos),  # uhlmann_fidelities on a population
    }


# SHA-256 of each primitive's output on the kernel the goldens above and in
# test_cli.py were recorded on: OpenBLAS 0.3.31 (DYNAMIC_ARCH), SkylakeX.
# Haswell, Nehalem and Prescott kernels round every one of them differently.
KERNEL_CANARIES = {
    "es-update": "f54272526118e067a0eccd3c8527008b6c08252d98e31ce43847ecc24f7fef48",
    "network-layer": "333e961ee1f2d9f792e99661b960a003b0dc77fda420fff6c107731f3087d5f6",
    "eigvalsh": "8eab023e03a3b74b4e91de6154d6d331bd8b67fe1d2d714b565d5a85e0d34f89",
}
KERNEL_HINT = ("golden digests hold only on the BLAS kernel, C library exp, numpy exp and numpy "
               "Generator streams they were recorded on; if test_blas_kernel_canary fails as "
               "well, the kernel changed the bits, if test_libm_exp_canary fails, the C "
               "library's exp changed GELU's erf, if test_numpy_exp_canary fails, numpy's exp "
               "changed GELU's derivative, and if test_rng_stream_canary fails, numpy changed "
               "a random stream")

# SHA-256 of GELU's erf where it calls the C library's exp, |x| in (1, 8) and
# [8, 26.6], on the exp the gradient goldens were recorded on: glibc 2.36.
LIBM_EXP_CANARY = "84fd81958dd101c7104c3e8132db08a176b18383948cc992c74812ef504d93ed"


def test_libm_exp_canary():
    x = np.arange(1001, 26601) / 1000.0
    out = estimators_module._erf(np.concatenate([x, -x]))
    digest = hashlib.sha256(np.ascontiguousarray(out, dtype="<f8").tobytes()).hexdigest()
    assert digest == LIBM_EXP_CANARY, (
        "GELU's erf rounds differently here than on the glibc 2.36 exp the gradient goldens "
        "were recorded on: the C library's exp (math.exp) changed the bits, so the gradient "
        "golden digests will mismatch without any change to the code")


@pytest.mark.parametrize("primitive", sorted(KERNEL_CANARIES))
def test_blas_kernel_canary(primitive):
    out = _kernel_primitives()[primitive]
    digest = hashlib.sha256(np.ascontiguousarray(out, dtype="<f8").tobytes()).hexdigest()
    assert digest == KERNEL_CANARIES[primitive], (
        f"{primitive} rounds differently on this machine's BLAS/LAPACK kernel than on the "
        f"OpenBLAS SkylakeX kernel the goldens were recorded on (numpy.show_config() names "
        f"the library; OPENBLAS_CORETYPE selects a kernel): the golden digests will "
        f"mismatch without any change to the code")


# SHA-256 of GELU's derivative, whose pdf takes np.exp, on x in [-10, 10] at
# steps of 1/1000: on the numpy exp the gradient goldens were recorded on,
# numpy 2.4.6's AVX-512 loop. math.exp rounds some of these inputs differently.
NUMPY_EXP_CANARY = "9a2805c2bf380e62ceb87773d4fb22de16ce53f520f204a918239465f6217366"


def test_numpy_exp_canary():
    x = np.arange(-10000, 10001) / 1000.0
    out = estimators_module._gelu_grad(x, estimators_module._erf(x / math.sqrt(2.0)))
    digest = hashlib.sha256(np.ascontiguousarray(out, dtype="<f8").tobytes()).hexdigest()
    assert digest == NUMPY_EXP_CANARY, (
        "GELU's derivative rounds differently here than on the numpy 2.4.6 AVX-512 exp the "
        "gradient goldens were recorded on: numpy's exp (its build or the SIMD loop it picks "
        "for the CPU) changed the bits, so the gradient golden digests will mismatch "
        "without any change to the code")


def _rng_draws() -> dict:
    """The first draws of each ``Rng`` method on fixed seeds, as the engines,
    oracles and noise model call them."""
    return {
        "normal": Rng(17).normal((8, 8)),
        "uniform": Rng(18).uniform(64),
        "uniform-out": Rng(18).uniform(out=np.empty((8, 8))),
        "integers": Rng(19).integers(0, 1000, 64),
        "choice": Rng(20).choice(4, 64, np.array([0.1, 0.2, 0.3, 0.4])),
    }


# SHA-256 of each method's draws above on numpy 2.4.6, whose streams the goldens
# carry; NEP 19 does not promise them across numpy versions.
RNG_CANARIES = {
    "normal": "3ba37c9fe97d820ce93363b3ec4951509cf5129f74d32e63d4827d29dfec9d1d",
    "uniform": "a1fd66d313317855f73832027cd3310990ad979fd073ff160f7036c638864e5d",
    # out= fills the draws a fresh call of its size returns
    "uniform-out": "a1fd66d313317855f73832027cd3310990ad979fd073ff160f7036c638864e5d",
    "integers": "70ab0980832401285fc9b9e1045944c7778d7f3114a39d3083768725af7abcf1",
    "choice": "a382647c700186ec0909ab76df24dbb2e01f910cbf472c3ee5a762033bdfbff9",
}


@pytest.mark.parametrize("method", sorted(RNG_CANARIES))
def test_rng_stream_canary(method):
    out = _rng_draws()[method]
    digest = hashlib.sha256(np.ascontiguousarray(out, dtype="<f8").tobytes()).hexdigest()
    assert digest == RNG_CANARIES[method], (
        f"Rng.{method.split('-')[0]} draws differently here than on the numpy 2.4.6 "
        f"Generator the goldens were recorded on (NEP 19 does not fix a method's stream "
        f"across numpy versions): the golden digests will mismatch without any change "
        f"to the code")
