"""Tests for states, density matrices, fidelities, partial trace, entropy."""

import math
import re

import numpy as np
import pytest

from qsnapshot.core import (
    DensityMatrix,
    Rng,
    StateVector,
    UnitaryMatrix,
    check_unit_norm,
    half_chain_entropy,
    half_chain_keep,
    hilbert_schmidt_overlap,
    overlap_fidelity,
    partial_trace,
    random_pure_state,
    uhlmann_fidelity,
    von_neumann_entropy,
)

SQ2 = 1.0 / math.sqrt(2.0)


def _maximally_mixed(n: int) -> DensityMatrix:
    d = 2**n
    return DensityMatrix(n, np.eye(d) / d)


def bell_state():
    return StateVector.from_amplitudes([SQ2, 0, 0, SQ2])


class TestRng:
    def test_determinism(self):
        a = Rng(42).normal(10)
        b = Rng(42).normal(10)
        assert np.array_equal(a, b)

    def test_child_streams_independent_and_deterministic(self):
        root = Rng(7)
        c1 = root.child(0).normal(5)
        c2 = root.child(1).normal(5)
        assert not np.array_equal(c1, c2)
        assert np.array_equal(Rng(7).child(0).normal(5), c1)

    def test_seed_range(self):
        with pytest.raises(ValueError):
            Rng(-1)
        with pytest.raises(ValueError):
            Rng(2**64)


class TestStateVector:
    def test_norm_enforced(self):
        with pytest.raises(ValueError):
            StateVector(1, np.array([1.0, 1.0]))

    def test_dimension_enforced(self):
        with pytest.raises(ValueError):
            StateVector(2, np.array([1.0, 0.0]))

    def test_shape_messages(self):
        with pytest.raises(ValueError, match=re.escape("expected 4 amplitudes, got shape (2,)")):
            StateVector(2, np.array([1.0, 0.0]))
        for cls in (DensityMatrix, UnitaryMatrix):
            with pytest.raises(ValueError, match=re.escape("expected shape (4, 4), got (2, 2)")):
                cls(2, np.eye(2))

    def test_norm_check_reports_the_1d_norm(self):
        # the 1-D and the stacked (axis=-1) norm of this vector differ in the last bit
        rng = Rng(2)
        v = rng.normal(2) + 1j * rng.normal(2)
        v = v / np.linalg.norm(v) * (1 + 1e-6)
        message = re.escape(f"state vector norm {np.linalg.norm(v)} deviates")
        with pytest.raises(ValueError, match=message):
            StateVector(1, v)
        with pytest.raises(ValueError, match=message):
            check_unit_norm(np.stack([v / np.linalg.norm(v), v]))

    def test_zero_qubits_rejected(self):
        with pytest.raises(ValueError):
            StateVector(0, np.array([1.0]))

    def test_normalized_constructor(self):
        s = StateVector.normalized([3.0, 4.0])
        assert np.allclose(s.amplitudes, [0.6, 0.8])

    def test_normalized_rejects_zero(self):
        with pytest.raises(ValueError):
            StateVector.normalized([0.0, 0.0])

    @pytest.mark.parametrize("scale", [1e-161, 1e-200, 5e-324])
    def test_normalized_tiny_scale(self, scale):
        # squared entries this small underflow; the norm must not
        s = StateVector.normalized([scale, scale])
        assert np.allclose(s.amplitudes, [SQ2, SQ2], atol=0, rtol=1e-15)

    def test_immutability(self):
        s = StateVector.computational_basis(1)
        with pytest.raises(ValueError):
            s.amplitudes[0] = 0.0


class TestRandomPureState:
    def test_unit_norm(self):
        s = random_pure_state(1, Rng(0))
        assert abs(np.linalg.norm(s.amplitudes) - 1.0) < 1e-12

    def test_deterministic(self):
        a = random_pure_state(3, Rng(7))
        b = random_pure_state(3, Rng(7))
        assert np.array_equal(a.amplitudes, b.amplitudes)

    def test_invalid_qubits(self):
        with pytest.raises(ValueError):
            random_pure_state(0, Rng(0))

    def test_mean_population_uniform(self):
        # Haar expectation: E|a_0|^2 = 1/4 for n=2
        rng = Rng(123)
        mean = np.mean(
            [abs(random_pure_state(2, rng).amplitudes[0]) ** 2 for _ in range(10000)]
        )
        assert abs(mean - 0.25) < 0.01


class TestOverlapFidelity:
    def test_self(self):
        s = random_pure_state(2, Rng(1))
        assert overlap_fidelity(s, s) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        zero = StateVector.computational_basis(1, 0)
        one = StateVector.computational_basis(1, 1)
        assert overlap_fidelity(zero, one) == 0.0

    def test_plus_vs_zero(self):
        zero = StateVector.computational_basis(1, 0)
        plus = StateVector.from_amplitudes([SQ2, SQ2])
        assert overlap_fidelity(zero, plus) == pytest.approx(0.5, abs=1e-12)

    def test_global_phase_invariance(self):
        s = random_pure_state(2, Rng(2))
        t = random_pure_state(2, Rng(3))
        rotated = StateVector(2, np.exp(1.234j) * s.amplitudes)
        assert overlap_fidelity(s, t) == overlap_fidelity(rotated, t)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            overlap_fidelity(
                StateVector.computational_basis(1),
                StateVector.computational_basis(2),
            )


class TestDensityMatrix:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            DensityMatrix(1, np.array([[1.0, 1.0], [0.0, 0.0]]))  # not Hermitian
        with pytest.raises(ValueError):
            DensityMatrix(1, np.eye(2))  # trace 2
        with pytest.raises(ValueError):
            DensityMatrix(1, np.diag([1.5, -0.5]))  # not PSD

    def test_hilbert_schmidt_examples(self):
        zero = DensityMatrix.from_state(StateVector.computational_basis(1))
        plus = DensityMatrix.from_state(StateVector.from_amplitudes([SQ2, SQ2]))
        mixed = _maximally_mixed(1)
        assert hilbert_schmidt_overlap(zero, zero) == pytest.approx(1.0, abs=1e-12)
        assert hilbert_schmidt_overlap(mixed, mixed) == pytest.approx(0.5, abs=1e-12)
        assert hilbert_schmidt_overlap(zero, plus) == pytest.approx(0.5, abs=1e-12)


class TestUhlmannFidelity:
    def test_identical(self):
        rho = DensityMatrix.from_state(random_pure_state(2, Rng(4)))
        assert uhlmann_fidelity(rho, rho) == pytest.approx(1.0, abs=1e-8)

    def test_pure_vs_mixed(self):
        zero = DensityMatrix.from_state(StateVector.computational_basis(1))
        assert uhlmann_fidelity(zero, _maximally_mixed(1)) == pytest.approx(
            0.5, abs=1e-9
        )

    def test_symmetry(self):
        rng = Rng(5)
        a = DensityMatrix.from_state(random_pure_state(2, rng))
        b = _maximally_mixed(2)
        assert uhlmann_fidelity(a, b) == pytest.approx(uhlmann_fidelity(b, a), abs=1e-8)

    def test_pure_state_consistency(self):
        # Tr(rho sigma) and Uhlmann both reduce to |<a|b>|^2 on pure pairs
        rng = Rng(6)
        for _ in range(200):
            n = int(rng.integers(1, 4))
            a = random_pure_state(n, rng)
            b = random_pure_state(n, rng)
            f = overlap_fidelity(a, b)
            ra, rb = DensityMatrix.from_state(a), DensityMatrix.from_state(b)
            assert hilbert_schmidt_overlap(ra, rb) == pytest.approx(f, abs=1e-9)
            assert uhlmann_fidelity(ra, rb) == pytest.approx(f, abs=1e-7)


@pytest.mark.parametrize("cls,entries", [
    (StateVector, [np.nan, 0.0]),
    (DensityMatrix, [[np.nan, 0.0], [0.0, 1.0]]),
    (UnitaryMatrix, [[np.nan, 0.0], [0.0, 1.0]]),
])
def test_non_finite_entries_rejected(cls, entries):
    with pytest.raises(ValueError, match="non-finite"):
        cls(1, np.array(entries))


class TestUnitaryMatrix:
    def test_unitarity_enforced(self):
        with pytest.raises(ValueError):
            UnitaryMatrix(1, np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_apply_to_zero(self):
        h = SQ2 * np.array([[1, 1], [1, -1]], dtype=np.complex128)
        # the state the unitary prepares from |0>
        assert np.allclose(UnitaryMatrix(1, h).entries[:, 0], [SQ2, SQ2])


class TestPartialTrace:
    def test_product_state_factorizes(self):
        # |psi> = |+>_{q1} (x) |0>_{q0}; index q0 is the LSB
        amps = np.array([SQ2, 0, SQ2, 0])
        rho = partial_trace(StateVector.from_amplitudes(amps), {1})
        plus = DensityMatrix.from_state(StateVector.from_amplitudes([SQ2, SQ2]))
        assert np.allclose(rho.entries, plus.entries, atol=1e-12)

    def test_bell_reduction_maximally_mixed(self):
        rho = partial_trace(bell_state(), {0})
        assert np.allclose(rho.entries, np.eye(2) / 2, atol=1e-12)

    def test_random_state_valid_density(self):
        rho = partial_trace(random_pure_state(3, Rng(8)), {0, 1})
        assert abs(np.trace(rho.entries).real - 1.0) < 1e-10

    def test_oracle_dense_traceout(self):
        # independent reference: build |psi><psi| and sum out the traced index
        state = random_pure_state(3, Rng(9))
        psi = state.amplitudes
        full = np.outer(psi, psi.conj())
        # keep qubits {0,1}: basis index = b2*4 + local, local over qubits (1,0)
        ref = np.zeros((4, 4), dtype=np.complex128)
        for b2 in range(2):
            block = full[b2 * 4 : (b2 + 1) * 4, b2 * 4 : (b2 + 1) * 4]
            ref += block
        rho = partial_trace(state, {0, 1})
        assert np.allclose(rho.entries, ref, atol=1e-12)

    def test_invalid_keep_sets(self):
        s = random_pure_state(2, Rng(10))
        with pytest.raises(ValueError):
            partial_trace(s, set())
        with pytest.raises(ValueError):
            partial_trace(s, {0, 1})
        with pytest.raises(ValueError):
            partial_trace(s, {5})


class TestEntropy:
    def test_pure_state_zero(self):
        rho = DensityMatrix.from_state(random_pure_state(2, Rng(11)))
        assert von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-9)

    def test_maximally_mixed_one_bit(self):
        assert von_neumann_entropy(_maximally_mixed(1)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_bell_reduction_exactly_one(self):
        assert von_neumann_entropy(partial_trace(bell_state(), {0})) == pytest.approx(
            1.0, abs=1e-9
        )

    def test_entropy_bounds(self):
        rng = Rng(12)
        for _ in range(20):
            s = random_pure_state(3, rng)
            ent = half_chain_entropy(s)
            assert 0.0 <= ent <= len(half_chain_keep(3))

    def test_schmidt_symmetry(self):
        # pure bipartite states: both halves have equal entropy
        rng = Rng(13)
        for _ in range(10):
            s = random_pure_state(4, rng)
            s_a = von_neumann_entropy(partial_trace(s, {0, 1}))
            s_b = von_neumann_entropy(partial_trace(s, {2, 3}))
            assert s_a == pytest.approx(s_b, abs=1e-9)

    def test_half_chain_keeps_larger_half(self):
        assert half_chain_keep(3) == (0, 1)
        assert half_chain_keep(4) == (0, 1)
        with pytest.raises(ValueError):
            half_chain_keep(1)
