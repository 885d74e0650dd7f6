"""Tests for states, density matrices, fidelities, partial trace, entropy."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsnapshot.core import (
    DensityMatrix,
    Rng,
    StateVector,
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


def _pure_density(state: StateVector) -> DensityMatrix:
    """|psi><psi| of a state vector."""
    psi = state.amplitudes
    return DensityMatrix(state.n_qubits, np.outer(psi, psi.conj()))


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
        for seed in (1.5, 1.0, np.float64(2.0), True):  # never truncated to an integer
            with pytest.raises(ValueError, match=f"64-bit unsigned integer, got {seed}$"):
                Rng(seed)
        assert Rng(np.uint64(2**64 - 1)).seed == 2**64 - 1

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), before=st.integers(0, 9), k=st.integers(0, 40),
           m=st.integers(1, 9), calls=st.sampled_from(["uniform", "normal"]))
    def test_ahead_is_k_draws_later(self, seed, before, k, m, calls):
        # any earlier draws leave a partly spent Philox block; normals draw a
        # variable number of uniforms, so the generator may stand anywhere
        r = Rng(seed)
        getattr(r, calls)(before)
        ahead, skipped = r.ahead(k), Rng(seed)
        getattr(skipped, calls)(before)
        skipped.skip(k)
        later = r.uniform(k + m)[k:].tobytes()
        assert ahead.uniform(m).tobytes() == later
        assert skipped.uniform(m).tobytes() == later

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), before=st.integers(0, 9), size=st.integers(0, 40))
    def test_uniform_into_a_buffer_is_a_fresh_call(self, seed, before, size):
        # same bytes as a fresh call of the buffer's size, and the generator
        # ends where that call leaves it
        filled, fresh = Rng(seed), Rng(seed)
        filled.uniform(before)
        fresh.uniform(before)
        buffer = np.full(size, np.nan)
        assert filled.uniform(out=buffer) is buffer
        assert buffer.tobytes() == fresh.uniform(size).tobytes()
        assert filled.uniform(5).tobytes() == fresh.uniform(5).tobytes()

    def test_ahead_crosses_a_counter_word(self):
        r = Rng(3)
        state = r._gen.bit_generator.state
        state["state"]["counter"] = np.array([2**64 - 2, 0, 0, 0], dtype=np.uint64)
        r._gen.bit_generator.state = state
        assert r.ahead(13).uniform(6).tobytes() == r.uniform(19)[13:].tobytes()


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
        with pytest.raises(ValueError, match=re.escape("expected shape (4, 4), got (2, 2)")):
            DensityMatrix(2, np.eye(2))

    def test_norm_check_reports_the_1d_norm(self):
        # the 1-D and the stacked (axis=-1) norm of this vector differ in the last bit
        rng = Rng(2)
        v = rng.normal(2) + 1j * rng.normal(2)
        v = v / np.linalg.norm(v) * (1 + 1e-6)
        message = re.escape(f"state vector norm {np.linalg.norm(v)} deviates")
        with pytest.raises(ValueError, match=message):
            StateVector(1, v)

    def test_zero_qubits_rejected(self):
        with pytest.raises(ValueError):
            StateVector(0, np.array([1.0]))

    @pytest.mark.parametrize("make", [
        lambda: StateVector.from_amplitudes(["1", "0"]),
        lambda: StateVector.normalized(["3", "4"]),
        lambda: StateVector(1, ["1", "0"]),
        lambda: StateVector(1, [None, 1.0]),
    ], ids=["from_amplitudes", "normalized", "constructor", "object"])
    def test_amplitudes_that_are_not_numbers_rejected(self, make):
        # numpy would parse the strings into numbers
        with pytest.raises(ValueError, match="^amplitudes must be numbers, got dtype"):
            make()

    @pytest.mark.parametrize("index,message", [
        (2, "index must be < 2^1, got 2"), (5, "index must be < 2^1, got 5"),
        (-1, "index must be >= 0, got -1")])
    def test_basis_index_outside_the_register_rejected(self, index, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            StateVector.computational_basis(1, index)

    def test_width_is_read_from_a_power_of_two_size(self):
        accepted = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for size in range(4097):
                amps = np.zeros(size)
                amps[:1] = 1.0  # a basis vector, or nothing at size 0
                try:
                    accepted.append((size, StateVector.from_amplitudes(amps).n_qubits))
                except ValueError as exc:
                    message = ("n_qubits must be >= 1" if size == 1
                               else f"amplitude count {size} is not a power of two")
                    assert message in str(exc)
        assert accepted == [(2**n, n) for n in range(1, 13)]

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
        zero = _pure_density(StateVector.computational_basis(1))
        plus = _pure_density(StateVector.from_amplitudes([SQ2, SQ2]))
        mixed = _maximally_mixed(1)
        assert hilbert_schmidt_overlap(zero, zero) == pytest.approx(1.0, abs=1e-12)
        assert hilbert_schmidt_overlap(mixed, mixed) == pytest.approx(0.5, abs=1e-12)
        assert hilbert_schmidt_overlap(zero, plus) == pytest.approx(0.5, abs=1e-12)


class TestUhlmannFidelity:
    def test_identical(self):
        rho = _pure_density(random_pure_state(2, Rng(4)))
        assert uhlmann_fidelity(rho, rho) == pytest.approx(1.0, abs=1e-8)

    def test_pure_vs_mixed(self):
        zero = _pure_density(StateVector.computational_basis(1))
        assert uhlmann_fidelity(zero, _maximally_mixed(1)) == pytest.approx(
            0.5, abs=1e-9
        )

    def test_symmetry(self):
        rng = Rng(5)
        a = _pure_density(random_pure_state(2, rng))
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
            ra, rb = _pure_density(a), _pure_density(b)
            assert hilbert_schmidt_overlap(ra, rb) == pytest.approx(f, abs=1e-9)
            assert uhlmann_fidelity(ra, rb) == pytest.approx(f, abs=1e-7)


@pytest.mark.parametrize("cls,entries", [
    (StateVector, [np.nan, 0.0]),
    (DensityMatrix, [[np.nan, 0.0], [0.0, 1.0]]),
])
def test_non_finite_entries_rejected(cls, entries):
    with pytest.raises(ValueError, match="non-finite"):
        cls(1, np.array(entries))


@pytest.mark.parametrize("measure", [hilbert_schmidt_overlap, uhlmann_fidelity])
def test_density_measures_reject_a_width_mismatch(measure):
    with pytest.raises(ValueError, match="qubit count mismatch: 1 vs 2"):
        measure(_maximally_mixed(1), _maximally_mixed(2))


class TestPartialTrace:
    def test_product_state_factorizes(self):
        # |psi> = |+>_{q1} (x) |0>_{q0}; index q0 is the LSB
        amps = np.array([SQ2, 0, SQ2, 0])
        rho = partial_trace(StateVector.from_amplitudes(amps), {1})
        plus = _pure_density(StateVector.from_amplitudes([SQ2, SQ2]))
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
        with pytest.raises(ValueError, match=re.escape(
                "keep [0, 0] must be a nonempty strict subset of range(2) without repeats")):
            partial_trace(s, (0, 0))
        with pytest.raises(ValueError, match="keep must be >= 0, got -1"):
            partial_trace(s, (-1,))


class TestEntropy:
    def test_pure_state_zero(self):
        rho = _pure_density(random_pure_state(2, Rng(11)))
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
