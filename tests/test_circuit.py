"""Tests for gates, execution, Mottonen preparation, lowering, SWAP test."""

import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qsnapshot.circuit import (
    BASIS_KINDS,
    Gate,
    QuantumCircuit,
    ancilla_expectation,
    apply_gate,
    build_swap_test,
    execute_statevector,
    lower_to_basis,
    mottonen_prepare,
)
from qsnapshot.core import Rng, StateVector, overlap_fidelity, random_pure_state
from qsnapshot.estimators import FidelityOracle

SQ2 = 1.0 / math.sqrt(2.0)


def run_from_zero(circuit):
    return execute_statevector(
        circuit, StateVector.computational_basis(circuit.n_qubits)
    )


@st.composite
def pure_states(draw, max_qubits=4):
    """Normalized states of 1..max_qubits qubits; amplitudes are often exactly
    zero, so that preparations leave rotations out."""
    n = draw(st.integers(1, max_qubits))
    entries = st.one_of(st.just(0.0), st.floats(-1.0, 1.0, allow_subnormal=False))
    parts = draw(hnp.arrays(np.float64, (2, 2**n), elements=entries))
    assume(parts.any())
    return StateVector.normalized(parts[0] + 1j * parts[1])


def unitary_of(circuit):
    """The circuit's matrix, one column per computational basis input."""
    n = circuit.n_qubits
    return np.stack([execute_statevector(circuit, StateVector.computational_basis(n, i))
                     .amplitudes for i in range(2**n)], axis=1)


class TestGate:
    def test_arity_checks(self):
        with pytest.raises(ValueError):
            Gate("CX", (0,))
        with pytest.raises(ValueError):
            Gate("H", (0, 1))
        with pytest.raises(ValueError):
            Gate("CSWAP", (0, 1))

    def test_distinct_qubits(self):
        with pytest.raises(ValueError):
            Gate("CX", (1, 1))

    def test_param_rules(self):
        with pytest.raises(ValueError):
            Gate("RZ", (0,))
        with pytest.raises(ValueError):
            Gate("X", (0,), 1.0)
        Gate("DELAY", (0,), 100.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("kind", ["RZ", "RY", "DELAY"])
    def test_non_finite_param_rejected(self, kind, value):
        with pytest.raises(ValueError, match="finite"):
            Gate(kind, (0,), value)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            Gate("CZ", (0, 1))
        with pytest.raises(ValueError, match="unknown gate kind 'RESET'"):
            QuantumCircuit(1).add("RESET", 0)


class TestQuantumCircuit:
    def test_gate_after_measure_rejected(self):
        circ = QuantumCircuit(1).add("MEASURE", 0)
        with pytest.raises(ValueError):
            circ.add("X", 0)

    def test_gates_must_be_gates(self):
        with pytest.raises(ValueError, match=re.escape("gates[1] must be a Gate, got 'H'")):
            QuantumCircuit(1, [Gate("X", (0,)), "H"])

    def test_constructor_rejects_gate_after_measure(self):
        # the constructor checks gates in order, as add does
        with pytest.raises(ValueError, match="follows MEASURE"):
            QuantumCircuit(1, [Gate("MEASURE", (0,)), Gate("X", (0,))])

    def test_qubit_bounds(self):
        with pytest.raises(ValueError):
            QuantumCircuit(1).add("X", 3)

    def test_dump_format(self):
        circ = QuantumCircuit(2).add("H", 0).add("RZ", 1, param=0.5).add("CX", 0, 1)
        assert circ.dump() == "H q0\nRZ q1 (theta=0.5)\nCX q0,q1"


class TestExecution:
    def test_empty_circuit_identity(self):
        s = random_pure_state(2, Rng(0))
        out = execute_statevector(QuantumCircuit(2), s)
        assert np.allclose(out.amplitudes, s.amplitudes)

    def test_hadamard(self):
        out = run_from_zero(QuantumCircuit(1).add("H", 0))
        assert np.allclose(out.amplitudes, [SQ2, SQ2], atol=1e-12)

    def test_x_involution(self):
        s = random_pure_state(1, Rng(1))
        out = execute_statevector(QuantumCircuit(1).add("X", 0).add("X", 0), s)
        assert np.allclose(out.amplitudes, s.amplitudes, atol=1e-12)

    def test_cx_action(self):
        # control q0, target q1: |01> (index 1) -> |11> (index 3)
        circ = QuantumCircuit(2).add("X", 0).add("CX", 0, 1)
        out = run_from_zero(circ)
        assert abs(out.amplitudes[3]) == pytest.approx(1.0, abs=1e-12)

    def test_norm_preserved(self):
        rng = Rng(2)
        s = random_pure_state(3, rng)
        circ = QuantumCircuit(3)
        for _ in range(20):
            q = int(rng.integers(0, 3))
            circ.add("RY", q, param=float(rng.uniform()) * 6)
        out = execute_statevector(circ, s)
        assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-12

    def test_measure_rejected(self):
        circ = QuantumCircuit(1).add("MEASURE", 0)
        with pytest.raises(ValueError):
            execute_statevector(circ, StateVector.computational_basis(1))

    @pytest.mark.parametrize("run,message", [
        (lambda: apply_gate(np.array([1.0, 0.0]), Gate("MEASURE", (0,)), 1),
         "cannot apply gate kind 'MEASURE'"),
        (lambda: execute_statevector(QuantumCircuit(2), StateVector.computational_basis(1)),
         "initial state has 1 qubits, circuit 2"),
        (lambda: ancilla_expectation(QuantumCircuit(2).add("MEASURE", 1)),
         re.escape("circuit must measure exactly qubit 0, measures (1,)")),
    ], ids=["apply-measure", "width-mismatch", "ancilla-not-qubit-0"])
    def test_rejects_what_cannot_run(self, run, message):
        with pytest.raises(ValueError, match=message):
            run()


class TestMottonen:
    def test_basis_target(self):
        target = StateVector.computational_basis(2)
        out = run_from_zero(mottonen_prepare(target))
        assert overlap_fidelity(out, target) == pytest.approx(1.0, abs=1e-12)

    def test_plus_target(self):
        target = StateVector.from_amplitudes([SQ2, SQ2])
        circ = mottonen_prepare(target)
        out = run_from_zero(circ)
        assert overlap_fidelity(out, target) >= 1 - 1e-9

    def test_only_ry_rz_cx(self):
        circ = mottonen_prepare(random_pure_state(3, Rng(3)))
        assert {g.kind for g in circ.gates} <= {"RY", "RZ", "CX"}

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_roundtrip_random(self, n):
        rng = Rng(100 + n)
        for _ in range(100):
            target = random_pure_state(n, rng)
            out = run_from_zero(mottonen_prepare(target))
            assert overlap_fidelity(out, target) >= 1 - 1e-9

    @settings(max_examples=150, deadline=None)
    @given(target=pure_states())
    @example(target=StateVector.computational_basis(3, 6))
    @example(target=StateVector.normalized([1e-9 + 1e-9j, 1 + 1e-9j]))
    def test_roundtrip_property(self, target):
        out = run_from_zero(mottonen_prepare(target))
        assert overlap_fidelity(out, target) >= 1 - 1e-12
        # amplitude by amplitude up to one global phase, which a small
        # amplitude's error (second order in the overlap) cannot pass
        peak = np.argmax(np.abs(target.amplitudes))
        phase = out.amplitudes[peak] / target.amplitudes[peak]
        assert np.max(np.abs(out.amplitudes - phase * target.amplitudes)) <= 1e-12


class TestLowering:
    def test_fixpoint(self):
        circ = QuantumCircuit(2).add("X", 0).add("CX", 0, 1).add("RZ", 1, param=0.3)
        lowered = lower_to_basis(circ)
        assert [g.kind for g in lowered.gates] == [g.kind for g in circ.gates]

    def test_basis_only_output(self):
        circ = QuantumCircuit(3).add("H", 0).add("RY", 1, param=0.7).add("CSWAP", 0, 1, 2)
        lowered = lower_to_basis(circ)
        assert all(g.kind in BASIS_KINDS for g in lowered.gates)

    def test_h_action(self):
        circ = lower_to_basis(QuantumCircuit(1).add("H", 0))
        assert len(circ.gates) == 3
        s = random_pure_state(1, Rng(4))
        ideal = execute_statevector(QuantumCircuit(1).add("H", 0), s)
        got = execute_statevector(circ, s)
        assert overlap_fidelity(ideal, got) >= 1 - 1e-9

    def test_cswap_fredkin_action(self):
        # |1>|psi>|phi> -> |1>|phi>|psi>; reference is the direct 8x8 Fredkin
        rng = Rng(5)
        psi = random_pure_state(1, rng).amplitudes
        phi = random_pure_state(1, rng).amplitudes
        # q0 control = 1, q1 holds psi, q2 holds phi
        amps = np.zeros(8, dtype=np.complex128)
        for b1 in range(2):
            for b2 in range(2):
                amps[1 + 2 * b1 + 4 * b2] = psi[b1] * phi[b2]
        initial = StateVector(3, amps)
        fredkin = np.eye(8, dtype=np.complex128)
        for idx in range(8):
            if idx & 1:
                b1, b2 = (idx >> 1) & 1, (idx >> 2) & 1
                swapped = 1 + 2 * b2 + 4 * b1
                fredkin[:, idx] = 0
                fredkin[swapped, idx] = 1
        expected = StateVector(3, fredkin @ amps)
        lowered = lower_to_basis(QuantumCircuit(3).add("CSWAP", 0, 1, 2))
        got = execute_statevector(lowered, initial)
        assert overlap_fidelity(expected, got) >= 1 - 1e-9

    def test_lowering_soundness_random_circuits(self):
        rng = Rng(6)
        for _ in range(50):
            n = int(rng.integers(1, 4))
            circ = QuantumCircuit(n)
            for _ in range(6):
                kind = ["H", "RY", "RZ", "X"][int(rng.integers(0, 4))]
                q = int(rng.integers(0, n))
                param = float(rng.uniform()) * 6 if kind in ("RY", "RZ") else None
                circ.add(kind, q, param=param)
            lowered = lower_to_basis(circ)
            for _ in range(20):
                s = random_pure_state(n, rng)
                f = overlap_fidelity(
                    execute_statevector(circ, s), execute_statevector(lowered, s)
                )
                assert f >= 1 - 1e-9

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), n=st.integers(3, 4))
    def test_lowering_equals_circuit_up_to_global_phase(self, data, n):
        circ = QuantumCircuit(n)
        for _ in range(data.draw(st.integers(1, 8))):
            kind = data.draw(st.sampled_from(["H", "RY", "CSWAP"]))
            qubits = data.draw(st.permutations(range(n)))[:3 if kind == "CSWAP" else 1]
            param = data.draw(st.floats(-10.0, 10.0)) if kind == "RY" else None
            circ.add(kind, *qubits, param=param)
        want, got = unitary_of(circ), unitary_of(lower_to_basis(circ))
        # one phase for every column: relative phases between inputs are not free
        peak = np.unravel_index(np.argmax(np.abs(want)), want.shape)
        phase = got[peak] / want[peak]
        assert abs(abs(phase) - 1.0) <= 1e-12
        assert np.max(np.abs(got - phase * want)) <= 1e-12


class TestSwapTest:
    def test_identical_zero_inputs(self):
        test = build_swap_test(QuantumCircuit(1), QuantumCircuit(1))
        assert ancilla_expectation(test) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_inputs(self):
        test = build_swap_test(QuantumCircuit(1), QuantumCircuit(1).add("X", 0))
        assert ancilla_expectation(test) == pytest.approx(0.0, abs=1e-12)

    def test_zero_vs_plus(self):
        test = build_swap_test(QuantumCircuit(1), QuantumCircuit(1).add("H", 0))
        assert ancilla_expectation(test) == pytest.approx(0.5, abs=1e-12)

    def test_width_mismatch(self):
        with pytest.raises(ValueError, match="preparation widths differ: 1 and 2"):
            build_swap_test(QuantumCircuit(1), QuantumCircuit(2))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_swap_identity_random_pairs(self, n):
        # load-bearing theorem: <Z> == |<a|b>|^2
        rng = Rng(200 + n)
        for _ in range(20):
            a = random_pure_state(n, rng)
            b = random_pure_state(n, rng)
            test = build_swap_test(mottonen_prepare(a), mottonen_prepare(b))
            assert ancilla_expectation(test) == pytest.approx(
                overlap_fidelity(a, b), abs=1e-9
            )

    def test_swap_identity_survives_lowering(self):
        rng = Rng(300)
        a = random_pure_state(2, rng)
        b = random_pure_state(2, rng)
        test = lower_to_basis(build_swap_test(mottonen_prepare(a), mottonen_prepare(b)))
        assert ancilla_expectation(test) == pytest.approx(
            overlap_fidelity(a, b), abs=1e-9
        )


class TestSampleShots:
    """Shots of the SWAP test, drawn by the shot oracle: an estimate of the
    ancilla <Z> = 2 P(0) - 1 with P(0) = (1 + F) / 2."""

    ZERO, ONE = StateVector.computational_basis(1), StateVector.computational_basis(1, 1)

    @staticmethod
    def estimate(candidate, shots, seed):
        return FidelityOracle(QuantumCircuit(1), shots=shots, rng=Rng(seed)).evaluate(candidate)

    def test_deterministic_circuit(self):
        # identical states: the ancilla reads 0 on every shot
        assert self.estimate(self.ZERO, 100, 0) == 1.0

    def test_fixed_seed_reproducible(self):
        plus = StateVector.normalized([1.0, 1.0])
        assert self.estimate(plus, 500, 9) == self.estimate(plus, 500, 9)

    def test_orthogonal_swap_test_band(self):
        p0 = (self.estimate(self.ONE, 10**5, 10) + 1.0) / 2.0
        assert 0.494 <= p0 <= 0.506

    def test_shot_convergence_band(self):
        # |P^(0) - P(0)| <= 3 sigma for >= 99% of seeded trials; P(0) = 1/2
        shots = 400
        sigma = math.sqrt(0.25 / shots)
        hits = sum(
            abs((self.estimate(self.ONE, shots, 5000 + t) + 1.0) / 2.0 - 0.5) <= 3 * sigma
            for t in range(1000)
        )
        assert hits >= 990
