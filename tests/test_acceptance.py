"""Acceptance suite: ten gating criteria, one printed pass/fail line each.

Each test prints `ACCEPTANCE <k> <name>: PASS|FAIL` before asserting, so the
full gate status is visible in one screen of pytest -s output.
"""

import math

import numpy as np
import pytest

from qsnapshot.circuit import (
    QuantumCircuit,
    ancilla_expectation,
    build_swap_test,
    execute_statevector,
    mottonen_prepare,
)
from qsnapshot.core import (
    Rng,
    StateVector,
    overlap_fidelity,
    partial_trace,
    random_pure_state,
    von_neumann_entropy,
)
from qsnapshot.estimators import (
    EsConfig,
    FidelityOracle,
    GradientConfig,
    train_gradient,
    train_qeswap,
)
from qsnapshot.harness import ExperimentSpec, run_cohort, run_mixed_state_diagnostic, run_standard_states
from qsnapshot.noise import NoiseParams
from qsnapshot.store import SnapshotIntegrityError, SnapshotRecord, deposit, withdraw

SQ2 = 1.0 / math.sqrt(2.0)


def report(index, name, ok):
    print(f"\nACCEPTANCE {index} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {index} ({name}) failed"


def test_acceptance_01_swap_test_correctness():
    rng = Rng(101)
    worst = 0.0
    for trial in range(200):
        n = 1 + trial % 3
        a = random_pure_state(n, rng)
        b = random_pure_state(n, rng)
        test = build_swap_test(mottonen_prepare(a), mottonen_prepare(b))
        err = abs(ancilla_expectation(test) - overlap_fidelity(a, b))
        worst = max(worst, err)
    report(1, "SWAP-test correctness", worst <= 1e-9)


def test_acceptance_02_mottonen_preparation():
    worst = 1.0
    for n in (1, 2, 3, 4):
        rng = Rng(200 + n)
        for _ in range(100):
            target = random_pure_state(n, rng)
            prepared = execute_statevector(
                mottonen_prepare(target), StateVector.computational_basis(n)
            )
            worst = min(worst, overlap_fidelity(prepared, target))
    report(2, "Mottonen preparation", worst >= 1 - 1e-9)


def test_acceptance_03_noiseless_qeswap_convergence():
    bounds = {1: 15, 2: 21, 3: 39}
    ok = True
    for n, bound in bounds.items():
        spec = ExperimentSpec(method="qeswap", n_qubits=n, n_trials=20,
                              seed=300 + n, stop_threshold=0.99)
        summary = run_cohort(spec)
        reached = [t.epochs_to_threshold[0.99] for t in summary.trials
                   if t.epochs_to_threshold[0.99] is not None]
        rate = len(reached) / len(summary.trials)
        mean_iters = np.mean(reached) if reached else math.inf
        ok = ok and rate >= 0.9 and mean_iters <= bound
    report(3, "noiseless QESwap convergence", ok)


def test_acceptance_04_noiseless_gradient_convergence():
    hits = 0
    for trial in range(10):
        rng = Rng(400 + trial)
        target = random_pure_state(1, rng)
        oracle = FidelityOracle(mottonen_prepare(target))
        result = train_gradient(
            oracle, GradientConfig(epochs=200, seed=1400 + trial,
                                   stop_threshold=0.999)
        )
        if result.best_fidelity >= 0.999:
            hits += 1
    report(4, "noiseless gradient convergence", hits >= 8)


def test_acceptance_05_noisy_qeswap():
    spec = ExperimentSpec(method="qeswap", n_qubits=1, n_trials=10,
                          noise=NoiseParams(), trajectories=2000,
                          max_epochs=50, seed=500)
    summary = run_cohort(spec)
    hits = sum(1 for t in summary.trials
               if t.error is None and t.epochs_to_threshold[0.99] is not None)
    report(5, "noisy QESwap", hits >= 8)


def test_acceptance_06_standard_state_benchmark():
    # epoch budgets are 3x the reference figures per state family
    budgets = {1: 12, 2: 21, 3: 39}
    ok = True
    for n, budget in budgets.items():
        spec = ExperimentSpec(method="qeswap", n_qubits=n, seed=600 + n,
                              stop_threshold=0.99, max_epochs=100)
        for row in run_standard_states(spec):
            good = (row["error"] is None and row["best_fidelity"] is not None
                    and row["best_fidelity"] >= 0.99
                    and row["epochs_to_099"] is not None
                    and row["epochs_to_099"] <= budget)
            ok = ok and good
    report(6, "standard-state benchmark", ok)


def test_acceptance_07_entropy_matching():
    bell = StateVector.from_amplitudes([SQ2, 0, 0, SQ2])
    anchor = von_neumann_entropy(partial_trace(bell, {0}))
    ok = abs(anchor - 1.0) <= 1e-9
    spec = ExperimentSpec(method="qeswap", n_qubits=2, n_trials=10,
                          seed=700, stop_threshold=0.99)
    summary = run_cohort(spec)
    for t in summary.trials:
        if t.error is None and t.validation_fidelity >= 0.99:
            ok = ok and abs(t.entropy_target - t.entropy_recon) <= 0.05
    report(7, "entropy matching", ok)


def test_acceptance_08_mixed_state_limitation():
    result = run_mixed_state_diagnostic(n_qubits=2, n_targets=10, seed=800,
                                        max_iter=300)
    s = result["summary"]
    ok = s["hs_driven_uhlmann_leq_095"] > 5 and s["uhlmann_driven_geq_099"] == 10
    report(8, "mixed-state limitation", ok)


def test_acceptance_09_snapshot_store_roundtrip(tmp_path):
    rng = Rng(900)
    ok = True
    for i in range(50):
        n = 1 + i % 3
        record = SnapshotRecord.from_state(random_pure_state(n, rng))
        ident = deposit(record, tmp_path)
        stored = (tmp_path / f"{ident}.qsnap").read_bytes()
        ok = ok and stored == record.body_bytes()
        state, circuit = withdraw(ident, tmp_path)
        prepared = execute_statevector(circuit, StateVector.computational_basis(n))
        ok = ok and overlap_fidelity(prepared, state) >= 1 - 1e-9
    # integrity: one mutated byte must be rejected
    body_file = tmp_path / f"{ident}.qsnap"
    corrupted = bytearray(body_file.read_bytes())
    corrupted[15] ^= 0x01
    body_file.write_bytes(bytes(corrupted))
    try:
        withdraw(ident, tmp_path)
        ok = False
    except SnapshotIntegrityError:
        pass
    report(9, "snapshot store round-trip", ok)


def test_acceptance_10_oracle_accounting():
    ok = True
    # gradient: epochs * (1 + 4d) on a full-budget (threshold-unreachable) run
    for n in (1, 2):
        oracle = FidelityOracle(mottonen_prepare(random_pure_state(n, Rng(1000 + n))))
        result = train_gradient(
            oracle, GradientConfig(epochs=3, seed=0, stop_threshold=2.0)
        )
        expected = 3 * (1 + 4 * 2**n)
        ok = ok and result.oracle_evals == expected == oracle.evaluations
    # qeswap: iterations * N, exact in every stopping mode
    oracle = FidelityOracle(mottonen_prepare(random_pure_state(1, Rng(1010))))
    result = train_qeswap(
        oracle, EsConfig(population=50, max_iter=6, seed=0, stop_threshold=0.99)
    )
    ok = ok and result.oracle_evals == result.epochs * 50 == oracle.evaluations
    report(10, "oracle accounting", ok)
