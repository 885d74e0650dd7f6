"""The paper's headline claims, checked at the paper's scale.

The abstract reports "an average fidelity of 0.999 over 100 random quantum
states". QESwap with the analytic oracle reconstructs 100 Haar-random targets
per width; the mean final validation fidelity must reach 0.999 and at least
95 of the 100 trials must reach 0.999 at some epoch.
"""

import pytest

from qsnapshot.harness import ExperimentSpec, run_cohort


@pytest.mark.parametrize("n_qubits", [1, 2])
def test_mean_fidelity_over_100_random_states(n_qubits):
    summary = run_cohort(ExperimentSpec(method="qeswap", n_qubits=n_qubits, n_trials=100,
                                        seed=2025, thresholds=(0.999,)))
    assert [t.error for t in summary.trials] == [None] * 100
    print(f"n={n_qubits}: mean {summary.mean_fidelity:.6f}, min {summary.min_fidelity:.6f}, "
          f"pass rate {summary.pass_rate[0.999]:.2f}")
    assert summary.mean_fidelity >= 0.999
    assert summary.pass_rate[0.999] >= 0.95
