"""Tests for the experiment harness: catalog, cohorts, emission, diagnostics."""

import csv
import math

import numpy as np
import pytest

from qsnapshot.circuit import QuantumCircuit, execute_statevector, mottonen_prepare
from qsnapshot.core import Rng, StateVector, overlap_fidelity, random_pure_state
from qsnapshot.noise import NoiseParams
from qsnapshot.harness import (
    ExperimentSpec,
    emit_report,
    run_cohort,
    run_entropy_analysis,
    run_midcircuit_snapshot,
    run_mixed_state_diagnostic,
    run_standard_states,
    standard_states,
)

SQ2 = 1.0 / math.sqrt(2.0)


def small_spec(**kwargs):
    defaults = dict(method="qeswap", n_qubits=1, n_trials=3, seed=0, max_epochs=30)
    defaults.update(kwargs)
    return ExperimentSpec(**defaults)


class TestStandardStates:
    def test_catalog_size(self):
        catalog = standard_states()
        assert len(catalog) == 4 + 4 + 4 + 8
        assert len(standard_states(1)) == 4
        assert len(standard_states(2)) == 8
        assert len(standard_states(3)) == 8

    def test_canonical_vectors(self):
        by_name = {s.name: s.vector for s in standard_states()}
        assert np.allclose(by_name["plus"].amplitudes, [SQ2, SQ2])
        assert np.allclose(by_name["bell_phi_plus"].amplitudes, [SQ2, 0, 0, SQ2])
        assert np.allclose(by_name["bell_psi_minus"].amplitudes, [0, SQ2, -SQ2, 0])

    def test_ghz_structure(self):
        # GHZ_k^+- = (|0 b(k)> +- |1 bbar(k)>)/sqrt(2)
        by_name = {s.name: s.vector for s in standard_states(3)}
        for k in range(4):
            plus = by_name[f"ghz_{k:02b}_plus"].amplitudes
            minus = by_name[f"ghz_{k:02b}_minus"].amplitudes
            assert plus[k] == pytest.approx(SQ2)
            assert plus[4 + (3 - k)] == pytest.approx(SQ2)
            assert minus[4 + (3 - k)] == pytest.approx(-SQ2)

    def test_all_unit_norm(self):
        for s in standard_states():
            assert abs(np.linalg.norm(s.vector.amplitudes) - 1.0) < 1e-12


class TestExperimentSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentSpec(n_trials=0)
        with pytest.raises(ValueError):
            ExperimentSpec(thresholds=(0.0, 0.99))

    @pytest.mark.parametrize("kwargs", [
        {"n_qubits": 0}, {"n_qubits": -1}, {"trajectories": 0},
        {"max_epochs": 0}, {"max_epochs": -3},
    ])
    def test_rejects_empty_register_or_trajectories(self, kwargs):
        with pytest.raises(ValueError, match="must be >= 1"):
            ExperimentSpec(**kwargs)

    @pytest.mark.parametrize("kwargs,message", [
        ({"method": "newton"}, "unknown method 'newton'"),
        ({"representation": "mps"}, "unknown representation 'mps'"),
        ({"representation": "density"}, "use mixed-diagnostic"),
        ({"noise": NoiseParams(), "shots": 100}, "noise and shots cannot be combined"),
    ])
    def test_rejects_specs_that_cannot_run(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            ExperimentSpec(**kwargs)

    @pytest.mark.parametrize("kwargs,message", [
        ({"shots": 0}, "shots must be >= 1, got 0"),
        ({"shots": -5}, "shots must be >= 1, got -5"),
        ({"population": 1}, "population must be >= 2"),
        ({"sigma": 0.0}, "sigma and alpha must be positive"),
        ({"alpha": -0.05}, "sigma and alpha must be positive"),
        ({"method": "gradient", "population": 0}, "population must be >= 2"),
    ])
    def test_rejects_what_every_trial_would_reject(self, kwargs, message):
        # these used to be accepted, and every trial then recorded the error
        with pytest.raises(ValueError, match=message):
            ExperimentSpec(n_trials=1, max_epochs=2, **kwargs)

    def test_bad_shots_raise_before_any_trial(self):
        with pytest.raises(ValueError, match="shots must be >= 1"):
            run_cohort(ExperimentSpec(n_trials=1, max_epochs=2, shots=0))

    def test_width_cap_names_width_and_bytes(self):
        # 50 population rows x 2^31 amplitudes x 16 B
        with pytest.raises(ValueError, match=r"width 31: .* 1717986918400 bytes"):
            ExperimentSpec(n_qubits=15)

    def test_width_cap_counts_the_largest_batch(self):
        from qsnapshot.noise import NoiseParams

        ExperimentSpec(n_qubits=9)  # 50 x 2^19 x 16 B = 400 MiB
        with pytest.raises(ValueError, match="width 19"):  # 2000 trajectories
            ExperimentSpec(n_qubits=9, noise=NoiseParams())
        with pytest.raises(ValueError, match="width 19"):  # 2048 gradient probes
            ExperimentSpec(n_qubits=9, method="gradient")

    def test_thresholds_sorted(self):
        spec = ExperimentSpec(thresholds=(0.99, 0.5))
        assert spec.thresholds == (0.5, 0.99)

    def test_resolved_stop(self):
        from qsnapshot.noise import NoiseParams

        assert ExperimentSpec().resolved_stop() == 0.999
        assert ExperimentSpec(noise=NoiseParams()).resolved_stop() == 0.99
        assert ExperimentSpec(stop_threshold=0.9).resolved_stop() == 0.9


class TestCohorts:
    def test_basic_run(self):
        summary = run_cohort(small_spec())
        assert len(summary.trials) == 3
        assert all(t.error is None for t in summary.trials)
        assert summary.mean_fidelity > 0.9

    def test_deterministic(self):
        s1 = run_cohort(small_spec())
        s2 = run_cohort(small_spec())
        assert s1.to_json_dict() == s2.to_json_dict()

    def test_threshold_monotonicity(self):
        summary = run_cohort(small_spec(n_qubits=2, n_trials=5, max_epochs=60))
        for t in summary.trials:
            lo = t.epochs_to_threshold[0.95]
            hi = t.epochs_to_threshold[0.99]
            if lo is not None and hi is not None:
                assert lo <= hi

    def test_na_excluded_from_means(self):
        # an unreachable threshold yields None mean and zero pass rate
        spec = small_spec(thresholds=(0.5, 1.0), max_epochs=3, stop_threshold=2.0)
        summary = run_cohort(spec)
        reached_at_one = [t.epochs_to_threshold[1.0] for t in summary.trials]
        if all(v is None for v in reached_at_one):
            assert summary.mean_epochs_to_threshold[1.0] is None
            assert summary.pass_rate[1.0] == 0.0

    def test_aggregate_recomputable(self):
        summary = run_cohort(small_spec())
        fids = [t.validation_fidelity for t in summary.trials if t.error is None]
        assert summary.mean_fidelity == pytest.approx(float(np.mean(fids)))
        assert summary.min_fidelity == pytest.approx(min(fids))


class TestStandardRun:
    def test_one_qubit_catalog(self):
        rows = run_standard_states(small_spec(max_epochs=40))
        assert [r["state"] for r in rows] == ["zero", "one", "plus", "minus"]
        for r in rows:
            assert r["error"] is None
            assert r["best_fidelity"] >= 0.99

    def test_epochs_to_099_ignores_spec_thresholds(self):
        rows = run_standard_states(small_spec(max_epochs=40, thresholds=(0.95,)))
        assert [r["epochs_to_099"] for r in rows] == \
            [r["epochs_to_099"] for r in run_standard_states(small_spec(max_epochs=40))]
        assert all(r["epochs_to_099"] is not None for r in rows)


class TestEntropyAnalysis:
    def test_requires_statevector(self):
        summary = run_cohort(small_spec())
        summary.spec.representation = "density"
        with pytest.raises(ValueError):
            run_entropy_analysis(summary)

    def test_pairs_sorted_and_bounded(self):
        summary = run_cohort(small_spec(n_qubits=2, n_trials=5, max_epochs=60))
        analysis = run_entropy_analysis(summary)
        targets = [p["entropy_target"] for p in analysis["pairs"]]
        assert targets == sorted(targets)
        for p in analysis["pairs"]:
            if p["fidelity"] >= 0.99:
                assert p["abs_difference"] <= 0.05

    def test_product_states_zero_entropy(self):
        # reconstructions of product targets inherit ~zero entropy
        spec = small_spec(n_qubits=2, n_trials=1, max_epochs=60)
        target = StateVector.from_amplitudes([SQ2, SQ2, 0, 0])  # |0>x|+>
        from qsnapshot.harness import run_trial

        result = run_trial(spec, target, 0, Rng(3))
        assert result.entropy_target == pytest.approx(0.0, abs=1e-6)


class TestMidcircuitSnapshot:
    def bell_circuit(self):
        return QuantumCircuit(2).add("H", 0).add("CX", 0, 1)

    def test_cut_zero_trivial_target(self):
        report = run_midcircuit_snapshot(self.bell_circuit(), 0,
                                         small_spec(n_qubits=2, max_epochs=40))
        assert report.label == "cut@0"
        assert report.best_fidelity >= 0.99

    def test_cut_after_h(self):
        # prefix H only: target is |0> x |+> (q0 = |+>)
        report = run_midcircuit_snapshot(self.bell_circuit(), 1,
                                         small_spec(n_qubits=2, max_epochs=60))
        expected = StateVector.from_amplitudes([SQ2, SQ2, 0, 0])
        assert overlap_fidelity(report.final_candidate, expected) >= 0.99

    def test_full_cut_equals_direct_target(self):
        circ = self.bell_circuit()
        report = run_midcircuit_snapshot(circ, 2, small_spec(n_qubits=2, max_epochs=60))
        bell = execute_statevector(circ, StateVector.computational_basis(2))
        assert overlap_fidelity(report.final_candidate, bell) >= 0.99

    def test_cut_out_of_range(self):
        with pytest.raises(ValueError):
            run_midcircuit_snapshot(self.bell_circuit(), 3, small_spec(n_qubits=2))

    def test_width_must_match_spec(self):
        with pytest.raises(ValueError, match="circuit has 2 qubits but the spec has n_qubits=1"):
            run_midcircuit_snapshot(self.bell_circuit(), 2, small_spec(n_qubits=1))


class TestMixedDiagnostic:
    def test_pure_target_no_plateau(self):
        # rank-1 target: the Hilbert-Schmidt signal is the true fidelity
        from qsnapshot.core import DensityMatrix
        from qsnapshot.estimators import DensityOracle, EsConfig, reconstruct
        from qsnapshot.core import uhlmann_fidelity

        target = DensityMatrix.from_state(random_pure_state(1, Rng(7)))
        report = reconstruct("qeswap", "density", DensityOracle(target, "hilbert_schmidt"),
                             EsConfig(max_iter=150, seed=0, stop_threshold=0.995),
                             n_qubits=1)
        assert uhlmann_fidelity(target, report.final_candidate) >= 0.99

    def test_rank2_separation(self):
        result = run_mixed_state_diagnostic(n_qubits=2, n_targets=3, seed=1,
                                            max_iter=250)
        s = result["summary"]
        assert s["hs_driven_uhlmann_leq_095"] >= 2
        assert s["uhlmann_driven_geq_099"] == 3

    @pytest.mark.parametrize("kwargs", [{"n_qubits": 0}, {"n_targets": 0},
                                        {"max_iter": 0}])
    def test_rejects_empty_register_or_cohort(self, kwargs):
        with pytest.raises(ValueError, match="must be >= 1, got 0"):
            run_mixed_state_diagnostic(**kwargs)


class TestEmission:
    def test_files_and_roundtrip(self, tmp_path):
        summary = run_cohort(small_spec())
        paths = emit_report(summary, tmp_path)
        assert {p.name for p in paths} == {"summary.json", "trials.csv", "trace.csv"}
        with open(tmp_path / "trials.csv", newline="", encoding="utf-8") as fh:
            trials = list(csv.DictReader(fh))
        assert len(trials) == 3
        with open(tmp_path / "trace.csv", newline="", encoding="utf-8") as fh:
            trace = list(csv.DictReader(fh))
        assert all(int(row["epoch"]) >= 1 for row in trace)
        # trace rows reproduce the recorded validation traces
        total = sum(len(t.validation_trace) for t in summary.trials)
        assert len(trace) == total

    def test_byte_identical_reruns(self, tmp_path):
        emit_report(run_cohort(small_spec()), tmp_path / "a")
        emit_report(run_cohort(small_spec()), tmp_path / "b")
        for name in ("summary.json", "trials.csv", "trace.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_empty_trace_header_only(self, tmp_path):
        spec = small_spec(max_epochs=1, stop_threshold=2.0)
        summary = run_cohort(spec)
        for t in summary.trials:
            t.validation_trace.clear()
        emit_report(summary, tmp_path)
        lines = (tmp_path / "trace.csv").read_text().strip().splitlines()
        assert lines == ["trial,epoch,fidelity"]
