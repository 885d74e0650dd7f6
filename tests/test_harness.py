"""Tests for the experiment harness: catalog, cohorts, emission, diagnostics."""

import csv
import math
import re
import warnings

import numpy as np
import pytest

from qsnapshot import harness as harness_module
from qsnapshot.circuit import (Gate, QuantumCircuit, build_swap_test, execute_statevector,
                               lower_to_basis, mottonen_prepare)
from qsnapshot.core import (Rng, StateVector, overlap_fidelity, partial_trace,
                            random_pure_state)
from qsnapshot.estimators import EsConfig, FidelityOracle, GradientConfig
from qsnapshot.noise import (NoiseModel, NoiseParams, bit_flip_channel, calibrated_noise_model,
                             depolarizing_channel, execute_trajectory_batch,
                             thermal_relaxation_channel)
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


def _prep():
    return mottonen_prepare(StateVector(1, [1.0, 0.0]))


# every count a caller gives, and a call that takes it (2 is a legal value of each)
COUNT_FIELDS = {
    "ExperimentSpec.n_qubits": lambda v: ExperimentSpec(n_qubits=v),
    "ExperimentSpec.n_trials": lambda v: ExperimentSpec(n_trials=v),
    "ExperimentSpec.max_epochs": lambda v: ExperimentSpec(max_epochs=v),
    "ExperimentSpec.shots": lambda v: ExperimentSpec(shots=v),
    "ExperimentSpec.trajectories": lambda v: ExperimentSpec(noise=NoiseParams(), trajectories=v),
    "ExperimentSpec.population": lambda v: ExperimentSpec(population=v),
    "EsConfig.population": lambda v: EsConfig(population=v),
    "EsConfig.max_iter": lambda v: EsConfig(max_iter=v),
    "GradientConfig.epochs": lambda v: GradientConfig(epochs=v),
    "FidelityOracle.shots": lambda v: FidelityOracle(_prep(), shots=v, rng=Rng(0)),
    "FidelityOracle.trajectories": lambda v: FidelityOracle(
        _prep(), noise_model=calibrated_noise_model(), trajectories=v, rng=Rng(0)),
    "run_mixed_state_diagnostic.n_qubits": lambda v: run_mixed_state_diagnostic(
        n_qubits=v, n_targets=1, max_iter=1, population=2),
    "run_mixed_state_diagnostic.n_targets": lambda v: run_mixed_state_diagnostic(
        n_qubits=1, n_targets=v, max_iter=1, population=2),
    "run_mixed_state_diagnostic.population": lambda v: run_mixed_state_diagnostic(
        n_qubits=1, n_targets=1, max_iter=1, population=v),
    "run_mixed_state_diagnostic.max_iter": lambda v: run_mixed_state_diagnostic(
        n_qubits=1, n_targets=1, max_iter=v, population=2),
    "QuantumCircuit.n_qubits": QuantumCircuit,
    "StateVector.n_qubits": lambda v: StateVector(v, [1.0, 0.0, 0.0, 0.0]),
    "random_pure_state.n_qubits": lambda v: random_pure_state(v, Rng(0)),
    "execute_trajectory_batch.trajectories": lambda v: execute_trajectory_batch(
        [lower_to_basis(build_swap_test(_prep(), _prep()))], calibrated_noise_model(), v,
        Rng(0)),
    "depolarizing_channel.arity": lambda v: depolarizing_channel(0.1, v),
    # indices, from 0
    "Gate.qubit": lambda v: Gate("H", (v,)),
    "Rng.index": lambda v: Rng(1).child(v),
    "Rng.ahead.k": lambda v: Rng(1).ahead(v),
    "StateVector.index": lambda v: StateVector.computational_basis(2, v),
    "partial_trace.keep": lambda v: partial_trace(random_pure_state(3, Rng(0)), (v,)),
    "run_midcircuit_snapshot.cut_index": lambda v: run_midcircuit_snapshot(
        QuantumCircuit(1).add("H", 0).add("X", 0), v, ExperimentSpec(max_epochs=1)),
}

# every real a caller gives, its interval, and a call that takes it (0.5 is legal in each)
REAL_FIELDS = {
    "Gate.RZ parameter": ("finite", lambda v: Gate("RZ", (0,), v)),
    "Gate.RY parameter": ("finite", lambda v: Gate("RY", (0,), v)),
    "Gate.DELAY duration": (">= 0", lambda v: Gate("DELAY", (0,), v)),
    "GradientConfig.stop_threshold": ("finite", lambda v: GradientConfig(stop_threshold=v)),
    "GradientConfig.lr": ("positive", lambda v: GradientConfig(lr=v)),
    "EsConfig.stop_threshold": ("finite", lambda v: EsConfig(stop_threshold=v)),
    "EsConfig.sigma": ("positive", lambda v: EsConfig(sigma=v)),
    "EsConfig.alpha": ("positive", lambda v: EsConfig(alpha=v)),
    "ExperimentSpec.stop_threshold": ("finite", lambda v: ExperimentSpec(stop_threshold=v)),
    "ExperimentSpec.sigma": ("positive", lambda v: ExperimentSpec(sigma=v)),
    "ExperimentSpec.alpha": ("positive", lambda v: ExperimentSpec(alpha=v)),
    "ExperimentSpec.thresholds": ("in (0, 1]", lambda v: ExperimentSpec(thresholds=(0.9, v))),
    "bit_flip_channel.p": ("in [0, 1]", bit_flip_channel),
    "depolarizing_channel.p": ("in [0, 1]", depolarizing_channel),
    "thermal_relaxation_channel.t1": ("positive",
                                      lambda v: thermal_relaxation_channel(v, 0.1, 60.0)),
    "thermal_relaxation_channel.t2": ("positive",
                                      lambda v: thermal_relaxation_channel(100.0, v, 60.0)),
    "thermal_relaxation_channel.duration": (
        ">= 0", lambda v: thermal_relaxation_channel(100.0, 80.0, v)),
    "NoiseModel.t1": ("positive", lambda v: NoiseModel({}, t1=v, t2=0.1)),
    "NoiseModel.t2": ("positive", lambda v: NoiseModel({}, t1=100.0, t2=v)),
    **{f"NoiseParams.{name}": ("in [0, 1]", lambda v, name=name: NoiseParams(**{name: v}))
       for name in ("bit_flip_p", "depol_1q", "depol_2q")},
    "NoiseParams.t1": ("positive", lambda v: NoiseParams(t1=v, t2=0.1)),
    "NoiseParams.t2": ("positive", lambda v: NoiseParams(t2=v)),
    **{f"NoiseParams.{name}": (">= 0", lambda v, name=name: NoiseParams(**{name: v}))
       for name in ("readout_len", "gate_len_1q", "gate_len_2q")},
}


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
        ({"thresholds": ()}, "need at least one threshold"),
        ({"thresholds": (0.5, 0.99, 0.5)},
         r"thresholds must be distinct, got \[0.5, 0.99, 0.5\]"),
        ({"seed": 1.5}, "seed must be a 64-bit unsigned integer, got 1.5"),
        ({"seed": -1}, "seed must be a 64-bit unsigned integer, got -1"),
        ({"seed": 2**64}, f"seed must be a 64-bit unsigned integer, got {2**64}"),
        ({"noise": "paper"}, "noise must be NoiseParams or None, got 'paper'"),
        ({"thresholds": "0.99"}, "thresholds must be a tuple or a list, got '0.99'"),
        ({"thresholds": 0.99}, "thresholds must be a tuple or a list, got 0.99"),
        ({"thresholds": np.array([0.9, 0.8])},
         re.escape("thresholds must be a tuple or a list, got array([0.9, 0.8])")),
    ])
    def test_rejects_specs_that_cannot_run(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            ExperimentSpec(**kwargs)

    @pytest.mark.parametrize("kwargs,message", [
        ({"shots": 0}, "shots must be >= 1, got 0"),
        ({"shots": -5}, "shots must be >= 1, got -5"),
        ({"population": 1}, "population must be >= 2"),
        ({"sigma": 0.0}, "sigma must be positive, got 0.0"),
        ({"alpha": -0.05}, "alpha must be positive, got -0.05"),
        ({"method": "gradient", "population": 0}, "population must be >= 2"),
    ])
    def test_rejects_what_every_trial_would_reject(self, kwargs, message):
        # these used to be accepted, and every trial then recorded the error
        with pytest.raises(ValueError, match=message):
            ExperimentSpec(n_trials=1, max_epochs=2, **kwargs)

    @pytest.mark.parametrize("field", REAL_FIELDS)
    def test_every_real_field_takes_only_finite_reals_in_its_interval(self, field):
        # rejected where it is built, with the field's name, so no trial meets a bad real
        interval, build = REAL_FIELDS[field]
        outside = {"in [0, 1]": [1.5], "in (0, 1]": [0.0], ">= 0": [-1.0], "positive": [0.0],
                   "finite": []}[interval]
        cases = ([(True, "a real number"), ("1", "a real number")]
                 + [(v, "finite") for v in (math.nan, math.inf, -math.inf, 10**400, -10**400)]
                 + [(v, interval) for v in outside])
        for value, rule in cases:
            with pytest.raises(ValueError, match="^" + re.escape(
                    f"{field.split('.')[1]} must be {rule}, got ")):
                build(value)
        build(np.float64(0.5))

    def test_finite_stop_threshold_above_one_is_legal(self):
        for cls in (GradientConfig, EsConfig, ExperimentSpec):
            assert cls(stop_threshold=2.0).stop_threshold == 2.0

    def test_bad_shots_raise_before_any_trial(self):
        with pytest.raises(ValueError, match="shots must be >= 1"):
            run_cohort(ExperimentSpec(n_trials=1, max_epochs=2, shots=0))

    @pytest.mark.parametrize("value", [2.5, 2.0, True, np.float64(2.0)], ids=repr)
    @pytest.mark.parametrize("field", COUNT_FIELDS)
    def test_every_count_field_takes_only_integers(self, field, value):
        # rejected where it is built, so no trial meets a count that is not an integer
        with pytest.raises(ValueError, match=f"^{field.split('.')[-1]} must be an integer"):
            COUNT_FIELDS[field](value)
        COUNT_FIELDS[field](np.int64(2))

    def test_width_cap_names_width_and_bytes(self):
        # 50 population rows x 2^31 amplitudes x 16 B
        with pytest.raises(ValueError, match=r"width 31: 50 x 2\^31 amplitudes of 16 bytes"):
            ExperimentSpec(n_qubits=15)

    def test_width_cap_counts_the_largest_batch(self):
        from qsnapshot.noise import NoiseParams

        ExperimentSpec(n_qubits=9)  # 50 x 2^19 x 16 B = 400 MiB
        with pytest.raises(ValueError, match="width 19"):  # 2000 trajectories
            ExperimentSpec(n_qubits=9, noise=NoiseParams())
        with pytest.raises(ValueError, match="width 19"):  # 2048 gradient probes
            ExperimentSpec(n_qubits=9, method="gradient")

    @pytest.mark.parametrize("representation,exponent", [("statevector", 31 + 15),
                                                          ("unitary", 31 + 30)])
    def test_width_cap_counts_gradient_probes_exactly(self, representation, exponent):
        # 4d or 4d^2 probe rows, sized as 4 x 2^n or 4 x 2^2n without building 2^n
        with pytest.raises(ValueError, match=re.escape(
                f"n_qubits=15 needs SWAP tests of width 31: 4 x 2^{exponent} amplitudes "
                f"of 16 bytes, over the 1073741824-byte limit")):
            ExperimentSpec(n_qubits=15, method="gradient", representation=representation)

    @pytest.mark.parametrize("kwargs,message", [
        ({"n_qubits": np.int64(31)}, "width 63: 50 x 2^63 amplitudes"),
        ({"n_qubits": np.int64(40)}, "width 81: 50 x 2^81 amplitudes"),
        ({"n_qubits": np.int64(64)}, "width 129: 50 x 2^129 amplitudes"),
        # 2n + 1 and 4n + 1 wrap in int64 and uint64 arithmetic
        ({"n_qubits": np.int64(2**62), "method": "gradient"},
         f"width {2**63 + 1}: 4 x 2^{2**63 + 1 + 2**62} amplitudes"),
        ({"n_qubits": np.uint64(2**63), "method": "gradient", "representation": "unitary"},
         f"width {2**64 + 1}: 4 x 2^{2**64 + 1 + 2**64} amplitudes"),
        ({"n_qubits": 10, "noise": NoiseParams(), "trajectories": np.int64(2**40)},
         "width 21: 1099511627776 x 2^21 amplitudes"),
    ], ids=["int64-31", "int64-40", "int64-64", "int64-wraps", "uint64-wraps",
            "int64-trajectories"])
    def test_width_cap_sizes_numpy_integers_as_python_integers(self, kwargs, message):
        # a numpy width or row count neither wraps nor overflows past the limit
        with pytest.raises(ValueError, match=re.escape(message + " of 16 bytes, over the")):
            ExperimentSpec(**kwargs)

    def test_thresholds_sorted(self):
        spec = ExperimentSpec(thresholds=(0.99, 0.5))
        assert spec.thresholds == (0.5, 0.99)

    def test_resolved_stop(self):
        from qsnapshot.noise import NoiseParams

        assert ExperimentSpec().resolved_stop() == 0.999
        assert ExperimentSpec(noise=NoiseParams()).resolved_stop() == 0.99
        assert ExperimentSpec(stop_threshold=0.9).resolved_stop() == 0.9

    @pytest.mark.parametrize("method,config", [
        ("gradient", GradientConfig(epochs=7, seed=3)),
        ("qeswap", EsConfig(max_iter=7, seed=3)),
    ])
    def test_estimator_config_follows_the_method(self, method, config):
        assert ExperimentSpec(method=method, max_epochs=7).estimator_config(3) == config


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

    def test_failed_trials_are_recorded_without_a_warning(self, tmp_path):
        # alpha = 1e308 overflows the ES mean at the first update of every trial
        spec = small_spec(n_qubits=2, n_trials=2, max_epochs=5, alpha=1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            summary = run_cohort(spec)
            rows = run_standard_states(spec)
        error = "ValueError: ES step overflowed the mean: alpha=1e+308, sigma=0.1"
        assert [(t.error, t.validation_fidelity, t.epochs) for t in summary.trials] == \
            [(error, 0.0, 0)] * 2
        assert (summary.mean_fidelity, summary.min_fidelity) == (0.0, 0.0)
        assert summary.pass_rate == {0.95: 0.0, 0.99: 0.0}
        assert summary.mean_epochs_to_threshold == {0.95: None, 0.99: None}
        assert run_entropy_analysis(summary)["summary"]["n_pairs"] == 0
        assert len(rows) == 8 and all(
            (r["best_fidelity"], r["epochs"], r["epochs_to_099"], r["error"])
            == (None, None, None, error) for r in rows)
        emit_report(summary, tmp_path / "a")
        emit_report(run_cohort(spec), tmp_path / "b")
        for name in ("summary.json", "trials.csv", "trace.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        assert error in (tmp_path / "a" / "trials.csv").read_text()

    @pytest.mark.parametrize("error", [TypeError, AttributeError])
    def test_programming_errors_propagate(self, monkeypatch, error):
        # only a ValueError is a failed trial; any other error is a defect to see
        def broken(*args):
            raise error("planted")

        monkeypatch.setattr(harness_module, "run_trial", broken)
        with pytest.raises(error, match="planted"):
            run_cohort(small_spec())
        with pytest.raises(error, match="planted"):
            run_standard_states(small_spec())


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

        psi = random_pure_state(1, Rng(7)).amplitudes
        target = DensityMatrix(1, np.outer(psi, psi.conj()))
        report = reconstruct("qeswap", "density", DensityOracle(target, "hilbert_schmidt"),
                             EsConfig(max_iter=150, seed=0, stop_threshold=0.995))
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

    @pytest.mark.parametrize("n_qubits,population,message", [
        (10, 50, None),  # 50 x 4^10 x 16 B = 800 MiB
        (10, 64, None),  # 64 x 4^10 x 16 B = 2^30 B, the limit itself
        (10, 65, "n_qubits=10 needs density matrices: 65 x 2^20 amplitudes of 16 bytes"),
        (11, 50, "n_qubits=11 needs density matrices: 50 x 2^22 amplitudes of 16 bytes"),
        (16, 50, "50 x 2^32 amplitudes of 16 bytes, over the 1073741824-byte"),
        (np.int64(31), 50, "n_qubits=31 needs density matrices: 50 x 2^62 amplitudes"),
        (np.int64(2**62), 50, f"50 x 2^{2**63} amplitudes of 16 bytes"),  # 2n wraps in int64
    ])
    def test_width_cap_before_any_target(self, monkeypatch, n_qubits, population, message):
        # the (population, 2^n, 2^n) candidate stack is checked before a target is built
        class TargetBuilt(Exception):
            pass

        def build(*_):
            raise TargetBuilt

        monkeypatch.setattr(harness_module, "_random_rank2_density", build)
        with pytest.raises(ValueError if message else TargetBuilt,
                           match=message and re.escape(message)):
            run_mixed_state_diagnostic(n_qubits=n_qubits, population=population)

    @pytest.mark.parametrize("kwargs,message", [
        ({"population": 0}, "population must be >= 2, got 0"),
        ({"population": -3}, "population must be >= 2, got -3"),
        ({"population": 2.5}, "population must be an integer, got 2.5"),
        ({"population": 1e300}, "population must be an integer, got 1e+300"),
        ({"max_iter": 0}, "max_iter must be >= 1, got 0"),
        ({"max_iter": 2.5}, "max_iter must be an integer, got 2.5"),
    ])
    def test_engine_counts_checked_before_any_target(self, monkeypatch, kwargs, message):
        # the ES engine's checks run where the diagnostic is called, not per target
        built = []
        build = harness_module._random_rank2_density

        def counted(*args):
            built.append(args)
            return build(*args)

        monkeypatch.setattr(harness_module, "_random_rank2_density", counted)
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            run_mixed_state_diagnostic(**{"n_qubits": 1, "n_targets": 1, "max_iter": 1,
                                          "population": 2, **kwargs})
        assert built == []


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
        # numpy scalars are written as the Python numbers they equal
        emit_report(run_cohort(small_spec(
            n_qubits=np.int64(1), n_trials=np.int64(3), seed=np.uint64(0),
            max_epochs=np.int64(30), population=np.int64(EsConfig.population))),
            tmp_path / "c")
        for name in ("summary.json", "trials.csv", "trace.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes() == (tmp_path / "c" / name).read_bytes()

    def test_empty_trace_header_only(self, tmp_path):
        spec = small_spec(max_epochs=1, stop_threshold=2.0)
        summary = run_cohort(spec)
        for t in summary.trials:
            t.validation_trace.clear()
        emit_report(summary, tmp_path)
        lines = (tmp_path / "trace.csv").read_text().strip().splitlines()
        assert lines == ["trial,epoch,fidelity"]
