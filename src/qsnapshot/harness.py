"""Experiment runner reproducing the desk-scale studies.

Cohorts over random targets, standard-state benchmarks, entropy matching,
mid-circuit snapshots, the mixed-state limitation diagnostic, and plot-ready
CSV/JSON emission. Every entry point is deterministic in (spec, seed); wall
times and timestamps never enter the emitted data. Budgets and ES settings
left unset take the estimator configs' defaults.
"""

from __future__ import annotations

import csv
import math
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .circuit import QuantumCircuit, execute_statevector, mottonen_prepare
from .core import (
    DensityMatrix,
    Rng,
    StateVector,
    check_count,
    check_real,
    half_chain_entropy,
    json_bytes,
    overlap_fidelity,
    random_pure_state,
    uhlmann_fidelity,
)
from .estimators import (
    DensityOracle,
    EsConfig,
    FidelityOracle,
    GradientConfig,
    ReconstructionReport,
    reconstruct,
)
from .noise import NoiseParams, calibrated_noise_model

SQ2 = 1.0 / math.sqrt(2.0)


# ---------------------------------------------------------------------------
# Standard-state catalog


@dataclass(frozen=True)
class StandardState:
    name: str
    vector: StateVector

    @property
    def n_qubits(self) -> int:
        return self.vector.n_qubits


def standard_states(n_qubits: int | None = None) -> list:
    """The benchmark catalog: 1-qubit basics, 2-qubit basis + Bell, 8 GHZ states.

    GHZ_k^(+/-) = (|0 b(k)> +/- |1 bbar(k)>)/sqrt(2) with b(k) the 2-bit
    pattern of k (written most-significant qubit first) and bbar its
    complement.
    """
    entries = [("zero", [1, 0]), ("one", [0, 1]), ("plus", [SQ2, SQ2]),
               ("minus", [SQ2, -SQ2])]
    for k in range(4):
        amps = np.zeros(4)
        amps[k] = 1.0
        entries.append((f"basis_{k:02b}", amps))
    bell = {
        "bell_phi_plus": ([0, 3], +1),
        "bell_phi_minus": ([0, 3], -1),
        "bell_psi_plus": ([1, 2], +1),
        "bell_psi_minus": ([1, 2], -1),
    }
    for name, (idx, sign) in bell.items():
        amps = np.zeros(4)
        amps[idx[0]] = SQ2
        amps[idx[1]] = sign * SQ2
        entries.append((name, amps))
    for k in range(4):
        for sign, tag in ((+1, "plus"), (-1, "minus")):
            amps = np.zeros(8)
            amps[k] = SQ2                 # |0 b(k)>
            amps[4 + (3 - k)] = sign * SQ2  # |1 bbar(k)>
            entries.append((f"ghz_{k:02b}_{tag}", amps))
    catalog = [StandardState(name, StateVector.from_amplitudes(amps)) for name, amps in entries]
    return [s for s in catalog if n_qubits in (None, s.n_qubits)]


# ---------------------------------------------------------------------------
# Experiment specification


# Largest complex128 array a spec or the mixed diagnostic may ask for.
MAX_AMPLITUDE_BYTES = 2**30


def _check_amplitude_bytes(n_qubits: int, need: str, rows: int, exponent: int):
    """Reject a width whose ``need``, rows x 2^exponent complex128 amplitudes,
    is over the limit. The bytes, rows x 2^(exponent + 4), are a Python
    integer shifted only when the shift alone is under the limit, so no 2^n
    is built for a width far over it and no numpy integer wraps."""
    shift = int(exponent) + 4
    if shift < MAX_AMPLITUDE_BYTES.bit_length() and int(rows) << shift <= MAX_AMPLITUDE_BYTES:
        return
    raise ValueError(f"n_qubits={n_qubits} needs {need}: {rows} x 2^{exponent} amplitudes "
                     f"of 16 bytes, over the {MAX_AMPLITUDE_BYTES}-byte limit")


@dataclass
class ExperimentSpec:
    """One cohort configuration; deterministic in (spec, seed)."""

    method: str = "qeswap"
    representation: str = "statevector"
    n_qubits: int = 1
    n_trials: int = 20
    noise: NoiseParams | None = None
    trajectories: int = FidelityOracle.TRAJECTORIES
    shots: int | None = None  # None = analytic expectation
    thresholds: tuple = (0.95, 0.99)
    seed: int = 0
    max_epochs: int | None = None
    stop_threshold: float | None = None
    population: int = EsConfig.population
    sigma: float = EsConfig.sigma
    alpha: float = EsConfig.alpha

    def __post_init__(self):
        check_count(1, n_qubits=self.n_qubits, n_trials=self.n_trials,
                    max_epochs=self.max_epochs)
        if self.noise is not None and not isinstance(self.noise, NoiseParams):
            raise ValueError(f"noise must be NoiseParams or None, got {self.noise!r}")
        # the oracle's and the ES engine's own checks, before any trial runs
        FidelityOracle.check_signal(self.shots, self.noise is not None, self.trajectories)
        EsConfig(population=self.population, sigma=self.sigma, alpha=self.alpha, seed=self.seed)
        check_real("finite", stop_threshold=self.stop_threshold)
        if self.method not in ("gradient", "qeswap"):
            raise ValueError(f"unknown method {self.method!r}; expected gradient or qeswap")
        if self.representation == "density":
            raise ValueError("representation 'density' cannot run in a cohort: cohort "
                             "targets are pure and the density oracles read the target; "
                             "use mixed-diagnostic")
        if self.representation not in ("statevector", "unitary"):
            raise ValueError(f"unknown representation {self.representation!r}; "
                             f"expected statevector or unitary")
        # rows of the largest oracle call: trajectories, population, or the
        # gradient's 4d probes, 4 x 2^n rows (4 x 2^2n for unitaries)
        n = int(self.n_qubits)  # a numpy width would wrap in 2n + 1
        width, shift = 2 * n + 1, 0
        if self.noise is not None:
            rows = self.trajectories
        elif self.method == "qeswap":
            rows = self.population
        else:
            rows, shift = 4, n * (1 if self.representation == "statevector" else 2)
        _check_amplitude_bytes(n, f"SWAP tests of width {width}", rows, width + shift)
        if not isinstance(self.thresholds, (tuple, list)):
            raise ValueError(f"thresholds must be a tuple or a list, got {self.thresholds!r}")
        if not self.thresholds:
            raise ValueError("need at least one threshold, got none")
        for t in self.thresholds:
            check_real("in (0, 1]", thresholds=t)
        if len(set(self.thresholds)) < len(self.thresholds):
            raise ValueError(f"thresholds must be distinct, got {list(self.thresholds)}")
        self.thresholds = tuple(sorted(self.thresholds))

    def resolved_stop(self) -> float:
        if self.stop_threshold is not None:
            return self.stop_threshold
        return 0.99 if self.noise is not None else 0.999

    def estimator_config(self, seed: int, probe=None):
        # Under noise the raw SWAP signal is attenuated well below 1, so the
        # stopping rule watches the classical validation probe instead.
        on_probe = self.noise is not None and probe is not None
        common = dict(seed=seed, stop_threshold=self.resolved_stop(), probe=probe,
                      stop_on_probe=on_probe)
        gradient = self.method == "gradient"
        if self.max_epochs is not None:  # else the config's own budget
            common["epochs" if gradient else "max_iter"] = self.max_epochs
        if gradient:
            return GradientConfig(**common)
        return EsConfig(population=self.population, sigma=self.sigma, alpha=self.alpha,
                        **common)


def _epochs_to(trace, threshold):
    for i, f in enumerate(trace):
        if f >= threshold:
            return i + 1
    return None


# ---------------------------------------------------------------------------
# Cohorts


@dataclass
class TrialResult:
    trial: int
    seed: int
    best_fidelity: float          # best oracle-reported value
    validation_fidelity: float    # best true overlap vs the known target
    epochs: int
    oracle_evals: int
    epochs_to_threshold: dict     # threshold -> first epoch reaching it, or None
    entropy_target: float | None
    entropy_recon: float | None
    validation_trace: list
    error: str | None = None


@dataclass
class CohortSummary:
    spec: ExperimentSpec
    trials: list
    mean_fidelity: float
    min_fidelity: float
    mean_epochs_to_threshold: dict
    pass_rate: dict

    def to_json_dict(self) -> dict:
        return {
            "spec": asdict(self.spec),
            "trials": [asdict(t) for t in self.trials],
            "aggregate": {
                "mean_fidelity": self.mean_fidelity,
                "min_fidelity": self.min_fidelity,
                "mean_epochs_to_threshold": {
                    str(k): v for k, v in self.mean_epochs_to_threshold.items()
                },
                "pass_rate": {str(k): v for k, v in self.pass_rate.items()},
            },
        }


def _aggregate(spec: ExperimentSpec, trials: list) -> CohortSummary:
    good = [t for t in trials if t.error is None]
    fids = [t.validation_fidelity for t in good]
    mean_epochs = {}
    pass_rate = {}
    for thr in spec.thresholds:
        reached = [t.epochs_to_threshold[thr] for t in good
                   if t.epochs_to_threshold[thr] is not None]
        mean_epochs[thr] = (sum(reached) / len(reached)) if reached else None
        pass_rate[thr] = len(reached) / len(trials) if trials else 0.0
    return CohortSummary(
        spec=spec,
        trials=trials,
        mean_fidelity=float(np.mean(fids)) if fids else 0.0,
        min_fidelity=float(min(fids)) if fids else 0.0,
        mean_epochs_to_threshold=mean_epochs,
        pass_rate=pass_rate,
    )


def _reconstruct_known(spec: ExperimentSpec, target: StateVector,
                       target_prep: QuantumCircuit, rng: Rng) -> ReconstructionReport:
    """Reconstruct a known target from its preparation, probing the true overlap."""

    def probe(candidate) -> float:
        return overlap_fidelity(candidate, target)

    model = None if spec.noise is None else calibrated_noise_model(spec.noise)
    oracle = FidelityOracle(target_prep, shots=spec.shots, noise_model=model,
                            trajectories=spec.trajectories, rng=rng.child(1))
    config = spec.estimator_config(rng.child(2).seed, probe=probe)
    return reconstruct(spec.method, spec.representation, oracle, config)


def run_trial(spec: ExperimentSpec, target: StateVector, trial_index: int,
              trial_rng: Rng) -> TrialResult:
    """One reconstruction of a known target, with classical validation probing."""
    report = _reconstruct_known(spec, target, mottonen_prepare(target), trial_rng)
    validation = report.validation_trace
    entropy_t = entropy_r = None
    if spec.n_qubits >= 2 and report.final_candidate is not None:
        entropy_t = half_chain_entropy(target)
        entropy_r = half_chain_entropy(report.final_candidate)
    return TrialResult(
        trial=trial_index,
        seed=report.seed,
        best_fidelity=report.best_fidelity,
        validation_fidelity=max(validation) if validation else 0.0,
        epochs=report.epochs,
        oracle_evals=report.oracle_evals,
        epochs_to_threshold={t: _epochs_to(validation, t) for t in spec.thresholds},
        entropy_target=entropy_t,
        entropy_recon=entropy_r,
        validation_trace=[float(v) for v in validation],
    )


def _run_trials(spec: ExperimentSpec, targets) -> list:
    """Run trial i on the i-th target with ``Rng(spec.seed).child(i)``. A
    trial's ValueError is recorded with it; any other error propagates."""
    root = Rng(spec.seed)
    trials = []
    for i, target in enumerate(targets):
        trial_rng = root.child(i)
        try:
            trials.append(run_trial(spec, target, i, trial_rng))
        except ValueError as exc:  # every run-time error of a valid spec, LinAlgError too
            trials.append(TrialResult(
                trial=i, seed=trial_rng.seed, best_fidelity=0.0,
                validation_fidelity=0.0, epochs=0, oracle_evals=0,
                epochs_to_threshold={thr: None for thr in spec.thresholds},
                entropy_target=None, entropy_recon=None,
                validation_trace=[], error=f"{type(exc).__name__}: {exc}",
            ))
    return trials


def run_cohort(spec: ExperimentSpec) -> CohortSummary:
    """n_trials independent random targets reconstructed per the spec.

    A trial's ValueError is recorded, not fatal. Threshold statistics use the
    classical validation fidelity trace (identical to the oracle trace in
    noiseless state-vector runs; the honest measure under noise).
    """
    root = Rng(spec.seed)
    targets = (random_pure_state(spec.n_qubits, root.child(t).child(0))
               for t in range(spec.n_trials))
    return _aggregate(spec, _run_trials(spec, targets))


# ---------------------------------------------------------------------------
# Standard states


def run_standard_states(spec: ExperimentSpec) -> list:
    """Benchmark the catalog states of spec.n_qubits; returns table rows.

    Rows: {state, n_qubits, epochs_to_099, best_fidelity, epochs, error}.
    ``epochs_to_099`` is the first epoch whose validation fidelity reaches
    0.99, whatever ``spec.thresholds`` holds. Failures become NA rows rather
    than aborting the sweep; a width without catalog states raises ValueError.
    """
    catalog = standard_states(spec.n_qubits)
    if not catalog:
        raise ValueError(f"the standard-state catalog has no {spec.n_qubits}-qubit states")
    rows = []
    for std, trial in zip(catalog, _run_trials(spec, [s.vector for s in catalog])):
        failed = trial.error is not None
        rows.append({
            "state": std.name,
            "n_qubits": std.n_qubits,
            "epochs_to_099": _epochs_to(trial.validation_trace, 0.99),
            "best_fidelity": None if failed else trial.validation_fidelity,
            "epochs": None if failed else trial.epochs,
            "error": trial.error,
        })
    return rows


# ---------------------------------------------------------------------------
# Entropy analysis


def run_entropy_analysis(cohort: CohortSummary) -> dict:
    """Half-chain entropy comparison between targets and reconstructions.

    Returns {"pairs": sorted rows, "summary": distribution statistics}.
    """
    if cohort.spec.representation != "statevector":
        raise ValueError("entropy analysis requires state-vector reconstructions")
    pairs = []
    for t in cohort.trials:
        if t.error is not None or t.entropy_target is None:
            continue
        pairs.append({
            "trial": t.trial,
            "entropy_target": t.entropy_target,
            "entropy_recon": t.entropy_recon,
            "abs_difference": abs(t.entropy_target - t.entropy_recon),
            "fidelity": t.validation_fidelity,
        })
    pairs.sort(key=lambda row: row["entropy_target"])
    diffs = [p["abs_difference"] for p in pairs]
    summary = {
        "n_pairs": len(pairs),
        "mean_abs_difference": float(np.mean(diffs)) if diffs else None,
        "max_abs_difference": float(max(diffs)) if diffs else None,
        "mean_entropy_target": float(np.mean([p["entropy_target"] for p in pairs]))
        if pairs else None,
        "mean_entropy_recon": float(np.mean([p["entropy_recon"] for p in pairs]))
        if pairs else None,
    }
    return {"pairs": pairs, "summary": summary}


# ---------------------------------------------------------------------------
# Mid-circuit snapshots


def run_midcircuit_snapshot(target_circuit: QuantumCircuit, cut_index: int,
                            spec: ExperimentSpec) -> ReconstructionReport:
    """Reconstruct the state at a prefix cut of a target circuit.

    The oracle's target preparation is the first ``cut_index`` gates; the
    report's label records the cut position. The circuit must be
    ``spec.n_qubits`` wide, the width the spec's amplitude limit was checked at.
    """
    if target_circuit.n_qubits != spec.n_qubits:
        raise ValueError(f"the circuit has {target_circuit.n_qubits} qubits but the "
                         f"spec has n_qubits={spec.n_qubits}")
    check_count(0, cut_index=cut_index)
    if cut_index > len(target_circuit.gates):
        raise ValueError(
            f"cut_index {cut_index} outside [0, {len(target_circuit.gates)}]"
        )
    prefix = QuantumCircuit(target_circuit.n_qubits,
                            list(target_circuit.gates[:cut_index]))
    target = execute_statevector(
        prefix, StateVector.computational_basis(prefix.n_qubits)
    )
    report = _reconstruct_known(spec, target, prefix, Rng(spec.seed))
    report.label = f"cut@{cut_index}"
    return report


# ---------------------------------------------------------------------------
# Mixed-state limitation diagnostic


def _random_rank2_density(n_qubits: int, rng: Rng) -> DensityMatrix:
    """Rank-2 mixed state leaning toward maximally mixed on its support."""
    d = 2**n_qubits
    lam = 0.55 + 0.25 * float(rng.uniform())
    m = rng.normal((d, 2)) + 1j * rng.normal((d, 2))
    q, _ = np.linalg.qr(m)
    rho = lam * np.outer(q[:, 0], q[:, 0].conj()) \
        + (1 - lam) * np.outer(q[:, 1], q[:, 1].conj())
    return DensityMatrix(n_qubits, 0.5 * (rho + rho.conj().T))


def run_mixed_state_diagnostic(n_qubits: int = 2, n_targets: int = 10,
                               seed: int = 0, max_iter: int = 300,
                               population: int = EsConfig.population) -> dict:
    """Optimize density candidates against (a) the Hilbert-Schmidt signal and
    (b) the Uhlmann oracle on the same rank-2 mixed targets.

    The Hilbert-Schmidt signal is what a SWAP test delivers on mixed states
    and overstates similarity; (b) requires target access and is
    diagnostic-only. Returns per-target rows and summary counts.
    """
    check_count(1, n_qubits=n_qubits, n_targets=n_targets)
    base = EsConfig(population=population, max_iter=max_iter, stop_threshold=0.995)
    _check_amplitude_bytes(n_qubits, "density matrices", population, 2 * int(n_qubits))
    root = Rng(seed)
    rows = []
    for i in range(n_targets):
        rng = root.child(i)
        target = _random_rank2_density(n_qubits, rng)
        results = {}
        for tag in ("hilbert_schmidt", "uhlmann"):
            config = replace(base, seed=rng.child(1 if tag == "hilbert_schmidt" else 2).seed)
            report = reconstruct("qeswap", "density", DensityOracle(target, tag), config)
            results[tag] = {
                "signal_best": report.best_fidelity,
                "uhlmann_final": uhlmann_fidelity(target, report.final_candidate),
                "epochs": report.epochs,
            }
        rows.append({
            "target": i,
            "purity": float(np.trace(target.entries @ target.entries).real),
            **{f"{tag}_{k}": v for tag, res in results.items()
               for k, v in res.items()},
        })
    hs_below_095 = sum(1 for r in rows if r["hilbert_schmidt_uhlmann_final"] <= 0.95)
    uh_above_099 = sum(1 for r in rows if r["uhlmann_uhlmann_final"] >= 0.99)
    return {
        "rows": rows,
        "summary": {
            "n_targets": n_targets,
            "hs_driven_uhlmann_leq_095": hs_below_095,
            "uhlmann_driven_geq_099": uh_above_099,
        },
    }


# ---------------------------------------------------------------------------
# Emission


def write_json(path, payload) -> None:
    """Write ``payload`` as ``json_bytes``, creating the parent directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(json_bytes(payload))


def write_rows(path, columns, rows) -> None:
    """Write dict ``rows`` as CSV under a ``columns`` header, creating the
    parent directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        writer.writerows(rows)


def emit_report(cohort: CohortSummary, out_dir):
    """Write summary.json, trials.csv, and long-format trace.csv, all
    byte-deterministic in (spec, seed)."""
    out = Path(out_dir)
    write_json(out / "summary.json", cohort.to_json_dict())
    # TrialResult's scalar fields; the other two get their own columns and file
    scalars = [f.name for f in fields(TrialResult)
               if f.name not in ("epochs_to_threshold", "validation_trace")]
    thresholds = cohort.spec.thresholds
    write_rows(out / "trials.csv", scalars + [f"epochs_to_{thr}" for thr in thresholds], (
        {**{k: getattr(t, k) for k in scalars},
         **{f"epochs_to_{thr}": t.epochs_to_threshold[thr] for thr in thresholds}}
        for t in cohort.trials))
    write_rows(out / "trace.csv", ["trial", "epoch", "fidelity"], (
        {"trial": t.trial, "epoch": epoch, "fidelity": fid}
        for t in cohort.trials for epoch, fid in enumerate(t.validation_trace, 1)))
    return [out / "summary.json", out / "trials.csv", out / "trace.csv"]
