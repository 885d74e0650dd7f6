"""Span tracer for the traced benchmark run.

The tracer wraps public names at module boundaries: the names one qsnapshot
module imports from another, and the benchmark's own calls into the harness
and the store. Each wrapped call records a span (name, owning module, start,
end, parent span, trial id). Spans stay in memory and are written once, at
the end. Nothing under ``src/`` is edited: wrappers are installed by
attribute assignment and removed afterwards.

Work counters are derived by inspecting the arguments and results of the
wrapped calls (gates in a circuit before it is simulated, channels the noise
model attaches to each gate). Byte counts are computed from array sizes, not
measured. The time spent computing counters is recorded as spans of the
pseudo-module ``trace`` so that it is not charged to the caller.
"""

from __future__ import annotations

import csv
import json
import resource
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

from qsnapshot import estimators, harness, store

FIELDS = 5  # per span: name id, start ns, end ns, parent span index, trial id
AMPLITUDE_BYTES = 16  # complex128
READ_WRITE = 2  # every gate or channel application reads and writes the state

_clock = time.perf_counter_ns


class Tracer:
    """In-memory span recorder with per-boundary counters."""

    def __init__(self):
        self.names: list = []  # span name per name id
        self.modules: list = []  # owning module per name id
        self._ids: dict = {}
        self.spans = array("q")  # flat: name_id, start_ns, end_ns, parent, trial
        self.stack: list = []
        self.trial = -1
        self.counters = defaultdict(float)
        self._patches: list = []
        self._hook_id = self._name_id("trace.count", "trace")

    def _name_id(self, name: str, module: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.modules.append(module)
        return self._ids[name]

    def wrap(self, owner, attr: str, name: str, module: str, post=None, pre=None):
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``pre(*args)`` runs before the call and returns a state; ``post(counters,
        result, state, *args)`` runs after it. Both are timed as ``trace`` spans.
        A name the program no longer has is skipped; its span then reports 0.
        """
        name_id = self._name_id(name, module)
        original = getattr(owner, attr, None)
        if original is None:
            return
        hook_id = self._hook_id
        spans, stack, counters = self.spans, self.stack, self.counters

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            state = None
            if pre is not None:
                h0 = _clock()
                state = pre(*args)
                spans.extend((hook_id, h0, _clock(), parent, self.trial))
            at = len(spans)
            stack.append(at // FIELDS)
            spans.extend((name_id, 0, 0, parent, self.trial))
            spans[at + 1] = _clock()
            try:
                result = original(*args, **kwargs)
            finally:
                spans[at + 2] = _clock()
                stack.pop()
            if post is not None:
                h0 = _clock()
                post(counters, result, state, *args)
                spans.extend((hook_id, h0, _clock(), parent, self.trial))
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- summaries ---------------------------------------------------------

    def table(self) -> np.ndarray:
        """Spans as an (n, 5) int64 array: name_id, start, end, parent, trial."""
        return np.frombuffer(self.spans, dtype=np.int64).reshape(-1, FIELDS)

    def summary(self) -> dict:
        """Calls, total and self seconds per span name and self seconds per module.

        A span's self time is its duration minus the durations of the spans
        whose parent it is. ``top_s`` is the time covered by top-level spans.
        """
        t = self.table()
        dur = (t[:, 2] - t[:, 1]).astype(np.float64)
        nested = t[:, 3] >= 0
        child = np.bincount(t[nested, 3], weights=dur[nested], minlength=len(t))
        own = dur - child
        k = len(self.names)
        calls = np.bincount(t[:, 0], minlength=k)
        total = np.bincount(t[:, 0], weights=dur, minlength=k) / 1e9
        own_by_name = np.bincount(t[:, 0], weights=own, minlength=k) / 1e9
        module_self: dict = {}
        for i, module in enumerate(self.modules):
            module_self[module] = module_self.get(module, 0.0) + float(own_by_name[i])
        return {
            "calls": {n: int(calls[i]) for i, n in enumerate(self.names)},
            "total_s": {n: float(total[i]) for i, n in enumerate(self.names)},
            "self_s": {n: float(own_by_name[i]) for i, n in enumerate(self.names)},
            "module_self_s": module_self,
            "top_s": float(dur[~nested].sum()) / 1e9,
        }

    def write(self, out_dir: Path, wall_s: float):
        """Write spans.npy, span_names.json and modules.csv (self time, share)."""
        np.save(out_dir / "spans.npy", self.table())
        (out_dir / "span_names.json").write_text(json.dumps(
            [{"name": n, "module": m} for n, m in zip(self.names, self.modules)],
            indent=1) + "\n")
        summary = self.summary()
        rows = dict(summary["module_self_s"])
        rows["bench"] = wall_s - summary["top_s"]
        with open(out_dir / "modules.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["module", "self_s", "share"])
            for module, seconds in sorted(rows.items()):
                writer.writerow([module, f"{seconds:.6f}", f"{seconds / wall_s:.6f}"])


# ---------------------------------------------------------------------------
# Counter hooks


def _count_built(counters, circ, _state, *_args):
    counters["circuit.gates_built"] += len(circ.gates)


def _count_simulated(counters, _result, _state, circ, *_args):
    gates = sum(1 for g in circ.gates if g.kind != "MEASURE")
    counters["circuit.gates_simulated"] += gates
    counters["circuit.bytes_moved_computed"] += (
        gates * 2**circ.n_qubits * AMPLITUDE_BYTES * READ_WRITE
    )


def _channel_applications(circ, model) -> int:
    """Non-identity channel applications per trajectory, as executed."""
    per_kind: dict = {}
    total = 0
    for gate in circ.gates:
        key = (gate.kind, len(gate.qubits))
        if gate.kind == "DELAY" or key not in per_kind:
            per_kind[key] = sum(
                (1 if app.scope == "pair" else len(gate.qubits))
                for app in model.channels_for(gate)
                if not app.channel.is_identity
            )
        total += per_kind[key]
    return total


def _faults_before(*_args):
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _count_trajectories(counters, _result, faults_before, circ, model, trajectories, *_):
    counters["noise.minor_faults"] += (
        resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults_before
    )
    gates = sum(1 for g in circ.gates if g.kind != "MEASURE")
    channels = _channel_applications(circ, model)
    counters["noise.trajectories"] += trajectories
    counters["noise.channel_applications"] += channels * trajectories
    counters["noise.bytes_moved_computed"] += (
        (gates + channels) * trajectories * 2**circ.n_qubits
        * AMPLITUDE_BYTES * READ_WRITE
    )


def _count_emitted(counters, paths, _state, *_args):
    counters["harness.emit_bytes"] += sum(Path(p).stat().st_size for p in paths)


def _deposit_existed(record, store_path, *_):
    return (Path(store_path) / f"{record.identifier()}.qsnap").exists()


def _count_deposit(counters, ident, existed, _record, store_path, *_):
    if existed:
        counters["store.deposits_deduplicated"] += 1
        return
    base = Path(store_path) / ident
    counters["store.bytes_written"] += (
        Path(f"{base}.qsnap").stat().st_size + Path(f"{base}.json").stat().st_size
    )


def _count_withdraw(counters, _result, _state, ident, store_path, *_):
    base = Path(store_path) / ident
    counters["store.bytes_read"] += Path(f"{base}.qsnap").stat().st_size
    meta = Path(f"{base}.json")
    if meta.exists():
        counters["store.bytes_read"] += meta.stat().st_size


def install(tracer: Tracer):
    """Wrap every boundary the benchmark reports on."""
    w = tracer.wrap
    # benchmark -> harness / store
    w(harness, "run_trial", "harness.run_trial", "harness")
    w(harness, "run_mixed_state_diagnostic", "harness.run_mixed_state_diagnostic",
      "harness")
    w(harness, "emit_report", "harness.emit_report", "harness", post=_count_emitted)
    w(store, "deposit", "store.deposit", "store", post=_count_deposit,
      pre=_deposit_existed)
    w(store, "withdraw", "store.withdraw", "store", post=_count_withdraw)
    w(store, "list_snapshots", "store.list", "store")
    # harness -> estimators / core / noise (target preparation stays in harness)
    w(harness, "reconstruct", "estimators.reconstruct", "estimators")
    w(harness, "overlap_fidelity", "core.overlap_fidelity", "core")
    w(harness, "uhlmann_fidelity", "core.uhlmann_fidelity", "core")
    w(harness, "half_chain_entropy", "core.half_chain_entropy", "core")
    w(harness, "calibrated_noise_model", "noise.calibrated_noise_model", "noise")
    # estimators -> circuit / noise / core
    w(estimators, "mottonen_prepare", "circuit.mottonen_prepare", "circuit",
      post=_count_built)
    w(estimators, "build_swap_test", "circuit.build_swap_test", "circuit",
      post=_count_built)
    w(estimators, "ancilla_expectation", "circuit.simulate", "circuit",
      post=_count_simulated)
    w(estimators, "sample_shots", "circuit.simulate", "circuit",
      post=_count_simulated)
    w(estimators, "lower_to_basis", "circuit.lower_to_basis", "circuit")
    w(estimators, "execute_trajectories", "noise.execute_trajectories", "noise",
      post=_count_trajectories, pre=_faults_before)
    w(estimators, "hilbert_schmidt_overlap", "core.hilbert_schmidt_overlap", "core")
    w(estimators, "uhlmann_fidelity", "core.uhlmann_fidelity", "core")
    w(estimators, "DensityMatrix", "core.DensityMatrix", "core")
    # inside estimators: decode, oracle, network, optimizer
    w(estimators, "decode_candidate_state", "estimators.decode", "estimators")
    w(estimators, "decode_candidate_density", "estimators.decode", "estimators")
    for oracle in ("FidelityOracle", "HilbertSchmidtOracle", "UhlmannOracle"):
        w(getattr(estimators, oracle, None), "evaluate", "estimators.oracle",
          "estimators")
    w(estimators.GeneratorNetwork, "forward", "estimators.network", "estimators")
    w(estimators.GeneratorNetwork, "backward", "estimators.network", "estimators")
    w(estimators.Adam, "step", "estimators.adam", "estimators")
    # store -> circuit: preparation of withdrawn states
    w(store, "mottonen_prepare", "store.prepare", "circuit")
