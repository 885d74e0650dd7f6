"""One benchmark workload process: set up, run a closed loop, check, report.

``run.py`` starts this file as a fresh process after pinning the environment
(BLAS threads, allocator thresholds), so that imports count in the set-up
time and peak memory belongs to the workload alone. It prints nothing and
writes its result as JSON to ``--result``.

Every workload is a closed loop: one caller, and the next trial or store
operation starts when the previous one returns. The workload seed generates
every input; the program receives only the generated inputs through its
public API. The first ``min_items`` items always run, so the quality figures
and the emitted files are a fixed function of the seed; the loop then goes on
until ``--seconds`` have passed.
"""

import time

_T0 = time.perf_counter()  # set-up time counts from here: imports, inputs, warm-up

import argparse  # noqa: E402
from array import array  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from qsnapshot import harness, store  # noqa: E402
from qsnapshot.circuit import execute_statevector  # noqa: E402
from qsnapshot.core import Rng, StateVector, overlap_fidelity, random_pure_state  # noqa: E402
from qsnapshot.harness import CohortSummary, ExperimentSpec  # noqa: E402
from qsnapshot.noise import NoiseParams  # noqa: E402
from qsnapshot.store import SnapshotIntegrityError, SnapshotRecord  # noqa: E402
from run import CALLS_AND_S  # noqa: E402

WARMUP_INDEX = 2**32  # child-stream index no measured item uses
PASS_FIDELITY = 0.99
_ns = time.perf_counter_ns


class CheckFailed(Exception):
    """An output of the program is wrong."""


def _digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).name.encode())
        h.update(hashlib.sha256(Path(p).read_bytes()).digest())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Reconstruction workloads (one item = one reconstruction of one target)


class Cohort:
    """QESwap or gradient reconstructions of Haar-random targets via run_trial.

    Targets and trial streams follow run_cohort's layout: trial i uses
    Rng(seed).child(i), and its target comes from that stream's child 0.
    """

    KEEP_ALL = True  # every trial is emitted in the traced comparison

    def __init__(self, seed: int, spec: ExperimentSpec, min_items: int,
                 analytic: bool):
        self.spec = spec
        self.min_items = min_items
        self.analytic = analytic
        self.root = Rng(seed)
        self._targets: dict = {}

    def target(self, i: int) -> StateVector:
        if i not in self._targets:
            self._targets[i] = random_pure_state(self.spec.n_qubits,
                                                 self.root.child(i).child(0))
        return self._targets[i]

    def setup(self, _out: Path):
        for i in range(self.min_items):
            self.target(i)
        warm = dataclasses.replace(self.spec, max_epochs=1, population=2)
        rng = self.root.child(WARMUP_INDEX)
        harness.run_trial(warm, random_pure_state(warm.n_qubits, rng.child(0)),
                          0, rng)

    def reset(self, _out: Path):
        pass

    def run(self, i: int) -> dict:
        target = self.target(i)
        t0 = _ns()
        trial = harness.run_trial(self.spec, target, i, self.root.child(i))
        ns = _ns() - t0
        return {"ns": ns, "steps": trial.epochs, "evals": trial.oracle_evals,
                "fidelity": trial.validation_fidelity,
                "iters_to_099": trial.epochs_to_threshold.get(PASS_FIDELITY),
                "trial": trial}

    def expected_evals(self, trial) -> int:
        if self.spec.method == "qeswap":
            return trial.epochs * self.spec.population
        per_epoch = 1 + 4 * 2**self.spec.n_qubits
        stopped = trial.best_fidelity >= self.spec.resolved_stop()
        if stopped:
            return (trial.epochs - 1) * per_epoch + 1
        return trial.epochs * per_epoch

    def check(self, i: int, rec: dict):
        trial = rec["trial"]
        if trial.error is not None:
            raise CheckFailed(f"trial {i}: {trial.error}")
        expected = self.expected_evals(trial)
        if trial.oracle_evals != expected:
            raise CheckFailed(f"trial {i}: {trial.oracle_evals} oracle evals, "
                              f"expected {expected}")
        if len(trial.validation_trace) != trial.epochs:
            raise CheckFailed(f"trial {i}: validation trace length "
                              f"{len(trial.validation_trace)} != {trial.epochs}")
        # noiseless oracle: the best oracle value is the best candidate's overlap
        if self.analytic and abs(trial.best_fidelity - trial.validation_fidelity) > 1e-9:
            raise CheckFailed(f"trial {i}: oracle best {trial.best_fidelity!r} != "
                              f"overlap {trial.validation_fidelity!r}")

    def emit(self, records: list, out: Path) -> str:
        """Write summary.json, trials.csv and trace.csv; return their digest."""
        trials = [r["trial"] for r in records]
        fids = [t.validation_fidelity for t in trials]
        thresholds = self.spec.thresholds
        reached = {thr: [t.epochs_to_threshold[thr] for t in trials
                         if t.epochs_to_threshold[thr] is not None]
                   for thr in thresholds}
        summary = CohortSummary(
            spec=self.spec,
            trials=trials,
            mean_fidelity=float(np.mean(fids)),
            min_fidelity=float(min(fids)),
            mean_epochs_to_threshold={
                thr: (sum(v) / len(v)) if v else None for thr, v in reached.items()},
            pass_rate={thr: len(v) / len(trials) for thr, v in reached.items()},
        )
        return _digest(harness.emit_report(summary, out))


class MixedDiagnostic:
    """run_mixed_state_diagnostic on one rank-2 target per item, both arms.

    The diagnostic draws its target from the seed it is given; item i passes
    Rng(seed).child(i).seed.
    """

    N_QUBITS = 2
    MAX_ITER = 300
    POPULATION = 50
    KEEP_ALL = True

    def __init__(self, seed: int, min_items: int):
        self.root = Rng(seed)
        self.min_items = min_items

    def setup(self, _out: Path):
        harness.run_mixed_state_diagnostic(
            n_qubits=self.N_QUBITS, n_targets=1,
            seed=self.root.child(WARMUP_INDEX).seed, max_iter=1, population=2)

    def reset(self, _out: Path):
        pass

    def run(self, i: int) -> dict:
        seed = self.root.child(i).seed
        t0 = _ns()
        result = harness.run_mixed_state_diagnostic(
            n_qubits=self.N_QUBITS, n_targets=1, seed=seed,
            max_iter=self.MAX_ITER, population=self.POPULATION)
        ns = _ns() - t0
        row = result["rows"][0]
        steps = row["hilbert_schmidt_epochs"] + row["uhlmann_epochs"]
        return {"ns": ns, "steps": steps, "evals": steps * self.POPULATION,
                "fidelity": row["uhlmann_uhlmann_final"], "iters_to_099": None,
                "result": result}

    def check(self, i: int, rec: dict):
        row = rec["result"]["rows"][0]
        for arm in ("hilbert_schmidt", "uhlmann"):
            if not 0.0 <= row[f"{arm}_uhlmann_final"] <= 1.0 + 1e-9:
                raise CheckFailed(f"target {i}: {arm} arm fidelity out of range")

    def check_all(self, records: list):
        """The acceptance-8 shape on the first min_items targets: more than half
        of the Hilbert-Schmidt arms plateau at <= 0.95, and every Uhlmann-driven
        arm reaches 0.99."""
        rows = [r["result"]["rows"][0] for r in records]
        plateaued = sum(1 for row in rows if row["hilbert_schmidt_uhlmann_final"] <= 0.95)
        reached = sum(1 for row in rows if row["uhlmann_uhlmann_final"] >= PASS_FIDELITY)
        if 2 * plateaued <= len(rows) or reached != len(rows):
            raise CheckFailed(f"acceptance-8 shape fails: {plateaued}/{len(rows)} "
                              f"Hilbert-Schmidt arms plateau, {reached}/{len(rows)} "
                              "Uhlmann arms reach 0.99")

    def emit(self, records: list, out: Path) -> str:
        """Write mixed_diagnostic.json per target as the CLI does; return digest."""
        out.mkdir(parents=True, exist_ok=True)
        paths = []
        for i, rec in enumerate(records):
            path = out / f"mixed_diagnostic_{i:05d}.json"
            path.write_text(json.dumps(rec["result"], indent=2, sort_keys=True) + "\n")
            paths.append(path)
        return _digest(paths)


# ---------------------------------------------------------------------------
# Store calls (made between the trials of qeswap-analytic)


class StoreChurn:
    """Store calls: deposits, repeat deposits, withdraws and listings.

    Per six calls: one deposit of a new state (n = 1..4 in turn), one repeat
    deposit of a stored state and four withdraws of stored states. Call 11
    of every 125 lists the store instead, and call 7 of every 50 withdraws
    one of three bodies corrupted when the store is filled, which must raise
    SnapshotIntegrityError. Records are rebuilt from their index when needed,
    so the process does not grow with the number of calls.
    """

    INITIAL = 16
    CORRUPTED = 3
    ROUND = 6

    def __init__(self, seed: int):
        self.seed = seed
        self.states = Rng(seed)

    def _record(self, k: int) -> SnapshotRecord:
        state = random_pure_state(1 + k % 4, self.states.child(k))
        return SnapshotRecord.from_state(
            state, method="qeswap", representation="statevector",
            label=f"state-{k}", seed=k)

    def _deposit_new(self) -> tuple:
        k = len(self.index)
        record = self._record(k)
        t0 = _ns()
        ident = store.deposit(record, self.path)
        ns = _ns() - t0
        self.index[ident] = k
        self.ids.append(ident)
        return ident, ns

    def reset(self, out: Path):
        """Fresh store with the initial and corrupted states; fresh call stream."""
        self.path = out / "store"
        shutil.rmtree(self.path, ignore_errors=True)
        self.ops = np.random.Generator(np.random.Philox(key=self.seed))
        self.index: dict = {}  # identifier -> state number
        self.ids: list = []  # withdrawable identifiers, in deposit order
        self.checked: set = set()
        for _ in range(self.INITIAL):
            self._deposit_new()
        self.corrupted = []
        for _ in range(self.CORRUPTED):
            ident, _ = self._deposit_new()
            self.ids.pop()
            body = self.path / f"{ident}.qsnap"
            data = bytearray(body.read_bytes())
            data[15] ^= 0x01
            body.write_bytes(bytes(data))
            self.corrupted.append(ident)

    def _pick(self) -> str:
        return self.ids[int(self.ops.integers(len(self.ids)))]

    def call(self, i: int) -> tuple:
        """Make store call i; returns (kind, ns). Raises CheckFailed."""
        if i % 50 == 7:
            ident = self.corrupted[int(self.ops.integers(self.CORRUPTED))]
            t0 = _ns()
            try:
                store.withdraw(ident, self.path)
            except SnapshotIntegrityError:
                return "withdraw", _ns() - t0
            raise CheckFailed(f"store call {i}: corrupted body {ident} was accepted")
        if i % 125 == 11:
            t0 = _ns()
            listed = store.list_snapshots(self.path)
            ns = _ns() - t0
            if listed != sorted(self.index):
                raise CheckFailed(f"store call {i}: list returned {len(listed)} "
                                  f"of {len(self.index)} ids")
            return "list", ns
        if i % self.ROUND == 0:
            return "deposit", self._deposit_new()[1]
        ident = self._pick()
        k = self.index[ident]
        if i % self.ROUND == 3:
            t0 = _ns()
            again = store.deposit(self._record(k), self.path)
            ns = _ns() - t0
            if again != ident:
                raise CheckFailed(f"store call {i}: repeat deposit of {ident} "
                                  f"returned {again}")
            return "deposit", ns
        t0 = _ns()
        state, prep = store.withdraw(ident, self.path)
        ns = _ns() - t0
        if SnapshotRecord.from_state(state).body_bytes() != self._record(k).body_bytes():
            raise CheckFailed(f"store call {i}: withdraw of {ident} is not a "
                              "bitwise round trip")
        if k not in self.checked:
            self.checked.add(k)
            prepared = execute_statevector(
                prep, StateVector.computational_basis(state.n_qubits))
            fidelity = overlap_fidelity(prepared, state)
            if fidelity < 1 - 1e-9:
                raise CheckFailed(f"store call {i}: preparation fidelity {fidelity!r}")
        return "withdraw", ns

    def digest(self) -> str:
        """Digest of every file in the store, in name order."""
        return _digest(sorted(self.path.iterdir()))


class WithStore:
    """A reconstruction workload whose caller also uses the store.

    After trial i the same caller makes CALLS store calls (calls i * CALLS
    onwards of the StoreChurn schedule). Their times are kept apart from the
    trial's, and the store is filled by ``reset`` after set-up, so that
    filesystem noise stays out of the gated figures.
    """

    CALLS = 12

    def __init__(self, inner, calls: StoreChurn):
        self.inner = inner
        self.calls = calls
        self.min_items = inner.min_items
        self.KEEP_ALL = inner.KEEP_ALL

    def setup(self, out: Path):
        self.inner.setup(out)

    def reset(self, out: Path):
        self.inner.reset(out)
        self.calls.reset(out)

    def run(self, i: int) -> dict:
        rec = self.inner.run(i)
        rec["store"] = [self.calls.call(j)
                        for j in range(i * self.CALLS, (i + 1) * self.CALLS)]
        return rec

    def check(self, i: int, rec: dict):
        self.inner.check(i, rec)

    def emit(self, records: list, out: Path) -> str:
        """Digest of the inner workload's emitted files and of the store."""
        both = self.inner.emit(records, out) + self.calls.digest()
        return hashlib.sha256(both.encode()).hexdigest()


# The third argument of each workload is min_items: the items every run
# completes, which the quality figures and the emitted-file digests cover.
# Tiny mode (the smoke test) runs one item; its 12 store calls include a
# corrupted withdraw and a listing.
WORKLOADS = {
    "qeswap-analytic": lambda seed, tiny: WithStore(Cohort(
        seed, ExperimentSpec(method="qeswap", n_qubits=3, stop_threshold=0.99,
                             seed=seed),
        1 if tiny else 10, analytic=True), StoreChurn(seed)),
    "qeswap-noisy": lambda seed, tiny: Cohort(
        seed, ExperimentSpec(method="qeswap", n_qubits=1, noise=NoiseParams(),
                             trajectories=100 if tiny else 2000, max_epochs=50,
                             seed=seed),
        1 if tiny else 3, analytic=False),
    "gradient": lambda seed, tiny: Cohort(
        seed, ExperimentSpec(method="gradient", n_qubits=1, seed=seed),
        1 if tiny else 20, analytic=True),
    "mixed-diagnostic": lambda seed, tiny: MixedDiagnostic(seed, 1 if tiny else 10),
}


# ---------------------------------------------------------------------------
# Closed loop, metrics and the traced run


STORE_KINDS = ("deposit", "withdraw", "list")


class Run:
    """What a closed loop leaves behind.

    One compact column entry per item and per store call, so that memory
    does not grow with the speed of the program, and the full records of the
    first ``min_items`` items (of every item when the workload's ``KEEP_ALL``
    is set).
    """

    def __init__(self):
        self.ns = array("q")
        self.steps = array("q")
        self.evals = array("q")
        self.iters_to_099 = array("q")  # -1: threshold not reached
        self.store_ns = array("q")
        self.store_kind = array("b")
        self.records: list = []
        self.wall_s = 0.0
        self.error = None

    def __len__(self) -> int:
        return len(self.ns)

    def add(self, rec: dict, keep: bool):
        self.ns.append(rec["ns"])
        self.steps.append(rec["steps"])
        self.evals.append(rec["evals"])
        self.iters_to_099.append(-1 if rec["iters_to_099"] is None else rec["iters_to_099"])
        for kind, ns in rec.pop("store", ()):
            self.store_kind.append(STORE_KINDS.index(kind))
            self.store_ns.append(ns)
        if keep:
            self.records.append(rec)

    def column(self, name: str) -> np.ndarray:
        return np.asarray(getattr(self, name), dtype=np.float64)


def closed_loop(wl, seconds: float = 0.0, count: int | None = None,
                tracer=None, on_item=None) -> Run:
    """Run items 0, 1, ... back to back.

    With ``count`` the loop runs exactly that many items; otherwise it runs
    at least ``wl.min_items`` and stops once ``seconds`` have passed. Stops
    at the first failed item and records why in ``run.error``.
    """
    run = Run()
    start = time.perf_counter()
    i = 0
    while (i < count) if count is not None else (
            i < wl.min_items or time.perf_counter() - start < seconds):
        if tracer is not None:
            tracer.trial = i
        try:
            rec = wl.run(i)
            wl.check(i, rec)
        except CheckFailed as exc:
            run.error = str(exc)
            break
        except Exception as exc:  # noqa: BLE001 - a program error is a failed item
            run.error = f"item {i}: {exc!r}"
            break
        run.add(rec, keep=i < wl.min_items or wl.KEEP_ALL)
        if on_item is not None:
            on_item(i, run)
        i += 1
    run.wall_s = time.perf_counter() - start
    return run


def _tail(samples: np.ndarray) -> tuple:
    """Highest of the listed percentiles with at least 10 samples beyond it."""
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if len(samples) * (100.0 - pct) / 100.0 >= 10:
            return pct, float(np.percentile(samples, pct))
    return None, None


def end_to_end(wl, run: Run) -> dict:
    """Every end-to-end figure this workload has, as {name: {value, unit}}.

    ``step_ms_p50`` (one engine iteration) and ``work_per_s`` (oracle
    evaluations) are the figures all workloads share. Quality figures cover
    the first min_items items. Store figures are printed, not gated.
    """
    ns = run.column("ns")
    quality = [r["fidelity"] for r in run.records[:wl.min_items]]
    trial_s = ns / 1e9
    pct, tail = _tail(trial_s)
    out = {
        "step_ms_p50": (float(np.median(ns / run.column("steps"))) / 1e6, "ms"),
        "work_per_s": (float(run.column("evals").sum() / ns.sum() * 1e9), "1/s"),
        "fidelity_mean": (float(np.mean(quality)), "1"),
        "pass_rate_099": (sum(f >= PASS_FIDELITY for f in quality) / len(quality), "1"),
        "failed_ratio": (0.0, "1"),
        "ok_ratio": (1.0, "1"),
        "trial_s_p50": (float(np.median(trial_s)), "s"),
        "trial_s_tail": (tail, "s"),
    }
    out["evals_per_s"] = out["work_per_s"]
    tails = {"trial_s_tail": {"percentile": pct, "samples": len(trial_s)}}
    if len(run.store_ns):
        store_ns = np.asarray(run.store_ns, dtype=np.float64)
        kind = np.asarray(run.store_kind)
        out["store_ops_per_s"] = (len(store_ns) / store_ns.sum() * 1e9, "1/s")
        for name in ("deposit", "withdraw"):
            times = store_ns[kind == STORE_KINDS.index(name)] / 1e6
            pct, value = _tail(times)
            out[f"{name}_ms_p50"] = (float(np.median(times)), "ms")
            out[f"{name}_ms_tail"] = (value, "ms")
            tails[f"{name}_ms_tail"] = {"percentile": pct, "samples": len(times)}
    return {"metrics": {k: {"value": v, "unit": u} for k, (v, u) in out.items()},
            "tails": tails}


def per_layer(tracer, run: Run, untraced_wall_s: float) -> dict:
    """Per-module figures of the traced run, as {name: value}."""
    summary = tracer.summary()
    calls, secs = summary["calls"], summary["total_s"]
    counters = tracer.counters
    wall_s = run.wall_s
    m = {}
    for name in CALLS_AND_S:
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.s"] = secs[name]
    for name in ("circuit.gates_built", "circuit.gates_simulated",
                 "circuit.bytes_moved_computed", "noise.trajectories",
                 "noise.channel_applications", "noise.bytes_moved_computed",
                 "noise.minor_faults", "harness.emit_bytes",
                 "store.bytes_written", "store.bytes_read"):
        m[name] = counters.get(name, 0.0)
    evals = calls["estimators.oracle"]
    decodes = calls["estimators.decode"]
    deposits = calls["store.deposit"]
    reached = [v for v in run.iters_to_099 if v >= 0]
    m.update({
        "estimators.oracle_evals": evals,
        "estimators.oracle.s": secs["estimators.oracle"],
        "estimators.network.s": secs["estimators.network"],
        "estimators.adam.s": secs["estimators.adam"],
        "estimators.decode_waste_ratio": (decodes - evals) / decodes if decodes else 0.0,
        "estimators.engine_self_s": summary["self_s"]["estimators.reconstruct"],
        "estimators.iterations": sum(run.steps),
        "estimators.iters_to_099_mean": float(np.mean(reached)) if reached else 0.0,
        "harness.emit_report.s": secs["harness.emit_report"],
        "store.prepare_s": secs["store.prepare"],
        "store.list.s": secs["store.list"],
        "store.dedup_ratio": (counters.get("store.deposits_deduplicated", 0.0) / deposits
                              if deposits else 0.0),
    })
    shares = dict(summary["module_self_s"])
    shares["bench"] = wall_s - summary["top_s"]
    for module in ("harness", "estimators", "circuit", "noise", "core", "store",
                   "trace", "bench"):
        m[f"{module}.self_s"] = shares.get(module, 0.0)
        m[f"{module}.share"] = shares.get(module, 0.0) / wall_s
    m.update({
        "trace.wall_s": wall_s,
        "trace.untraced_wall_s": untraced_wall_s,
        "trace.overhead_s": wall_s - untraced_wall_s,
        "trace.overhead_ratio": (wall_s - untraced_wall_s) / untraced_wall_s,
        "trace.spans": len(tracer.table()),
    })
    return m


def environment(store_dir: Path) -> dict:
    """Versions, core count, pinned settings and the store's filesystem."""
    import os
    import platform

    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    path = str(store_dir.resolve())
    fs_type, best = None, ""
    try:
        with open("/proc/self/mounts", encoding="utf-8") as fh:
            mounts = [line.split() for line in fh]
    except OSError:  # no procfs: the filesystem stays unrecorded
        mounts = []
    for fields in mounts:
        mount = fields[1].replace("\\040", " ")
        if (path == mount or path.startswith(mount.rstrip("/") + "/")) \
                and len(mount) > len(best):
            fs_type, best = fields[2], mount
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "GLIBC_TUNABLES": os.environ.get("GLIBC_TUNABLES"),
        "store_fs_type": fs_type,
        "machine": platform.machine(),
    }


def measure(wl, out: Path, seconds: float) -> dict:
    """Untraced run: closed loop, emitted-output digests, re-run of item 0."""
    digests = {}

    def on_item(i, run):
        if i == 0:
            digests["first"] = wl.emit(run.records[:1], out / "emit-first")
        if i == wl.min_items - 1:
            digests["min_items"] = wl.emit(run.records, out / "emit")
            if isinstance(wl, MixedDiagnostic):
                wl.check_all(run.records)

    try:
        run = closed_loop(wl, seconds=seconds, on_item=on_item)
    except CheckFailed as exc:  # raised by check_all
        return {"attempted": wl.min_items, "failed": 1, "error": str(exc)}
    error = run.error
    if error is None:
        wl.reset(out / "recheck")
        again = closed_loop(wl, count=1)
        error = again.error
        if error is None and wl.emit(again.records, out / "emit-again") != digests["first"]:
            error = "re-running the first item changed the emitted files"
    result = {"attempted": len(run) + (1 if error else 0), "failed": 1 if error else 0,
              "error": error, "digests": digests, "loop_wall_s": run.wall_s}
    if error is None:
        result.update(end_to_end(wl, run))
    return result


def measure_traced(wl, out: Path, seconds: float) -> dict:
    """Traced run: the same items untraced, then traced; outputs must match."""
    import tracing

    untraced = closed_loop(wl, seconds=seconds / 2)
    if untraced.error is not None:
        return {"attempted": len(untraced) + 1, "failed": 1, "error": untraced.error}
    t0 = time.perf_counter()
    digest_a = wl.emit(untraced.records, out / "emit-untraced")
    untraced.wall_s += time.perf_counter() - t0
    wl.reset(out / "traced")
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        traced = closed_loop(wl, count=len(untraced), tracer=tracer)
        if traced.error is None:
            t0 = time.perf_counter()
            digest_b = wl.emit(traced.records, out / "emit-traced")
            traced.wall_s += time.perf_counter() - t0
    finally:
        tracer.uninstall()
    error = traced.error
    if error is None and digest_a != digest_b:
        error = "traced run emitted different outputs than the untraced run"
    result = {"attempted": len(untraced) + len(traced) + (1 if error else 0),
              "failed": 1 if error else 0, "error": error}
    if error is None:
        result["digests"] = {"untraced": digest_a, "traced": digest_b}
        tracer.write(out, traced.wall_s)
        result["per_layer"] = per_layer(tracer, traced, untraced.wall_s)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, args.tiny)
    wl.setup(out)
    result = {"setup_s": time.perf_counter() - _T0}
    if not args.setup_only:
        wl.reset(out)
        measure_fn = measure_traced if args.trace else measure
        result.update(measure_fn(wl, out, args.seconds))
        result["env"] = environment(out)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    Path(args.result).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
