#!/usr/bin/env python3
"""qsnapshot benchmark: four closed-loop workloads, checked outputs, metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload qeswap-analytic --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same items
untraced and then traced, and prints the per-module metrics. ``--tiny`` runs
every workload and check at minimal size (the smoke test uses it). The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is non-zero when an
output check fails or the checkout has no qsnapshot sources.

An untraced run starts ``SETUP_RUNS`` fresh workload processes: all but
the last only set up (imports, inputs, warm-up) so that ``setup_s`` is a
median, and the last also measures. The launcher pins the BLAS thread count
and glibc's allocator thresholds in the child environment before numpy is
imported, see README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("qeswap-analytic", "qeswap-noisy", "gradient", "mixed-diagnostic")
SETUP_RUNS = 9
RUN_BUDGET_S = 170.0
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    # Fixed mmap and trim thresholds: with glibc's adaptive threshold the
    # (trajectories x dim) arrays of the noisy oracle are mmapped afresh in
    # some processes and not in others, a 1.4x swing between runs.
    "GLIBC_TUNABLES": "glibc.malloc.mmap_threshold=33554432"
                      ":glibc.malloc.trim_threshold=268435456",
}

# The metrics BENCHMARK.json lists, with their units.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "step_ms_p50": "ms",
    "work_per_s": "1/s",
    "fidelity_mean": "1",
    "pass_rate_099": "1",
    "ok_ratio": "1",
}

# Spans reported as <name>.calls and <name>.s in the traced run.
CALLS_AND_S = ("circuit.mottonen_prepare", "circuit.build_swap_test",
               "circuit.simulate", "circuit.lower_to_basis",
               "noise.execute_trajectories", "noise.calibrated_noise_model",
               "estimators.decode", "core.overlap_fidelity",
               "core.hilbert_schmidt_overlap", "core.uhlmann_fidelity",
               "core.DensityMatrix", "core.half_chain_entropy",
               "store.deposit", "store.withdraw")
PER_LAYER = {
    **{f"{name}.{kind}": unit for name in CALLS_AND_S
       for kind, unit in (("calls", "count"), ("s", "s"))},
    "circuit.gates_built": "count",
    "circuit.gates_simulated": "count",
    "circuit.bytes_moved_computed": "B",
    "noise.trajectories": "count",
    "noise.channel_applications": "count",
    "noise.bytes_moved_computed": "B",
    "noise.minor_faults": "count",
    "estimators.oracle_evals": "count",
    "estimators.oracle.s": "s",
    "estimators.network.s": "s",
    "estimators.adam.s": "s",
    "estimators.decode_waste_ratio": "1",
    "estimators.engine_self_s": "s",
    "estimators.iterations": "count",
    "estimators.iters_to_099_mean": "count",
    "harness.emit_report.s": "s",
    "harness.emit_bytes": "B",
    "store.prepare_s": "s",
    "store.list.s": "s",
    "store.bytes_written": "B",
    "store.bytes_read": "B",
    "store.dedup_ratio": "1",
    **{f"{module}.{kind}": unit
       for module in ("harness", "estimators", "circuit", "noise", "core", "store",
                      "trace", "bench")
       for kind, unit in (("self_s", "s"), ("share", "1"))},
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_ratio": "1",
    "trace.spans": "count",
}


def git_rev() -> str | None:
    """The commit of the checkout, when it is a git work tree."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def child(args, out: Path, setup_only: bool, deadline: float) -> dict | None:
    """Run one workload process and return its result, or None if it failed."""
    result_file = out / ("setup.json" if setup_only else "result.json")
    cmd = [sys.executable, str(HERE / "workloads.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(out), "--result", str(result_file)]
    if setup_only:
        cmd.append("--setup-only")
    if args.tiny:
        cmd.append("--tiny")
    env = dict(os.environ, **CHILD_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print(f"{args.workload}: workload process timed out", file=sys.stderr)
        return None
    if proc.returncode != 0 or not result_file.is_file():
        print(f"{args.workload}: workload process exited with {proc.returncode}",
              file=sys.stderr)
        return None
    return json.loads(result_file.read_text())


def report(args, result: dict, setup_times: list):
    """Human-readable lines: every applicable metric with its unit, and the env."""
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}  tiny {args.tiny}")
    print(f"  setup_s samples: {', '.join(f'{s:.4f}' for s in setup_times)}")
    for name, metric in sorted(result.get("metrics", {}).items()):
        extra = result.get("tails", {}).get(name)
        note = ""
        if extra:
            note = (f"  (p{extra['percentile']}, {extra['samples']} samples)"
                    if extra["percentile"] is not None
                    else f"  (n/a: {extra['samples']} samples, fewer than 11)")
        value = metric["value"]
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<34} {shown:>14} {metric['unit']}{note}")
    for name, value in sorted(result.get("per_layer", {}).items()):
        print(f"  {name:<34} {value:>14.6g} {PER_LAYER[name]}")
    for key, value in sorted(result.get("env", {}).items()):
        print(f"  env.{key} = {value}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="minimal sizes, one setup; for the smoke test")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_BUDGET_S
    if not (ROOT / "src" / "qsnapshot" / "__init__.py").is_file():
        print(f"no qsnapshot sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out = HERE / "out" / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    setup_times = []  # set-up probes only where setup_s is reported
    for k in range(0 if args.tiny or args.trace else SETUP_RUNS - 1):
        probe = child(args, out / f"setup-{k}", True, deadline)
        if probe is None:
            return 1
        setup_times.append(probe["setup_s"])
    result = child(args, out / "run", False, deadline)
    for store_dir in sorted(out.glob("**/store"), reverse=True):
        shutil.rmtree(store_dir)  # thousands of files, digested already
    if result is None:
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    setup_times.append(result["setup_s"])
    result["env"]["git_rev"] = git_rev()
    result["env"]["setup_runs"] = len(setup_times)
    if result["failed"]:
        print(f"{args.workload}: check failed: {result['error']}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": result["attempted"],
                          "failed": result["failed"], "metrics": {}}))
        return 1

    if args.trace:
        metrics = {name: {"value": result["per_layer"][name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        result["metrics"]["setup_s"] = {"value": statistics.median(setup_times),
                                        "unit": "s"}
        result["metrics"]["peak_rss_mb"] = {"value": result["peak_rss_mb"],
                                            "unit": "MB"}
        metrics = {name: result["metrics"][name] for name in END_TO_END}
    (out / "summary.json").write_text(json.dumps(
        {"args": vars(args), "setup_times_s": setup_times, **result},
        indent=1, sort_keys=True) + "\n")
    report(args, result, setup_times)
    print(json.dumps({"correct": True, "attempted": result["attempted"],
                      "failed": 0, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
