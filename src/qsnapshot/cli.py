"""Command-line front end.

Subcommands: cohort, standard, entropy, snapshot, mixed-diagnostic, deposit,
withdraw, list. Exit codes: 0 success, 1 usage error, 2 runtime failure,
3 gating-threshold miss.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .circuit import Gate, QuantumCircuit
from .core import StateVector
from .harness import (
    ExperimentSpec,
    emit_report,
    run_cohort,
    run_entropy_analysis,
    run_midcircuit_snapshot,
    run_mixed_state_diagnostic,
    run_standard_states,
    write_entropy_rows,
    write_standard_rows,
)
from .noise import NoiseParams
from .store import SnapshotRecord, StoreError, deposit, list_snapshots, withdraw

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2
EXIT_GATE = 3


class UsageError(Exception):
    pass


def _parse_noise(text: str) -> NoiseParams | None:
    if text == "off":
        return None
    if text == "paper":
        return NoiseParams()
    if text.startswith("file:"):
        return NoiseParams.from_file(text[5:])
    raise UsageError(f"--noise must be off, paper, or file:<path>; got {text!r}")


def _parse_shots(text: str) -> int | None:
    if text == "analytic":
        return None
    try:
        shots = int(text)
    except ValueError as exc:
        raise UsageError(f"--shots must be an integer or 'analytic', got {text!r}") from exc
    if shots < 1:
        raise UsageError("--shots must be positive")
    return shots


def _build_spec(args) -> ExperimentSpec:
    # a spec or noise file the library rejects is a runtime failure (exit 2)
    thresholds = tuple(args.threshold) if args.threshold else (0.95, 0.99)
    return ExperimentSpec(
        method=args.method,
        representation=args.repr,
        n_qubits=args.qubits,
        n_trials=args.trials,
        noise=_parse_noise(args.noise),
        trajectories=args.trajectories,
        shots=_parse_shots(args.shots),
        thresholds=thresholds,
        seed=args.seed,
        max_epochs=args.max_iter,
    )


def _add_shared(parser: argparse.ArgumentParser, trials: bool = True):
    parser.add_argument("--method", choices=("gradient", "qeswap"), default="qeswap")
    parser.add_argument("--repr", choices=("statevector", "unitary", "density"),
                        default="statevector")
    parser.add_argument("--qubits", type=int, default=1)
    if trials:
        parser.add_argument("--trials", type=int, default=20)
    parser.add_argument("--noise", default="off",
                        help="off, paper, or file:<path> (key=value overrides)")
    parser.add_argument("--trajectories", type=int, default=2000)
    parser.add_argument("--shots", default="analytic",
                        help="shot count for sampled oracles, or 'analytic'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="out")
    parser.add_argument("--threshold", type=float, action="append",
                        help="fidelity threshold to track (repeatable)")
    parser.add_argument("--max-iter", type=int, default=None)
    parser.add_argument("--gate", type=float, default=None,
                        help="exit 3 unless the pass rate at the top threshold "
                             "meets this fraction")


def _parse_circuit_file(path: str) -> QuantumCircuit:
    """One gate per line: KIND q0[,q1,...] [theta]. '#' starts a comment."""
    lines = Path(path).read_text().splitlines()
    n_qubits = 0
    gates = []
    for raw_line in lines:
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.replace("(theta=", " ").replace(")", " ").split()
        kind = parts[0].upper()
        if len(parts) < 2:
            raise UsageError(f"bad circuit line {raw_line!r}")
        qubits = tuple(int(tok.lstrip("q")) for tok in parts[1].split(","))
        param = float(parts[2]) if len(parts) > 2 else None
        gates.append(Gate(kind, qubits, param))
        n_qubits = max(n_qubits, max(qubits) + 1)
    return QuantumCircuit(n_qubits, gates)


# ---------------------------------------------------------------------------
# Subcommand handlers


def _cmd_cohort(args) -> int:
    spec = _build_spec(args)
    summary = run_cohort(spec)
    paths = emit_report(summary, args.out)
    print(f"cohort: {spec.n_trials} trials, mean fidelity "
          f"{summary.mean_fidelity:.4f}; wrote {', '.join(str(p) for p in paths)}")
    if args.gate is not None:
        top = max(spec.thresholds)
        if summary.pass_rate[top] < args.gate:
            print(f"gate miss: pass rate {summary.pass_rate[top]:.2f} at "
                  f"{top} below {args.gate}", file=sys.stderr)
            return EXIT_GATE
    return EXIT_OK


def _cmd_standard(args) -> int:
    spec = _build_spec(args)
    rows = run_standard_states(spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_standard_rows(rows, out / "standard.csv")
    for r in rows:
        fid = "NA" if r["best_fidelity"] is None else f"{r['best_fidelity']:.4f}"
        print(f"{r['state']}: fidelity {fid}")
    if args.gate is not None:
        ok = [r for r in rows if r["error"] is None
              and r["best_fidelity"] is not None and r["best_fidelity"] >= 0.99]
        if not rows or len(ok) / len(rows) < args.gate:
            return EXIT_GATE
    return EXIT_OK


def _cmd_entropy(args) -> int:
    spec = _build_spec(args)
    if spec.n_qubits < 2:
        raise UsageError("entropy analysis needs --qubits >= 2")
    summary = run_cohort(spec)
    analysis = run_entropy_analysis(summary)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_entropy_rows(analysis, out / "entropy.csv")
    (out / "entropy.json").write_text(
        json.dumps(analysis["summary"], indent=2, sort_keys=True) + "\n"
    )
    print(f"entropy: {analysis['summary']['n_pairs']} pairs, mean |dS| "
          f"{analysis['summary']['mean_abs_difference']}")
    return EXIT_OK


def _cmd_snapshot(args) -> int:
    spec = _build_spec(args)
    circuit = _parse_circuit_file(args.circuit)
    report = run_midcircuit_snapshot(circuit, args.cut, spec)
    print(f"snapshot {report.label}: best fidelity {report.best_fidelity:.4f} "
          f"in {report.epochs} epochs")
    if args.store is not None and report.final_candidate is not None:
        record = SnapshotRecord.from_state(
            report.final_candidate,
            method=report.method,
            representation=report.representation,
            best_fidelity=report.best_fidelity,
            epochs=report.epochs,
            seed=report.seed,
            label=report.label,
        )
        ident = deposit(record, args.store)
        print(f"deposited {ident}")
    return EXIT_OK


def _cmd_mixed_diagnostic(args) -> int:
    result = run_mixed_state_diagnostic(
        n_qubits=args.qubits, n_targets=args.trials, seed=args.seed,
        max_iter=args.max_iter or 300,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "mixed_diagnostic.json").write_text(
        json.dumps(result, indent=2, sort_keys=True) + "\n"
    )
    s = result["summary"]
    print(f"mixed diagnostic: {s['hs_driven_uhlmann_leq_095']}/{s['n_targets']} "
          f"Hilbert-Schmidt runs plateau <= 0.95; "
          f"{s['uhlmann_driven_geq_099']}/{s['n_targets']} Uhlmann runs >= 0.99")
    return EXIT_OK


def _load_state_json(path: str) -> tuple:
    data = json.loads(Path(path).read_text())
    amps = np.array([complex(re, im) for re, im in data["amplitudes"]])
    metadata = {k: v for k, v in data.items() if k != "amplitudes"}
    return StateVector.from_amplitudes(amps), metadata


def _cmd_deposit(args) -> int:
    state, metadata = _load_state_json(args.state)
    record = SnapshotRecord.from_state(state, **{
        k: metadata.get(k) for k in
        ("method", "representation", "best_fidelity", "epochs", "seed", "label")
    })
    ident = deposit(record, args.store)
    print(ident)
    return EXIT_OK


def _cmd_withdraw(args) -> int:
    state, prep = withdraw(args.id, args.store)
    payload = {
        "n_qubits": state.n_qubits,
        "amplitudes": [[a.real, a.imag] for a in state.amplitudes],
    }
    text = json.dumps(payload, indent=2) + "\n"
    if args.out_file is not None:
        Path(args.out_file).write_text(text)
        print(f"wrote {args.out_file}")
    else:
        sys.stdout.write(text)
    if args.circuit_out is not None:
        Path(args.circuit_out).write_text(prep.dump() + "\n")
        print(f"wrote {args.circuit_out}")
    return EXIT_OK


def _cmd_list(args) -> int:
    for ident in list_snapshots(args.store):
        print(ident)
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsnapshot",
        description="SWAP-test driven state reconstruction experiments "
                    "and snapshot storage",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cohort", help="reconstruct random targets and aggregate")
    _add_shared(p)
    p.set_defaults(handler=_cmd_cohort)

    p = sub.add_parser("standard", help="benchmark the standard-state catalog")
    _add_shared(p, trials=False)
    p.set_defaults(handler=_cmd_standard, trials=1)

    p = sub.add_parser("entropy", help="cohort plus half-chain entropy comparison")
    _add_shared(p)
    p.set_defaults(handler=_cmd_entropy)

    p = sub.add_parser("snapshot", help="reconstruct a circuit's state at a cut")
    _add_shared(p, trials=False)
    p.add_argument("--circuit", required=True, help="gate-list text file")
    p.add_argument("--cut", type=int, required=True, help="prefix length to snapshot")
    p.add_argument("--store", default=None, help="optionally deposit the result")
    p.set_defaults(handler=_cmd_snapshot, trials=1)

    p = sub.add_parser("mixed-diagnostic",
                       help="Hilbert-Schmidt vs Uhlmann signals on mixed targets")
    _add_shared(p)
    p.set_defaults(handler=_cmd_mixed_diagnostic)

    p = sub.add_parser("deposit", help="store a state from a JSON file")
    p.add_argument("--state", required=True, help="JSON with amplitudes [[re,im],...]")
    p.add_argument("--store", required=True)
    p.set_defaults(handler=_cmd_deposit)

    p = sub.add_parser("withdraw", help="load a stored state and its circuit")
    p.add_argument("id")
    p.add_argument("--store", required=True)
    p.add_argument("--out-file", default=None)
    p.add_argument("--circuit-out", default=None)
    p.set_defaults(handler=_cmd_withdraw)

    p = sub.add_parser("list", help="list stored snapshot identifiers")
    p.add_argument("--store", required=True)
    p.set_defaults(handler=_cmd_list)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (StoreError, FileNotFoundError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
