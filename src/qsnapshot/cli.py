"""Command-line front end.

Subcommands: cohort, standard, entropy, snapshot, mixed-diagnostic, deposit,
withdraw, list. Each flag is defined once in ``_FLAGS``, and each subcommand
takes exactly the flags its handler reads (``_COMMANDS``); any other flag is a
usage error. Exit codes: 0 success, 1 usage error, 2 runtime failure,
3 gating-threshold miss.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .circuit import Gate, QuantumCircuit, mottonen_prepare
from .core import StateVector, json_bytes
from .harness import (
    ExperimentSpec,
    emit_report,
    run_cohort,
    run_entropy_analysis,
    run_midcircuit_snapshot,
    run_mixed_state_diagnostic,
    run_standard_states,
    write_json,
    write_rows,
)
from .noise import NoiseParams
from .store import SnapshotRecord, StoreError, deposit, list_snapshots, load

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
        return int(text)  # the oracle rejects a count below 1
    except ValueError as exc:
        raise UsageError(f"--shots must be an integer or 'analytic', got {text!r}") from exc


def _parse_gate(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:  # NaN included
        raise argparse.ArgumentTypeError(f"must be a fraction in [0, 1], got {text!r}")
    return value


def _given(args, names) -> dict:
    """The flags among ``names`` that were given: the library owns every default."""
    return {name: getattr(args, name) for name in names
            if getattr(args, name, None) is not None}


def _build_spec(args, **known) -> ExperimentSpec:
    # a spec or noise file the library rejects is a runtime failure (exit 2)
    given = {**_given(args, [f.name for f in fields(ExperimentSpec)]), **known}
    if "noise" in given:
        given["noise"] = _parse_noise(given["noise"])
    if "shots" in given:
        given["shots"] = _parse_shots(given["shots"])
    return ExperimentSpec(**given)


def _parse_circuit_file(path: str) -> QuantumCircuit:
    """One gate per line: KIND q0[,q1,...] [theta]. '#' starts a comment. A
    line that gives no valid gate is an error naming its FILE:LINE. The width
    is the highest qubit named, plus one."""
    gates = []  # (line number, line, gate)
    for lineno, raw_line in enumerate(Path(path).read_text().splitlines(), 1):
        parts = raw_line.split("#", 1)[0].replace("(theta=", " ").replace(")", " ").split()
        if not parts:
            continue
        try:
            if len(parts) not in (2, 3):
                raise ValueError("expected KIND q0[,q1,...] [theta]")
            qubits = tuple(int(tok.lstrip("q")) for tok in parts[1].split(","))
            gates.append((lineno, raw_line.strip(), Gate(
                parts[0].upper(), qubits, float(parts[2]) if len(parts) > 2 else None)))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {raw_line.strip()!r}: {exc}") from exc
    # a file without gates, as the preparation of a 1-qubit |0> dumps, is 1 qubit wide
    circuit = QuantumCircuit(max((q + 1 for _, _, g in gates for q in g.qubits), default=1))
    for lineno, line, g in gates:
        try:
            circuit.add(g.kind, *g.qubits, param=g.param)
        except ValueError as exc:  # a gate after MEASURE on its qubit
            raise ValueError(f"{path}:{lineno}: {line!r}: {exc}") from exc
    return circuit


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
    write_rows(Path(args.out) / "standard.csv", ["state", "n_qubits", "epochs_to_099",
               "best_fidelity", "epochs", "error"], rows)
    for r in rows:
        fid = "NA" if r["best_fidelity"] is None else f"{r['best_fidelity']:.4f}"
        print(f"{r['state']}: fidelity {fid}")
    if args.gate is not None:
        ok = [r for r in rows if r["best_fidelity"] is not None and r["best_fidelity"] >= 0.99]
        if len(ok) / len(rows) < args.gate:
            return EXIT_GATE
    return EXIT_OK


def _cmd_entropy(args) -> int:
    spec = _build_spec(args)
    if spec.n_qubits < 2:
        raise UsageError("entropy analysis needs --qubits >= 2")
    summary = run_cohort(spec)
    analysis = run_entropy_analysis(summary)
    write_rows(Path(args.out) / "entropy.csv", ["trial", "entropy_target", "entropy_recon",
               "abs_difference", "fidelity"], analysis["pairs"])
    write_json(Path(args.out) / "entropy.json", analysis["summary"])
    print(f"entropy: {analysis['summary']['n_pairs']} pairs, mean |dS| "
          f"{analysis['summary']['mean_abs_difference']}")
    return EXIT_OK


def _cmd_snapshot(args) -> int:
    circuit = _parse_circuit_file(args.circuit)
    spec = _build_spec(args, n_qubits=circuit.n_qubits)
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
    names = {"n_qubits": "n_qubits", "n_trials": "n_targets", "seed": "seed",
             "max_epochs": "max_iter"}
    result = run_mixed_state_diagnostic(
        **{names[k]: v for k, v in _given(args, names).items()})
    write_json(Path(args.out) / "mixed_diagnostic.json", result)
    s = result["summary"]
    print(f"mixed diagnostic: {s['hs_driven_uhlmann_leq_095']}/{s['n_targets']} "
          f"Hilbert-Schmidt runs plateau <= 0.95; "
          f"{s['uhlmann_driven_geq_099']}/{s['n_targets']} Uhlmann runs >= 0.99")
    return EXIT_OK


def _load_state_json(path: str) -> tuple:
    try:
        data = json.loads(Path(path).read_text())
    except ValueError as exc:  # not text, or not JSON
        raise ValueError(f"{path}: not valid JSON: {exc}") from exc
    try:
        pairs = [(re, im) for re, im in data["amplitudes"]]
        if any(type(x) not in (int, float) for pair in pairs for x in pair):
            raise TypeError("an amplitude entry is not a JSON number")  # true is 1 to complex()
        amps = np.array([complex(re, im) for re, im in pairs])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f'{path}: expected {{"amplitudes": [[re, im], ...]}}') from exc
    return StateVector.from_amplitudes(amps), data


def _cmd_deposit(args) -> int:
    state, document = _load_state_json(args.state)
    # the record keeps the document's metadata keys and drops every other key
    print(deposit(SnapshotRecord(state, document), args.store))
    return EXIT_OK


def _cmd_withdraw(args) -> int:
    # the document deposit reads, so a round trip leaves the sidecar as it was
    record = load(args.id, args.store)
    text = json_bytes({"n_qubits": record.state.n_qubits,
                       "amplitudes": [[a.real, a.imag] for a in record.state.amplitudes],
                       **record.metadata})
    if args.out_file is not None:
        Path(args.out_file).write_bytes(text)
        print(f"wrote {args.out_file}")
    else:
        sys.stdout.write(text.decode())
    if args.circuit_out is not None:
        Path(args.circuit_out).write_text(mottonen_prepare(record.state).dump() + "\n")
        print(f"wrote {args.circuit_out}")
    return EXIT_OK


def _cmd_list(args) -> int:
    for ident in list_snapshots(args.store):
        print(ident)
    return EXIT_OK


# ---------------------------------------------------------------------------


# Every flag, defined once; a flag that sets an ExperimentSpec field is stored
# under the field's name and defaults to None, so that a flag left out keeps
# the library's default. A subcommand takes exactly the flags _COMMANDS names
# for it; a bracketed name there is optional where this table requires it.
_FLAGS = {
    "--method": {"choices": ("gradient", "qeswap")},
    "--repr": {"dest": "representation",
               "choices": ("statevector", "unitary", "density")},
    "--qubits": {"dest": "n_qubits", "type": int},
    "--trials": {"dest": "n_trials", "type": int},
    "--noise": {"help": "off, paper, or file:<path> (key=value overrides); "
                        "cannot be combined with --shots"},
    "--trajectories": {"type": int},
    "--shots": {"help": "shot count for sampled oracles, or 'analytic'"},
    "--seed": {"type": int},
    "--out": {"default": "out"},
    "--threshold": {"dest": "thresholds", "type": float, "action": "append",
                    "help": "fidelity threshold to track (repeatable)"},
    "--max-iter": {"dest": "max_epochs", "type": int, "help": "iteration budget, >= 1"},
    "--gate": {"type": _parse_gate, "default": None,
               "help": "exit 3 unless the pass rate at the top threshold "
                       "meets this fraction"},
    "--circuit": {"required": True, "help": "gate-list text file"},
    "--cut": {"type": int, "required": True, "help": "prefix length to snapshot"},
    "--store": {"required": True, "help": "snapshot store directory"},
    "--state": {"required": True, "help": "JSON with amplitudes [[re,im],...]"},
    "id": {"help": "snapshot identifier"},
    "--out-file": {"default": None},
    "--circuit-out": {"default": None},
}

# the ExperimentSpec flags, but --qubits: snapshot's width is its circuit's
_SPEC = "--method --noise --trajectories --shots --seed --max-iter"

_COMMANDS = {
    "cohort": (_cmd_cohort, "reconstruct random targets and aggregate",
               f"{_SPEC} --qubits --repr --trials --threshold --out --gate"),
    "standard": (_cmd_standard, "benchmark the standard-state catalog",
                 f"{_SPEC} --qubits --repr --out --gate"),
    "entropy": (_cmd_entropy, "cohort plus half-chain entropy comparison",
                f"{_SPEC} --qubits --trials --out"),
    "snapshot": (_cmd_snapshot, "reconstruct a circuit's state at a cut",
                 f"{_SPEC} --repr --circuit --cut [--store]"),
    "mixed-diagnostic": (_cmd_mixed_diagnostic,
                         "Hilbert-Schmidt vs Uhlmann signals on mixed targets",
                         "--qubits --trials --seed --max-iter --out"),
    "deposit": (_cmd_deposit, "store a state from a JSON file", "--state --store"),
    "withdraw": (_cmd_withdraw, "load a stored state and its circuit",
                 "id --store --out-file --circuit-out"),
    "list": (_cmd_list, "list stored snapshot identifiers", "--store"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsnapshot",
        description="SWAP-test driven state reconstruction experiments "
                    "and snapshot storage",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag in flags.split():
            kwargs = _FLAGS[flag.strip("[]")]
            if flag.startswith("["):
                kwargs = {**kwargs, "required": False}
            p.add_argument(flag.strip("[]"), **kwargs)
        p.set_defaults(handler=handler)
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
