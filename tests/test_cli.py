"""End-to-end tests of the command-line interface and its exit codes."""

import argparse
import dataclasses
import hashlib
import inspect
import json
import re
import shlex
import time
from pathlib import Path

import pytest

from qsnapshot.cli import build_parser, main
from qsnapshot.core import json_bytes
from qsnapshot.estimators import EsConfig, FidelityOracle
from qsnapshot.harness import ExperimentSpec


def run_cli(*args):
    return main(list(args))


SHAPE_MESSAGE = 'expected {"amplitudes": [[re, im], ...]}'  # a state file of another shape

# a state file with every metadata key the store keeps
DOCUMENT = {"amplitudes": [[0.6, 0.0], [0.0, 0.8]], "method": "qeswap",
            "representation": "statevector", "best_fidelity": 0.998, "epochs": 7,
            "created_at": "2026-10-21T12:00:00+00:00", "seed": 5, "label": "cut@3"}


class TestExitCodes:
    def test_usage_error_bad_noise(self, tmp_path):
        assert run_cli("cohort", "--noise", "bogus", "--out", str(tmp_path)) == 1

    def test_usage_error_unknown_command(self):
        assert run_cli("frobnicate") == 1

    def test_runtime_error_missing_snapshot(self, tmp_path):
        assert run_cli("withdraw", "deadbeef", "--store", str(tmp_path)) == 2

    def test_runtime_error_path_like_snapshot_id(self, tmp_path):
        assert run_cli("withdraw", "../" + "0" * 64, "--store", str(tmp_path)) == 2

    @pytest.mark.parametrize("command,qubits,message", [
        ("cohort", "0", "n_qubits must be >= 1, got 0"),
        ("standard", "0", "n_qubits must be >= 1, got 0"),
        ("cohort", "15", "width 31: 50 x 2^31 amplitudes of 16 bytes"),
        # widths whose 2^n has 30,103 digits and more: sized as exponents, never built
        ("cohort", "100000", "width 200001: 50 x 2^200001 amplitudes of 16 bytes, over the "
                             "1073741824-byte limit"),
        ("mixed-diagnostic", "100000", "density matrices: 50 x 2^200000 amplitudes of 16 "
                                       "bytes"),
        ("cohort", "1000000000", "width 2000000001: 50 x 2^2000000001 amplitudes"),
        ("mixed-diagnostic", "1000000000", "50 x 2^2000000000 amplitudes"),
        ("cohort", "100000000000", "50 x 2^200000000001 amplitudes of 16 bytes"),
        ("mixed-diagnostic", "100000000000", "50 x 2^200000000000 amplitudes of 16 bytes"),
    ])
    def test_runtime_error_unsimulable_width(self, tmp_path, capsys, command,
                                             qubits, message):
        out = tmp_path / "o"
        start = time.monotonic()
        assert run_cli(command, "--qubits", qubits, "--out", str(out)) == 2
        assert time.monotonic() - start < 1.0
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_runtime_error_noise_file_t2_above_t1(self, tmp_path, capsys):
        cfg = tmp_path / "noise.cfg"
        cfg.write_text("t1=100\nt2=150\n")
        out = tmp_path / "o"
        assert run_cli("cohort", "--noise", f"file:{cfg}", "--trials", "1",
                       "--out", str(out)) == 2
        assert "t2=150.0 > t1=100.0 is not supported" in capsys.readouterr().err
        assert not out.exists()

    def test_runtime_error_density_cohort(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert run_cli("cohort", "--repr", "density", "--trials", "1",
                       "--max-iter", "2", "--out", str(out)) == 2
        assert "use mixed-diagnostic" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--qubits", "--trials"])
    def test_runtime_error_empty_mixed_diagnostic(self, tmp_path, capsys, flag):
        out = tmp_path / "o"
        assert run_cli("mixed-diagnostic", flag, "0", "--out", str(out)) == 2
        assert "error: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ["mixed-diagnostic", "--noise", "bogus", "--trials", "1", "--max-iter", "2",
         "--out", "OUT"],
        ["entropy", "--gate", "1.0", "--qubits", "2", "--trials", "1", "--max-iter", "2",
         "--out", "OUT"],
        ["entropy", "--repr", "unitary", "--qubits", "2", "--trials", "1", "--max-iter", "2",
         "--out", "OUT"],
        ["snapshot", "--circuit", "CIRCUIT", "--cut", "2", "--max-iter", "2", "--out", "OUT"],
        ["standard", "--threshold", "0.95", "--max-iter", "2", "--out", "OUT"],
        ["snapshot", "--circuit", "CIRCUIT", "--cut", "2", "--qubits", "2", "--max-iter", "2",
         "--store", "OUT"],
        ["cohort", "--gate", "nan", "--trials", "1", "--max-iter", "1", "--out", "OUT"],
        ["cohort", "--gate", "1.5", "--trials", "1", "--max-iter", "1", "--out", "OUT"],
        ["standard", "--gate", "nan", "--max-iter", "1", "--out", "OUT"],
        ["standard", "--gate", "-0.1", "--max-iter", "1", "--out", "OUT"],
        ["cohort", "--shots", "many", "--trials", "1", "--max-iter", "1", "--out", "OUT"],
    ], ids=["mixed-diagnostic--noise", "entropy--gate", "entropy--repr",
            "snapshot--out", "standard--threshold", "snapshot--qubits", "cohort--gate-nan",
            "cohort--gate-1.5", "standard--gate-nan", "standard--gate-neg",
            "cohort--shots-many"])
    def test_usage_error_flag_not_taken(self, tmp_path, args):
        # each case passes one flag its subcommand does not take, a --gate
        # that is no fraction in [0, 1], or a --shots that is no integer; the
        # rest would run and write to OUT
        circ = tmp_path / "circ.txt"
        circ.write_text("H 0\nCX 0,1\n")
        out = tmp_path / "o"
        args = [{"CIRCUIT": str(circ), "OUT": str(out)}.get(a, a) for a in args]
        assert run_cli(*args) == 1
        assert not out.exists()

    @pytest.mark.parametrize("args,message", [
        (["cohort", "--trials", "1", "--max-iter", "0"], "max_epochs must be >= 1, got 0"),
        (["cohort", "--trials", "1", "--max-iter", "-3"], "max_epochs must be >= 1, got -3"),
        (["cohort", "--trials", "1", "--noise", "paper", "--shots", "100"],
         "noise and shots cannot be combined"),
        (["standard", "--max-iter", "0"], "max_epochs must be >= 1, got 0"),
        (["mixed-diagnostic", "--trials", "1", "--max-iter", "0"],
         "max_iter must be >= 1, got 0"),
        (["cohort", "--trials", "1", "--shots", "0"], "shots must be >= 1, got 0"),
        (["cohort", "--trials", "1", "--shots", "-2"], "shots must be >= 1, got -2"),
        (["cohort", "--trials", "1", "--threshold", "0.5", "--threshold", "0.5"],
         "thresholds must be distinct, got [0.5, 0.5]"),
        (["mixed-diagnostic", "--qubits", "11"],
         "n_qubits=11 needs density matrices: 50 x 2^22 amplitudes of 16 bytes"),
    ], ids=["cohort-0", "cohort-neg", "noise-shots", "standard-0", "mixed-0", "shots-0",
            "shots-neg", "threshold-twice", "mixed-width"])
    def test_runtime_error_spec_rejected(self, tmp_path, capsys, args, message):
        out = tmp_path / "o"
        assert run_cli(*args, "--out", str(out)) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("line, message", [
        ("RZ q0 abc", ":2: 'RZ q0 abc': could not convert string to float: 'abc'"),
        ("CX q0", ":2: 'CX q0': CX expects 2 qubits"),
        ("H qx", ":2: 'H qx': invalid literal for int()"),
        ("RZ q0", ":2: 'RZ q0': RZ requires a parameter"),
        ("H", ":2: 'H': expected KIND q0[,q1,...] [theta]"),
        ("H q-1", ":2: 'H q-1': qubit must be >= 0, got -1"),
        ("H q0\nMEASURE q0\nX q0", ":4: 'X q0': gate X follows MEASURE on qubit 0"),
        ("DELAY q0 -5", ":2: 'DELAY q0 -5': DELAY duration must be >= 0, got -5.0"),
        ("RESET q0", ":2: 'RESET q0': unknown gate kind 'RESET'"),
    ], ids=["bad-angle", "cx-arity", "bad-qubit", "no-angle", "one-token", "negative-qubit",
            "after-measure", "negative-delay", "reset"])
    def test_runtime_error_bad_circuit_file_names_its_line(self, tmp_path, capsys, line,
                                                           message):
        circ = tmp_path / "circ.txt"
        circ.write_text(f"# a circuit\n{line}\n")
        assert run_cli("snapshot", "--circuit", str(circ), "--cut", "1",
                       "--max-iter", "2") == 2
        assert f"error: {circ}{message}" in capsys.readouterr().err

    def test_runtime_error_prefix_that_measures_names_the_gate(self, tmp_path, capsys):
        circ = tmp_path / "circ.txt"
        circ.write_text("H 0\nMEASURE 0\nX 1\n")
        assert run_cli("snapshot", "--circuit", str(circ), "--cut", "3",
                       "--max-iter", "2") == 2
        assert "error: gate 1 is MEASURE on qubit 0:" in capsys.readouterr().err
        assert run_cli("snapshot", "--circuit", str(circ), "--cut", "1",
                       "--max-iter", "2") == 0

    @pytest.mark.parametrize("extra", [[], ["--gate", "1.0"]])
    def test_runtime_error_standard_width_without_catalog(self, tmp_path, capsys, extra):
        out = tmp_path / "o"
        assert run_cli("standard", "--qubits", "4", "--out", str(out), *extra) == 2
        assert "error: the standard-state catalog has no 4-qubit states" in capsys.readouterr().err
        assert not out.exists()

    def test_runtime_error_unreadable_sidecar(self, tmp_path, capsys):
        state = tmp_path / "s.json"
        state.write_text(json.dumps({"amplitudes": [[1.0, 0.0], [0.0, 0.0]]}))
        assert run_cli("deposit", "--state", str(state), "--store", str(tmp_path / "st")) == 0
        ident = capsys.readouterr().out.strip()
        (tmp_path / "st" / f"{ident}.json").write_text("")
        assert run_cli("withdraw", ident, "--store", str(tmp_path / "st")) == 2
        assert "error: metadata of" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        (json.dumps({"label": "no amplitudes"}), SHAPE_MESSAGE),
        (json.dumps([[1.0, 0.0], [0.0, 0.0]]), SHAPE_MESSAGE),
        (json.dumps({"amplitudes": [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]}), SHAPE_MESSAGE),
        ('{"amplitudes": [[1.0, 0.0], [0.0', "not valid JSON: Expecting"),
        (json.dumps({"amplitudes": [[True, 0], [False, 0]]}), SHAPE_MESSAGE),
        (json.dumps({"amplitudes": [[10**400, 0], [0, 0]]}), SHAPE_MESSAGE),
    ], ids=["no-amplitudes", "top-level-list", "three-entry-pair", "truncated",
            "boolean-entry", "integer-beyond-float"])
    def test_runtime_error_malformed_state_file(self, tmp_path, capsys, text, message):
        state = tmp_path / "s.json"
        state.write_text(text)
        store = tmp_path / "st"
        assert run_cli("deposit", "--state", str(state), "--store", str(store)) == 2
        assert f"error: {state}: {message}" in capsys.readouterr().err
        assert not store.exists()

    @pytest.mark.parametrize("amplitudes, message", [
        ([], "amplitude count 0 is not a power of two"),
        ([[1e200, 0.0], [1e200, 0.0]], "state vector norm inf deviates from 1"),
    ], ids=["empty", "huge"])
    def test_runtime_error_state_file_not_a_state(self, tmp_path, capsys, amplitudes, message):
        # any numpy warning on the way fails this under the RuntimeWarning error filter
        state = tmp_path / "s.json"
        state.write_text(json.dumps({"amplitudes": amplitudes}))
        store = tmp_path / "st"
        assert run_cli("deposit", "--state", str(state), "--store", str(store)) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not store.exists()

    def test_gate_miss(self, tmp_path):
        # 1 iteration of 2 candidates almost never reaches 0.999
        code = run_cli(
            "cohort", "--qubits", "2", "--trials", "2", "--max-iter", "1",
            "--threshold", "0.999", "--out", str(tmp_path), "--gate", "1.0",
            "--seed", "3",
        )
        assert code == 3


SPEC_FLAGS = "--method --noise --trajectories --shots --seed --max-iter"
FLAG_SETS = {
    "cohort": f"{SPEC_FLAGS} --qubits --repr --trials --threshold --out --gate",
    "standard": f"{SPEC_FLAGS} --qubits --repr --out --gate",
    "entropy": f"{SPEC_FLAGS} --qubits --trials --out",
    "snapshot": f"{SPEC_FLAGS} --repr --circuit --cut --store",
    "mixed-diagnostic": "--qubits --trials --seed --max-iter --out",
    "deposit": "--state --store",
    "withdraw": "--store --out-file --circuit-out",
    "list": "--store",
}


@pytest.mark.parametrize("command", FLAG_SETS)
def test_flag_set(command):
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(FLAG_SETS)
    taken = {o for a in sub.choices[command]._actions for o in a.option_strings}
    assert taken - {"-h", "--help"} == set(FLAG_SETS[command].split())


def _readme_cli_lines() -> list:
    """The ``qsnapshot ...`` lines of the README's CLI ``sh`` block."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = re.search(r"## CLI\n.*?```sh\n(.*?)```", readme, re.S).group(1)
    return [line for line in block.splitlines() if line.startswith("qsnapshot ")]


def test_readme_cli_lines_parse():
    # every documented invocation must be one the parser takes
    lines = _readme_cli_lines()
    assert {line.split()[1] for line in lines} == set(FLAG_SETS)
    for line in lines:
        argv = shlex.split(line.replace("<id>", "0" * 64).replace("[", "").replace("]", ""))
        try:
            build_parser().parse_args(argv[1:])
        except SystemExit as exc:
            pytest.fail(f"README line does not parse (exit {exc.code}): {line}")


def test_library_owns_the_defaults():
    # a flag left out must not restate a default: the spec's, or the
    # diagnostic's, which the same dests feed
    spec_fields = {f.name for f in dataclasses.fields(ExperimentSpec)}
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    checked = 0
    for command, parser in sub.choices.items():
        for action in parser._actions:
            if action.dest in spec_fields:
                assert action.default is None, (command, action.dest, action.default)
                checked += 1
    assert checked > 0
    spec, es = ExperimentSpec(), EsConfig()
    assert (spec.population, spec.sigma, spec.alpha) == (es.population, es.sigma, es.alpha)
    oracle_default = inspect.signature(FidelityOracle).parameters["trajectories"].default
    assert spec.trajectories == oracle_default == FidelityOracle.TRAJECTORIES


class TestCohortCommand:
    def test_success_writes_outputs(self, tmp_path):
        code = run_cli("cohort", "--qubits", "1", "--trials", "2",
                       "--seed", "1", "--out", str(tmp_path))
        assert code == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert len(summary["trials"]) == 2
        assert (tmp_path / "trials.csv").exists()
        assert (tmp_path / "trace.csv").exists()

    def test_shots_flag(self, tmp_path):
        code = run_cli("cohort", "--qubits", "1", "--trials", "1",
                       "--shots", "2000", "--max-iter", "10",
                       "--out", str(tmp_path))
        assert code == 0

    def test_noise_file(self, tmp_path):
        cfg = tmp_path / "noise.cfg"
        cfg.write_text("depol_1q=0.0\ndepol_2q=0.0\nbit_flip_p=0.0\n"
                       "readout_len=0\ngate_len_1q=0\ngate_len_2q=0\n"
                       "t1=1e9\nt2=1e9\n")
        code = run_cli("cohort", "--qubits", "1", "--trials", "1",
                       "--noise", f"file:{cfg}", "--trajectories", "20",
                       "--max-iter", "10", "--out", str(tmp_path / "o"))
        assert code == 0


class TestSnapshotAndStore:
    def test_snapshot_deposit_withdraw_list(self, tmp_path):
        circ = tmp_path / "circ.txt"
        circ.write_text("H 0\nCX 0,1\n")
        store = tmp_path / "store"
        assert run_cli("snapshot", "--circuit", str(circ), "--cut", "2",
                       "--max-iter", "60", "--store", str(store)) == 0
        idents = sorted(p.stem for p in store.glob("*.qsnap"))
        assert len(idents) == 1
        assert run_cli("list", "--store", str(store)) == 0
        out_file = tmp_path / "state.json"
        assert run_cli("withdraw", idents[0], "--store", str(store),
                       "--out-file", str(out_file)) == 0
        payload = json.loads(out_file.read_text())
        assert payload["n_qubits"] == 2

    @pytest.mark.parametrize("amplitudes", [[[1.0, 0.0], [0.0, 0.0]], [[0.6, 0.0], [0.0, 0.8]],
                                            [[0.5, 0.0], [0.0, 0.5], [-0.5, 0.0], [0.0, -0.5]]],
                             ids=["zero", "phased", "two-qubit"])
    def test_withdrawn_preparation_resumes_as_a_circuit(self, tmp_path, capsys, amplitudes):
        # the reload path: deposit, withdraw the preparation, snapshot its end
        state = tmp_path / "state.json"
        state.write_text(json.dumps({"amplitudes": amplitudes}))
        store, circ = tmp_path / "store", tmp_path / "prep.txt"
        assert run_cli("deposit", "--state", str(state), "--store", str(store)) == 0
        ident = capsys.readouterr().out.strip()
        assert run_cli("withdraw", ident, "--store", str(store), "--out-file",
                       str(tmp_path / "out.json"), "--circuit-out", str(circ)) == 0
        cut = sum(1 for line in circ.read_text().splitlines() if line)  # every gate
        assert run_cli("snapshot", "--circuit", str(circ), "--cut", str(cut),
                       "--max-iter", "2") == 0
        assert f"snapshot cut@{cut}:" in capsys.readouterr().out

    def test_deposit_from_json(self, tmp_path):
        state_file = tmp_path / "state.json"
        state_file.write_text(json.dumps({
            "amplitudes": [[1.0, 0.0], [0.0, 0.0]], "label": "ground",
        }))
        store = tmp_path / "store"
        assert run_cli("deposit", "--state", str(state_file),
                       "--store", str(store)) == 0
        assert len(list(store.glob("*.qsnap"))) == 1

    def _deposit_document(self, tmp_path, capsys) -> tuple:
        state = tmp_path / "state.json"
        state.write_text(json.dumps(DOCUMENT))
        store = tmp_path / "store"
        assert run_cli("deposit", "--state", str(state), "--store", str(store)) == 0
        return store, capsys.readouterr().out.strip()

    def test_withdraw_writes_what_deposit_reads(self, tmp_path, capsys):
        store, ident = self._deposit_document(tmp_path, capsys)
        sidecar = (store / f"{ident}.json").read_bytes()
        assert json.loads(sidecar) == {k: v for k, v in DOCUMENT.items() if k != "amplitudes"}
        out_file = tmp_path / "withdrawn.json"
        assert run_cli("withdraw", ident, "--store", str(store),
                       "--out-file", str(out_file)) == 0
        capsys.readouterr()
        for target in (store, tmp_path / "fresh"):
            assert run_cli("deposit", "--state", str(out_file), "--store", str(target)) == 0
            assert capsys.readouterr().out.strip() == ident
            assert (target / f"{ident}.json").read_bytes() == sidecar

    def test_withdraw_prints_what_it_writes(self, tmp_path, capsys):
        store, ident = self._deposit_document(tmp_path, capsys)
        assert run_cli("withdraw", ident, "--store", str(store)) == 0
        printed = capsys.readouterr().out
        out_file = tmp_path / "withdrawn.json"
        assert run_cli("withdraw", ident, "--store", str(store),
                       "--out-file", str(out_file)) == 0
        assert printed.encode() == out_file.read_bytes() == json_bytes(
            {**DOCUMENT, "n_qubits": 1})


class TestOtherCommands:
    def test_standard(self, tmp_path):
        assert run_cli("standard", "--qubits", "1", "--max-iter", "40",
                       "--out", str(tmp_path)) == 0
        assert (tmp_path / "standard.csv").exists()

    @pytest.mark.parametrize("max_iter,gate,code", [("40", "1.0", 0), ("1", "0.25", 3)])
    def test_standard_gate(self, tmp_path, max_iter, gate, code):
        # 40 iterations bring all four 1-qubit states past 0.99, 1 iteration none
        assert run_cli("standard", "--qubits", "1", "--max-iter", max_iter,
                       "--gate", gate, "--out", str(tmp_path)) == code

    def test_entropy(self, tmp_path):
        assert run_cli("entropy", "--qubits", "2", "--trials", "2",
                       "--max-iter", "60", "--out", str(tmp_path)) == 0
        assert (tmp_path / "entropy.csv").exists()
        assert (tmp_path / "entropy.json").exists()

    def test_entropy_requires_two_qubits(self, tmp_path):
        assert run_cli("entropy", "--qubits", "1", "--out", str(tmp_path)) == 1

    def test_mixed_diagnostic(self, tmp_path):
        assert run_cli("mixed-diagnostic", "--qubits", "2", "--trials", "1",
                       "--max-iter", "150", "--out", str(tmp_path)) == 0
        payload = json.loads((tmp_path / "mixed_diagnostic.json").read_text())
        assert payload["summary"]["n_targets"] == 1


# SHA-256 of every file each fixed-seed run writes. Any change to the emitted
# bytes (formatting, field order, float rendering, RNG draws) changes them.
GOLDEN_OUTPUTS = {
    "cohort": (("cohort", "--qubits", "2", "--trials", "2", "--max-iter", "10",
                "--seed", "4"), {
        "summary.json":
            "fd1be368bb5855df9f53c7fd8128fd8a578489ea117b9529fd1ac0f8a8df26ce",
        "trace.csv":
            "544478c9bf363107915a93e3b6904ce1c88c118c4f151863f24e42e4cc54d450",
        "trials.csv":
            "bbd491da10a432968abff3272df03ba78cbd37eac8f42142b11bc3f0097a923f",
    }),
    # the default signal, named by its flags, writes the same bytes as "cohort"
    "cohort-noise-off-analytic": (("cohort", "--qubits", "2", "--trials", "2",
                                   "--max-iter", "10", "--seed", "4",
                                   "--noise", "off", "--shots", "analytic"), {
        "summary.json":
            "fd1be368bb5855df9f53c7fd8128fd8a578489ea117b9529fd1ac0f8a8df26ce",
        "trace.csv":
            "544478c9bf363107915a93e3b6904ce1c88c118c4f151863f24e42e4cc54d450",
        "trials.csv":
            "bbd491da10a432968abff3272df03ba78cbd37eac8f42142b11bc3f0097a923f",
    }),
    "cohort-noisy": (("cohort", "--qubits", "1", "--trials", "1", "--max-iter", "3",
                      "--noise", "paper", "--trajectories", "50", "--seed", "5"), {
        "summary.json":
            "5207ff53c54cd82ecca0d5736057048b848178dd82d51cae3842e4d1078cf3a5",
        "trace.csv":
            "40dd9dbf91a15dfad26c46cdba199ecdca0075b9d8f545e7897ab37cd506f317",
        "trials.csv":
            "8d9c137d7f10fdd668022fe9b73742ef26fd32cdb01067432ea9fa9efbd9cf08",
    }),
    "standard": (("standard", "--qubits", "2", "--max-iter", "10", "--seed", "6"), {
        "standard.csv":
            "0d5d5b3a2e46a5cf54b6a824b3b8bffe9102668d7e00cf0e42163883059cde1e",
    }),
    "entropy": (("entropy", "--qubits", "2", "--trials", "2", "--max-iter", "10",
                 "--seed", "7"), {
        "entropy.csv":
            "67a9c83e7e23b80f04792753ae3ef226173ef63ef3af8ff10036d5877907f3ae",
        "entropy.json":
            "89f42455b669ed812ea04bd24600647ba57458d45a2a7e4d74d82d27e03afa5d",
    }),
    "mixed-diagnostic": (("mixed-diagnostic", "--qubits", "2", "--trials", "1",
                          "--max-iter", "10", "--seed", "8"), {
        "mixed_diagnostic.json":
            "25bc567c9160bc6e7a59723d9fd95eaca936f27adc1cee687c472822ff88a7ed",
    }),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_OUTPUTS))
def test_golden_outputs(case, tmp_path):
    args, digests = GOLDEN_OUTPUTS[case]
    assert run_cli(*args, "--out", str(tmp_path / "out")) == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in (tmp_path / "out").iterdir()}
    assert written == digests, (
        "golden digests hold only on the BLAS kernel they were recorded on; if "
        "test_estimators.py::test_blas_kernel_canary fails as well, the kernel changed the bits")
