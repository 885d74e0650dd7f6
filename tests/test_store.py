"""Tests for the content-addressed snapshot store."""

import hashlib
import json
import math
import os
import shutil
import stat
import struct
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from qsnapshot.circuit import QuantumCircuit, execute_statevector
from qsnapshot.cli import _parse_circuit_file, main
from qsnapshot.estimators import FidelityOracle
from qsnapshot.core import Rng, StateVector, overlap_fidelity, random_pure_state
from qsnapshot import store as store_module
from qsnapshot.store import (
    MAGIC,
    METADATA_KEYS,
    SnapshotIntegrityError,
    SnapshotNotFoundError,
    SnapshotRecord,
    StoreError,
    deposit,
    list_snapshots,
    load,
    withdraw,
)

SQ2 = 1.0 / math.sqrt(2.0)


@st.composite
def _cut_circuits(draw):
    """A measurement-free circuit of up to 12 gates on 1-3 qubits, and a cut."""
    n = draw(st.integers(1, 3))
    circuit = QuantumCircuit(n)
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["H", "RY", "RZ", "SX", "CX"][: 4 + (n > 1)]))
        qubits = draw(st.permutations(range(n)))[: 1 + (kind == "CX")]
        angle = draw(st.floats(-2 * math.pi, 2 * math.pi)) if kind[0] == "R" else None
        circuit.add(kind, *qubits, param=angle)
    return circuit, draw(st.integers(0, len(circuit.gates)))


class TestSnapshotRecord:
    def test_format_version(self, tmp_path):
        # a well-hashed body whose magic says version 2
        body = SnapshotRecord.from_state(StateVector.computational_basis(1)).body_bytes()
        body = MAGIC[:-1] + b"\x02" + body[len(MAGIC):]
        ident = hashlib.sha256(body).hexdigest()
        (tmp_path / f"{ident}.qsnap").write_bytes(body)
        with pytest.raises(SnapshotIntegrityError, match="bad magic header"):
            withdraw(ident, tmp_path)

    def test_state_roundtrip(self):
        s = random_pure_state(2, Rng(0))
        record = SnapshotRecord.from_state(s)
        back = record.state
        assert np.allclose(back.amplitudes, s.amplitudes)

    def test_body_layout(self):
        record = SnapshotRecord.from_state(StateVector.computational_basis(1))
        body = record.body_bytes()
        assert body[:8] == MAGIC
        assert body[8:12] == b"\x01\x00\x00\x00"  # little-endian n_qubits
        assert len(body) == 12 + 4 * 8

    # SHA-256 of the body and of the sidecar each fixed record writes, recorded
    # while a record still held its own interleaved array: the format is fixed
    FORMAT_PIN = {
        1: ("7ba91bcfb4e223a55b7657f83415d3f18af91cd989e743c20df794defe9c740b",
            "2918679fb974f28a710ab0b6fb445eb9ee8dc19de44bb4d2e925a48f666ec56c"),
        2: ("a8438df15e457487251ed6e989e6532902230914dd7ea45ccf14b61021ec8d9d",
            "60d73a70485405e4ea5cc5b4f3769310c152031436bc999116692cd6adb26cdd"),
        3: ("1e9a5f6a889f005c5da73493e93c8a17bfb4df688ecd893430c242941c77f1d2",
            "ce26604014fef29480c615a8124936312a58130cc61ed8efc30bbd7ef61a239e"),
        4: ("d5735874a6cc30dd22c368677b50a9a78ba9fda6682e0022bcc5eeb65bb47226",
            "85165dd0f92123b945f461aeba05647326b6f670b7cb9fed024ff35ed5ab4e26"),
    }

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_file_bytes_are_pinned(self, tmp_path, n):
        record = SnapshotRecord.from_state(
            random_pure_state(n, Rng(20 + n)), method="qeswap", representation="statevector",
            best_fidelity=0.99 - n / 100, epochs=10 * n, created_at=f"2025-01-0{n}T00:00:00Z",
            seed=n, label=f"pin-{n}")
        ident = deposit(record, tmp_path)
        digests = tuple(hashlib.sha256((tmp_path / f"{ident}.{ext}").read_bytes()).hexdigest()
                        for ext in ("qsnap", "json"))
        assert digests == self.FORMAT_PIN[n]

    def test_metadata_normalized_to_key_set(self):
        record = SnapshotRecord.from_state(
            StateVector.computational_basis(1), method="qeswap", extra="dropped"
        )
        assert "extra" not in record.metadata
        assert record.metadata["method"] == "qeswap"
        assert record.metadata["label"] is None


class TestDepositWithdraw:
    def test_roundtrip_bit_identical(self, tmp_path):
        s = random_pure_state(3, Rng(1))
        record = SnapshotRecord.from_state(s, method="qeswap")
        ident = deposit(record, tmp_path)
        stored = (tmp_path / f"{ident}.qsnap").read_bytes()
        assert stored == record.body_bytes()

    def test_idempotent(self, tmp_path):
        record = SnapshotRecord.from_state(random_pure_state(1, Rng(2)))
        i1 = deposit(record, tmp_path)
        i2 = deposit(record, tmp_path)
        assert i1 == i2
        assert len(list(tmp_path.glob("*.qsnap"))) == 1
        assert not (tmp_path / "index.jsonl").exists()

    def test_withdraw_reprepares(self, tmp_path):
        target = StateVector.from_amplitudes([SQ2, SQ2])
        ident = deposit(SnapshotRecord.from_state(target), tmp_path)
        state, circuit = withdraw(ident, tmp_path)
        assert overlap_fidelity(state, target) >= 1 - 1e-9
        prepared = execute_statevector(
            circuit, StateVector.computational_basis(circuit.n_qubits)
        )
        assert overlap_fidelity(prepared, target) >= 1 - 1e-9

    @settings(max_examples=60, deadline=None)
    @given(cut_circuit=_cut_circuits(), seed=st.integers(0, 2**32 - 1), basis=st.booleans())
    def test_reloaded_snapshot_resumes_at_its_fidelity(self, cut_circuit, seed, basis):
        # a suffix of unitary gates keeps an overlap, so the fidelity a snapshot
        # reports at the cut is the fidelity after its stored preparation resumes
        circuit, cut = cut_circuit
        n = circuit.n_qubits
        candidate = (StateVector.computational_basis(n, seed % 2**n) if basis
                     else random_pure_state(n, Rng(seed)))
        prefix = QuantumCircuit(n, circuit.gates[:cut])
        reported = FidelityOracle(prefix).evaluate(candidate)
        with tempfile.TemporaryDirectory() as store:
            ident = deposit(SnapshotRecord.from_state(
                candidate, best_fidelity=reported, label=f"cut@{cut}"), store)
            _, prep = withdraw(ident, store)
            circuit_file = Path(store) / "prep.txt"
            circuit_file.write_text(prep.dump() + "\n")
            reloaded = _parse_circuit_file(str(circuit_file))
        assert reloaded.n_qubits == n
        resumed = QuantumCircuit(n, reloaded.gates + circuit.gates[cut:])
        zero = StateVector.computational_basis(n)
        after = overlap_fidelity(execute_statevector(circuit, zero),
                                 execute_statevector(resumed, zero))
        assert abs(after - reported) <= 1e-12

    def test_numpy_scalar_metadata_writes_its_python_value(self, tmp_path):
        state = random_pure_state(1, Rng(3))
        plain = deposit(SnapshotRecord.from_state(
            state, best_fidelity=float(np.float32(0.99)), epochs=7, seed=3), tmp_path / "a")
        ident = deposit(SnapshotRecord.from_state(
            state, best_fidelity=np.float32(0.99), epochs=np.int64(7), seed=np.uint64(3)),
            tmp_path / "b")
        assert ident == plain
        assert (tmp_path / "b" / f"{ident}.json").read_bytes() == (
            tmp_path / "a" / f"{ident}.json").read_bytes()

    def test_unknown_identifier(self, tmp_path):
        with pytest.raises(SnapshotNotFoundError):
            withdraw("0" * 64, tmp_path)

    def test_path_like_identifier_rejected(self, tmp_path):
        # the identifier must not reach a stored body outside the store
        ident = deposit(SnapshotRecord.from_state(random_pure_state(1, Rng(7))),
                        tmp_path / "inner")
        (tmp_path / "other").mkdir()
        with pytest.raises(SnapshotNotFoundError):
            withdraw("../inner/" + ident, tmp_path / "other")

    @pytest.mark.parametrize("ident", ["0" * 63, "0" * 65, "A" * 64, "g" * 64, ""])
    def test_malformed_identifier_rejected(self, tmp_path, ident):
        with pytest.raises(SnapshotNotFoundError):
            withdraw(ident, tmp_path)

    def test_crash_before_body_is_repaired(self, tmp_path, monkeypatch):
        record = SnapshotRecord.from_state(random_pure_state(1, Rng(8)),
                                           method="qeswap", label="crash")
        writes = []
        original = store_module._atomic_write

        def crash_on_second(path, data):
            writes.append(path)
            if len(writes) == 2:
                raise OSError("simulated crash")
            original(path, data)

        monkeypatch.setattr(store_module, "_atomic_write", crash_on_second)
        with pytest.raises(StoreError):
            deposit(record, tmp_path)
        monkeypatch.setattr(store_module, "_atomic_write", original)
        ident = deposit(record, tmp_path)
        state, _ = withdraw(ident, tmp_path)
        assert np.array_equal(state.amplitudes, record.state.amplitudes)
        meta = json.loads((tmp_path / f"{ident}.json").read_text())
        assert meta["method"] == "qeswap"
        assert meta["label"] == "crash"

    def test_torn_body_is_repaired(self, tmp_path):
        record = SnapshotRecord.from_state(random_pure_state(2, Rng(9)), label="torn")
        ident = deposit(record, tmp_path)
        (tmp_path / f"{ident}.qsnap").write_bytes(b"")
        assert deposit(record, tmp_path) == ident
        state, _ = withdraw(ident, tmp_path)
        assert np.array_equal(state.amplitudes, record.state.amplitudes)

    @pytest.mark.parametrize("sidecar", [b"", b'{"method": "qes', b"[]", b'{"label": "other"}'])
    def test_torn_sidecar_is_repaired(self, tmp_path, sidecar):
        record = SnapshotRecord.from_state(random_pure_state(2, Rng(9)),
                                           method="qeswap", label="torn")
        ident = deposit(record, tmp_path)
        (tmp_path / f"{ident}.json").write_bytes(sidecar)
        assert deposit(record, tmp_path) == ident
        state, _ = withdraw(ident, tmp_path)
        assert np.array_equal(state.amplitudes, record.state.amplitudes)
        assert json.loads((tmp_path / f"{ident}.json").read_text()) == record.metadata

    def test_missing_sidecar_is_repaired(self, tmp_path):
        record = SnapshotRecord.from_state(random_pure_state(1, Rng(9)), label="gone")
        ident = deposit(record, tmp_path)
        (tmp_path / f"{ident}.json").unlink()
        assert deposit(record, tmp_path) == ident
        assert json.loads((tmp_path / f"{ident}.json").read_text())["label"] == "gone"

    def test_writes_sync_before_and_after_rename(self, tmp_path, monkeypatch):
        calls = []
        fsync, replace = os.fsync, os.replace

        def record_fsync(fd):
            calls.append(("fsync", stat.S_ISDIR(os.fstat(fd).st_mode)))
            fsync(fd)

        def record_replace(src, dst):
            calls.append(("replace", os.path.basename(dst)))
            replace(src, dst)

        monkeypatch.setattr(os, "fsync", record_fsync)
        monkeypatch.setattr(os, "replace", record_replace)
        ident = deposit(SnapshotRecord.from_state(random_pure_state(1, Rng(10))), tmp_path)
        # per file: the temporary file, the rename, then the directory
        assert calls == [("fsync", False), ("replace", f"{ident}.json"), ("fsync", True),
                         ("fsync", False), ("replace", f"{ident}.qsnap"), ("fsync", True)]

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(n=st.integers(1, 3), seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_any_flipped_byte_is_detected_and_repaired(self, tmp_path, n, seed, data):
        record = SnapshotRecord.from_state(random_pure_state(n, Rng(seed)))
        ident = deposit(record, tmp_path)
        body_file = tmp_path / f"{ident}.qsnap"
        body = bytearray(body_file.read_bytes())
        at = data.draw(st.integers(0, len(body) - 1), label="byte")
        body[at] ^= data.draw(st.integers(1, 255), label="mask")
        body_file.write_bytes(bytes(body))
        with pytest.raises(SnapshotIntegrityError):
            withdraw(ident, tmp_path)
        assert deposit(record, tmp_path) == ident
        state, _ = withdraw(ident, tmp_path)
        assert np.array_equal(state.amplitudes, record.state.amplitudes)

    def test_corruption_detected(self, tmp_path):
        ident = deposit(SnapshotRecord.from_state(random_pure_state(2, Rng(3))), tmp_path)
        body_file = tmp_path / f"{ident}.qsnap"
        body = bytearray(body_file.read_bytes())
        body[20] ^= 0xFF
        body_file.write_bytes(bytes(body))
        with pytest.raises(SnapshotIntegrityError):
            withdraw(ident, tmp_path)

    @pytest.mark.parametrize("values, detail", [
        (None, ""),  # the magic header alone: no width
        ((0, [1.0, 0.0]), "n_qubits must be >= 1"),  # zero qubits
        ((1, [1.0, 0.0]), "n_qubits must be >= 1"),  # two values where one qubit needs four
        ((1, [math.nan, 0.0, 0.0, 0.0]), "state vector has a non-finite amplitude"),
        ((2**32 - 1, [1.0, 0.0, 0.0, 0.0]),  # a 1-qubit state under a header of 2^32 - 1
         "header names 4294967295 qubits, the amplitudes hold 1"),
    ], ids=["magic-only", "zero-qubits", "short-for-width", "nan", "header-past-body"])
    def test_undecodable_body_is_an_integrity_error(self, tmp_path, capsys, values, detail):
        body = MAGIC if values is None else (
            MAGIC + struct.pack("<I", values[0]) + np.array(values[1], "<f8").tobytes())
        ident = hashlib.sha256(body).hexdigest()  # hashes to its own name
        (tmp_path / f"{ident}.qsnap").write_bytes(body)
        start = time.monotonic()
        with pytest.raises(SnapshotIntegrityError, match=f"body does not decode: {detail}"):
            withdraw(ident, tmp_path)
        assert main(["withdraw", ident, "--store", str(tmp_path)]) == 2
        assert time.monotonic() - start < 1.0  # no width is built from the header
        assert capsys.readouterr().err.startswith(f"error: body does not decode: {detail}")

    @pytest.mark.parametrize("sidecar", [b"", b'{"method": "qes', b"\xff\xfe{", b"[]"])
    def test_bad_sidecar_is_a_store_error(self, tmp_path, sidecar):
        ident = deposit(SnapshotRecord.from_state(random_pure_state(1, Rng(6))), tmp_path)
        (tmp_path / f"{ident}.json").write_bytes(sidecar)
        with pytest.raises(SnapshotIntegrityError, match=f"metadata of {ident}"):
            withdraw(ident, tmp_path)

    def test_metadata_sidecar(self, tmp_path):
        record = SnapshotRecord.from_state(
            random_pure_state(1, Rng(4)), method="gradient", best_fidelity=0.997
        )
        ident = deposit(record, tmp_path)
        meta = json.loads((tmp_path / f"{ident}.json").read_text())
        assert meta["method"] == "gradient"
        assert meta["best_fidelity"] == 0.997
        state, _ = withdraw(ident, tmp_path)
        assert state.n_qubits == 1

    def test_load_returns_the_stored_record(self, tmp_path):
        record = SnapshotRecord.from_state(random_pure_state(2, Rng(4)), method="qeswap",
                                           best_fidelity=0.998, epochs=7, label="cut@3")
        ident = deposit(record, tmp_path)
        loaded = load(ident, tmp_path)
        assert np.array_equal(loaded.state.amplitudes, record.state.amplitudes)
        assert loaded.metadata == record.metadata
        (tmp_path / f"{ident}.json").unlink()
        assert load(ident, tmp_path).metadata == dict.fromkeys(METADATA_KEYS)

    def test_fifty_cycles(self, tmp_path):
        rng = Rng(5)
        for i in range(50):
            n = 1 + i % 3
            s = random_pure_state(n, rng)
            record = SnapshotRecord.from_state(s)
            ident = deposit(record, tmp_path)
            state, circuit = withdraw(ident, tmp_path)
            assert np.array_equal(state.amplitudes, record.state.amplitudes)
            prepared = execute_statevector(
                circuit, StateVector.computational_basis(n)
            )
            assert overlap_fidelity(prepared, state) >= 1 - 1e-9


def _inject_faults(monkeypatch, fail_at: int) -> list:
    """Make the fail_at-th file write, os.replace or os.fsync of the store
    raise OSError; a faulted write leaves the first half of its bytes.
    Returns the fault points reached, in order."""
    reached = []

    def point(name):
        reached.append(name)
        if len(reached) == fail_at:
            raise OSError(f"injected fault at {name} #{fail_at}")

    class Writer:
        def __init__(self, fh):
            self.fh = fh

        def __getattr__(self, name):
            return getattr(self.fh, name)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            try:
                point("write")
            except OSError:
                self.fh.write(data[: len(data) // 2])
                raise
            return self.fh.write(data)

    real_open, replace, fsync = open, os.replace, os.fsync
    monkeypatch.setattr(store_module, "open", lambda *a, **k: Writer(real_open(*a, **k)),
                        raising=False)
    monkeypatch.setattr(os, "replace", lambda *a: point("replace") or replace(*a))
    monkeypatch.setattr(os, "fsync", lambda fd: point("fsync") or fsync(fd))
    return reached


class TestFaultInjection:
    """Every fault point of a deposit, in process: real power loss, which can
    reorder or drop writes the kernel acknowledged, is not covered."""

    RECORD = SnapshotRecord.from_state(random_pure_state(2, Rng(13)), method="qeswap",
                                       label="faulted")
    OTHER = SnapshotRecord.from_state(random_pure_state(1, Rng(14)), label="bystander")

    def _check_consistent(self, store):
        """Listed records are complete; the faulted one is exact or a StoreError."""
        for rec in (self.RECORD, self.OTHER):
            ident = rec.identifier()
            if ident in list_snapshots(store):
                state, _ = withdraw(ident, store)
                assert np.array_equal(state.amplitudes, rec.state.amplitudes)
                assert json.loads((store / f"{ident}.json").read_bytes()) == rec.metadata
            else:
                with pytest.raises(StoreError):
                    withdraw(ident, store)
        assert set(list_snapshots(store)) <= {self.RECORD.identifier(), self.OTHER.identifier()}
        assert self.OTHER.identifier() in list_snapshots(store)

    def test_fault_points_of_one_deposit(self, tmp_path, monkeypatch):
        reached = _inject_faults(monkeypatch, fail_at=0)
        deposit(self.RECORD, tmp_path)
        # per file: write the temporary, fsync it, rename it, fsync the directory
        assert reached == ["write", "fsync", "replace", "fsync"] * 2

    @pytest.mark.parametrize("second", range(9), ids=lambda j: f"then-{j or 'none'}")
    def test_every_fault_point_leaves_a_repairable_store(self, tmp_path, monkeypatch, second):
        # a fault at every k, then a fault at `second` in the repeat deposit
        # (0: none), then one clean deposit
        for k in range(1, 9):
            store = tmp_path / f"k{k}"
            deposit(self.OTHER, store)
            for fail_at in filter(None, (k, second)):
                reached, faulted = _inject_faults(monkeypatch, fail_at), False
                try:
                    deposit(self.RECORD, store)
                except StoreError as exc:
                    faulted = f"injected fault at {reached[-1]} #{fail_at}" in str(exc)
                monkeypatch.undo()
                # a repeat deposit of a complete record reaches no fault point
                assert faulted == (len(reached) == fail_at)
                self._check_consistent(store)
            assert deposit(self.RECORD, store) == self.RECORD.identifier()
            self._check_consistent(store)
            assert list_snapshots(store) == sorted(
                [self.RECORD.identifier(), self.OTHER.identifier()])


class StoreMachine(RuleBasedStateMachine):
    """Deposits, withdrawals, one-byte corruptions and deposits that crash at
    fault point k, in any order. After every step the store holds
    TestFaultInjection's invariant: listing names only complete records, and
    ``withdraw`` returns exact amplitudes or raises StoreError. In process
    only: real power loss is not covered."""

    RECORDS = [SnapshotRecord.from_state(random_pure_state(1 + i % 2, Rng(40 + i)),
                                         label=f"machine-{i}") for i in range(3)]
    record = st.sampled_from(RECORDS)

    def __init__(self):
        super().__init__()
        self.store = Path(tempfile.mkdtemp(prefix="qsnap-machine-"))
        self.damaged = set()  # identifiers whose files may differ from their record

    def teardown(self):
        shutil.rmtree(self.store)

    @rule(rec=record)
    def deposit_record(self, rec):
        assert deposit(rec, self.store) == rec.identifier()
        self.damaged.discard(rec.identifier())

    @rule(rec=record)
    def withdraw_record(self, rec):
        self._check(rec, list_snapshots(self.store))

    @rule(rec=record, suffix=st.sampled_from([".qsnap", ".json"]),
          at=st.integers(0, 2**16), mask=st.integers(1, 255))
    def corrupt_byte(self, rec, suffix, at, mask):
        path = self.store / f"{rec.identifier()}{suffix}"
        if path.exists() and path.stat().st_size:
            data = bytearray(path.read_bytes())
            data[at % len(data)] ^= mask
            path.write_bytes(bytes(data))
            self.damaged.add(rec.identifier())

    @rule(rec=record, k=st.integers(1, 8))
    def crash_deposit(self, rec, k):
        with pytest.MonkeyPatch.context() as mp:
            reached = _inject_faults(mp, k)
            try:
                deposit(rec, self.store)
            except StoreError:
                assert len(reached) == k
                return  # a damaged record may stay damaged
        self.damaged.discard(rec.identifier())

    @invariant()
    def listing_names_only_complete_records(self):
        listed = list_snapshots(self.store)
        assert set(listed) <= {rec.identifier() for rec in self.RECORDS}
        for rec in self.RECORDS:
            self._check(rec, listed)

    def _check(self, rec, listed):
        ident = rec.identifier()
        try:
            state, _ = withdraw(ident, self.store)
        except StoreError:
            assert ident not in listed or ident in self.damaged
            return
        assert np.array_equal(state.amplitudes, rec.state.amplitudes)
        if ident not in self.damaged:
            assert json.loads((self.store / f"{ident}.json").read_bytes()) == rec.metadata


TestStoreMachine = StoreMachine.TestCase
TestStoreMachine.settings = settings(max_examples=50, stateful_step_count=20, deadline=None)


class TestListing:
    def test_empty(self, tmp_path):
        assert list_snapshots(tmp_path / "missing") == []

    def test_sorted(self, tmp_path):
        rng = Rng(6)
        idents = [
            deposit(SnapshotRecord.from_state(random_pure_state(1, rng)), tmp_path)
            for _ in range(5)
        ]
        assert list_snapshots(tmp_path) == sorted(idents)

    @pytest.mark.parametrize("stem", ["notes", "0" * 63, "A" * 64, "0" * 64 + ".tmp"])
    def test_only_identifiers_are_records(self, tmp_path, capsys, stem):
        # a stray body-named file is not a record: withdraw would refuse its name
        ident = deposit(SnapshotRecord.from_state(StateVector.computational_basis(1)), tmp_path)
        (tmp_path / f"{stem}.qsnap").write_bytes(b"not a record")
        assert list_snapshots(tmp_path) == [ident]
        assert main(["list", "--store", str(tmp_path)]) == 0
        assert capsys.readouterr().out == f"{ident}\n"
