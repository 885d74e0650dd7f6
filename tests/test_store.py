"""Tests for the content-addressed snapshot store."""

import json
import math

import numpy as np
import pytest

from qsnapshot.circuit import execute_statevector
from qsnapshot.core import Rng, StateVector, overlap_fidelity, random_pure_state
from qsnapshot import store as store_module
from qsnapshot.store import (
    MAGIC,
    SnapshotIntegrityError,
    SnapshotNotFoundError,
    SnapshotRecord,
    StoreError,
    deposit,
    list_snapshots,
    withdraw,
)

SQ2 = 1.0 / math.sqrt(2.0)


class TestSnapshotRecord:
    def test_norm_enforced(self):
        with pytest.raises(ValueError):
            SnapshotRecord(1, np.array([0.5, 0, 0, 0]))

    def test_shape_enforced(self):
        with pytest.raises(ValueError):
            SnapshotRecord(2, np.array([1.0, 0, 0, 0]))

    def test_format_version(self):
        with pytest.raises(ValueError):
            SnapshotRecord(1, np.array([1.0, 0, 0, 0]), format_version=2)

    def test_state_roundtrip(self):
        s = random_pure_state(2, Rng(0))
        record = SnapshotRecord.from_state(s)
        back = record.to_state()
        assert np.allclose(back.amplitudes, s.amplitudes)

    def test_body_layout(self):
        record = SnapshotRecord.from_state(StateVector.computational_basis(1))
        body = record.body_bytes()
        assert body[:8] == MAGIC
        assert body[8:12] == b"\x01\x00\x00\x00"  # little-endian n_qubits
        assert len(body) == 12 + 4 * 8

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
        assert np.array_equal(state.amplitudes, record.to_state().amplitudes)
        meta = json.loads((tmp_path / f"{ident}.json").read_text())
        assert meta["method"] == "qeswap"
        assert meta["label"] == "crash"

    def test_torn_body_is_repaired(self, tmp_path):
        record = SnapshotRecord.from_state(random_pure_state(2, Rng(9)), label="torn")
        ident = deposit(record, tmp_path)
        (tmp_path / f"{ident}.qsnap").write_bytes(b"")
        assert deposit(record, tmp_path) == ident
        state, _ = withdraw(ident, tmp_path)
        assert np.array_equal(state.amplitudes, record.to_state().amplitudes)

    @pytest.mark.parametrize("sidecar", [b"", b'{"method": "qes', b"[]", b'{"label": "other"}'])
    def test_torn_sidecar_is_repaired(self, tmp_path, sidecar):
        record = SnapshotRecord.from_state(random_pure_state(2, Rng(9)),
                                           method="qeswap", label="torn")
        ident = deposit(record, tmp_path)
        (tmp_path / f"{ident}.json").write_bytes(sidecar)
        assert deposit(record, tmp_path) == ident
        state, _ = withdraw(ident, tmp_path)
        assert np.array_equal(state.amplitudes, record.to_state().amplitudes)
        assert json.loads((tmp_path / f"{ident}.json").read_text()) == record.metadata

    def test_missing_sidecar_is_repaired(self, tmp_path):
        record = SnapshotRecord.from_state(random_pure_state(1, Rng(9)), label="gone")
        ident = deposit(record, tmp_path)
        (tmp_path / f"{ident}.json").unlink()
        assert deposit(record, tmp_path) == ident
        assert json.loads((tmp_path / f"{ident}.json").read_text())["label"] == "gone"

    def test_corruption_detected(self, tmp_path):
        ident = deposit(SnapshotRecord.from_state(random_pure_state(2, Rng(3))), tmp_path)
        body_file = tmp_path / f"{ident}.qsnap"
        body = bytearray(body_file.read_bytes())
        body[20] ^= 0xFF
        body_file.write_bytes(bytes(body))
        with pytest.raises(SnapshotIntegrityError):
            withdraw(ident, tmp_path)

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

    def test_fifty_cycles(self, tmp_path):
        rng = Rng(5)
        for i in range(50):
            n = 1 + i % 3
            s = random_pure_state(n, rng)
            record = SnapshotRecord.from_state(s)
            ident = deposit(record, tmp_path)
            state, circuit = withdraw(ident, tmp_path)
            assert np.array_equal(state.amplitudes, record.to_state().amplitudes)
            prepared = execute_statevector(
                circuit, StateVector.computational_basis(n)
            )
            assert overlap_fidelity(prepared, state) >= 1 - 1e-9


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
