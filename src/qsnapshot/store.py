"""Classical persistence of reconstructed states: deposit and withdraw.

Each record is a binary amplitude body plus a JSON metadata sidecar,
content-addressed by the SHA-256 of the body. Withdrawal rebuilds the state
and its preparation circuit.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import re
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .circuit import mottonen_prepare
from .core import StateVector

MAGIC = b"QSNAP\x00\x00\x01"
FORMAT_VERSION = 1

_IDENTIFIER = re.compile(r"[0-9a-f]{64}")

METADATA_KEYS = ("method", "representation", "best_fidelity", "epochs",
                 "created_at", "seed", "label")


class StoreError(Exception):
    """Base class for snapshot-store failures."""


class SnapshotNotFoundError(StoreError):
    pass


class SnapshotIntegrityError(StoreError):
    """Stored body does not hash to its identifier, or its sidecar is not a
    JSON object."""


@dataclass(frozen=True)
class SnapshotRecord:
    """One storable reconstruction: interleaved re/im amplitudes + provenance."""

    n_qubits: int
    amplitudes: np.ndarray = field(repr=False)  # 2^(n+1) float64, interleaved re/im
    metadata: dict = field(default_factory=dict)
    format_version: int = FORMAT_VERSION

    def __post_init__(self):
        if self.format_version != FORMAT_VERSION:
            raise ValueError(f"unsupported format version {self.format_version}")
        values = np.asarray(self.amplitudes, dtype=np.float64)
        if values.shape != (2 ** (self.n_qubits + 1),):
            raise ValueError(
                f"expected {2 ** (self.n_qubits + 1)} interleaved values, "
                f"got shape {values.shape}"
            )
        norm = np.linalg.norm(values)
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"decoded amplitude norm {norm} deviates from 1 beyond 1e-9")
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "amplitudes", values)
        meta = {key: self.metadata.get(key) for key in METADATA_KEYS}
        object.__setattr__(self, "metadata", meta)

    @classmethod
    def from_state(cls, state: StateVector, **metadata) -> "SnapshotRecord":
        interleaved = np.empty(2 * state.dim)
        interleaved[0::2] = state.amplitudes.real
        interleaved[1::2] = state.amplitudes.imag
        return cls(state.n_qubits, interleaved, metadata)

    def to_state(self) -> StateVector:
        return StateVector(
            self.n_qubits, self.amplitudes[0::2] + 1j * self.amplitudes[1::2]
        )

    def body_bytes(self) -> bytes:
        return (
            MAGIC
            + struct.pack("<I", self.n_qubits)
            + self.amplitudes.astype("<f8").tobytes()
        )

    def identifier(self) -> str:
        return hashlib.sha256(self.body_bytes()).hexdigest()


def _decode_body(body: bytes) -> SnapshotRecord:
    if body[: len(MAGIC)] != MAGIC:
        raise SnapshotIntegrityError("bad magic header")
    (n_qubits,) = struct.unpack("<I", body[len(MAGIC) : len(MAGIC) + 4])
    values = np.frombuffer(body[len(MAGIC) + 4 :], dtype="<f8")
    return SnapshotRecord(n_qubits, values, {})


def _atomic_write(path: Path, data: bytes):
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(data)
    os.replace(tmp, path)


def deposit(record: SnapshotRecord, store_path) -> str:
    """Durably write a record; returns its content identifier (idempotent).
    A stored body that differs from the record's, or a sidecar that does not
    parse to its metadata (torn), is written again."""
    store = Path(store_path)
    try:
        store.mkdir(parents=True, exist_ok=True)
        body = record.body_bytes()
        ident = hashlib.sha256(body).hexdigest()
        body_file = store / f"{ident}.qsnap"
        meta_file = store / f"{ident}.json"
        if body_file.exists() and body_file.read_bytes() == body:
            with contextlib.suppress(OSError, ValueError):  # a missing or torn sidecar
                if json.loads(meta_file.read_bytes()) == record.metadata:
                    return ident
        # sidecar first: the body's existence marks the record complete
        _atomic_write(
            meta_file,
            json.dumps(record.metadata, indent=2, sort_keys=True).encode() + b"\n",
        )
        _atomic_write(body_file, body)
        return ident
    except OSError as exc:
        raise StoreError(f"deposit failed: {exc}") from exc


def withdraw(identifier: str, store_path) -> tuple:
    """Load a stored state and a preparation circuit for it.

    Returns (StateVector, QuantumCircuit); the circuit reprepares the stored
    state from |0...0> with fidelity >= 1 - 1e-9.
    """
    if not _IDENTIFIER.fullmatch(str(identifier)):
        raise SnapshotNotFoundError(f"no snapshot with id {identifier!r}")
    store = Path(store_path)
    body_file = store / f"{identifier}.qsnap"
    if not body_file.exists():
        raise SnapshotNotFoundError(f"no snapshot with id {identifier}")
    body = body_file.read_bytes()
    if hashlib.sha256(body).hexdigest() != identifier:
        raise SnapshotIntegrityError(f"body of {identifier} fails its hash check")
    record = _decode_body(body)
    meta_file = store / f"{identifier}.json"
    if meta_file.exists():
        try:
            metadata = json.loads(meta_file.read_bytes())  # empty, torn, not text
            if not isinstance(metadata, dict):
                raise ValueError("not an object")
        except ValueError as exc:
            raise SnapshotIntegrityError(f"metadata of {identifier}: {exc}") from exc
        record = SnapshotRecord(record.n_qubits, record.amplitudes, metadata)
    state = record.to_state()
    return state, mottonen_prepare(state)


def list_snapshots(store_path) -> list:
    """All stored identifiers, sorted."""
    store = Path(store_path)
    if not store.is_dir():
        return []
    return sorted(p.stem for p in store.glob("*.qsnap"))
