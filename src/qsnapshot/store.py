"""Classical persistence of reconstructed states: deposit and withdraw.

Each record is a binary amplitude body plus a JSON metadata sidecar,
content-addressed by the SHA-256 of the body. The body's magic header
carries the format version. Every file is written to a temporary name,
fsynced, renamed into place, and the directory fsynced after the rename.
Loading returns the stored record; withdrawal also builds its preparation.
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
from .core import StateVector, json_bytes

MAGIC = b"QSNAP\x00\x00\x01"  # format version 1 in its last byte

_IDENTIFIER = re.compile(r"[0-9a-f]{64}")

METADATA_KEYS = ("method", "representation", "best_fidelity", "epochs",
                 "created_at", "seed", "label")


class StoreError(Exception):
    """Base class for snapshot-store failures."""


class SnapshotNotFoundError(StoreError):
    pass


class SnapshotIntegrityError(StoreError):
    """Stored body does not hash to its identifier or decode to a state, or
    its sidecar is not a JSON object."""


@dataclass(frozen=True)
class SnapshotRecord:
    """One storable reconstruction: a state and its provenance."""

    state: StateVector
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        meta = {key: self.metadata.get(key) for key in METADATA_KEYS}
        object.__setattr__(self, "metadata", meta)

    @classmethod
    def from_state(cls, state: StateVector, **metadata) -> "SnapshotRecord":
        return cls(state, metadata)

    def body_bytes(self) -> bytes:
        """The magic, n_qubits as "<I", then the amplitudes as interleaved
        re/im "<f8" values, which is the layout of "<c16"."""
        return (
            MAGIC
            + struct.pack("<I", self.state.n_qubits)
            + self.state.amplitudes.astype("<c16").tobytes()
        )

    def identifier(self) -> str:
        return hashlib.sha256(self.body_bytes()).hexdigest()


def _decode_body(body: bytes) -> StateVector:
    """The state a body holds; a body that holds none is an integrity error.
    The width comes from the body's length, and the header must agree."""
    if body[: len(MAGIC)] != MAGIC:
        raise SnapshotIntegrityError("bad magic header")
    try:
        (n_qubits,) = struct.unpack_from("<I", body, len(MAGIC))
        state = StateVector.from_amplitudes(
            np.frombuffer(body[len(MAGIC) + 4 :], dtype="<c16"))
        if state.n_qubits != n_qubits:
            raise ValueError(f"header names {n_qubits} qubits, "
                             f"the amplitudes hold {state.n_qubits}")
        return state
    except (struct.error, ValueError) as exc:  # short, wrong width or size, not a state
        raise SnapshotIntegrityError(f"body does not decode: {exc}") from exc


def _atomic_write(path: Path, data: bytes):
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


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
        _atomic_write(meta_file, json_bytes(record.metadata))
        _atomic_write(body_file, body)
        return ident
    except OSError as exc:
        raise StoreError(f"deposit failed: {exc}") from exc


def load(identifier: str, store_path) -> SnapshotRecord:
    """The stored record, with its sidecar's metadata (all None without one)."""
    if not _IDENTIFIER.fullmatch(str(identifier)):
        raise SnapshotNotFoundError(f"no snapshot with id {identifier!r}")
    store = Path(store_path)
    body_file = store / f"{identifier}.qsnap"
    if not body_file.exists():
        raise SnapshotNotFoundError(f"no snapshot with id {identifier}")
    body = body_file.read_bytes()
    if hashlib.sha256(body).hexdigest() != identifier:
        raise SnapshotIntegrityError(f"body of {identifier} fails its hash check")
    state, metadata = _decode_body(body), {}
    meta_file = store / f"{identifier}.json"
    if meta_file.exists():
        try:
            metadata = json.loads(meta_file.read_bytes())  # empty, torn, not text
            if not isinstance(metadata, dict):
                raise ValueError("not an object")
        except ValueError as exc:
            raise SnapshotIntegrityError(f"metadata of {identifier}: {exc}") from exc
    return SnapshotRecord(state, metadata)


def withdraw(identifier: str, store_path) -> tuple:
    """Load a stored state and a preparation circuit for it.

    Returns (StateVector, QuantumCircuit); the circuit reprepares the stored
    state from |0...0> with fidelity >= 1 - 1e-9.
    """
    state = load(identifier, store_path).state
    return state, mottonen_prepare(state)


def list_snapshots(store_path) -> list:
    """All stored identifiers, sorted; a body named otherwise is not a record."""
    store = Path(store_path)
    if not store.is_dir():
        return []
    return sorted(p.stem for p in store.glob("*.qsnap") if _IDENTIFIER.fullmatch(p.stem))
