"""Gate-level circuits and exact statevector execution.

Qubit 0 is the least-significant bit of the basis index throughout. The
SWAP-test layout puts the ancilla at circuit position 0. Every amplitude
update (gates, per-row gate stacks, RESET, and the Kraus steps in the noise
module) goes through one kernel: strided views of the amplitudes reshaped to
(batch, 2, ..., 2), one view per local basis index (_local_views,
apply_matrix); CX and CSWAP are cached permutations. Next to the serial
builders (mottonen_prepare, build_swap_test) sits a batched SWAP-test kernel
(swap_test_head, swap_test_probabilities): many second states against one
first state as one (batch, 2^(2n+1)) array, bit for bit the serial result.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .core import Rng, StateVector

SINGLE_QUBIT_KINDS = frozenset({"X", "SX", "RZ", "H", "RY", "MEASURE", "RESET", "ID", "DELAY"})
BASIS_KINDS = frozenset({"CX", "DELAY", "ID", "MEASURE", "RESET", "RZ", "SX", "X"})
PARAM_KINDS = frozenset({"RZ", "RY"})

_SQ = 1.0 / math.sqrt(2.0)
H_MATRIX = np.array([[_SQ, _SQ], [_SQ, -_SQ]], dtype=np.complex128)
X_MATRIX = np.array([[0, 1], [1, 0]], dtype=np.complex128)
SX_MATRIX = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=np.complex128)


def rz_matrix(theta) -> np.ndarray:
    """RZ(theta); an array of angles gives a (..., 2, 2) stack, entry for entry."""
    t = np.asarray(theta, dtype=np.float64)
    out = np.zeros(t.shape + (2, 2), dtype=np.complex128)
    out[..., 0, 0], out[..., 1, 1] = np.exp(-0.5j * t), np.exp(0.5j * t)
    return out


def ry_matrix(theta) -> np.ndarray:
    """RY(theta); an array of angles gives a (..., 2, 2) stack, entry for entry."""
    half = np.asarray(theta, dtype=np.float64) / 2
    c, s = np.vectorize(math.cos)(half), np.vectorize(math.sin)(half)
    return np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2).astype(np.complex128)


@dataclass(frozen=True)
class Gate:
    """One circuit instruction.

    ``qubits`` ordering: CX is (control, target); CSWAP is (control, a, b).
    ``param`` holds the rotation angle in radians (RZ, RY) or the delay
    duration in nanoseconds (DELAY).
    """

    kind: str
    qubits: tuple
    param: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "qubits", tuple(int(q) for q in self.qubits))
        arity = {"CX": 2, "CSWAP": 3}.get(self.kind, 1)
        if self.kind not in SINGLE_QUBIT_KINDS and self.kind not in ("CX", "CSWAP"):
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if len(self.qubits) != arity:
            raise ValueError(f"{self.kind} expects {arity} qubits, got {self.qubits}")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"{self.kind} qubits must be distinct, got {self.qubits}")
        if self.kind in PARAM_KINDS or self.kind == "DELAY":
            if self.param is None:
                raise ValueError(f"{self.kind} requires a parameter")
            if not math.isfinite(self.param):
                raise ValueError(f"{self.kind} parameter must be finite, "
                                 f"got {self.param}")
        elif self.param is not None:
            raise ValueError(f"{self.kind} takes no parameter")


@dataclass
class QuantumCircuit:
    """Ordered gate list over a fixed qubit count; the constructor and ``add``
    check gates in order against one running set of measured qubits."""

    n_qubits: int
    gates: list = field(default_factory=list)

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError(f"n_qubits must be >= 1, got {self.n_qubits}")
        self._measured_done = set()
        for g in self.gates:
            self._check_gate(g)

    def _check_gate(self, gate: Gate):
        for q in gate.qubits:
            if q < 0 or q >= self.n_qubits:
                raise ValueError(f"qubit {q} outside circuit width {self.n_qubits}")
        if gate.kind == "RESET":
            self._measured_done.difference_update(gate.qubits)
            return
        for q in gate.qubits:
            if q in self._measured_done:
                raise ValueError(f"gate {gate.kind} follows MEASURE on qubit {q}")
        if gate.kind == "MEASURE":
            self._measured_done.update(gate.qubits)

    @property
    def measured(self) -> tuple:
        return tuple(sorted({g.qubits[0] for g in self.gates if g.kind == "MEASURE"}))

    def add(self, kind: str, *qubits, param: float | None = None) -> "QuantumCircuit":
        gate = Gate(kind, qubits, param)
        self._check_gate(gate)
        self.gates.append(gate)
        return self

    def without_measurements(self) -> "QuantumCircuit":
        return QuantumCircuit(
            self.n_qubits, [g for g in self.gates if g.kind != "MEASURE"]
        )

    def remapped(self, mapping: dict, n_qubits: int) -> "QuantumCircuit":
        """Copy of the circuit with qubit indices rewired into a wider register."""
        gates = [
            Gate(g.kind, tuple(mapping[q] for q in g.qubits), g.param)
            for g in self.gates
        ]
        return QuantumCircuit(n_qubits, gates)

    def dump(self) -> str:
        """Deterministic plain-text listing, one gate per line (golden-test format)."""
        lines = []
        for g in self.gates:
            line = f"{g.kind} " + ",".join(f"q{q}" for q in g.qubits)
            if g.param is not None:
                line += f" (theta={g.param:.17g})"
            lines.append(line)
        return "\n".join(lines)


@dataclass(frozen=True)
class ShotResult:
    """Measured-bitstring histogram; bitstring order is q0 leftmost."""

    counts: dict
    shots: int

    def __post_init__(self):
        if sum(self.counts.values()) != self.shots:
            raise ValueError("counts do not sum to the shot total")

    def probability(self, bitstring: str) -> float:
        return self.counts.get(bitstring, 0) / self.shots


# ---------------------------------------------------------------------------
# Statevector execution


def _local_views(amps: np.ndarray, qubits: tuple, n_qubits: int) -> list:
    """The 2^k strided views of ``amps.reshape(-1, 2, ..., 2)``, one per local
    basis index with ``qubits[0]`` its most significant bit: view c holds every
    amplitude whose bits on ``qubits`` spell c, in ascending basis order.
    Writing into a view writes into ``amps`` when that array is contiguous."""
    tensor = amps.reshape((-1,) + (2,) * n_qubits)  # axis 1 + j is qubit n-1-j
    k = len(qubits)
    views = []
    for c in range(2**k):
        index = [slice(None)] * (1 + n_qubits)
        for j, q in enumerate(qubits):
            index[n_qubits - q] = (c >> (k - 1 - j)) & 1
        views.append(tensor[tuple(index)])
    return views


def apply_matrix(amps: np.ndarray, mat: np.ndarray, qubits: tuple, n_qubits: int) -> np.ndarray:
    """Apply a k-qubit matrix to amplitudes (flat, or batched with a leading axis).

    ``qubits[0]`` is the most significant bit of the matrix's local basis
    index; the matrix is 2^k x 2^k, or for batched amplitudes a
    (batch, 2^k, 2^k) stack holding one matrix per row. Local amplitude r
    becomes sum_c mat[r, c] * amplitude c, summed in ascending c.
    """
    mat = mat[..., None, :, :]  # a per-row entry broadcasts along its row
    # contiguous copies: arithmetic on views with short runs costs more than the copy
    src = [v.reshape(len(v), -1) for v in _local_views(amps, qubits, n_qubits)]
    out = np.empty(amps.shape, dtype=np.result_type(amps, mat))
    for r, dst in enumerate(_local_views(out, qubits, n_qubits)):
        acc = mat[..., r, 0] * src[0]
        for c in range(1, len(src)):
            acc += mat[..., r, c] * src[c]
        dst[...] = acc.reshape(dst.shape)
    return out


@functools.lru_cache(maxsize=None)
def _cx_permutation(n_qubits: int, control: int, target: int) -> np.ndarray:
    idx = np.arange(2**n_qubits)
    perm = np.where((idx >> control) & 1 == 1, idx ^ (1 << target), idx)
    perm.flags.writeable = False
    return perm


@functools.lru_cache(maxsize=None)
def _cswap_permutation(n_qubits: int, control: int, a: int, b: int) -> np.ndarray:
    idx = np.arange(2**n_qubits)
    bit_a = (idx >> a) & 1
    bit_b = (idx >> b) & 1
    swapped = idx ^ (((bit_a ^ bit_b) << a) | ((bit_a ^ bit_b) << b))
    perm = np.where((idx >> control) & 1 == 1, swapped, idx)
    perm.flags.writeable = False
    return perm


def _single_qubit_matrix(gate: Gate) -> np.ndarray | None:
    if gate.kind == "X":
        return X_MATRIX
    if gate.kind == "SX":
        return SX_MATRIX
    if gate.kind == "H":
        return H_MATRIX
    if gate.kind == "RZ":
        return rz_matrix(gate.param)
    if gate.kind == "RY":
        return ry_matrix(gate.param)
    return None


def apply_gate(amps: np.ndarray, gate: Gate, n_qubits: int) -> np.ndarray:
    """Apply one non-measurement gate to flat or batched amplitudes."""
    mat = _single_qubit_matrix(gate)
    if mat is not None:
        return apply_matrix(amps, mat, gate.qubits, n_qubits)
    if gate.kind in ("CX", "CSWAP"):
        perm = _cx_permutation if gate.kind == "CX" else _cswap_permutation
        return amps[..., perm(n_qubits, *gate.qubits)]
    if gate.kind in ("ID", "DELAY"):
        return amps
    if gate.kind == "RESET":
        return _apply_reset(amps, gate.qubits[0], n_qubits)
    raise ValueError(f"cannot apply gate kind {gate.kind!r}")


def _apply_reset(amps: np.ndarray, qubit: int, n_qubits: int) -> np.ndarray:
    out = np.array(amps, copy=True, order="C")
    zero, one = _local_views(out, (qubit,), n_qubits)
    rows = out.reshape(len(zero), -1)
    p0 = np.sum(np.abs(zero.reshape(len(zero), -1)) ** 2, axis=1)
    kept = p0 > 1e-24
    # all weight on |1>: relocate it to |0> (projective reset)
    zero[~kept] = one[~kept]
    one[...] = 0.0
    rows[kept] /= np.sqrt(p0[kept])[:, None]
    return out


def execute_statevector(circuit: QuantumCircuit, initial: StateVector) -> StateVector:
    """Exact noiseless execution; rejects circuits containing MEASURE."""
    if initial.n_qubits != circuit.n_qubits:
        raise ValueError(
            f"initial state has {initial.n_qubits} qubits, circuit {circuit.n_qubits}"
        )
    if any(g.kind == "MEASURE" for g in circuit.gates):
        raise ValueError("circuit contains MEASURE; use sample_shots or ancilla_expectation")
    amps = np.array(initial.amplitudes, copy=True)
    for gate in circuit.gates:
        amps = apply_gate(amps, gate, circuit.n_qubits)
    return StateVector.normalized(amps)


def final_probabilities(circuit: QuantumCircuit) -> np.ndarray:
    """Basis probabilities after the unitary part runs from |0...0>."""
    initial = StateVector.computational_basis(circuit.n_qubits)
    state = execute_statevector(circuit.without_measurements(), initial)
    return np.abs(state.amplitudes) ** 2


def ancilla_expectation(circuit: QuantumCircuit) -> float:
    """Exact <Z> on qubit 0 for a circuit measuring exactly that qubit."""
    if circuit.measured != (0,):
        raise ValueError(f"circuit must measure exactly qubit 0, measures {circuit.measured}")
    probs = final_probabilities(circuit)
    idx = np.arange(probs.size)
    p1 = float(np.sum(probs[(idx & 1) == 1]))
    return 1.0 - 2.0 * p1


def sample_shots(circuit: QuantumCircuit, shots: int, rng: Rng) -> ShotResult:
    """Sample measured-qubit bitstrings from the exact final distribution."""
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    measured = circuit.measured
    if not measured:
        raise ValueError("circuit has no measured qubits")
    probs = final_probabilities(circuit)
    outcomes = rng._gen.choice(probs.size, size=shots, p=probs / probs.sum())
    counts: dict = {}
    for outcome in outcomes:
        bits = "".join(str((int(outcome) >> q) & 1) for q in measured)
        counts[bits] = counts.get(bits, 0) + 1
    return ShotResult(dict(sorted(counts.items())), shots)


# ---------------------------------------------------------------------------
# Mottonen state preparation (uniformly controlled rotations, Gray-code CX)

# A rotation angle, or every phase of a state, at most this far from 0 is
# left out of the preparation (the batched kernel applies it as an exact 0).
SKIP_TOL = 1e-15


@functools.lru_cache(maxsize=None)
def _gray_signs(k: int) -> np.ndarray:
    m = np.array([[1.0 - 2.0 * (bin(j & (i ^ (i >> 1))).count("1") & 1)
                   for j in range(k)] for i in range(k)])
    m.flags.writeable = False
    return m


def _multiplexor_thetas(alphas: np.ndarray) -> np.ndarray:
    # one stacked matvec per row: bit for bit what ``signs @ row`` gives
    k = alphas.shape[-1]
    return np.matmul(_gray_signs(k), alphas[..., None])[..., 0] / k


def _mottonen_thetas(amps: np.ndarray) -> tuple:
    """Rotation angles preparing each row of a (batch, 2^n) amplitude array:
    the RY and RZ cascade angles, each (batch, 2^n - 1) in template column
    order, and per row whether its phases need the RZ cascade at all."""
    batch, dim = amps.shape
    magnitudes, phases = np.abs(amps), np.angle(amps)
    ry, rz = [], []
    for level in range(dim.bit_length() - 1, 0, -1):
        half = 2 ** (level - 1)
        blocks = magnitudes.reshape(batch, -1, 2 * half)
        upper = np.sum(blocks[..., half:] ** 2, axis=-1)
        total = np.sum(blocks**2, axis=-1)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(total > 0, upper / np.where(total > 0, total, 1.0), 0.0)
            low = np.sum(blocks[..., :half] ** 2, axis=-1) / total
            # near pi, the arcsin of a ratio near 1 would lose a small lower half
            ry.append(_multiplexor_thetas(np.where(
                low < 1e-6, np.pi - 2.0 * np.arcsin(np.sqrt(low)),
                2.0 * np.arcsin(np.sqrt(np.clip(ratio, 0.0, 1.0))))))
        blocks = phases.reshape(batch, -1, 2 * half)
        rz.append(_multiplexor_thetas(
            np.sum(blocks[..., half:] - blocks[..., :half], axis=-1) / half))
    phased = np.max(np.abs(phases), axis=1) > SKIP_TOL
    return np.concatenate(ry, axis=1), np.concatenate(rz, axis=1), phased


@functools.lru_cache(maxsize=None)
def _mottonen_template(n: int) -> tuple:
    """Slots of one cascade: ("ROT", qubit, angle column) or ("CX", control, target).
    Level n..1 rotates qubit level-1 under every pattern of the qubits above
    it: one rotation per pattern, interleaved with a Gray-code CX ladder."""
    slots, column = [], 0
    for level in range(n, 0, -1):
        controls, target = list(range(level, n)), level - 1
        size = 2 ** len(controls)
        gray = [i ^ (i >> 1) for i in range(size)]
        for i in range(size):
            slots.append(("ROT", target, column + i))
            if controls:
                flip = gray[i] ^ gray[(i + 1) % size]
                slots.append(("CX", controls[flip.bit_length() - 1], target))
        column += size
    return tuple(slots)


def mottonen_prepare(target: StateVector) -> QuantumCircuit:
    """Circuit preparing ``target`` from |0...0> up to a global phase.

    Uniformly controlled RY cascade for magnitudes, then a uniformly
    controlled RZ cascade for phases; multiplexors reduce to rotations
    interleaved with Gray-code CX ladders. Emits only RY, RZ, CX, leaving out
    rotations with |theta| <= SKIP_TOL and the RZ cascade if no phase exceeds it.
    """
    n = target.n_qubits
    ry, rz, phased = _mottonen_thetas(target.amplitudes[None, :])
    gates = []
    for kind, thetas in (("RY", ry[0]), ("RZ", rz[0]))[: 1 + int(phased[0])]:
        for slot, a, b in _mottonen_template(n):
            if slot == "CX":
                gates.append(Gate("CX", (a, b)))
            elif abs(thetas[b]) > SKIP_TOL:
                gates.append(Gate(kind, (a,), float(thetas[b])))
    return QuantumCircuit(n, gates)


# ---------------------------------------------------------------------------
# Lowering to the native basis set {CX, DELAY, ID, MEASURE, RESET, RZ, SX, X}

_HALF_PI = math.pi / 2
_QUARTER_PI = math.pi / 4


def _lower_h(q: int) -> list:
    return [
        Gate("RZ", (q,), _HALF_PI),
        Gate("SX", (q,)),
        Gate("RZ", (q,), _HALF_PI),
    ]


def _lower_ry(q: int, theta: float) -> list:
    # RY(t) = RZ(-pi/2) . RX(t) . RZ(pi/2) with RX(t) = RZ(-pi/2) SX RZ(pi-t) SX RZ(-pi/2)
    # collapsed: SX . RZ(t + pi) . SX . RZ(pi)  (up to global phase)
    return [
        Gate("SX", (q,)),
        Gate("RZ", (q,), theta + math.pi),
        Gate("SX", (q,)),
        Gate("RZ", (q,), math.pi),
    ]


def _toffoli(c1: int, c2: int, t: int) -> list:
    """Standard 6-CX Toffoli; T rotations expressed as RZ, H expanded later."""
    t_angle = _QUARTER_PI
    gates = []
    gates.extend(_lower_h(t))
    gates.append(Gate("CX", (c2, t)))
    gates.append(Gate("RZ", (t,), -t_angle))
    gates.append(Gate("CX", (c1, t)))
    gates.append(Gate("RZ", (t,), t_angle))
    gates.append(Gate("CX", (c2, t)))
    gates.append(Gate("RZ", (t,), -t_angle))
    gates.append(Gate("CX", (c1, t)))
    gates.append(Gate("RZ", (c2,), t_angle))
    gates.append(Gate("RZ", (t,), t_angle))
    gates.extend(_lower_h(t))
    gates.append(Gate("CX", (c1, c2)))
    gates.append(Gate("RZ", (c1,), t_angle))
    gates.append(Gate("RZ", (c2,), -t_angle))
    gates.append(Gate("CX", (c1, c2)))
    return gates


def lower_gate(gate: Gate) -> list:
    if gate.kind in BASIS_KINDS:
        return [gate]
    if gate.kind == "H":
        return _lower_h(gate.qubits[0])
    if gate.kind == "RY":
        return _lower_ry(gate.qubits[0], gate.param)
    if gate.kind == "CSWAP":
        c, a, b = gate.qubits
        return [Gate("CX", (b, a))] + _toffoli(c, a, b) + [Gate("CX", (b, a))]
    raise ValueError(f"cannot lower gate kind {gate.kind!r}")


def lower_to_basis(circuit: QuantumCircuit) -> QuantumCircuit:
    """Rewrite onto the native basis set; action agrees up to global phase."""
    gates: list = []
    for gate in circuit.gates:
        gates.extend(lower_gate(gate))
    return QuantumCircuit(circuit.n_qubits, gates)


# ---------------------------------------------------------------------------
# SWAP test


def build_swap_test(
    n_qubits: int, prep_a: QuantumCircuit, prep_b: QuantumCircuit
) -> QuantumCircuit:
    """SWAP-test circuit on 2n+1 qubits.

    Qubit 0 is the ancilla; ``prep_a`` loads qubits 1..n, ``prep_b`` loads
    qubits n+1..2n; controlled swaps pair qubit i with qubit n+i; the ancilla
    is measured.
    """
    if prep_a.n_qubits != n_qubits or prep_b.n_qubits != n_qubits:
        raise ValueError(
            f"preparation widths ({prep_a.n_qubits}, {prep_b.n_qubits}) "
            f"do not match n_qubits={n_qubits}"
        )
    width = 2 * n_qubits + 1
    map_a = {q: q + 1 for q in range(n_qubits)}
    map_b = {q: q + 1 + n_qubits for q in range(n_qubits)}
    return QuantumCircuit(width, [
        Gate("H", (0,)),
        *prep_a.remapped(map_a, width).gates,
        *prep_b.remapped(map_b, width).gates,
        *(Gate("CSWAP", (0, i, i + n_qubits)) for i in range(1, n_qubits + 1)),
        Gate("H", (0,)),
        Gate("MEASURE", (0,)),
    ])


def swap_test_head(prep_a: QuantumCircuit) -> np.ndarray:
    """Amplitudes after the SWAP test's first H and ``prep_a`` on qubits 1..n;
    every SWAP test against that first state starts from a copy of them."""
    n = prep_a.n_qubits
    amps = StateVector.computational_basis(2 * n + 1).amplitudes.copy()
    for gate in build_swap_test(n, prep_a, QuantumCircuit(n)).gates[: 1 + len(prep_a.gates)]:
        amps = apply_gate(amps, gate, 2 * n + 1)
    return amps


def swap_test_probabilities(head: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """Final basis probabilities of one SWAP test per row of ``candidates``.

    Each row of the (batch, 2^n) array is loaded onto qubits n+1..2n of a copy
    of ``head`` by the fixed Mottonen template with that row's angles, as an
    exact identity where :func:`mottonen_prepare` leaves a rotation out: bit
    for bit the probabilities of the serially built and simulated SWAP test.
    """
    n = candidates.shape[1].bit_length() - 1
    width = 2 * n + 1
    if candidates.shape[1] != 2**n or head.shape != (2**width,):
        raise ValueError(f"{candidates.shape[1]} amplitudes do not fit a head of {head.size}")
    ry, rz, phased = _mottonen_thetas(candidates)
    ry[np.abs(ry) <= SKIP_TOL] = 0.0
    rz[(np.abs(rz) <= SKIP_TOL) | ~phased[:, None]] = 0.0
    amps = np.repeat(head[None, :], len(candidates), axis=0)
    for mats in (ry_matrix(ry), rz_matrix(rz))[: 1 + int(phased.any())]:
        for slot, a, b in _mottonen_template(n):
            if slot == "CX":
                amps = amps[:, _cx_permutation(width, a + n + 1, b + n + 1)]
            else:
                amps = apply_matrix(amps, mats[:, b], (a + n + 1,), width)
    for gate in build_swap_test(n, QuantumCircuit(n), QuantumCircuit(n)).gates[1:-1]:
        amps = apply_gate(amps, gate, width)  # the CSWAPs and the last H
    norms = np.array([np.linalg.norm(row) for row in amps])  # as StateVector.normalized
    return np.abs(amps / norms[:, None]) ** 2
