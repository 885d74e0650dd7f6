"""Gate-level circuits and exact statevector execution.

Qubit 0 is the least-significant bit of the basis index throughout. The
SWAP-test layout puts the ancilla at circuit position 0. Every amplitude
update (gates, per-column gate stacks, and the Kraus steps in the noise
module) goes through one kernel on amplitudes with the batch axis last:
a (2^n, batch) array, of which a flat (2^n,) vector is a batch of one.
A gate gathers the rows of its local basis indices (_local_index, cached)
into one array and sums the matrix-entry products in ascending order
(apply_matrix), so each operation is one long loop over the batch.
CX and CSWAP are cached row permutations. Sums over amplitudes follow
numpy's pairwise order for one contiguous row (_column_sums), so every
column rounds as that state would alone. Next to the serial builders
(mottonen_prepare, build_swap_test) sits a batched SWAP-test kernel
(swap_test_head, swap_test_probabilities): many second states against one
first state as one (2^(2n+1), batch) array, bit for bit the serial result.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .core import StateVector, check_count, check_real, normalize_rows

_ARITY = {"X": 1, "SX": 1, "RZ": 1, "H": 1, "RY": 1, "MEASURE": 1, "ID": 1, "DELAY": 1,
          "CX": 2, "CSWAP": 3}  # every gate kind and its qubit count
BASIS_KINDS = frozenset({"CX", "DELAY", "ID", "MEASURE", "RZ", "SX", "X"})
_PARAM_RULES = {"RZ": ("finite", "RZ parameter"), "RY": ("finite", "RY parameter"),
                "DELAY": (">= 0", "DELAY duration")}

_SQ = 1.0 / math.sqrt(2.0)
H_MATRIX = np.array([[_SQ, _SQ], [_SQ, -_SQ]], dtype=np.complex128)
X_MATRIX = np.array([[0, 1], [1, 0]], dtype=np.complex128)
SX_MATRIX = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=np.complex128)


def rz_matrix(theta) -> np.ndarray:
    """RZ(theta); an array of angles gives a (2, 2, ...) stack, entry for entry."""
    t = np.asarray(theta, dtype=np.float64)
    out = np.zeros((2, 2) + t.shape, dtype=np.complex128)
    out[0, 0], out[1, 1] = np.exp(-0.5j * t), np.exp(0.5j * t)
    return out


def ry_matrix(theta) -> np.ndarray:
    """RY(theta); an array of angles gives a (2, 2, ...) stack, entry for entry."""
    half = np.asarray(theta, dtype=np.float64) / 2
    c, s = np.vectorize(math.cos)(half), np.vectorize(math.sin)(half)
    return np.array([[c, -s], [s, c]], dtype=np.complex128)


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
        for q in self.qubits:
            check_count(0, qubit=q)
        object.__setattr__(self, "qubits", tuple(map(int, self.qubits)))
        arity = _ARITY.get(self.kind)
        if arity is None:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if len(self.qubits) != arity:
            raise ValueError(f"{self.kind} expects {arity} qubits, got {self.qubits}")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"{self.kind} qubits must be distinct, got {self.qubits}")
        rule = _PARAM_RULES.get(self.kind)
        if (rule is None) != (self.param is None):
            raise ValueError(f"{self.kind} takes no parameter" if rule is None
                             else f"{self.kind} requires a parameter")
        if rule is not None:
            check_real(rule[0], **{rule[1]: self.param})


@dataclass
class QuantumCircuit:
    """Ordered gate list over a fixed qubit count; the constructor and ``add``
    check gates in order against one running set of measured qubits."""

    n_qubits: int
    gates: list = field(default_factory=list)

    def __post_init__(self):
        check_count(1, n_qubits=self.n_qubits)
        self._measured_done = set()
        for i, g in enumerate(self.gates):
            if not isinstance(g, Gate):
                raise ValueError(f"gates[{i}] must be a Gate, got {g!r}")
            self._check_gate(g)

    def _check_gate(self, gate: Gate):
        for q in gate.qubits:
            if q >= self.n_qubits:
                raise ValueError(f"qubit {q} outside circuit width {self.n_qubits}")
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


# ---------------------------------------------------------------------------
# Statevector execution


@functools.lru_cache(maxsize=None)
def _local_index(qubits: tuple, n_qubits: int) -> np.ndarray:
    """(2^k, 2^(n-k)) basis indices: row c holds, in ascending order, every
    index whose bits on ``qubits`` spell c, with ``qubits[0]`` its most
    significant bit."""
    idx = np.arange(2**n_qubits)
    k = len(qubits)
    local = sum(((idx >> q) & 1) << (k - 1 - j) for j, q in enumerate(qubits))
    index = np.argsort(local, kind="stable").reshape(2**k, -1)
    index.flags.writeable = False
    return index


def apply_matrix(amps: np.ndarray, mat: np.ndarray, qubits: tuple, n_qubits: int) -> np.ndarray:
    """Apply a k-qubit matrix to amplitudes, flat (2^n,) or batched (2^n, batch).

    ``qubits[0]`` is the most significant bit of the matrix's local basis
    index; the matrix is 2^k x 2^k, or for batched amplitudes a
    (2^k, 2^k, batch) stack holding one matrix per column. Local amplitude r
    becomes sum_c mat[r, c] * amplitude c, summed in ascending c.
    """
    index = _local_index(tuple(qubits), n_qubits)
    src = amps[index]  # (2^k, 2^(n-k)[, batch]): local amplitude c in row c
    out = np.empty(amps.shape, dtype=np.result_type(amps, mat))
    for r, dst in enumerate(index):
        acc = mat[r, 0] * src[0]
        for c in range(1, len(src)):
            acc += mat[r, c] * src[c]
        out[dst] = acc
    return out


def _column_sums(x: np.ndarray) -> np.ndarray:
    """Sums over axis 0 of an (m, ...) array, each column in numpy's pairwise
    order for one contiguous row of m: for an (m, batch) array, bit for bit
    ``x.T.copy().sum(axis=1)``."""
    m = len(x)
    if m > 128:  # numpy halves a long row at a multiple of 8
        half = m // 2 - m // 2 % 8
        return _column_sums(x[:half]) + _column_sums(x[half:])
    if m < 8:
        out = x[0].copy()
        for row in x[1:]:
            out += row
        return out
    r = x[:8]  # eight running sums, each over every eighth entry
    for i in range(8, m - m % 8, 8):
        r = r + x[i:i + 8]
    out = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for row in x[m - m % 8:]:
        out += row
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


# each 1-qubit kind's matrix, as a function of the gate's parameter
_MATRICES = {"X": lambda _: X_MATRIX, "SX": lambda _: SX_MATRIX, "H": lambda _: H_MATRIX,
             "RZ": rz_matrix, "RY": ry_matrix}


def apply_gate(amps: np.ndarray, gate: Gate, n_qubits: int) -> np.ndarray:
    """Apply one non-measurement gate to flat or batched amplitudes."""
    if gate.kind in _MATRICES:
        return apply_matrix(amps, _MATRICES[gate.kind](gate.param), gate.qubits, n_qubits)
    if gate.kind in ("CX", "CSWAP"):
        perm = _cx_permutation if gate.kind == "CX" else _cswap_permutation
        return amps[perm(n_qubits, *gate.qubits)]
    if gate.kind in ("ID", "DELAY"):
        return amps
    raise ValueError(f"cannot apply gate kind {gate.kind!r}")


def execute_statevector(circuit: QuantumCircuit, initial: StateVector) -> StateVector:
    """Exact noiseless execution; rejects circuits containing MEASURE."""
    if initial.n_qubits != circuit.n_qubits:
        raise ValueError(
            f"initial state has {initial.n_qubits} qubits, circuit {circuit.n_qubits}"
        )
    for i, g in enumerate(circuit.gates):
        if g.kind == "MEASURE":
            raise ValueError(f"gate {i} is MEASURE on qubit {g.qubits[0]}: a state vector "
                             "cannot hold a measured outcome")
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


# ---------------------------------------------------------------------------
# Mottonen state preparation (uniformly controlled rotations, Gray-code CX)

# A rotation angle, or every phase of a state, at most this far from 0 is
# an exact 0 (_mottonen_thetas), which the preparation leaves out.
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
    order, and per row whether its phases need the RZ cascade at all. Angles
    within SKIP_TOL of 0, and an unphased row's RZ angles, are exact zeros."""
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
    ry, rz = np.concatenate(ry, axis=1), np.concatenate(rz, axis=1)
    ry[np.abs(ry) <= SKIP_TOL] = 0.0
    rz[(np.abs(rz) <= SKIP_TOL) | ~phased[:, None]] = 0.0
    return ry, rz, phased


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
    rotations whose angle is 0 and the RZ cascade if no phase needs it.
    """
    n = target.n_qubits
    ry, rz, phased = _mottonen_thetas(target.amplitudes[None, :])
    gates = []
    for kind, thetas in (("RY", ry[0]), ("RZ", rz[0]))[: 1 + int(phased[0])]:
        for slot, a, b in _mottonen_template(n):
            if slot == "CX":
                gates.append(Gate("CX", (a, b)))
            elif thetas[b] != 0:
                gates.append(Gate(kind, (a,), float(thetas[b])))
    return QuantumCircuit(n, gates)


# ---------------------------------------------------------------------------
# Lowering to the native basis set {CX, DELAY, ID, MEASURE, RZ, SX, X}

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


@functools.lru_cache(maxsize=None)  # gates are immutable: build each Toffoli once
def _toffoli(c1: int, c2: int, t: int) -> tuple:
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
    return tuple(gates)


def lower_gate(gate: Gate) -> list:
    if gate.kind in BASIS_KINDS:
        return [gate]
    if gate.kind == "H":
        return _lower_h(gate.qubits[0])
    if gate.kind == "RY":
        return _lower_ry(gate.qubits[0], gate.param)
    c, a, b = gate.qubits  # CSWAP, the one kind a Gate admits beyond these
    return [Gate("CX", (b, a)), *_toffoli(c, a, b), Gate("CX", (b, a))]


def lower_to_basis(circuit: QuantumCircuit) -> QuantumCircuit:
    """Rewrite onto the native basis set; action agrees up to global phase."""
    gates: list = []
    for gate in circuit.gates:
        gates.extend(lower_gate(gate))
    return QuantumCircuit(circuit.n_qubits, gates)


# ---------------------------------------------------------------------------
# SWAP test


def build_swap_test(prep_a: QuantumCircuit, prep_b: QuantumCircuit) -> QuantumCircuit:
    """SWAP-test circuit on 2n+1 qubits, n the preparations' common width.

    Qubit 0 is the ancilla; ``prep_a`` loads qubits 1..n, ``prep_b`` loads
    qubits n+1..2n; controlled swaps pair qubit i with qubit n+i; the ancilla
    is measured.
    """
    n_qubits = prep_a.n_qubits
    if prep_b.n_qubits != n_qubits:
        raise ValueError(f"preparation widths differ: {n_qubits} and {prep_b.n_qubits}")
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
    for gate in build_swap_test(prep_a, QuantumCircuit(n)).gates[: 1 + len(prep_a.gates)]:
        amps = apply_gate(amps, gate, 2 * n + 1)
    return amps


def swap_test_probabilities(head: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """Final basis probabilities of one SWAP test per row of ``candidates``.

    Each row of the (batch, 2^n) array is loaded onto qubits n+1..2n of a copy
    of ``head`` by the fixed Mottonen template with that row's angles, as an
    exact identity where :func:`mottonen_prepare` leaves a rotation out: bit
    for bit the probabilities of the serially built and simulated SWAP test,
    one row per candidate. The caller checks that the rows fit ``head``.
    """
    n = candidates.shape[1].bit_length() - 1
    width = 2 * n + 1
    ry, rz, phased = _mottonen_thetas(candidates)
    amps = np.repeat(head[:, None], len(candidates), axis=1)
    for mats in (ry_matrix(ry.T), rz_matrix(rz.T))[: 1 + int(phased.any())]:
        for slot, a, b in _mottonen_template(n):
            if slot == "CX":
                amps = amps[_cx_permutation(width, a + n + 1, b + n + 1)]
            else:
                amps = apply_matrix(amps, mats[:, :, b], (a + n + 1,), width)
    for gate in build_swap_test(QuantumCircuit(n), QuantumCircuit(n)).gates[1:-1]:
        amps = apply_gate(amps, gate, width)  # the CSWAPs and the last H
    return np.abs(normalize_rows(amps.T.copy())) ** 2
