"""Calibrated gate-level noise: Kraus channels applied as Monte Carlo trajectories.

Channels are synthesized from scalar calibration parameters (bit-flip
probability, depolarizing rates, T1/T2 relaxation over gate durations) and
attached per gate kind; a 1-qubit channel acts on each operand, a 2-qubit one
on the CX pair. Averaging the trajectories reproduces the density-matrix
evolution. Trajectories that hold the same state share one column of a
(2^n, classes) array, a trajectory class (_Classes, _channel_step). Each
trajectory holds its class's column, so a channel step pays for its movers
and its classes, not for every trajectory.
execute_trajectory_batch places each circuit's draws in the one generator's
stream and runs circuits that differ only in RZ angles as one batch whose
class columns each carry their circuit. Every trajectory gets the bits it
would get alone, one row per trajectory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .circuit import (BASIS_KINDS, QuantumCircuit, _column_sums, _local_index, apply_gate,
                      apply_matrix, rz_matrix)
from .core import Rng, check_count, check_real

COMPLETENESS_TOL = 1e-9

_I2 = np.eye(2, dtype=np.complex128)
_PAULIS = {
    "I": _I2,
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}


class UnsupportedRegimeError(ValueError):
    """Raised for noise parameter regimes outside the supported range."""


@dataclass(frozen=True)
class KrausChannel:
    """Completely positive trace-preserving map given by its non-zero Kraus
    operators. Operators that are exactly zero are dropped; ``arity`` follows
    from the operators' shape, 2x2 for one qubit and 4x4 for two."""

    operators: tuple

    def __post_init__(self):
        ops = tuple(np.asarray(k, dtype=np.complex128) for k in self.operators)
        shapes = {k.shape for k in ops}
        if len(shapes) > 1 or not shapes <= {(2, 2), (4, 4)}:
            raise ValueError(f"Kraus operators must all be 2x2 or all 4x4, got shapes "
                             f"{sorted(shapes)}")
        ops = tuple(k for k in ops if k.any())
        if not ops:
            raise ValueError("channel needs at least one non-zero Kraus operator")
        total = sum(k.conj().T @ k for k in ops)
        if np.max(np.abs(total - np.eye(len(total)))) > COMPLETENESS_TOL:
            raise ValueError("Kraus operators violate completeness")
        object.__setattr__(self, "operators", ops)
        self._classify()

    @property
    def arity(self) -> int:
        return self.operators[0].shape[0].bit_length() - 1

    def _classify(self):
        """Precompute fast-path metadata for trajectory sampling.

        A channel whose operators are all proportional to unitaries has
        state-independent selection probabilities (their running sum is
        ``_mix_cum``) and is applied without renormalization; a channel
        whose POVM effects are all diagonal needs only basis populations
        (``_effect_diagonals``). ``_stack`` holds the operator each choice
        applies (the unitary for a mixture), choice last, and ``_skip`` marks
        choices that leave the state as it is.
        """
        d = self.operators[0].shape[0]
        effects = np.array([k.conj().T @ k for k in self.operators])
        object.__setattr__(self, "_effects", effects)  # POVM effects K^dagger K
        weights = np.array([float(np.trace(eff).real) / d for eff in effects])
        unitary_mix = all(np.max(np.abs(eff - w * np.eye(d))) <= 1e-12
                          for eff, w in zip(effects, weights))
        stack, skip = list(self.operators), [False] * len(self.operators)
        if unitary_mix:
            for i, (k, w) in enumerate(zip(self.operators, weights)):
                if w < 1e-30:
                    skip[i] = True
                    continue
                stack[i] = k / math.sqrt(w)
                # identity up to a global phase: never multiplied, so its
                # rows keep their bits
                phase = stack[i].flat[np.argmax(np.abs(stack[i]))]
                skip[i] = bool(np.max(np.abs(stack[i] / phase - np.eye(d))) < 1e-12)
        mix_cum = np.cumsum(weights / weights.sum()) if unitary_mix else None
        object.__setattr__(self, "_mix_cum", mix_cum)
        object.__setattr__(self, "_stack", np.moveaxis(np.array(stack), 0, -1).copy())
        object.__setattr__(self, "_skip", np.array(skip))
        diag = all(np.max(np.abs(eff - np.diag(np.diag(eff)))) < 1e-14 for eff in effects)
        diagonals = np.array([np.diag(eff).real for eff in effects]) if diag else None
        object.__setattr__(self, "_effect_diagonals", diagonals)

    @property
    def is_identity(self) -> bool:
        if len(self.operators) != 1:
            return False
        k = self.operators[0]
        return bool(np.max(np.abs(k - np.eye(k.shape[0]))) < 1e-12)


def bit_flip_channel(p: float) -> KrausChannel:
    """Pauli-X flip with probability p."""
    check_real("in [0, 1]", p=p)
    return KrausChannel((math.sqrt(1.0 - p) * _I2, math.sqrt(p) * _PAULIS["X"]))


def depolarizing_channel(p: float, arity: int = 1) -> KrausChannel:
    """Standard Pauli-basis depolarizing channel on 1 or 2 qubits."""
    check_real("in [0, 1]", p=p)
    check_count(1, arity=arity)
    if arity not in (1, 2):
        raise ValueError(f"arity must be 1 or 2, got {arity}")
    labels = ["I", "X", "Y", "Z"]
    if arity == 1:
        paulis = [_PAULIS[a] for a in labels]
    else:
        paulis = [np.kron(_PAULIS[a], _PAULIS[b]) for a in labels for b in labels]
    n_err = len(paulis) - 1
    ops = [math.sqrt(1.0 - p) * paulis[0]]
    ops.extend(math.sqrt(p / n_err) * pp for pp in paulis[1:])
    return KrausChannel(tuple(ops))


def check_relaxation_times(t1: float, t2: float) -> None:
    """The T1/T2 rule of NoiseParams, NoiseModel and the relaxation channel:
    both times finite and positive, and t2 <= t1, the only supported regime."""
    check_real("positive", t1=t1, t2=t2)
    if not t2 <= t1:
        raise UnsupportedRegimeError(f"t2={t2} > t1={t1} is not supported")


def thermal_relaxation_channel(t1: float, t2: float, duration: float) -> KrausChannel:
    """Amplitude damping composed with pure dephasing over ``duration``.

    ``t1``/``t2`` in microseconds, ``duration`` in nanoseconds. Only the
    t2 <= t1 regime is supported.
    """
    check_relaxation_times(t1, t2)
    check_real(">= 0", duration=duration)
    t1_ns = t1 * 1000.0
    t2_ns = t2 * 1000.0
    e1 = math.exp(-duration / t1_ns)
    e2 = math.exp(-duration / t2_ns)
    gamma = 1.0 - e1
    # residual dephasing after the coherence decay already caused by damping
    lam = 1.0 if e1 == 0.0 else 1.0 - (e2 * e2) / e1
    lam = min(max(lam, 0.0), 1.0)
    damp_0 = np.array([[1, 0], [0, math.sqrt(1 - gamma)]], dtype=np.complex128)
    damp_1 = np.array([[0, math.sqrt(gamma)], [0, 0]], dtype=np.complex128)
    deph_0 = np.array([[1, 0], [0, math.sqrt(1 - lam)]], dtype=np.complex128)
    deph_1 = np.array([[0, 0], [0, math.sqrt(lam)]], dtype=np.complex128)
    ops = []
    for d in (deph_0, deph_1):
        for a in (damp_0, damp_1):
            k = d @ a
            if np.max(np.abs(k)) > 1e-15:
                ops.append(k)
    return KrausChannel(tuple(ops))


@dataclass(frozen=True)
class NoiseParams:
    """Scalar calibration record for the synthesized noise model.

    Times: t1/t2 in microseconds, lengths in nanoseconds. The gate lengths
    are typical-magnitude stand-ins, not calibrated values.
    """

    bit_flip_p: float = 2.003e-04
    depol_1q: float = 1.701e-02
    depol_2q: float = 0.02
    t1: float = 272.21
    t2: float = 188.1
    readout_len: float = 1216.0
    gate_len_1q: float = 60.0
    gate_len_2q: float = 660.0

    def __post_init__(self):
        check_real("in [0, 1]", bit_flip_p=self.bit_flip_p, depol_1q=self.depol_1q,
                   depol_2q=self.depol_2q)
        check_real(">= 0", readout_len=self.readout_len, gate_len_1q=self.gate_len_1q,
                   gate_len_2q=self.gate_len_2q)
        check_relaxation_times(self.t1, self.t2)

    @classmethod
    def from_file(cls, path) -> "NoiseParams":
        """Load key=value text config; an unknown or repeated key, or a value
        that is not a number, is an error naming its line."""
        known = {f.name for f in fields(cls)}
        values = {}
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
                key, _, value = line.partition("=")
                key, value = key.strip(), value.strip()
                if key not in known:
                    raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
                if key in values:
                    raise ValueError(f"{path}:{lineno}: repeated key {key!r}")
                try:
                    values[key] = float(value)
                except ValueError:
                    raise ValueError(f"{path}:{lineno}: {key} = {value!r} is not a number")
        return cls(**values)


@dataclass(frozen=True)
class NoiseModel:
    """Kraus channels per gate kind plus relaxation parameters for delays. A
    2-qubit channel acts on the CX pair, a 1-qubit one on each operand.
    ``t1`` and ``t2`` come together, checked like NoiseParams', or not at all."""

    assignments: dict = field(default_factory=dict)
    t1: float | None = None
    t2: float | None = None

    def __post_init__(self):
        for kind, channels in self.assignments.items():
            if kind not in BASIS_KINDS:
                raise ValueError(f"channel assigned to non-basis gate kind {kind!r}")
            for channel in channels:
                if not isinstance(channel, KrausChannel):
                    raise ValueError("assignments must hold KrausChannel entries")
                if channel.arity == 2 and kind != "CX":  # only CX takes two qubits
                    raise ValueError(f"2-qubit channel assigned to 1-qubit gate kind {kind!r}")
        if (self.t1 is None) != (self.t2 is None):
            raise ValueError(f"t1 and t2 must be given together, got t1={self.t1}, t2={self.t2}")
        if self.t1 is not None:
            check_relaxation_times(self.t1, self.t2)

    def steps(self, gate) -> list:
        """The gate's (channel, qubits) steps without identity channels: each
        draws one uniform number per trajectory."""
        channels = list(self.assignments.get(gate.kind, ()))
        if gate.kind == "DELAY" and self.t1 is not None:
            channels.append(thermal_relaxation_channel(self.t1, self.t2, gate.param))
        return [(channel, qubits) for channel in channels if not channel.is_identity
                for qubits in ([gate.qubits] if channel.arity == 2
                               else [(q,) for q in gate.qubits])]


def calibrated_noise_model(params: NoiseParams | None = None) -> NoiseModel:
    """The calibrated model: depolarizing + bit flip on 1q gates, depolarizing
    + per-operand thermal relaxation on CX, relaxation over the readout window
    before measurement, relaxation over idle durations for ID/DELAY."""
    if params is None:
        params = NoiseParams()
    single = [depolarizing_channel(params.depol_1q), bit_flip_channel(params.bit_flip_p)]
    cx = [
        depolarizing_channel(params.depol_2q, 2),
        thermal_relaxation_channel(params.t1, params.t2, params.gate_len_2q),
    ]
    assignments = {
        "RZ": single,
        "SX": single,
        "X": single,
        "CX": cx,
        "MEASURE": [thermal_relaxation_channel(params.t1, params.t2, params.readout_len)],
        "ID": [thermal_relaxation_channel(params.t1, params.t2, params.gate_len_1q)],
    }
    return NoiseModel(assignments, t1=params.t1, t2=params.t2)


# ---------------------------------------------------------------------------
# Trajectory execution (one column per trajectory class)


BUDGET = 2**17  # amplitudes per trajectory chunk: 8 SWAP tests at n = 1, T = 2000


def _gate_structure(circuit: QuantumCircuit) -> tuple:
    """Width, gate kinds, qubits and every parameter but RZ angles."""
    return circuit.n_qubits, tuple((g.kind, g.qubits, None if g.kind == "RZ" else g.param)
                                   for g in circuit.gates)


class _Classes:
    """Trajectory classes of one chunk. ``rows`` (2^n, classes) holds one state
    per class and ``circuit`` each column's circuit. ``ids`` holds each
    trajectory's column and ``size`` counts each column's trajectories."""

    def __init__(self, rows: np.ndarray, ids: np.ndarray, circuit: np.ndarray):
        self.rows, self.ids, self.circuit = rows, ids, circuit
        self.size = np.bincount(ids, minlength=rows.shape[1])


def _channel_step(classes: _Classes, channel: KrausChannel, qubits: tuple, n_qubits: int,
                  u: np.ndarray) -> None:
    """Stochastically apply one Kraus channel to trajectory classes, in place,
    trajectory t drawing ``u[t]``. Every trajectory draws one operator; those
    drawing operator 0 stay in their class, whose column gets it once, and the
    others move to one new class per (class, operator) pair, whose columns
    follow the kept ones. Classes left empty lose their column. Columns that
    draw an identity keep their bytes."""
    rows, k = classes.rows, len(channel.operators)
    # a trajectory draws operator i when cum[i - 1] < u <= cum[i]
    if channel._mix_cum is not None:
        # operators proportional to unitaries: static probabilities, and a
        # trajectory moves when its draw exceeds operator 0's weight
        movers = np.flatnonzero(u > channel._mix_cum[0])
        choice = np.searchsorted(channel._mix_cum, u[movers])
    else:
        local = rows[_local_index(qubits, n_qubits)]  # (2^k, 2^(n-k), classes)
        if channel._effect_diagonals is not None:
            # diagonal effects: probabilities from local basis populations
            populations = _column_sums((np.abs(local) ** 2).transpose(1, 0, 2))
            probs = channel._effect_diagonals @ populations
        else:
            # general channel: local reduced Gram matrix per class, row-major
            m = np.ascontiguousarray(local.transpose(2, 0, 1))
            gram = np.einsum("bir,bjr->bij", m, m.conj())
            probs = np.einsum("kij,bji->kb", channel._effects, gram).real
        cum = np.clip(probs, 0.0, None)
        cum /= cum.sum(axis=0, keepdims=True)
        for i in range(1, k):  # the running sum down the operators, as np.cumsum adds
            cum[i] += cum[i - 1]
        movers = np.flatnonzero(u > cum[0].take(classes.ids))
        choice = (u[movers] > cum.take(classes.ids[movers], axis=1)).sum(axis=0)
    if movers.size == 0 and channel._skip[0]:  # nobody moves and operator 0 is the identity
        return
    at = classes.ids[movers]
    choice = np.minimum(choice, k - 1)
    pairs, moved, counts = np.unique(at * k + choice, return_inverse=True, return_counts=True)
    left = classes.size - np.bincount(at, minlength=len(classes.size))
    kept = np.flatnonzero(left)
    ops, stay = pairs % k, len(kept)
    stayers = rows  # operator 0 as one shared matrix on the classes
    if not channel._skip[0]:
        stayers = apply_matrix(rows, channel._stack[..., 0], qubits, n_qubits)
    moving = rows.take(pairs // k, axis=1)
    new = ~channel._skip[ops]
    if new.all():  # the other draws as a per-column stack
        moving = apply_matrix(moving, channel._stack[..., ops], qubits, n_qubits)
    elif new.any():
        moving[:, new] = apply_matrix(moving[:, new], channel._stack[..., ops[new]], qubits,
                                      n_qubits)
    if stay < len(left):  # empty classes lose their column
        stayers = stayers.take(kept, axis=1)
        classes.ids = (np.cumsum(left > 0) - 1).take(classes.ids)
    out = np.concatenate([stayers, moving], axis=1)  # kept classes first
    if channel._mix_cum is None:  # only mixtures have identity draws
        out /= np.sqrt(_column_sums((out.conj() * out).real))
    classes.ids[movers] = stay + moved
    classes.rows, classes.size = out, np.concatenate([left[kept], counts])
    classes.circuit = classes.circuit.take(np.concatenate([kept, pairs // k]))


def execute_trajectory_batch(circuits: list, model: NoiseModel, trajectories: int,
                             rng: Rng) -> np.ndarray:
    """Mean ancilla <Z> of each lowered circuit over its own Kraus
    trajectories: bit for bit a loop of one-circuit calls over ``circuits``
    with ``rng``, which ends where that loop leaves it.

    After every gate the assigned channels are applied with operator i chosen
    with probability ||K_i psi||^2 and the state renormalized; MEASURE
    channels fire before the measurement, whose <Z> is exact per trajectory.
    Circuit c draws from a generator placed past the draws of circuits
    0..c-1. Circuits of one :func:`_gate_structure` run together, BUDGET
    amplitudes at a time; at T = 1 each runs alone.
    """
    check_count(1, trajectories=trajectories)
    if not circuits:
        raise ValueError("need at least one circuit, got 0 circuits")
    groups: dict = {}  # structure -> indices of its circuits
    for i, circuit in enumerate(circuits):
        groups.setdefault(_gate_structure(circuit), []).append(i)
    steps, draws = {}, np.zeros(len(circuits), dtype=np.int64)
    for key, idx in groups.items():
        first = circuits[idx[0]]
        for g in first.gates:
            if g.kind not in BASIS_KINDS:
                raise ValueError(f"circuit is not lowered: contains {g.kind}")
        if first.measured != (0,):
            raise ValueError(f"circuit must measure exactly qubit 0, measures {first.measured}")
        steps[key] = [model.steps(g) for g in first.gates]
        draws[idx] = trajectories * sum(map(len, steps[key]))
    gens = [rng.ahead(int(k)) for k in np.cumsum(np.r_[0, draws[:-1]])]
    means = np.empty(len(circuits))
    for key, idx in groups.items():
        # T = 1 runs alone: its serial run is a one-row array, which rounds apart
        size = 1 if trajectories == 1 else max(1, BUDGET // (trajectories * 2 ** key[0]))
        for chunk in (idx[j:j + size] for j in range(0, len(idx), size)):
            means[chunk] = _trajectory_chunk([circuits[i] for i in chunk], steps[key],
                                             trajectories, [gens[i] for i in chunk])
    rng.skip(int(draws.sum()))
    return means


def _trajectory_chunk(circuits: list, steps: list, trajectories: int, gens: list) -> np.ndarray:
    """Circuits of one structure, whose gates have the channel ``steps``, as
    one set of class columns, circuit c drawing from ``gens[c]``: an RZ whose
    angles differ is applied as a per-column stack, every other gate as one."""
    first, n = circuits[0], circuits[0].n_qubits
    # two equal classes per circuit (trajectory 0, the rest): classes never merge,
    # so no sum runs over a one-column array, which rounds differently
    per = min(trajectories, 2)
    rows = np.zeros((2**n, per * len(circuits)), dtype=np.complex128)
    rows[0] = 1.0
    ids = np.add.outer(per * np.arange(len(circuits)), np.minimum(np.arange(trajectories), 1))
    classes = _Classes(rows, ids.ravel(), np.arange(rows.shape[1]) // per)
    u = np.empty(len(classes.ids))  # each step's draws, circuit by circuit
    draws = u.reshape(len(circuits), trajectories)
    for i, (gate, gate_steps) in enumerate(zip(first.gates, steps)):
        angles = [c.gates[i].param for c in circuits]
        if gate.kind == "RZ" and len(set(angles)) > 1:
            classes.rows = apply_matrix(classes.rows, rz_matrix(angles)[..., classes.circuit],
                                        gate.qubits, n)
        elif gate.kind != "MEASURE":
            classes.rows = apply_gate(classes.rows, gate, n)
        for channel, qubits in gate_steps:
            for gen, row in zip(gens, draws):
                gen.uniform(out=row)
            _channel_step(classes, channel, qubits, n, u)
    z_per_class = 1.0 - 2.0 * np.sum(np.abs(classes.rows[1::2]) ** 2, axis=0)
    return z_per_class.take(classes.ids).reshape(len(circuits), trajectories).mean(axis=1)
