"""Calibrated gate-level noise: Kraus channels applied as Monte Carlo trajectories.

Channels are synthesized from scalar calibration parameters (bit-flip
probability, depolarizing rates, T1/T2 relaxation over gate durations) and
attached per gate kind; a 1-qubit channel acts on each operand, a 2-qubit one
on the CX pair. Averaging the trajectories reproduces the density-matrix
evolution. Trajectories that hold the same state share one row: the state is
one row per trajectory class plus each trajectory's class. Each channel step
draws one number per trajectory and computes the selection probabilities
once per class (static weights for unitary mixtures, local populations for
diagonal effects, the local Gram matrix otherwise); trajectories that draw
operator 0 stay in their class, whose row gets it as one shared matrix, and
the others move to one new class per (class, operator) pair, whose rows get
their operators as a per-row stack through circuit.apply_matrix. Every
trajectory sees the same arithmetic as with one row per trajectory, bit for
bit; identity draws keep their bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .circuit import BASIS_KINDS, QuantumCircuit, _local_views, apply_gate, apply_matrix
from .core import Rng

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
    """Completely positive trace-preserving map given by Kraus operators."""

    operators: tuple
    arity: int

    def __post_init__(self):
        d = 2**self.arity
        ops = tuple(np.asarray(k, dtype=np.complex128) for k in self.operators)
        if self.arity not in (1, 2):
            raise ValueError(f"arity must be 1 or 2, got {self.arity}")
        if not ops:
            raise ValueError("channel needs at least one Kraus operator")
        for k in ops:
            if k.shape != (d, d):
                raise ValueError(f"Kraus operator shape {k.shape} != ({d}, {d})")
        total = sum(k.conj().T @ k for k in ops)
        if np.max(np.abs(total - np.eye(d))) > COMPLETENESS_TOL:
            raise ValueError("Kraus operators violate completeness")
        object.__setattr__(self, "operators", ops)
        self._classify()

    def _classify(self):
        """Precompute fast-path metadata for trajectory sampling.

        A channel whose operators are all proportional to unitaries has
        state-independent selection probabilities (``_mix_weights``) and is
        applied without renormalization; a channel whose POVM effects are all
        diagonal needs only basis populations (``_effect_diagonals``).
        ``_stack`` holds the operator each choice applies (the unitary for a
        mixture) and ``_skip`` marks choices that leave the state as it is.
        """
        d = self.operators[0].shape[0]
        effects = np.array([k.conj().T @ k for k in self.operators])
        object.__setattr__(self, "_effects", effects)  # POVM effects K^dagger K
        weights = [float(np.trace(eff).real) / d for eff in effects]
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
        w_arr = np.array(weights)
        object.__setattr__(self, "_mix_weights", w_arr / w_arr.sum() if unitary_mix else None)
        object.__setattr__(self, "_stack", np.array(stack))
        object.__setattr__(self, "_skip", np.array(skip))
        diag = all(np.max(np.abs(eff - np.diag(np.diag(eff)))) < 1e-14 for eff in effects)
        object.__setattr__(
            self,
            "_effect_diagonals",
            np.array([np.diag(eff).real for eff in effects]) if diag else None,
        )

    @property
    def is_identity(self) -> bool:
        if len(self.operators) != 1:
            return False
        k = self.operators[0]
        return bool(np.max(np.abs(k - np.eye(k.shape[0]))) < 1e-12)


def identity_channel(arity: int = 1) -> KrausChannel:
    return KrausChannel((np.eye(2**arity, dtype=np.complex128),), arity)


def bit_flip_channel(p: float) -> KrausChannel:
    """Pauli-X flip with probability p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"flip probability must be in [0, 1], got {p}")
    if p == 0.0:
        return identity_channel(1)
    if p == 1.0:
        return KrausChannel((_PAULIS["X"],), 1)
    return KrausChannel(
        (math.sqrt(1.0 - p) * _I2, math.sqrt(p) * _PAULIS["X"]), 1
    )


def depolarizing_channel(p: float, arity: int = 1) -> KrausChannel:
    """Standard Pauli-basis depolarizing channel on 1 or 2 qubits."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"depolarizing probability must be in [0, 1], got {p}")
    if arity not in (1, 2):
        raise ValueError(f"arity must be 1 or 2, got {arity}")
    if p == 0.0:
        return identity_channel(arity)
    labels = ["I", "X", "Y", "Z"]
    if arity == 1:
        paulis = [_PAULIS[a] for a in labels]
    else:
        paulis = [np.kron(_PAULIS[a], _PAULIS[b]) for a in labels for b in labels]
    n_err = len(paulis) - 1
    ops = [math.sqrt(1.0 - p) * paulis[0]]
    ops.extend(math.sqrt(p / n_err) * pp for pp in paulis[1:])
    return KrausChannel(tuple(ops), arity)


def thermal_relaxation_channel(t1: float, t2: float, duration: float) -> KrausChannel:
    """Amplitude damping composed with pure dephasing over ``duration``.

    ``t1``/``t2`` in microseconds, ``duration`` in nanoseconds. Only the
    t2 <= t1 regime is supported.
    """
    if t1 <= 0 or t2 <= 0:
        raise ValueError("relaxation times must be positive")
    if t2 > t1:
        raise UnsupportedRegimeError(f"t2={t2} > t1={t1} is not supported")
    if duration < 0:
        raise ValueError(f"duration must be >= 0, got {duration}")
    if duration == 0:
        return identity_channel(1)
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
    return KrausChannel(tuple(ops), 1)


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
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        for name in ("bit_flip_p", "depol_1q", "depol_2q"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        if self.t1 <= 0 or self.t2 <= 0:
            raise ValueError(f"t1 and t2 must be positive, got t1={self.t1}, t2={self.t2}")
        if self.t2 > self.t1:  # thermal_relaxation_channel supports t2 <= t1 only
            raise UnsupportedRegimeError(f"t2={self.t2} > t1={self.t1} is not supported")
        for name in ("readout_len", "gate_len_1q", "gate_len_2q"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")

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
class ChannelApplication:
    """One channel attached to a gate kind."""

    channel: KrausChannel

    @property
    def scope(self) -> str:
        """From the arity: "pair" (a 2-qubit channel on the gate's qubit pair)
        or "operands" (a 1-qubit channel on every operand in turn)."""
        return "pair" if self.channel.arity == 2 else "operands"


@dataclass(frozen=True)
class NoiseModel:
    """Per-gate-kind channel assignments plus relaxation parameters for delays."""

    assignments: dict = field(default_factory=dict)
    t1: float | None = None
    t2: float | None = None

    def __post_init__(self):
        for kind, apps in self.assignments.items():
            if kind not in BASIS_KINDS:
                raise ValueError(f"channel assigned to non-basis gate kind {kind!r}")
            for app in apps:
                if not isinstance(app, ChannelApplication):
                    raise ValueError("assignments must hold ChannelApplication entries")
                if app.channel.arity == 2 and kind != "CX":  # only CX takes two qubits
                    raise ValueError(f"2-qubit channel assigned to 1-qubit gate kind {kind!r}")

    def channels_for(self, gate) -> list:
        apps = list(self.assignments.get(gate.kind, ()))
        if gate.kind == "DELAY" and self.t1 is not None:
            apps.append(
                ChannelApplication(
                    thermal_relaxation_channel(self.t1, self.t2, gate.param)
                )
            )
        return apps


def calibrated_noise_model(params: NoiseParams | None = None) -> NoiseModel:
    """The calibrated model: depolarizing + bit flip on 1q gates, depolarizing
    + per-operand thermal relaxation on CX, relaxation over the readout window
    before measurement, relaxation over idle durations for ID/DELAY."""
    if params is None:
        params = NoiseParams()
    depol1 = ChannelApplication(depolarizing_channel(params.depol_1q, 1))
    flip = ChannelApplication(bit_flip_channel(params.bit_flip_p))
    single = [depol1, flip]
    cx = [
        ChannelApplication(depolarizing_channel(params.depol_2q, 2)),
        ChannelApplication(
            thermal_relaxation_channel(params.t1, params.t2, params.gate_len_2q)
        ),
    ]
    measure = [
        ChannelApplication(
            thermal_relaxation_channel(params.t1, params.t2, params.readout_len)
        )
    ]
    idle = [
        ChannelApplication(
            thermal_relaxation_channel(params.t1, params.t2, params.gate_len_1q)
        )
    ]
    assignments = {
        "RZ": single,
        "SX": single,
        "X": single,
        "CX": cx,
        "MEASURE": measure,
        "ID": idle,
    }
    return NoiseModel(assignments, t1=params.t1, t2=params.t2)


# ---------------------------------------------------------------------------
# Trajectory execution (one row per trajectory class)


def _channel_step(
    rows: np.ndarray, cls: np.ndarray, channel: KrausChannel, qubits: tuple, n_qubits: int,
    rng: Rng,
) -> tuple:
    """Stochastically apply one Kraus channel to trajectory classes: ``rows``
    holds one state per class and ``cls`` each trajectory's class. Every
    trajectory draws one operator; those drawing operator 0 stay in their
    class, whose row gets it once, and the others move to one new class per
    (class, operator) pair. Classes left empty are dropped. Rows that draw an
    identity keep their bytes."""
    if channel.is_identity:
        return rows, cls
    u = rng.uniform(len(cls))
    k = len(channel.operators)
    weights = channel._mix_weights
    if weights is not None:
        # operators proportional to unitaries: static probabilities
        probs = weights[:, None]
    else:
        views = [v.reshape(len(rows), -1) for v in _local_views(rows, qubits, n_qubits)]
        if channel._effect_diagonals is not None:
            # diagonal effects: probabilities from local basis populations
            populations = np.array([np.sum(np.abs(v) ** 2, axis=1) for v in views])
            probs = channel._effect_diagonals @ populations
        else:
            # general channel: local reduced Gram matrix per class
            m = np.stack(views, axis=1)
            gram = np.einsum("bir,bjr->bij", m, m.conj())
            probs = np.einsum("kij,bji->kb", channel._effects, gram).real
        probs = np.clip(probs, 0.0, None)
        probs /= probs.sum(axis=0, keepdims=True)
    # a trajectory draws operator i when cum[i - 1] < u <= cum[i]; mode="clip"
    # lets a mixture's one column serve every class
    cum = np.cumsum(probs, axis=0)
    movers = np.flatnonzero(u > cum[0].take(cls, mode="clip"))
    if movers.size == 0 and channel._skip[0]:  # nobody moves and operator 0 is the identity
        return rows, cls
    choice = (u[movers] > cum.take(cls[movers], axis=1, mode="clip")).sum(axis=0)
    choice = np.minimum(choice, k - 1)
    pairs, moved = np.unique(cls[movers] * k + choice, return_inverse=True)
    cls = cls.copy()
    cls[movers] = len(rows) + moved
    live = np.bincount(cls, minlength=len(rows) + len(pairs)) > 0
    kept = np.flatnonzero(live[:len(rows)])  # every new class is live
    cls = (np.cumsum(live) - 1).take(cls)
    out = rows.take(np.concatenate([kept, pairs // k]), axis=0)  # kept classes first
    ops, stay = pairs % k, len(kept)
    if stay and not channel._skip[0]:  # operator 0 as one shared matrix on the kept classes
        out[:stay] = apply_matrix(out[:stay], channel._stack[0], qubits, n_qubits)
    new = stay + np.flatnonzero(~channel._skip[ops])
    if new.size:  # the other draws as a per-row stack
        out[new] = apply_matrix(out[new], channel._stack[ops[new - stay]], qubits, n_qubits)
    if weights is None:  # only mixtures have identity draws
        out /= np.linalg.norm(out, axis=1, keepdims=True)
    return out, cls


def execute_trajectories(
    circuit: QuantumCircuit, model: NoiseModel, trajectories: int, rng: Rng
) -> float:
    """Mean ancilla <Z> over stochastic Kraus trajectories of a lowered circuit.

    After every gate the assigned channels are applied with operator i chosen
    with probability ||K_i psi||^2 and the state renormalized. MEASURE
    channels fire before the measurement; the ancilla expectation itself is
    computed exactly from each trajectory's final state. Trajectories with
    equal states share one row: the gates act on the class rows and each
    class's <Z> is gathered back to its trajectories.
    """
    if trajectories < 1:
        raise ValueError(f"trajectories must be >= 1, got {trajectories}")
    for g in circuit.gates:
        if g.kind not in BASIS_KINDS:
            raise ValueError(f"circuit is not lowered: contains {g.kind}")
    if circuit.measured != (0,):
        raise ValueError(f"circuit must measure exactly qubit 0, measures {circuit.measured}")
    n = circuit.n_qubits
    # two equal classes (trajectory 0, the rest): classes never merge, so no
    # array has one row, where numpy's complex product rounds differently
    rows = np.zeros((min(trajectories, 2), 2**n), dtype=np.complex128)
    rows[:, 0] = 1.0
    cls = np.minimum(np.arange(trajectories), 1)
    for gate in circuit.gates:
        if gate.kind != "MEASURE":
            rows = apply_gate(rows, gate, n)
        for app in model.channels_for(gate):
            for qubits in [gate.qubits] if app.scope == "pair" else [(q,) for q in gate.qubits]:
                rows, cls = _channel_step(rows, cls, app.channel, qubits, n, rng)
    idx = np.arange(2**n)
    p1 = np.sum(np.abs(rows[:, (idx & 1) == 1]) ** 2, axis=1)
    z_per_class = 1.0 - 2.0 * p1
    return float(np.mean(z_per_class[cls]))
