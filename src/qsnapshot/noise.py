"""Calibrated gate-level noise: Kraus channels applied as Monte Carlo trajectories.

Channels are synthesized from scalar calibration parameters (bit-flip
probability, depolarizing rates, T1/T2 relaxation over gate durations) and
attached per gate kind; a 1-qubit channel acts on each operand, a 2-qubit one
on the CX pair. Trajectory execution is vectorized across trajectories;
averaging reproduces the density-matrix evolution. Each channel step first
chooses one operator per trajectory (static weights for unitary mixtures,
local populations for diagonal effects, the local Gram matrix otherwise), then
applies the most frequent choice as one shared matrix and the others as a
per-row stack through circuit.apply_matrix; identity rows are left untouched.
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
        """Load key=value text config; unknown keys are an error."""
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
                key = key.strip()
                if key not in known:
                    raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
                values[key] = float(value.strip())
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


def identity_noise_model() -> NoiseModel:
    return NoiseModel({})


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
# Trajectory execution (vectorized across trajectories)


def _apply_channel_batch(
    amps: np.ndarray, channel: KrausChannel, qubits: tuple, n_qubits: int, rng: Rng
) -> np.ndarray:
    """Stochastically apply one Kraus channel to a (trajectories, dim) batch:
    choose one operator per row, then apply the chosen operators: the most
    frequent one as a shared matrix, the rest as a per-row stack. Rows that
    draw an identity keep their bytes."""
    if channel.is_identity:
        return amps
    batch = amps.shape[0]
    u = rng.uniform(batch)
    weights = channel._mix_weights
    if weights is not None:
        # operators proportional to unitaries: static probabilities
        probs = weights[:, None]
    else:
        views = [v.reshape(batch, -1) for v in _local_views(amps, qubits, n_qubits)]
        if channel._effect_diagonals is not None:
            # diagonal effects: probabilities from local basis populations
            populations = np.array([np.sum(np.abs(v) ** 2, axis=1) for v in views])
            probs = channel._effect_diagonals @ populations
        else:
            # general channel: local reduced Gram matrix per trajectory
            m = np.stack(views, axis=1)
            gram = np.einsum("bir,bjr->bij", m, m.conj())
            probs = np.einsum("kij,bji->kb", channel._effects, gram).real
        probs = np.clip(probs, 0.0, None)
        probs /= probs.sum(axis=0, keepdims=True)
    choice = (u[None, :] > np.cumsum(probs, axis=0)).sum(axis=0)
    choice = np.minimum(choice, len(channel.operators) - 1)
    skipped = channel._skip[choice]
    # the usual draw: a mixture's is known in advance, any other's is counted
    common = np.argmax(weights if weights is not None else np.bincount(choice))
    if channel._skip[common]:  # a mixture whose usual draw is the identity
        rows = np.flatnonzero(~skipped)
        if rows.size == 0:
            return amps
        out = amps.copy()
    else:  # the usual draw as one shared matrix; identity draws keep their rows
        rows = np.flatnonzero((choice != common) & ~skipped)
        out = apply_matrix(amps, channel._stack[common], qubits, n_qubits)
        out[skipped] = amps[skipped]
    if rows.size:  # the other draws as a per-row stack
        out[rows] = apply_matrix(amps[rows], channel._stack[choice[rows]], qubits, n_qubits)
    if weights is None:  # only mixtures have identity draws
        out /= np.linalg.norm(out, axis=1, keepdims=True)
    return out


def execute_trajectories(
    circuit: QuantumCircuit, model: NoiseModel, trajectories: int, rng: Rng
) -> float:
    """Mean ancilla <Z> over stochastic Kraus trajectories of a lowered circuit.

    After every gate the assigned channels are applied with operator i chosen
    with probability ||K_i psi||^2 and the state renormalized. MEASURE
    channels fire before the measurement; the ancilla expectation itself is
    computed exactly from each trajectory's final state.
    """
    if trajectories < 1:
        raise ValueError(f"trajectories must be >= 1, got {trajectories}")
    for g in circuit.gates:
        if g.kind not in BASIS_KINDS:
            raise ValueError(f"circuit is not lowered: contains {g.kind}")
    if circuit.measured != (0,):
        raise ValueError(f"circuit must measure exactly qubit 0, measures {circuit.measured}")
    n = circuit.n_qubits
    amps = np.zeros((trajectories, 2**n), dtype=np.complex128)
    amps[:, 0] = 1.0
    for gate in circuit.gates:
        if gate.kind != "MEASURE":
            amps = apply_gate(amps, gate, n)
        for app in model.channels_for(gate):
            if app.scope == "pair":
                amps = _apply_channel_batch(amps, app.channel, gate.qubits, n, rng)
            else:
                for q in gate.qubits:
                    amps = _apply_channel_batch(amps, app.channel, (q,), n, rng)
    idx = np.arange(2**n)
    p1 = np.sum(np.abs(amps[:, (idx & 1) == 1]) ** 2, axis=1)
    z_per_traj = 1.0 - 2.0 * p1
    return float(np.mean(z_per_traj))
