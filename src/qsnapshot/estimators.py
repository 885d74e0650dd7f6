"""Reconstruction engines driven solely by a fidelity signal.

Two engines: a gradient-trained neural generator (finite differences across
the non-differentiable fidelity boundary, analytic backpropagation inside the
network, Adam updates) and QESwap, a population evolutionary strategy. Both
run in one ask/tell loop: the engine asks for a batch of raw vectors, the
loop decodes and scores them through the oracle, records the trace, best
candidate and probe, checks the stop rule, then tells the engine the rewards.
The population stays one array from ``ask`` to the oracle: a batch decoder
per representation (state vector, unitary via stacked QR, density matrix)
feeds every oracle's ``evaluate_batch``, and only each iteration's top row
becomes a ``StateVector``/``DensityMatrix``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erf

from .circuit import (
    QuantumCircuit,
    build_swap_test,
    lower_to_basis,
    mottonen_prepare,
    swap_test_head,
    swap_test_probabilities,
)
from .core import (
    DensityMatrix,
    Rng,
    StateVector,
    UnitaryMatrix,
    check_density,
    check_unit_norm,
    check_unitary,
    normalize_rows,
    psd_sqrt,
    uhlmann_fidelities,
)
from .noise import NoiseModel, execute_trajectories

LATENT_DIM = 256
HIDDEN_SIZES = (512, 1024, 1024, 512, 256)


class RankDeficientError(ValueError):
    """Decoded matrix is numerically rank-deficient; caller should perturb."""


# ---------------------------------------------------------------------------
# Fidelity oracles


class FidelityOracle:
    """SWAP-test fidelity signal against an opaque target preparation.

    Estimators never see the target's amplitudes; the only access paths are
    :meth:`evaluate` and :meth:`evaluate_batch`. Without ``shots`` or
    ``noise_model`` the signal is the exact ancilla <Z>; ``shots`` gives a
    finite-sample estimate, ``noise_model`` a trajectory average on each
    candidate's lowered circuit, both drawn from ``rng``. Exact and shot
    batches are simulated as one (batch, 2^(2n+1)) array.
    """

    def __init__(
        self,
        target_prep: QuantumCircuit,
        shots: int | None = None,
        noise_model: NoiseModel | None = None,
        trajectories: int = 2000,
        rng: Rng | None = None,
    ):
        self.check_signal(shots, noise_model is not None, trajectories)
        if (shots is not None or noise_model is not None) and rng is None:
            raise ValueError("a shot or noisy oracle requires an rng")
        self._target_prep = target_prep
        self._head = None if noise_model is not None else swap_test_head(target_prep)
        self.n_qubits = target_prep.n_qubits
        self._shots = shots
        self._model = noise_model
        self._trajectories = trajectories
        self._rng = rng
        self.evaluations = 0

    @staticmethod
    def check_signal(shots: int | None, noisy: bool, trajectories: int):
        """Reject a signal no oracle can give; cohort specs are checked here too."""
        if shots is not None and noisy:
            raise ValueError("noise and shots cannot be combined: give shots or a noise "
                             "model, not both (the noisy oracle averages trajectories "
                             "and draws no shots)")
        if shots is not None and shots < 1:
            raise ValueError(f"shots must be >= 1, got {shots}")
        if trajectories < 1:
            raise ValueError(f"trajectories must be >= 1, got {trajectories}")

    def evaluate(self, candidate: StateVector) -> float:
        """One SWAP test of the candidate against the target."""
        if self._model is None:
            return float(self.evaluate_batch([candidate])[0])
        self.evaluations += 1
        test = build_swap_test(self.n_qubits, self._target_prep, mottonen_prepare(candidate))
        lowered = lower_to_basis(test)
        return execute_trajectories(lowered, self._model, self._trajectories, self._rng)

    def evaluate_batch(self, candidates) -> np.ndarray:
        """One SWAP test per candidate (``StateVector`` or amplitude row), in order."""
        amps = np.stack([getattr(c, "amplitudes", c) for c in candidates])
        if self._model is not None:
            return np.array([self.evaluate(StateVector.from_amplitudes(a)) for a in amps])
        self.evaluations += len(amps)
        probs = swap_test_probabilities(self._head, amps)
        if self._shots is None:
            # summed from a contiguous copy: a strided row sum rounds differently
            return 1.0 - 2.0 * np.ascontiguousarray(probs[:, 1::2]).sum(axis=1)
        # ancilla-0 counts, drawn row by row from the one generator
        zeros = [np.count_nonzero(self._rng._gen.choice(
            row.size, size=self._shots, p=row / row.sum()) % 2 == 0) for row in probs]
        return 2.0 * (np.array(zeros) / self._shots) - 1.0


class DensityOracle:
    """Fidelity signal against a fixed target density matrix, scored on a
    (batch, d, d) stack; ``evaluate`` is a one-row call of ``evaluate_batch``.

    ``signal`` is ``"hilbert_schmidt"``, Tr(rho sigma): what a SWAP test
    actually measures on mixed inputs, which exhibits the mixed-state plateau.
    Or it is ``"uhlmann"``, the true mixed-state fidelity: it needs target
    access, so it is a diagnostic oracle only, never a hardware-realizable
    signal.
    """

    def __init__(self, target: DensityMatrix, signal: str):
        if signal not in ("hilbert_schmidt", "uhlmann"):
            raise ValueError(f"unknown density signal {signal!r}; "
                             f"expected hilbert_schmidt or uhlmann")
        self._target = target
        self.signal = signal
        self._sqrt_target = psd_sqrt(target.entries) if signal == "uhlmann" else None
        self.n_qubits = target.n_qubits
        self.evaluations = 0

    def evaluate(self, candidate: DensityMatrix) -> float:
        return float(self.evaluate_batch(candidate.entries[None])[0])

    def evaluate_batch(self, candidates: np.ndarray) -> np.ndarray:
        rhos = np.asarray(candidates)
        if rhos.shape[1:] != self._target.entries.shape:
            width = np.log2(rhos.shape[-1])
            raise ValueError(f"qubit count mismatch: {self.n_qubits} vs {width:g}")
        self.evaluations += len(rhos)
        if self.signal == "uhlmann":
            return uhlmann_fidelities(self._sqrt_target, rhos)
        return np.trace(self._target.entries @ rhos, axis1=1, axis2=2).real


# ---------------------------------------------------------------------------
# Representation adapters: a batch decoder runs each check once over the stack;
# ``decode_candidate_*`` are one-row calls of them.


def _complex_rows(raws) -> np.ndarray:
    raws = np.asarray(raws, dtype=np.float64)
    if raws.ndim != 2 or raws.shape[1] % 2 != 0:
        raise ValueError(f"raw vector must have even length, got shape {raws.shape[1:]}")
    if not np.isfinite(raws).all():  # before any division can warn on it
        raise ValueError("raw vector has a non-finite entry")
    return raws[:, 0::2] + 1j * raws[:, 1::2]


def decode_states(raws) -> np.ndarray:
    """(batch, 2^n) unit amplitude rows; consecutive entries pair as (re, im)."""
    z = _complex_rows(raws)
    if 2 ** int(np.round(np.log2(z.shape[1]))) != z.shape[1]:
        raise ValueError(f"decoded dimension {z.shape[1]} is not a power of two")
    amps = normalize_rows(z)
    check_unit_norm(amps)
    return amps


def _decode_matrices(raws) -> np.ndarray:
    z = _complex_rows(raws)
    d = int(np.round(math.sqrt(z.shape[1])))
    if d * d != z.shape[1] or 2 ** int(np.round(np.log2(d))) != d:
        raise ValueError(f"raw length {2 * z.shape[1]} does not encode a 2^n x 2^n matrix")
    return z.reshape(-1, d, d)


def decode_unitaries(raws, rng: Rng | None = None) -> np.ndarray:
    """(batch, d, d) Q of a stacked QR, R's diagonal made real-positive. Given
    an rng, each rank-deficient row, in ascending order, is perturbed and
    decoded again, up to five draws, before ``RankDeficientError``."""
    raws = np.asarray(raws, dtype=np.float64)
    m = _decode_matrices(raws)
    q, r = np.linalg.qr(m)
    diag = np.diagonal(r, axis1=1, axis2=2)
    deficient = np.abs(diag).min(axis=1) < 1e-12 * np.maximum(1.0, np.abs(m).max(axis=(1, 2)))
    q = q * (diag / np.where(deficient[:, None], 1.0, np.abs(diag)))[:, None, :]
    check_unitary(q[~deficient])
    for i in np.flatnonzero(deficient):
        raw = raws[i:i + 1]
        for _ in range(5 if rng is not None else 0):
            raw = raw + 1e-6 * rng.normal(raws.shape[1])
            try:
                q[i] = decode_unitaries(raw)[0]
                break
            except RankDeficientError:
                pass
        else:
            raise RankDeficientError("decoded matrix is numerically rank-deficient")
    return q


def decode_densities(raws) -> np.ndarray:
    """rho = M M^dagger / Tr(M M^dagger) per row: a (batch, d, d) stack."""
    m = _decode_matrices(raws)
    gram = m @ np.swapaxes(m.conj(), 1, 2)
    tr = np.trace(gram, axis1=1, axis2=2).real
    if np.any(tr < 1e-300):
        raise ValueError("cannot normalize a zero matrix")
    rho = gram / tr[:, None, None]
    rho = 0.5 * (rho + np.swapaxes(rho.conj(), 1, 2))
    check_density(rho)
    return rho


def decode_candidate_state(raw: np.ndarray) -> StateVector:
    """Pair consecutive entries as (re, im) and normalize to a unit vector."""
    return StateVector.from_amplitudes(decode_states([raw])[0])


def decode_candidate_unitary(raw: np.ndarray) -> UnitaryMatrix:
    """QR-orthogonalize the decoded matrix; R's diagonal made real-positive."""
    q = decode_unitaries([raw])[0]
    return UnitaryMatrix(q.shape[0].bit_length() - 1, q)


def decode_candidate_density(raw: np.ndarray) -> DensityMatrix:
    """rho = M M^dagger / Tr(M M^dagger) for the unconstrained decoded M."""
    rho = decode_densities([raw])[0]
    return DensityMatrix(rho.shape[0].bit_length() - 1, rho)


# ---------------------------------------------------------------------------
# Generator network and Adam


def _gelu(x: np.ndarray) -> np.ndarray:
    return 0.5 * x * (1.0 + erf(x / math.sqrt(2.0)))


def _gelu_grad(x: np.ndarray) -> np.ndarray:
    cdf = 0.5 * (1.0 + erf(x / math.sqrt(2.0)))
    pdf = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    return cdf + x * pdf


class GeneratorNetwork:
    """Fully connected 256 -> 512 -> 1024 -> 1024 -> 512 -> 256 -> out stack.

    GELU after every layer except the last. Weights initialized uniformly in
    +-sqrt(6 / (fan_in + fan_out)); biases zero.
    """

    def __init__(self, out_dim: int, rng: Rng):
        sizes = (LATENT_DIM,) + HIDDEN_SIZES + (out_dim,)
        self.out_dim = out_dim
        self.weights = []
        self.biases = []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            bound = math.sqrt(6.0 / (fan_in + fan_out))
            w = (2.0 * rng.uniform((fan_in, fan_out)) - 1.0) * bound
            self.weights.append(w)
            self.biases.append(np.zeros(fan_out))

    def forward(self, z: np.ndarray):
        """Returns (raw output, cache for backward)."""
        pre_acts = []
        a = np.asarray(z, dtype=np.float64)
        activations = [a]
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            pre = a @ w + b
            pre_acts.append(pre)
            a = pre if i == last else _gelu(pre)
            activations.append(a)
        return a, (pre_acts, activations)

    def backward(self, cache, grad_out: np.ndarray):
        """Gradients of a scalar loss w.r.t. all weights and biases."""
        pre_acts, activations = cache
        grads_w = [None] * len(self.weights)
        grads_b = [None] * len(self.biases)
        delta = np.asarray(grad_out, dtype=np.float64)
        for i in range(len(self.weights) - 1, -1, -1):
            if i != len(self.weights) - 1:
                delta = delta * _gelu_grad(pre_acts[i])
            grads_w[i] = np.outer(activations[i], delta)
            grads_b[i] = delta.copy()
            if i > 0:
                delta = delta @ self.weights[i].T
        return grads_w, grads_b


class Adam:
    """Adam with canonical beta/epsilon constants; lr is the tunable. ``step``
    updates m, v and the parameters in place, BLOCK elements at a time through
    two scratch arrays, in the whole-array formula's order: the same bits."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8
    BLOCK = 2**15  # float64 elements, 256 KiB; 2**17 and up ran slower on the n = 1 network

    def __init__(self, shapes, lr: float = 1e-4):
        self.lr = lr
        self.step_count = 0
        self.m = [np.zeros(s) for s in shapes]
        self.v = [np.zeros(s) for s in shapes]
        self._scratch = np.empty((2, self.BLOCK))

    def step(self, params, grads):
        if any(not p.flags.c_contiguous or np.shape(g) != p.shape  # else reshape copies
               for p, g, _ in zip(params, grads, self.m, strict=True)):
            raise ValueError("Adam needs C-contiguous parameters and same-shape gradients")
        self.step_count += 1
        t = self.step_count
        c1, c2 = 1 - self.BETA1**t, 1 - self.BETA2**t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            p, g, m, v = p.reshape(-1), np.ravel(g), m.reshape(-1), v.reshape(-1)
            for i in range(0, p.size, self.BLOCK):
                pb, gb, mb, vb = (x[i:i + self.BLOCK] for x in (p, g, m, v))
                a, b = self._scratch[:, :pb.size]
                mb *= self.BETA1
                np.multiply(1 - self.BETA1, gb, out=a)
                mb += a
                vb *= self.BETA2
                np.multiply(1 - self.BETA2, gb, out=a)
                a *= gb
                vb += a
                np.divide(mb, c1, out=a)  # m_hat
                np.divide(vb, c2, out=b)  # v_hat
                np.sqrt(b, out=b)
                b += self.EPS
                a *= self.lr
                a /= b
                pb -= a


# ---------------------------------------------------------------------------
# Reports and configs


@dataclass
class ReconstructionReport:
    """Outcome of one reconstruction run.

    ``fidelity_trace`` holds the oracle-reported fidelity per epoch (gradient)
    or the population-best per iteration (QESwap); ``validation_trace`` is
    optional instrumentation recorded by a harness-supplied probe.
    """

    method: str
    representation: str
    n_qubits: int
    best_fidelity: float
    epochs: int
    oracle_evals: int
    fidelity_trace: list
    wall_time_s: float
    mixed_state_flag: bool
    seed: int
    final_candidate: object = None
    validation_trace: list = field(default_factory=list)
    label: str = ""

    def __post_init__(self):
        if self.fidelity_trace and abs(self.best_fidelity - max(self.fidelity_trace)) > 1e-12:
            raise ValueError("best_fidelity must equal the trace maximum")


@dataclass
class GradientConfig:
    epochs: int = 200
    lr: float = 1e-4
    seed: int = 0
    stop_threshold: float = 0.999
    probe: object = None  # optional callable(candidate) -> float, instrumentation
    stop_on_probe: bool = False  # early-stop on the probe value (simulation-side)

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be finite and positive, got {self.lr}")


@dataclass
class EsConfig:
    population: int = 50
    sigma: float = 0.1
    alpha: float = 0.05
    max_iter: int = 100
    seed: int = 0
    stop_threshold: float = 0.999
    probe: object = None
    stop_on_probe: bool = False

    def __post_init__(self):
        if self.population < 2:
            raise ValueError("population must be >= 2")
        if self.sigma <= 0 or self.alpha <= 0:
            raise ValueError("sigma and alpha must be positive")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")


# ---------------------------------------------------------------------------
# Engines: ``ask()`` proposes a (batch, raw_dim) array of raw vectors;
# ``tell(rewards, score)`` updates from their rewards and may spend more
# evaluations through ``score``.


class _GradientEngine:
    """Generator network trained by central differences across the oracle."""

    FD_EPSILON = 1e-3  # central-difference step on each raw entry
    SCALING = 100.0  # factor on the raw-output gradient before backpropagation

    def __init__(self, raw_dim: int, config: GradientConfig, rng: Rng):
        self.budget = config.epochs
        self._rng = rng
        self._net = GeneratorNetwork(raw_dim, rng)
        self._params = self._net.weights + self._net.biases
        self._adam = Adam([p.shape for p in self._params], lr=config.lr)

    def ask(self) -> np.ndarray:
        self._raw, self._cache = self._net.forward(self._rng.uniform(LATENT_DIM))
        return self._raw[None, :]

    def tell(self, rewards: np.ndarray, score):
        # central differences across the oracle boundary only, probed in the
        # order +e0, -e0, +e1, -e1, ...
        eps, dim = self.FD_EPSILON, self._raw.size
        bumps = eps * np.eye(dim)
        probes = np.stack([self._raw + bumps, self._raw - bumps], axis=1)
        f = score(probes.reshape(2 * dim, dim)).reshape(dim, 2)
        grad_raw = -(f[:, 0] - f[:, 1]) / (2.0 * eps)
        grads_w, grads_b = self._net.backward(self._cache, grad_raw * self.SCALING)
        self._adam.step(self._params, grads_w + grads_b)


class _EsEngine:
    """QESwap: standardized-advantage evolution strategy over one mean vector."""

    def __init__(self, raw_dim: int, config: EsConfig, rng: Rng):
        self.budget = config.max_iter
        self._config = config
        self._rng = rng
        self._w = rng.normal(raw_dim)

    def ask(self) -> np.ndarray:
        self._noise = self._rng.normal((self._config.population, self._w.size))
        return self._w + self._config.sigma * self._noise

    def tell(self, rewards: np.ndarray, score):
        spread = float(np.std(rewards))
        if spread < 1e-12:
            return  # degenerate population: no update this iteration
        advantages = (rewards - rewards.mean()) / spread
        c = self._config
        self._w = self._w + (c.alpha / (c.population * c.sigma)) * (
            advantages @ self._noise
        )


_ENGINES = {"gradient": _GradientEngine, "qeswap": _EsEngine}

# representation -> (batch decoder of (raws, rng), candidate class)
_DECODERS = {
    "statevector": (lambda raws, rng: decode_states(raws), StateVector),
    "unitary": (lambda raws, rng: decode_unitaries(raws, rng)[:, :, 0], StateVector),
    "density": (lambda raws, rng: decode_densities(raws), DensityMatrix),
}


def _run(method: str, representation: str, oracle, config,
         n_qubits: int) -> ReconstructionReport:
    """The engine loop: ask, score, record trace/best/probe, stop or tell."""
    start = time.perf_counter()
    d = 2**n_qubits
    raw_dim = 2 * d if representation == "statevector" else 2 * d * d
    decode, candidate_cls = _DECODERS[representation]
    rng = Rng(config.seed)
    engine = _ENGINES[method](raw_dim, config, rng)
    evals = 0
    decoded = None
    # looked up on the class: an oracle may offer only ``evaluate``
    evaluate_batch = getattr(type(oracle), "evaluate_batch", None)

    def score(raws: np.ndarray) -> np.ndarray:
        # the only place a raw vector becomes an oracle call
        nonlocal evals, decoded
        decoded = decode(raws, rng)
        evals += len(decoded)
        if evaluate_batch is not None:
            return np.asarray(evaluate_batch(oracle, decoded), dtype=np.float64)
        return np.array([oracle.evaluate(candidate_cls(n_qubits, c)) for c in decoded],
                        dtype=np.float64)

    trace, validation = [], []
    best_f, best_candidate = -math.inf, None
    steps = 0
    for steps in range(1, engine.budget + 1):
        rewards = score(engine.ask())
        top = int(np.argmax(rewards))  # ties keep the first maximum
        f, candidate = float(rewards[top]), candidate_cls(n_qubits, decoded[top])
        trace.append(f)
        if f > best_f:
            best_f, best_candidate = f, candidate
        stop_value = f
        if config.probe is not None:
            validation.append(config.probe(candidate))
            if config.stop_on_probe:
                stop_value = validation[-1]
        if stop_value >= config.stop_threshold:
            break
        engine.tell(rewards, score)
    return ReconstructionReport(
        method=method, representation=representation, n_qubits=n_qubits,
        best_fidelity=best_f, epochs=steps, oracle_evals=evals,
        fidelity_trace=trace, wall_time_s=time.perf_counter() - start,
        mixed_state_flag=representation == "density", seed=config.seed,
        final_candidate=best_candidate, validation_trace=validation,
    )


def train_gradient(oracle, n_qubits: int, config: GradientConfig | None = None
                   ) -> ReconstructionReport:
    """Gradient-based state-vector reconstruction (loss 1 - F, Adam)."""
    return reconstruct("gradient", "statevector", oracle, config, n_qubits)


def train_qeswap(oracle, n_qubits: int, config: EsConfig | None = None
                 ) -> ReconstructionReport:
    """QESwap state-vector reconstruction (standardized-advantage ES)."""
    return reconstruct("qeswap", "statevector", oracle, config, n_qubits)


def reconstruct(method: str, representation: str, oracle, config=None,
                n_qubits: int | None = None) -> ReconstructionReport:
    """Dispatch one of the 3 x 2 (representation, engine) strategies.

    For the unitary representation the oracle candidate is Q|0...0>; for the
    density representation the oracle signal is the Hilbert-Schmidt overlap
    and the report carries the mixed-state caveat flag.
    """
    if method not in _ENGINES:
        raise ValueError(f"unknown method {method!r}")
    if representation not in _DECODERS:
        raise ValueError(f"unknown representation {representation!r}")
    if n_qubits is None:
        n_qubits = oracle.n_qubits
    if config is None:
        config = GradientConfig() if method == "gradient" else EsConfig()
    return _run(method, representation, oracle, config, n_qubits)
