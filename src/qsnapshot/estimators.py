"""Reconstruction engines driven solely by a fidelity signal.

Two engines: a gradient-trained neural generator (finite differences across
the non-differentiable fidelity boundary, analytic backpropagation inside the
network, Adam updates) and QESwap, a population evolutionary strategy. Both
run in one ask/tell loop: the engine asks for a batch of raw vectors, the
loop decodes and scores them through the oracle, records the trace, best
candidate and probe, checks the stop rule, then tells the engine the rewards.
The population stays one array from ``ask`` to the oracle: a batch decoder
per representation (state vector, unitary via stacked QR, density matrix)
feeds every oracle's ``evaluate_batch``. Each decoder holds its rows to the
invariant of their value class, so an iteration's top row becomes a
``StateVector``/``DensityMatrix`` only when it is the best so far or a probe
reads it.
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
from dataclasses import dataclass, field

import numpy as np

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
    check_count,
    check_real,
    check_seed,
    is_power_of_two,
    normalize_rows,
    prescale_rows,
    psd_sqrt,
    uhlmann_fidelities,
)
from .noise import NoiseModel, execute_trajectory_batch

LATENT_DIM = 256
HIDDEN_SIZES = (512, 1024, 1024, 512, 256)


# ---------------------------------------------------------------------------
# Fidelity oracles


def _check_stack(stack: np.ndarray, n_qubits: int, ndim: int):
    """Reject a stack that is not (batch,) + ndim * (2^n_qubits,), before an oracle counts it."""
    dims = stack.shape[1:]
    d = dims[0] if len(dims) == ndim and len(set(dims)) == 1 else 0
    if not is_power_of_two(d):
        raise ValueError(f"candidates of shape {stack.shape} are not a "
                         f"(batch{', 2^n' * ndim}) stack")
    if d != 1 << n_qubits:
        raise ValueError(f"qubit count mismatch: {n_qubits} vs {d.bit_length() - 1}")


class FidelityOracle:
    """SWAP-test fidelity signal against an opaque target preparation.

    Estimators never see the target's amplitudes; the only access paths are
    :meth:`evaluate` (a one-row batch) and :meth:`evaluate_batch`. Without
    ``shots`` or ``noise_model`` the signal is the exact ancilla <Z>;
    ``shots`` gives a finite-sample estimate, ``noise_model`` a trajectory
    average on each candidate's lowered circuit, both drawn from ``rng``.
    Exact and shot batches are simulated as one (batch, 2^(2n+1)) array,
    noisy ones as a few trajectory batches, bit for bit a candidate loop.
    """

    TRAJECTORIES = 2000  # the noisy signal's default trajectory count

    def __init__(
        self,
        target_prep: QuantumCircuit,
        shots: int | None = None,
        noise_model: NoiseModel | None = None,
        trajectories: int = TRAJECTORIES,
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
        check_count(1, shots=shots, trajectories=trajectories)

    def evaluate(self, candidate: StateVector) -> float:
        """One SWAP test of the candidate against the target."""
        return float(self.evaluate_batch([candidate])[0])

    def evaluate_batch(self, candidates) -> np.ndarray:
        """One SWAP test per candidate (``StateVector`` or amplitude row), in order."""
        amps = np.stack([getattr(c, "amplitudes", c) for c in candidates])
        _check_stack(amps, self.n_qubits, 1)
        self.evaluations += len(amps)
        if self._model is not None:
            preps = [mottonen_prepare(StateVector.from_amplitudes(a)) for a in amps]
            tests = [lower_to_basis(build_swap_test(self._target_prep, prep))
                     for prep in preps]
            return execute_trajectory_batch(tests, self._model, self._trajectories, self._rng)
        probs = swap_test_probabilities(self._head, amps)
        if self._shots is None:
            # summed from a contiguous copy: a strided row sum rounds differently
            return 1.0 - 2.0 * np.ascontiguousarray(probs[:, 1::2]).sum(axis=1)
        # ancilla-0 counts, drawn row by row from the one generator
        zeros = [np.count_nonzero(self._rng.choice(
            row.size, self._shots, row / row.sum()) % 2 == 0) for row in probs]
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
        _check_stack(rhos, self.n_qubits, 2)
        self.evaluations += len(rhos)
        if self.signal == "uhlmann":
            return uhlmann_fidelities(self._sqrt_target, rhos)
        return np.trace(self._target.entries @ rhos, axis1=1, axis2=2).real


# ---------------------------------------------------------------------------
# Representation adapters: a batch decoder runs each check once over the stack,
# and only the checks that its construction does not already guarantee.


def _complex_rows(raws) -> np.ndarray:
    raws = np.asarray(raws, dtype=np.float64)
    if raws.ndim != 2 or raws.shape[1] % 2 != 0:
        raise ValueError(f"raw vector must have even length, got shape {raws.shape[1:]}")
    if not np.isfinite(raws).all():  # before any division can warn on it
        raise ValueError("raw vector has a non-finite entry")
    return raws[:, 0::2] + 1j * raws[:, 1::2]


def decode_states(raws) -> np.ndarray:
    """(batch, 2^n) unit amplitude rows; consecutive entries pair as (re, im).
    Each row is divided by its own 1-D norm, so no norm test follows;
    ``StateVector`` still tests the norm at the public boundary."""
    z = _complex_rows(raws)
    if not is_power_of_two(z.shape[1]):
        raise ValueError(f"decoded dimension {z.shape[1]} is not a power of two")
    return normalize_rows(z)


def _decode_matrices(raws) -> np.ndarray:
    """(batch, d, d) matrices, each scaled by ``prescale_rows``, which changes
    no output bit of either matrix decoder; a zero matrix is rejected."""
    z = _complex_rows(raws)
    d = int(np.round(math.sqrt(z.shape[1])))
    if d * d != z.shape[1] or not is_power_of_two(d):
        raise ValueError(f"raw length {2 * z.shape[1]} does not encode a 2^n x 2^n matrix")
    if not z.any(axis=1).all():
        raise ValueError("cannot normalize a zero matrix")
    return prescale_rows(z).reshape(-1, d, d)


def decode_unitaries(raws) -> np.ndarray:
    """(batch, d, d) Q of a stacked QR, each column times the phase of its
    R_ii, so R's diagonal is real and non-negative.

    Householder Q is unitary at every rank, so no rank or unitarity test
    follows. A column whose |R_ii| is zero or subnormal is left as it is:
    numpy divides by a complex c as a product with 1/c, which overflows."""
    q, r = np.linalg.qr(_decode_matrices(raws))
    diag = np.diagonal(r, axis1=1, axis2=2)
    mag = np.abs(diag)
    normal = mag >= np.finfo(np.float64).tiny
    return q * np.divide(diag, mag, out=np.ones_like(diag), where=normal)[:, None, :]


def decode_densities(raws) -> np.ndarray:
    """rho = (R + R^dagger) / 2 per row, with R = G / Tr G and G = M M^dagger:
    a (batch, d, d) stack.

    Nothing is tested beyond ``_decode_matrices``. A prescaled non-zero M has
    Tr G >= peak^2 >= 2^-512 and every entry of G at most d * 2^512, so rho
    is finite. The rest of ``check_density`` holds by construction: rho is
    exactly Hermitian (the real parts add in either order, the imaginary
    parts are exact negatives), its trace is 1 within rounding, and the
    rounding error of the Gram matrix's smallest eigenvalue is O(eps), far
    inside PSD_TOL. ``DensityMatrix`` still runs every check at the public
    boundary."""
    m = _decode_matrices(raws)
    gram = m @ np.swapaxes(m.conj(), 1, 2)
    rho = gram / np.trace(gram, axis1=1, axis2=2).real[:, None, None]
    return 0.5 * (rho + np.swapaxes(rho.conj(), 1, 2))


# ---------------------------------------------------------------------------
# Generator network and Adam


# Cephes ndtr.c erf/erfc coefficients, highest degree first; U and Q omit
# their leading 1.
_ERF_T = (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
          7.00332514112805075473E3, 5.55923013010394962768E4)
_ERF_U = (3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
          2.26290000613890934246E4, 4.92673942608635921086E4)
_ERFC_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
           4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
           9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2)
_ERFC_Q = (1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
           9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
           1.65666309194161350182E3, 5.57535340817727675546E2)


def _horner(x: np.ndarray, coefs: tuple, monic: bool = False) -> np.ndarray:
    """Cephes ``polevl``, or ``p1evl`` (leading 1 not stored) if ``monic``, in its order."""
    acc = x + coefs[0] if monic else x * coefs[0] + coefs[1]
    for c in coefs[1:] if monic else coefs[2:]:
        acc *= x
        acc += c
    return acc


def _erf(x: np.ndarray) -> np.ndarray:
    """erf of a float64 array, bit for bit the Cephes erf (ndtr.c):
    x T(x^2)/U(x^2) on |x| <= 1, else 1 - exp(-x^2) P(|x|)/Q(|x|) with the
    sign of x, and NaN for NaN.

    exp is ``math.exp``, the C library's, as in Cephes; ``np.exp`` rounds
    some inputs differently. Cephes' erfc switches to R(|x|)/S(|x|) from 8
    up, but erf rounds to exactly 1 from |x| ~ 5.9 up with either, so |x|
    is clipped to 8 and P/Q serves. No arithmetic touches a NaN or an
    infinity, so no floating-point warning fires."""
    x = np.asarray(x, dtype=np.float64)
    small = np.abs(x) <= 1.0  # False at NaN
    everywhere = small.all()
    s = x if everywhere else np.where(small, x, 0.0)
    z = s * s
    out = s * _horner(z, _ERF_T) / _horner(z, _ERF_U, monic=True)
    if everywhere:  # most network layers: no exp, no fancy indexing
        return out
    big = ~small
    v = x[big]
    nan = np.isnan(v)
    a = np.where(nan, 8.0, np.minimum(np.abs(v), 8.0))
    e = np.fromiter(map(math.exp, (-a * a).tolist()), np.float64, a.size)
    y = e * _horner(a, _ERFC_P) / _horner(a, _ERFC_Q, monic=True)
    out[big] = np.where(nan, np.nan, np.copysign(1.0 - y, v))
    return out


def _gelu(x: np.ndarray):
    """GELU of x, and erf(x / sqrt 2), which its derivative reuses."""
    e = _erf(x / math.sqrt(2.0))
    return 0.5 * x * (1.0 + e), e


def _gelu_grad(x: np.ndarray, e: np.ndarray) -> np.ndarray:
    """GELU's derivative at x, given e = erf(x / sqrt 2)."""
    cdf = 0.5 * (1.0 + e)
    pdf = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    return cdf + x * pdf


class GeneratorNetwork:
    """Fully connected 256 -> 512 -> 1024 -> 1024 -> 512 -> 256 -> out stack.

    GELU after every layer except the last. Weights initialized uniformly in
    +-sqrt(6 / (fan_in + fan_out)); biases zero.
    """

    def __init__(self, out_dim: int, rng: Rng):
        sizes = (LATENT_DIM,) + HIDDEN_SIZES + (out_dim,)
        self.weights = []
        self.biases = []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            bound = math.sqrt(6.0 / (fan_in + fan_out))
            w = (2.0 * rng.uniform((fan_in, fan_out)) - 1.0) * bound
            self.weights.append(w)
            self.biases.append(np.zeros(fan_out))

    def forward(self, z: np.ndarray):
        """Returns (raw output, cache for backward): each hidden layer's
        pre-activation and erf term, and every layer's input."""
        hidden = []
        a = np.asarray(z, dtype=np.float64)
        activations = [a]
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            pre = a @ w + b
            if i == last:
                a = pre
            else:
                a, e = _gelu(pre)
                hidden.append((pre, e))
            activations.append(a)
        return a, (hidden, activations)

    def backward(self, cache, grad_out: np.ndarray):
        """Gradients of a scalar loss w.r.t. all weights and biases, each as
        its rank-1 factors ``(col, row)``: the gradient is ``np.outer(col,
        row)`` in the parameter's shape. A weight's factors are the layer's
        input and its delta, a bias's are ``ones(1)`` and the delta."""
        hidden, activations = cache
        grads_w = [None] * len(self.weights)
        grads_b = [None] * len(self.biases)
        one = np.ones(1)
        delta = np.asarray(grad_out, dtype=np.float64)
        for i in range(len(self.weights) - 1, -1, -1):
            if i != len(self.weights) - 1:
                delta = delta * _gelu_grad(*hidden[i])
            grads_w[i] = (activations[i], delta)
            grads_b[i] = (one, delta)
            if i > 0:
                delta = delta @ self.weights[i].T
        return grads_w, grads_b


class Adam:
    """Adam with canonical beta/epsilon constants; lr is the tunable.

    ``step`` takes each parameter's gradient as rank-1 factors ``(col, row)``,
    the gradient being ``np.outer(col, row)`` in the parameter's shape, and
    updates m, v and the parameters in place. It walks each parameter in
    blocks of whole rows, or of BLOCK-wide pieces of a row longer than BLOCK,
    forms a block's gradient with the one multiply ``np.outer`` makes, and
    runs the whole-array formula's operations in its order: the same bits.
    The update is elementwise, so the blocks are shared round-robin over up
    to WORKERS threads, the caller's first, each with its own scratch."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8
    BLOCK = 2**15  # float64 elements, 256 KiB; 2**17 and up ran slower on the n = 1 network
    # the CPUs this process may run on, or all of them where the OS cannot say
    WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
               else os.cpu_count() or 1)

    def __init__(self, shapes, lr: float = 1e-4):
        self.lr = lr
        self.step_count = 0
        self.m = [np.zeros(s) for s in shapes]
        self.v = [np.zeros(s) for s in shapes]
        self._scratch = []  # per worker: a block's gradient and two temporaries

    def step(self, params, factors):
        blocks = []
        for p, (col, row), m, v in zip(params, factors, self.m, self.v, strict=True):
            if (not p.flags.c_contiguous or p.shape != m.shape  # else reshape copies
                    or np.ndim(col) != 1 or np.ndim(row) != 1
                    or np.size(col) * np.size(row) != p.size):
                raise ValueError("Adam needs C-contiguous parameters of the shapes it was "
                                 "built for, and rank-1 factors whose sizes multiply to "
                                 "each one's")
            col, row = np.asarray(col, np.float64), np.asarray(row, np.float64)
            p, m, v = p.reshape(-1), m.reshape(-1), v.reshape(-1)
            height = max(1, self.BLOCK // max(row.size, 1))  # rows per block
            for r0 in range(0, col.size, height):
                r1 = min(r0 + height, col.size)
                for j0 in range(0, row.size, self.BLOCK):
                    j1 = min(j0 + self.BLOCK, row.size)
                    i, n = r0 * row.size + j0, (r1 - r0) * (j1 - j0)
                    blocks.append((col[r0:r1, None], row[j0:j1], p[i:i + n], m[i:i + n],
                                   v[i:i + n]))
        self.step_count += 1
        t = self.step_count
        c1, c2 = 1 - self.BETA1**t, 1 - self.BETA2**t
        workers = max(1, min(self.WORKERS, len(blocks)))
        while len(self._scratch) < workers:
            self._scratch.append(np.empty((3, self.BLOCK)))
        errors = []

        def helper(k, context):
            try:
                context.run(self._update, blocks[k::workers], self._scratch[k], c1, c2)
            except BaseException as exc:  # re-raised in the caller
                errors.append(exc)

        # a new thread starts in an empty context: copy the caller's np.errstate in
        threads = [threading.Thread(target=helper, args=(k, contextvars.copy_context()))
                   for k in range(1, workers)]
        for thread in threads:
            thread.start()
        try:
            self._update(blocks[::workers], self._scratch[0], c1, c2)
        finally:
            for thread in threads:
                thread.join()
        if errors:
            raise errors[0]

    def _update(self, blocks, scratch, c1, c2):
        for col, row, pb, mb, vb in blocks:
            g, a, b = scratch[:, :pb.size]
            np.multiply(col, row, out=g.reshape(col.size, row.size))
            mb *= self.BETA1
            np.multiply(1 - self.BETA1, g, out=a)
            mb += a
            vb *= self.BETA2
            np.multiply(1 - self.BETA2, g, out=a)
            a *= g
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
    seed: int
    final_candidate: object = None
    validation_trace: list = field(default_factory=list)
    label: str = ""

    def __post_init__(self):
        if self.fidelity_trace and abs(self.best_fidelity - max(self.fidelity_trace)) > 1e-12:
            raise ValueError("best_fidelity must equal the trace maximum")

    @property
    def mixed_state_flag(self) -> bool:  # a SWAP test on mixed inputs reads Tr(rho sigma)
        return self.representation == "density"


@dataclass
class GradientConfig:
    epochs: int = 200
    lr: float = 1e-4
    seed: int = 0
    stop_threshold: float = 0.999
    probe: object = None  # optional callable(candidate) -> float, instrumentation
    stop_on_probe: bool = False  # early-stop on the probe value (simulation-side)

    def __post_init__(self):
        check_seed(self.seed)
        check_real("finite", stop_threshold=self.stop_threshold)
        check_count(1, epochs=self.epochs)
        check_real("positive", lr=self.lr)


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
        check_count(2, population=self.population)
        check_seed(self.seed)
        check_real("positive", sigma=self.sigma, alpha=self.alpha)
        check_real("finite", stop_threshold=self.stop_threshold)
        check_count(1, max_iter=self.max_iter)


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
        with np.errstate(over="ignore", invalid="ignore"):  # named below, not warned
            self._w = self._w + (c.alpha / (c.population * c.sigma)) * (advantages @ self._noise)
        if not np.isfinite(self._w).all():
            raise ValueError(f"ES step overflowed the mean: alpha={c.alpha}, sigma={c.sigma}")


_ENGINES = {"gradient": _GradientEngine, "qeswap": _EsEngine}

# representation -> (batch decoder of raws, candidate class)
_DECODERS = {
    "statevector": (decode_states, StateVector),
    "unitary": (lambda raws: decode_unitaries(raws)[:, :, 0], StateVector),
    "density": (decode_densities, DensityMatrix),
}


def _run(method: str, representation: str, oracle, config) -> ReconstructionReport:
    """The engine loop: ask, score, record trace/best/probe, stop or tell."""
    n_qubits = oracle.n_qubits
    d = 2**n_qubits
    raw_dim = 2 * d if representation == "statevector" else 2 * d * d
    decode, candidate_cls = _DECODERS[representation]
    engine = _ENGINES[method](raw_dim, config, Rng(config.seed))
    evals = 0
    decoded = None
    # looked up on the class: an oracle may offer only ``evaluate``
    evaluate_batch = getattr(type(oracle), "evaluate_batch", None)

    def score(raws: np.ndarray) -> np.ndarray:
        # the only place a raw vector becomes an oracle call
        nonlocal evals, decoded
        decoded = decode(raws)
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
        f = float(rewards[top])
        trace.append(f)
        if f > best_f or config.probe is not None:
            candidate = candidate_cls(n_qubits, decoded[top])
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
        best_fidelity=best_f, epochs=steps, oracle_evals=evals, fidelity_trace=trace,
        seed=config.seed, final_candidate=best_candidate, validation_trace=validation,
    )


def train_gradient(oracle, config: GradientConfig | None = None) -> ReconstructionReport:
    """Gradient-based state-vector reconstruction (loss 1 - F, Adam)."""
    return reconstruct("gradient", "statevector", oracle, config)


def train_qeswap(oracle, config: EsConfig | None = None) -> ReconstructionReport:
    """QESwap state-vector reconstruction (standardized-advantage ES)."""
    return reconstruct("qeswap", "statevector", oracle, config)


def reconstruct(method: str, representation: str, oracle, config=None
                ) -> ReconstructionReport:
    """Dispatch one of the 3 x 2 (representation, engine) strategies at the oracle's width.

    For the unitary representation the oracle candidate is Q|0...0>; for the
    density representation the oracle signal is the Hilbert-Schmidt overlap
    and the report carries the mixed-state caveat flag.
    """
    if method not in _ENGINES:
        raise ValueError(f"unknown method {method!r}")
    if representation not in _DECODERS:
        raise ValueError(f"unknown representation {representation!r}")
    if config is None:
        config = GradientConfig() if method == "gradient" else EsConfig()
    return _run(method, representation, oracle, config)
