"""Complex linear-algebra foundation: states, density matrices, fidelities, entropy."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

NORM_TOL = 1e-10
HERMITIAN_TOL = 1e-10
PSD_TOL = 1e-9


class Rng:
    """Counter-based pseudo-random generator (Philox) with explicit seeding.

    Identical seed plus identical call sequence yields identical output.
    Independent streams are derived with :meth:`child`, never by sharing one
    generator across workers.
    """

    def __init__(self, seed: int):
        check_seed(seed)
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.Philox(key=self.seed))

    def normal(self, size=None) -> np.ndarray:
        return self._gen.standard_normal(size)

    def uniform(self, size=None, out=None) -> np.ndarray:
        """Draws in [0, 1). Given ``out``, fills it with the draws a fresh call
        of its size returns, and leaves the generator where that call would."""
        return self._gen.random(size, out=out)

    def integers(self, low: int, high: int, size=None):
        return self._gen.integers(low, high, size=size)

    def choice(self, n: int, size=None, p=None) -> np.ndarray:
        return self._gen.choice(n, size=size, p=p)

    def ahead(self, k: int) -> "Rng":
        """A new generator ``k`` uniform draws past this one, which stays put:
        Philox block b holds draws 4b..4b+3, so it starts from a block."""
        state = self._gen.bit_generator.state
        words = state["state"]["counter"]
        at = 4 * sum(int(w) << 64 * i for i, w in enumerate(words)) + state["buffer_pos"] - 4 + k
        words[:], state["buffer_pos"] = [at // 4 >> 64 * i & 2**64 - 1 for i in range(4)], 4
        out = Rng(self.seed)
        out._gen.bit_generator.state = state
        out._gen.bit_generator.random_raw(at % 4)
        return out

    def skip(self, k: int) -> None:
        """Move this generator ``k`` uniform draws ahead, in place."""
        self._gen.bit_generator.state = self.ahead(k)._gen.bit_generator.state

    def child(self, index: int) -> "Rng":
        """Derive an independent generator; deterministic in (seed, index)."""
        check_count(0, index=index)
        derived = np.random.SeedSequence([self.seed, int(index)])
        return Rng(int(derived.generate_state(1, np.uint64)[0]))

    def __repr__(self) -> str:
        return f"Rng(seed={self.seed})"


@dataclass(frozen=True)
class StateVector:
    """Pure state of ``n_qubits`` qubits: 2^n complex amplitudes, unit norm.

    Qubit 0 is the least-significant bit of the basis index.
    """

    n_qubits: int
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        _freeze(self, "amplitudes", check_unit_norm)

    @classmethod
    def from_amplitudes(cls, amplitudes) -> "StateVector":
        """Build from an already-normalized amplitude sequence; its size 2^n
        gives n, in integer arithmetic, so no size is too large to test."""
        amps = np.asarray(amplitudes)
        if not is_power_of_two(amps.size):
            raise ValueError(f"amplitude count {amps.size} is not a power of two")
        return cls(amps.size.bit_length() - 1, amps)

    @classmethod
    def normalized(cls, amplitudes) -> "StateVector":
        """Build from an arbitrary nonzero amplitude sequence, normalizing it."""
        amps = _complex_copy(amplitudes, "amplitudes")
        return cls.from_amplitudes(normalize_rows(amps.reshape(1, -1))[0])

    @classmethod
    def computational_basis(cls, n_qubits: int, index: int = 0) -> "StateVector":
        check_count(0, index=index)
        if int(index) >> n_qubits:
            raise ValueError(f"index must be < 2^{n_qubits}, got {index}")
        amps = np.zeros(2**n_qubits, dtype=np.complex128)
        amps[index] = 1.0
        return cls(n_qubits, amps)


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite operator over ``n_qubits``."""

    n_qubits: int
    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        _freeze(self, "entries", check_density)


def _freeze(obj, name: str, check) -> None:
    """The value classes' shared constructor body: width, type and shape
    checks, ``check``, then a read-only complex128 copy stored as ``name``."""
    check_count(1, n_qubits=obj.n_qubits)
    d = 2**obj.n_qubits
    arr = _complex_copy(getattr(obj, name), name)
    if name == "amplitudes" and arr.shape != (d,):
        raise ValueError(f"expected {d} amplitudes, got shape {arr.shape}")
    if name == "entries" and arr.shape != (d, d):
        raise ValueError(f"expected shape ({d}, {d}), got {arr.shape}")
    check(arr)
    arr.flags.writeable = False
    object.__setattr__(obj, name, arr)


def _complex_copy(values, name: str) -> np.ndarray:
    """A complex128 copy of integer, float or complex ``values``; numpy would parse strings."""
    if (arr := np.asarray(values)).dtype.kind not in "iufc":
        raise ValueError(f"{name} must be numbers, got dtype {arr.dtype}")
    return arr.astype(np.complex128)


def prescale_rows(z: np.ndarray) -> np.ndarray:
    """A (batch, k) complex stack in which each row whose peak |z| lies outside
    [2^-256, 2^256] is multiplied by the power of two that brings its peak
    into [1/2, 1). That product is exact, so no square or product of a row's
    entries under- or overflows later, and a row in range keeps its bits."""
    peak = np.abs(z).max(axis=1, initial=0.0)
    out = (peak > 0.0) & ((peak < 2.0**-256) | (peak > 2.0**256))
    if out.any():
        shift = -np.frexp(peak[out])[1][:, None]
        z = z.copy()
        z[out] = np.ldexp(z[out].real, shift) + 1j * np.ldexp(z[out].imag, shift)
    return z


def normalize_rows(z: np.ndarray) -> np.ndarray:
    """Each row of a (batch, d) complex stack divided by its 1-D norm, after
    ``prescale_rows``: a power-of-two scale changes no bit of the result."""
    z = prescale_rows(z)
    # one 1-D norm per row: no vectorized norm rounds like it at every width
    norms = np.array([np.linalg.norm(row) for row in z])
    if np.any(norms < 1e-300):
        raise ValueError("cannot normalize a zero vector")
    return z / norms[:, None]


def is_power_of_two(size: int) -> bool:
    return size > 0 and not size & (size - 1)


def check_seed(seed) -> None:
    """Reject a seed that is not an integer in [0, 2^64): a float, even 1.0, or a bool."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or not 0 <= seed < 2**64:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")


def check_count(minimum: int, **counts) -> None:
    """Reject a count (None is unset) that is not an integer, a bool or 2.0
    included, or that is below ``minimum``."""
    for name, value in counts.items():
        if value is None:
            continue
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if value < minimum:
            raise ValueError(f"{name} must be >= {minimum}, got {value}")


_INTERVALS = {"finite": lambda v: True, ">= 0": lambda v: v >= 0, "positive": lambda v: v > 0,
              "in [0, 1]": lambda v: 0 <= v <= 1, "in (0, 1]": lambda v: 0 < v <= 1}


def check_real(interval: str, **values) -> None:
    """Reject a real (None is unset) that is not a number, a bool included, or
    that is NaN, infinite or outside ``interval``, a key of ``_INTERVALS``."""
    for name, value in values.items():
        if value is None:
            continue
        if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
            raise ValueError(f"{name} must be a real number, got {value!r}")
        try:
            finite = math.isfinite(value)
        except OverflowError:  # an int past the float range
            finite = False
        if not finite:
            raise ValueError(f"{name} must be finite, got {value}")
        if not _INTERVALS[interval](value):
            raise ValueError(f"{name} must be {interval}, got {value}")


def json_bytes(payload) -> bytes:
    """``payload`` as indented, key-sorted JSON with a trailing newline; a
    numpy scalar is written as its Python value."""
    return json.dumps(payload, indent=2, sort_keys=True,
                      default=lambda value: value.item()).encode() + b"\n"


def check_unit_norm(amps: np.ndarray) -> None:
    """Reject a vector whose 1-D ``np.linalg.norm`` is not 1 within NORM_TOL."""
    if not np.isfinite(amps).all():
        raise ValueError("state vector has a non-finite amplitude")
    with np.errstate(over="ignore"):  # a norm past the float range reads inf
        norm = np.linalg.norm(amps)
    if abs(norm - 1.0) > NORM_TOL:
        raise ValueError(f"state vector norm {norm} deviates from 1 beyond {NORM_TOL}")


def check_density(mat: np.ndarray) -> None:
    if not np.isfinite(mat).all():
        raise ValueError("density matrix has a non-finite entry")
    if np.max(np.abs(mat - mat.conj().T)) > HERMITIAN_TOL:
        raise ValueError("matrix is not Hermitian within tolerance")
    tr = np.trace(mat).real
    if abs(tr - 1.0) > NORM_TOL:
        raise ValueError(f"trace {tr} deviates from 1 beyond {NORM_TOL}")
    min_eig = np.linalg.eigvalsh(mat)[0]
    if min_eig < -PSD_TOL:
        raise ValueError(f"matrix has eigenvalue {min_eig} below -{PSD_TOL}")


def random_pure_state(n_qubits: int, rng: Rng) -> StateVector:
    """Sample a Haar-uniform pure state on ``n_qubits`` qubits.

    Real and imaginary parts of every amplitude are drawn i.i.d. from N(0, 1)
    and the vector is normalized; the Gaussian construction makes the result
    uniform on the complex unit sphere.
    """
    check_count(1, n_qubits=n_qubits)
    d = 2**n_qubits
    re = rng.normal(d)
    im = rng.normal(d)
    return StateVector.normalized(re + 1j * im)


def overlap_fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2; invariant under a global phase on either argument."""
    if a.n_qubits != b.n_qubits:
        raise ValueError(f"qubit count mismatch: {a.n_qubits} vs {b.n_qubits}")
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)


def hilbert_schmidt_overlap(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Tr(rho sigma); what a SWAP test actually measures on mixed inputs."""
    if rho.n_qubits != sigma.n_qubits:
        raise ValueError(f"qubit count mismatch: {rho.n_qubits} vs {sigma.n_qubits}")
    return float(np.trace(rho.entries @ sigma.entries).real)


def psd_sqrt(mat: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(mat)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def uhlmann_fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """(Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2, via Hermitian eigendecomposition."""
    if rho.n_qubits != sigma.n_qubits:
        raise ValueError(f"qubit count mismatch: {rho.n_qubits} vs {sigma.n_qubits}")
    return float(uhlmann_fidelities(psd_sqrt(rho.entries), sigma.entries[None])[0])


def uhlmann_fidelities(sqrt_rho: np.ndarray, sigmas: np.ndarray) -> np.ndarray:
    """``uhlmann_fidelity`` of each matrix of a (batch, d, d) stack, given sqrt(rho)."""
    vals = np.clip(np.linalg.eigvalsh(sqrt_rho @ sigmas @ sqrt_rho), 0.0, None)
    vals[vals < 1e-14] = 0.0  # sqrt would amplify eigenvalue dust to ~1e-7
    # squared per row as a Python float: an array square rounds differently
    fs = np.array([s ** 2 for s in np.sqrt(vals).sum(axis=1).tolist()])
    if np.any(bad := fs > 1.0 + 1e-8):
        raise ValueError(f"Uhlmann fidelity {fs[bad][0]} exceeds 1 beyond 1e-8")
    return np.minimum(fs, 1.0)


def partial_trace(state: StateVector, keep) -> DensityMatrix:
    """Reduced density matrix over the ``keep`` qubits of a pure state.

    ``keep`` must be a nonempty strict subset of {0..n-1}; the kept qubits
    retain their relative order (lowest kept index becomes qubit 0).
    """
    keep = list(keep)
    for q in keep:
        check_count(0, keep=q)
    keep, n = sorted(keep), state.n_qubits
    if not 0 < len(set(keep)) == len(keep) < n or keep[-1] >= n:
        raise ValueError(f"keep {keep} must be a nonempty strict subset of range({n}) without repeats")
    # Tensor axes: axis j of the reshaped vector is qubit n-1-j.
    psi = state.amplitudes.reshape((2,) * n)
    keep_axes = [n - 1 - q for q in reversed(keep)]
    trace_axes = [ax for ax in range(n) if ax not in keep_axes]
    psi = np.moveaxis(psi, keep_axes + trace_axes, range(n))
    k = len(keep)
    mat = psi.reshape(2**k, 2 ** (n - k))
    rho = mat @ mat.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    return DensityMatrix(k, rho)


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """S(rho) = -Tr(rho log2 rho) with 0 log 0 := 0; entropy in bits."""
    vals = np.linalg.eigvalsh(rho.entries)
    vals = vals[vals > 1e-15]
    return float(max(0.0, -np.sum(vals * np.log2(vals))))


def half_chain_keep(n_qubits: int) -> tuple:
    """The bipartition used for entropy analysis: first ceil(n/2) qubits."""
    check_count(2, n_qubits=n_qubits)
    k = (n_qubits + 1) // 2
    return tuple(range(k))


def half_chain_entropy(state: StateVector) -> float:
    """Base-2 entanglement entropy across the half-chain bipartition."""
    return von_neumann_entropy(partial_trace(state, half_chain_keep(state.n_qubits)))
