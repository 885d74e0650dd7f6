"""Complex linear-algebra foundation: states, density matrices, fidelities, entropy."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

NORM_TOL = 1e-10
HERMITIAN_TOL = 1e-10
PSD_TOL = 1e-9
UNITARY_TOL = 1e-10


class Rng:
    """Counter-based pseudo-random generator (Philox) with explicit seeding.

    Identical seed plus identical call sequence yields identical output.
    Independent streams are derived with :meth:`child`, never by sharing one
    generator across workers.
    """

    def __init__(self, seed: int):
        if seed < 0 or seed >= 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.Philox(key=self.seed))

    def normal(self, size=None) -> np.ndarray:
        return self._gen.standard_normal(size)

    def uniform(self, size=None) -> np.ndarray:
        return self._gen.random(size)

    def integers(self, low: int, high: int, size=None):
        return self._gen.integers(low, high, size=size)

    def child(self, index: int) -> "Rng":
        """Derive an independent generator; deterministic in (seed, index)."""
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
        """Build from an already-normalized amplitude sequence."""
        amps = np.asarray(amplitudes, dtype=np.complex128)
        n = int(np.round(np.log2(amps.size)))
        if 2**n != amps.size:
            raise ValueError(f"amplitude count {amps.size} is not a power of two")
        return cls(n, amps)

    @classmethod
    def normalized(cls, amplitudes) -> "StateVector":
        """Build from an arbitrary nonzero amplitude sequence, normalizing it."""
        amps = np.asarray(amplitudes, dtype=np.complex128)
        return cls.from_amplitudes(normalize_rows(amps.reshape(1, -1))[0])

    @classmethod
    def computational_basis(cls, n_qubits: int, index: int = 0) -> "StateVector":
        amps = np.zeros(2**n_qubits, dtype=np.complex128)
        amps[index] = 1.0
        return cls(n_qubits, amps)

    @property
    def dim(self) -> int:
        return 2**self.n_qubits


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite operator over ``n_qubits``."""

    n_qubits: int
    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        _freeze(self, "entries", check_density)

    @classmethod
    def from_state(cls, state: StateVector) -> "DensityMatrix":
        psi = state.amplitudes
        return cls(state.n_qubits, np.outer(psi, psi.conj()))


@dataclass(frozen=True)
class UnitaryMatrix:
    """Unitary operator over ``n_qubits``; U†U = I within tolerance."""

    n_qubits: int
    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        _freeze(self, "entries", check_unitary)


def _freeze(obj, name: str, check) -> None:
    """The value classes' shared constructor body: width and shape checks,
    ``check``, then a read-only complex128 copy stored as ``name``."""
    if obj.n_qubits < 1:
        raise ValueError(f"n_qubits must be >= 1, got {obj.n_qubits}")
    d = 2**obj.n_qubits
    arr = np.asarray(getattr(obj, name), dtype=np.complex128)
    if name == "amplitudes" and arr.shape != (d,):
        raise ValueError(f"expected {d} amplitudes, got shape {arr.shape}")
    if name == "entries" and arr.shape != (d, d):
        raise ValueError(f"expected shape ({d}, {d}), got {arr.shape}")
    check(arr)
    arr = arr.copy()
    arr.flags.writeable = False
    object.__setattr__(obj, name, arr)


def normalize_rows(z: np.ndarray) -> np.ndarray:
    """Each row of a (batch, d) complex stack divided by its 1-D norm.

    A row far below unit scale is first scaled up by a power of two, which is
    exact, so that no squared entry underflows in its norm; other rows are
    divided as they are."""
    peak = np.abs(z).max(axis=1, initial=0.0)
    tiny = (peak > 0.0) & (peak < 2.0**-256)
    if tiny.any():
        shift = -np.frexp(peak[tiny])[1][:, None]
        z = z.copy()
        z[tiny] = np.ldexp(z[tiny].real, shift) + 1j * np.ldexp(z[tiny].imag, shift)
    # one 1-D norm per row: no vectorized norm rounds like it at every width
    norms = np.array([np.linalg.norm(row) for row in z])
    if np.any(norms < 1e-300):
        raise ValueError("cannot normalize a zero vector")
    return z / norms[:, None]


def check_unit_norm(amps: np.ndarray) -> None:
    """Like every ``check_*``, this takes one object or a stack (leading axes).
    Each decision and message uses the row's 1-D ``np.linalg.norm``. The
    stacked norm rounds differently, by far less than NORM_TOL / 2, so it
    only picks the rows to look at."""
    if not np.isfinite(amps).all():
        raise ValueError("state vector has a non-finite amplitude")
    rows = np.reshape(amps, (-1, amps.shape[-1]))
    for row in rows[np.abs(np.linalg.norm(rows, axis=-1) - 1.0) > 0.5 * NORM_TOL]:
        norm = np.linalg.norm(row)
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state vector norm {norm} deviates from 1 beyond {NORM_TOL}")


def check_density(mats: np.ndarray) -> None:
    if not np.isfinite(mats).all():
        raise ValueError("density matrix has a non-finite entry")
    if np.max(np.abs(mats - np.swapaxes(mats.conj(), -1, -2)), initial=0.0) > HERMITIAN_TOL:
        raise ValueError("matrix is not Hermitian within tolerance")
    tr = np.trace(mats, axis1=-2, axis2=-1).real
    if np.any(bad := np.abs(tr - 1.0) > NORM_TOL):
        raise ValueError(f"trace {tr[bad][0]} deviates from 1 beyond {NORM_TOL}")
    min_eig = np.linalg.eigvalsh(mats)[..., 0]
    if np.any(bad := min_eig < -PSD_TOL):
        raise ValueError(f"matrix has eigenvalue {min_eig[bad][0]} below -{PSD_TOL}")


def check_unitary(mats: np.ndarray) -> None:
    if not np.isfinite(mats).all():
        raise ValueError("unitary matrix has a non-finite entry")
    gram = np.swapaxes(mats.conj(), -1, -2) @ mats
    if np.max(np.abs(gram - np.eye(mats.shape[-1])), initial=0.0) > UNITARY_TOL:
        raise ValueError("matrix is not unitary within tolerance")


def random_pure_state(n_qubits: int, rng: Rng) -> StateVector:
    """Sample a Haar-uniform pure state on ``n_qubits`` qubits.

    Real and imaginary parts of every amplitude are drawn i.i.d. from N(0, 1)
    and the vector is normalized; the Gaussian construction makes the result
    uniform on the complex unit sphere.
    """
    if n_qubits < 1:
        raise ValueError(f"n_qubits must be >= 1, got {n_qubits}")
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
    keep = sorted(set(keep))
    n = state.n_qubits
    if not keep:
        raise ValueError("keep set must be nonempty")
    if any(q < 0 or q >= n for q in keep):
        raise ValueError(f"keep indices {keep} out of range for {n} qubits")
    if len(keep) == n:
        raise ValueError("keep set must be a strict subset of the qubits")
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
    if n_qubits < 2:
        raise ValueError("entropy bipartition needs at least 2 qubits")
    k = (n_qubits + 1) // 2
    return tuple(range(k))


def half_chain_entropy(state: StateVector) -> float:
    """Base-2 entanglement entropy across the half-chain bipartition."""
    return von_neumann_entropy(partial_trace(state, half_chain_keep(state.n_qubits)))
