"""State-space realizations and rational transfer-matrix utilities.

Provides construction of realizations from diagonal rational entries,
transfer-function evaluation, Kalman-style minimality reduction, inverse
realizations, and pole/zero spectrum reports.

Every transfer-matrix value in the package, real or complex, G or G~, comes
from one stacked evaluator: a single eigendecomposition of the state matrix
guards all requested points against nearby poles, and a single stacked linear
solve gives every resolvent.  The conjugate system G~(s) is the adjoint of G
at -conj(s).
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NearPoleError, SingularMatrixError

__all__ = [
    "StateSpace",
    "RationalEntry",
    "SpectrumReport",
    "evaluate",
    "eval_tf",
    "eval_conjugate_tf",
    "similarity_transform",
    "controllability_matrix",
    "observability_matrix",
    "controllability_rank",
    "observability_rank",
    "is_minimal",
    "minimal_realization",
    "inverse_realization",
    "poles",
    "transmission_zeros",
    "match_multisets",
    "spectrum_report",
    "siso_realization",
    "block_diag",
]

# Evaluation points closer than RESOLVENT_GUARD * (1 + |s|) to a pole are refused.
RESOLVENT_GUARD = 1e-9

# Singular values below SINGULARITY_CUTOFF * s_max mark a matrix as non-invertible.
SINGULARITY_CUTOFF = 1e-12


@dataclass
class StateSpace:
    """Real state-space quadruple (A, B, C, D) with x' = Ax + Bu, y = Cx + Du.

    The state may be empty (static system).  Dimensions are validated on
    construction; evenness of state/channel dimensions is only required by
    the quantum-model operations, not by this container.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        self.A = np.asarray(self.A, dtype=float)
        self.B = np.asarray(self.B, dtype=float)
        self.C = np.asarray(self.C, dtype=float)
        self.D = np.asarray(self.D, dtype=float)
        for name in ("A", "B", "C", "D"):
            if getattr(self, name).ndim != 2:
                raise DimensionError(f"{name} must be a 2-d array")
        n = self.A.shape[0]
        if self.A.shape != (n, n):
            raise DimensionError(f"A must be square, got {self.A.shape}")
        if self.B.shape[0] != n:
            raise DimensionError(f"B must have {n} rows, got {self.B.shape}")
        if self.C.shape[1] != n:
            raise DimensionError(f"C must have {n} columns, got {self.C.shape}")
        if self.D.shape != (self.C.shape[0], self.B.shape[1]):
            raise DimensionError(
                f"D must be {self.C.shape[0]}x{self.B.shape[1]}, got {self.D.shape}"
            )

    @property
    def state_dim(self) -> int:
        return self.A.shape[0]

    @property
    def num_inputs(self) -> int:
        return self.B.shape[1]

    @property
    def num_outputs(self) -> int:
        return self.C.shape[0]

    @staticmethod
    def static(d) -> "StateSpace":
        d = np.atleast_2d(np.asarray(d, dtype=float))
        q, p = d.shape
        return StateSpace(np.zeros((0, 0)), np.zeros((0, p)), np.zeros((q, 0)), d)

    def require_square_channels(self) -> int:
        """Channel count sanity for quantum-model use: square, even IO, even state."""
        if self.num_inputs != self.num_outputs:
            raise DimensionError(
                f"square system required, got {self.num_outputs}x{self.num_inputs}"
            )
        if self.num_outputs % 2 or self.state_dim % 2:
            raise DimensionError(
                "quadrature model needs even state and channel dimensions, got "
                f"state {self.state_dim}, channels {self.num_outputs}"
            )
        return self.num_outputs


@dataclass(frozen=True)
class RationalEntry:
    """Scalar rational function given by descending-power coefficient tuples.

    Leading zeros of both polynomials are stripped; the denominator must keep
    a nonzero leading coefficient and the entry must be proper
    (deg num <= deg den).
    """

    num: tuple
    den: tuple

    def __post_init__(self):
        num = _strip_leading([float(c) for c in self.num])
        den = _strip_leading([float(c) for c in self.den])
        if not den:
            raise ValueError("denominator is the zero polynomial")
        if len(num) > len(den):
            raise ValueError(
                f"improper rational entry: numerator degree {len(num) - 1} exceeds "
                f"denominator degree {len(den) - 1}"
            )
        object.__setattr__(self, "num", tuple(num))
        object.__setattr__(self, "den", tuple(den))

    @property
    def degree(self) -> int:
        return len(self.den) - 1

    def __call__(self, s: complex) -> complex:
        num = self.num if self.num else (0.0,)
        return complex(np.polyval(num, s) / np.polyval(self.den, s))


@dataclass
class SpectrumReport:
    """Poles, transmission zeros and the mirror/genericity verdicts."""

    poles: np.ndarray
    zeros: np.ndarray
    mirror_symmetric: bool
    spectrally_generic: bool
    max_pairing_distance: float


def _strip_leading(coeffs):
    i = 0
    while i < len(coeffs) and coeffs[i] == 0.0:
        i += 1
    return coeffs[i:]


def _numeric_rank(mat: np.ndarray, rank_atol: float = 0.0) -> int:
    if mat.size == 0:
        return 0
    sv = np.linalg.svd(mat, compute_uv=False)
    cutoff = max(max(mat.shape) * np.finfo(float).eps * sv[0], rank_atol)
    return int(np.count_nonzero(sv > cutoff))


def _range_basis(mat: np.ndarray, rank_atol: float = 0.0) -> np.ndarray:
    """Orthonormal basis of the column space, rank decided by SVD threshold."""
    if mat.size == 0:
        return np.zeros((mat.shape[0], 0))
    u, sv, _ = np.linalg.svd(mat, full_matrices=False)
    cutoff = max(max(mat.shape) * np.finfo(float).eps * sv[0], rank_atol) if sv.size else 0.0
    r = int(np.count_nonzero(sv > cutoff))
    return u[:, :r]


def _inv_checked(mat: np.ndarray, name: str) -> np.ndarray:
    if mat.size == 0:
        return mat.reshape(mat.shape)
    sv = np.linalg.svd(mat, compute_uv=False)
    if sv[-1] <= SINGULARITY_CUTOFF * sv[0] or sv[0] == 0.0:
        raise SingularMatrixError(
            f"{name} is singular to working precision (singular values "
            f"{sv[0]:.3e} .. {sv[-1]:.3e})"
        )
    return np.linalg.inv(mat)


def poles(ss: StateSpace) -> np.ndarray:
    """Eigenvalues of A; empty for a static system."""
    if ss.state_dim == 0:
        return np.zeros(0, dtype=complex)
    return np.linalg.eigvals(ss.A)


def _evaluate_quadruple(a, b, c, d, points) -> np.ndarray:
    """Stack of c (sI - a)^{-1} b + d over ``points``, shape (k, outputs, inputs).

    Raises NearPoleError naming the first point that falls within
    RESOLVENT_GUARD * (1 + |s|) of an eigenvalue of ``a``, since the resolvent
    solve is meaningless there.  Real and complex quadruples are both accepted.
    """
    pts = np.asarray(points, dtype=complex).reshape(-1)
    k, n = pts.size, a.shape[0]
    d = d.astype(complex)
    if k == 0 or n == 0:
        return np.repeat(d[None], k, axis=0)
    lam = np.linalg.eigvals(a)
    dist = np.abs(lam[None, :] - pts[:, None])
    nearest = np.argmin(dist, axis=1)
    near = dist[np.arange(k), nearest] < RESOLVENT_GUARD * (1.0 + np.abs(pts))
    if near.any():
        i = int(np.argmax(near))
        raise NearPoleError(complex(pts[i]), lam[nearest[i]])
    # sI - A for every point, built in place in one (k, n, n) allocation
    shifted = np.zeros((k, n, n), dtype=complex)
    shifted -= a
    diag = np.arange(n)
    shifted[:, diag, diag] += pts[:, None]
    return c @ np.linalg.solve(shifted, b[None]) + d


def evaluate(ss: StateSpace, points) -> np.ndarray:
    """Transfer matrices C (sI - A)^{-1} B + D at every point, stacked (k, q, p).

    All k resolvents are solved in one stack, so peak memory grows as
    O(k n^2) in the number of points k for n states.

    The conjugate system G~ at the same points is
    ``evaluate(ss, -np.conj(points)).conj().transpose(0, 2, 1)``.
    """
    return _evaluate_quadruple(ss.A, ss.B, ss.C, ss.D, points)


def eval_tf(ss: StateSpace, s: complex) -> np.ndarray:
    """Evaluate C (sI - A)^{-1} B + D at one point (see :func:`evaluate`)."""
    return evaluate(ss, [s])[0]


def eval_conjugate_tf(ss: StateSpace, s: complex) -> np.ndarray:
    """Evaluate the conjugate transfer function: adjoint of the value at -conj(s)."""
    return eval_tf(ss, -np.conj(complex(s))).conj().T


def similarity_transform(ss: StateSpace, t: np.ndarray) -> StateSpace:
    """Change of state coordinates: (T A T^{-1}, T B, C T^{-1}, D)."""
    t = np.asarray(t, dtype=float)
    n = ss.state_dim
    if t.shape != (n, n):
        raise DimensionError(f"transform must be {n}x{n}, got {t.shape}")
    _inv_checked(t, "similarity transform")
    a_new = np.linalg.solve(t.T, (t @ ss.A).T).T
    c_new = np.linalg.solve(t.T, ss.C.T).T
    return StateSpace(a_new, t @ ss.B, c_new, ss.D.copy())


def controllability_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    n = a.shape[0]
    if n == 0:
        return np.zeros((0, 0))
    blocks = [b]
    for _ in range(n - 1):
        blocks.append(a @ blocks[-1])
    return np.hstack(blocks)


def observability_matrix(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    return controllability_matrix(a.T, c.T).T


def controllability_rank(ss: StateSpace, rank_atol: float = 0.0) -> int:
    return _numeric_rank(controllability_matrix(ss.A, ss.B), rank_atol)


def observability_rank(ss: StateSpace, rank_atol: float = 0.0) -> int:
    return _numeric_rank(observability_matrix(ss.A, ss.C), rank_atol)


def is_minimal(ss: StateSpace, rank_atol: float = 0.0) -> bool:
    """Full controllability and observability ranks (vacuously true when static)."""
    n = ss.state_dim
    if n == 0:
        return True
    return (
        controllability_rank(ss, rank_atol) == n
        and observability_rank(ss, rank_atol) == n
    )


def minimal_realization(ss: StateSpace, rank_atol: float = 0.0) -> StateSpace:
    """Project onto the controllable subspace, then onto the observable one.

    Both projections use orthonormal SVD range bases, so the transfer function
    is preserved while unreachable and unobservable directions are discarded.
    """
    a, b, c = ss.A, ss.B, ss.C
    v = _range_basis(controllability_matrix(a, b), rank_atol)
    a, b, c = v.T @ a @ v, v.T @ b, c @ v
    w = _range_basis(observability_matrix(a, c).T, rank_atol)
    a, b, c = w.T @ a @ w, w.T @ b, c @ w
    return StateSpace(a, b, c, ss.D.copy())


def inverse_realization(ss: StateSpace) -> StateSpace:
    """Realization of the inverse transfer function (requires invertible D)."""
    if ss.num_inputs != ss.num_outputs:
        raise DimensionError("inverse needs a square system")
    d_inv = _inv_checked(ss.D, "feedthrough D")
    if ss.state_dim == 0:
        return StateSpace.static(d_inv)
    b_dinv = ss.B @ d_inv
    return StateSpace(ss.A - b_dinv @ ss.C, b_dinv, -d_inv @ ss.C, d_inv)


def transmission_zeros(ss: StateSpace) -> np.ndarray:
    """Transmission zeros as the poles of the inverse realization."""
    return poles(inverse_realization(ss))


def match_multisets(left, right, tol: float = 1e-6):
    """Greedy nearest-neighbour matching of two complex multisets.

    Returns (matched, max_distance).  ``matched`` is False when the sizes
    differ or some pairing distance exceeds ``tol``; the left list is visited
    in lexicographic (real, imag) order to keep the pairing deterministic, and
    each takes the nearest still-unused right value (the first one on ties).
    """
    left = np.asarray(left, dtype=complex).reshape(-1)
    right = np.asarray(right, dtype=complex).reshape(-1)
    if left.size != right.size:
        return False, float("inf")
    left = left[np.lexsort((left.imag, left.real))]
    diff = left[:, None] - right[None, :]
    # hypot rounds exactly as the scalar abs(); np.abs on complex arrays may not
    dists = np.hypot(diff.real, diff.imag)
    free = np.ones(right.size, dtype=bool)
    max_dist = 0.0
    for row in dists:
        k = np.flatnonzero(free)[np.argmin(row[free])]
        max_dist = max(max_dist, row[k])
        if row[k] > tol:
            return False, max_dist
        free[k] = False
    return True, max_dist


def spectrum_report(ss: StateSpace, pairing_tol: float = 1e-6) -> SpectrumReport:
    """Poles, zeros, the zero/pole mirror test, and spectral genericity.

    Mirror symmetry pairs the zeros against the poles reflected through the
    imaginary axis.  Spectral genericity fails when any two poles are placed
    symmetrically about the imaginary axis (purely imaginary poles included).
    """
    p = poles(ss)
    z = transmission_zeros(ss)
    mirrored = -p.conj()
    matched, max_dist = match_multisets(mirrored, z, pairing_tol)
    mirror_gap = p[:, None] + p.conj()[None, :]
    generic = not (np.hypot(mirror_gap.real, mirror_gap.imag) <= pairing_tol).any()
    return SpectrumReport(
        poles=p,
        zeros=z,
        mirror_symmetric=matched,
        spectrally_generic=generic,
        max_pairing_distance=max_dist,
    )


def siso_realization(entry: RationalEntry) -> StateSpace:
    """Controllable companion realization of one proper rational entry."""
    den = np.array(entry.den, dtype=float)
    den_monic = den / den[0]
    k = len(den_monic) - 1
    num = np.zeros(k + 1)
    if entry.num:
        num[k + 1 - len(entry.num):] = entry.num
    num = num / den[0]
    d = num[0]
    if k == 0:
        return StateSpace.static([[d]])
    # ascending coefficient order below the leading one
    a_coeffs = den_monic[1:][::-1]
    c_coeffs = (num[1:] - d * den_monic[1:])[::-1]
    a = np.zeros((k, k))
    a[:-1, 1:] = np.eye(k - 1)
    a[-1, :] = -a_coeffs
    b = np.zeros((k, 1))
    b[-1, 0] = 1.0
    c = c_coeffs.reshape(1, k)
    return StateSpace(a, b, c, np.array([[d]]))


def _direct_sum(mats) -> np.ndarray:
    rows = sum(m.shape[0] for m in mats)
    cols = sum(m.shape[1] for m in mats)
    out = np.zeros((rows, cols))
    r = c = 0
    for m in mats:
        out[r:r + m.shape[0], c:c + m.shape[1]] = m
        r += m.shape[0]
        c += m.shape[1]
    return out


def block_diag(blocks) -> StateSpace:
    """Direct sum of systems: block-diagonal A, B, C and D."""
    blocks = list(blocks)
    if not blocks:
        raise DimensionError("block_diag needs at least one block")
    return StateSpace(
        _direct_sum([s.A for s in blocks]),
        _direct_sum([s.B for s in blocks]),
        _direct_sum([s.C for s in blocks]),
        _direct_sum([s.D for s in blocks]),
    )
