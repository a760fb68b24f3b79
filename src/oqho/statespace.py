"""State-space realizations and rational transfer-matrix utilities.

Provides construction of realizations from diagonal rational entries,
transfer-function evaluation, minimality tests and reduction by the orthogonal
controllability staircase, inverse realizations, and pole/zero spectrum
reports.

Every transfer-matrix value in the package, real or complex, G or G~, comes
from one evaluator.  One eigendecomposition of the state matrix,
A = V diag(lam) V^{-1}, guards all requested points against nearby poles and
gives every value in modal form, (C V) diag(1 / (s - lam)) (V^{-1} B) + D, at
O(n q p) per point.  A defective or ill-conditioned eigenvector basis
(MODAL_CONDITION_LIMIT) takes a single stacked linear solve of every
resolvent instead.  The conjugate system G~(s) is the adjoint of G at
-conj(s), so one eigensystem serves both.

Every eigendecomposition of a state matrix goes through ``_eigensystem``,
which remembers the last two by the bytes of the matrix: the poles, the
sampled check and the F solve of one A share one ``eig``, and so do the point
by point comparisons of two realizations.  The transmission zeros are the
eigenvalues of another matrix and are computed apart, by ``eigvals``.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NearPoleError
from .structured import _array_memo, _min_singular_ratio, _require_nonsingular

__all__ = [
    "StateSpace",
    "RationalEntry",
    "SpectrumReport",
    "evaluate",
    "eval_tf",
    "eval_conjugate_tf",
    "similarity_transform",
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

# Transfer values are evaluated in the eigenvector basis V of the state matrix
# while |V|_1 |V^{-1}|_1 <= MODAL_CONDITION_LIMIT, and by resolvent solves above.
# On realizable, drifted and near-defective systems of 2-256 states the modal
# values stay within 1e-11 of the solves up to it (scripts/modal_sweep.py).
MODAL_CONDITION_LIMIT = 1e4

# A staircase direction with singular value below RANK_CUTOFF * |B|_F in the
# first block, or RANK_CUTOFF * |A|_F in a later one, is taken as unreachable.
RANK_CUTOFF = 1e-10

# Two values closer than PAIRING_TOLERANCE * max|pole| mirror each other: the
# zero/pole mirror test, spectral genericity and the F solve's pinned pairs.
PAIRING_TOLERANCE = 1e-6


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
        """Channel count sanity for quantum-model use: square, even nonzero IO, even state."""
        if self.num_inputs != self.num_outputs:
            raise DimensionError(
                f"square system required, got {self.num_outputs}x{self.num_inputs}"
            )
        if self.num_outputs % 2 or self.state_dim % 2:
            raise DimensionError(
                "quadrature model needs even state and channel dimensions, got "
                f"state {self.state_dim}, channels {self.num_outputs}"
            )
        if not self.num_outputs:
            raise DimensionError("quadrature model needs at least one channel pair, got 0")
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


def poles(ss: StateSpace) -> np.ndarray:
    """Eigenvalues of A, a copy of its ``_eigensystem``'s; empty for a static system."""
    return _eigensystem(ss.A)[0].copy()


def _eigensystem(a: np.ndarray) -> tuple:
    """(lam, V, V^{-1}) of ``a``: one eig and one inv, shared by every use of the spectrum.

    V^{-1} is None when inv finds V singular (a defective ``a``).  The arrays
    are read-only, since ``_decompose`` keeps the last two results; a matrix
    changed in place has other bytes and is decomposed afresh.  A static
    system makes no LAPACK call.
    """
    if a.shape[0] == 0:
        return np.zeros(0, dtype=complex), np.zeros((0, 0)), np.zeros((0, 0))
    return _decompose(a)


# Two entries: a check and the spectrum report of one A, or the two
# realizations an output check compares point by point.  An entry of n states
# keeps n^2 * 8 key bytes, V and V^{-1} (2 n^2 * 16): about 80 MB for two
# entries at 1024 states.
@_array_memo
def _decompose(a: np.ndarray) -> tuple:
    """``_eigensystem`` of the non-empty matrix ``a``."""
    lam, v = np.linalg.eig(a)
    try:
        w = np.linalg.inv(v)
    except np.linalg.LinAlgError:
        w = None
    return lam, v, w


def _basis_condition(spectrum: tuple) -> float:
    """kappa_1(V) = |V|_1 |V^{-1}|_1 of an ``_eigensystem``'s eigenvector
    basis V; inf when V^{-1} is missing."""
    _, v, w = spectrum
    return np.inf if w is None else np.linalg.norm(v, 1) * np.linalg.norm(w, 1)


def _evaluate_quadruple(a, b, c, d, points, spectrum) -> np.ndarray:
    """Stack of c (sI - a)^{-1} b + d over ``points``, shape (k, outputs, inputs).

    ``spectrum`` is the ``_eigensystem`` (lam, V, V^{-1}) of ``a``.  Raises
    NearPoleError naming the first point that falls within
    RESOLVENT_GUARD * (1 + |s|) of an eigenvalue, and its nearest eigenvalue,
    since the resolvent is meaningless there.  With a = V diag(lam) V^{-1},
    every value is d + (c V) diag(1 / (s - lam)) (V^{-1} b): O(n q p) per
    point once the eigensystem is known.  When ``_basis_condition`` exceeds
    MODAL_CONDITION_LIMIT (or V^{-1} is missing), a single stacked solve of
    every sI - a gives the values instead.  Real and complex quadruples are
    both accepted.  Zero points or zero states take the same path: with no
    state, c (sI - a)^{-1} b is an empty sum, so every point gives d.
    """
    lam, v, w = spectrum
    pts = np.asarray(points, dtype=complex).reshape(-1)
    k, n = pts.size, a.shape[0]
    dist = np.abs(lam[None, :] - pts[:, None])
    guard = RESOLVENT_GUARD * (1.0 + np.abs(pts))
    near = (dist < guard[:, None]).any(axis=1)
    if near.any():
        i = int(np.argmax(near))
        raise NearPoleError(complex(pts[i]), lam[np.argmin(dist[i])])
    if _basis_condition(spectrum) <= MODAL_CONDITION_LIMIT:
        return (c @ v)[None] * (1.0 / (pts[:, None] - lam))[:, None, :] @ (w @ b) + d
    # sI - A for every point, built in place in one (k, n, n) allocation
    shifted = np.zeros((k, n, n), dtype=complex)
    shifted -= a
    diag = np.arange(n)
    shifted[:, diag, diag] += pts[:, None]
    return c @ np.linalg.solve(shifted, b[None]) + d


def evaluate(ss: StateSpace, points) -> np.ndarray:
    """Transfer matrices C (sI - A)^{-1} B + D at every point, stacked (k, q, p).

    One eigendecomposition A = V diag(lam) V^{-1}, the ``_eigensystem`` of
    A, guards every point against nearby poles and gives every value in modal
    form, (C V) diag(1 / (s - lam)) (V^{-1} B) + D.  Beyond the O(n^2)
    eigensystem, the k points take O(k q n) memory for n states, q outputs
    and p inputs.  An ill-conditioned or defective eigenvector basis (see
    MODAL_CONDITION_LIMIT) falls back to one stacked solve of all k
    resolvents, O(k n^2) memory.

    The conjugate system G~ at the same points is
    ``evaluate(ss, -np.conj(points)).conj().transpose(0, 2, 1)``.
    """
    return _evaluate_quadruple(ss.A, ss.B, ss.C, ss.D, points, _eigensystem(ss.A))


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
    _require_nonsingular(_min_singular_ratio(t), "similarity transform")
    a_new = np.linalg.solve(t.T, (t @ ss.A).T).T
    c_new = np.linalg.solve(t.T, ss.C.T).T
    return StateSpace(a_new, t @ ss.B, c_new, ss.D.copy())


def _reachable_basis(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the reachable subspace of (a, b): the orthogonal staircase.

    Block Arnoldi: each new block a @ V_k is orthogonalized twice against the
    basis so far, and an SVD keeps the directions whose singular values clear
    RANK_CUTOFF * |b|_F in the first block and RANK_CUTOFF * |a|_F after.  No
    power of ``a`` is formed: the Krylov matrix [b, ab, ..., a^{n-1} b] loses
    rank numerically from a few modes up and overflows at a few hundred states
    (Paige, 1981).

    Raises LinAlgError, as eig does, when ``a`` or ``b`` holds an inf or
    a NaN: the SVD of a block with an inf may never return.
    """
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise np.linalg.LinAlgError("Array must not contain infs or NaNs")
    cutoff, cutoff_a = RANK_CUTOFF * np.linalg.norm(b), RANK_CUTOFF * np.linalg.norm(a)
    basis = np.zeros((a.shape[0], 0))
    block = b
    while block.shape[1] and basis.shape[1] < a.shape[0]:
        for _ in range(2):
            block = block - basis @ (basis.T @ block)
        u, sv, _ = np.linalg.svd(block, full_matrices=False)
        new = u[:, sv > cutoff]
        basis = np.hstack([basis, new])
        block, cutoff = a @ new, cutoff_a
    return basis


def is_minimal(ss: StateSpace) -> bool:
    """Controllable and observable: both staircase bases span the state (true when static)."""
    return minimal_realization(ss) is ss


def minimal_realization(ss: StateSpace) -> StateSpace:
    """Project onto the controllable subspace, then onto the observable one.

    Both projections use orthonormal staircase bases, so the transfer function
    is preserved while unreachable and unobservable directions are discarded.
    A minimal input, whose two bases span the state, is returned itself.
    """
    a, b, c = ss.A, ss.B, ss.C
    v = _reachable_basis(a, b)
    a, b, c = v.T @ a @ v, v.T @ b, c @ v
    w = _reachable_basis(a.T, c.T)
    if w.shape[1] == ss.state_dim:
        return ss
    a, b, c = w.T @ a @ w, w.T @ b, c @ w
    return StateSpace(a, b, c, ss.D.copy())


def inverse_realization(ss: StateSpace) -> StateSpace:
    """Realization of the inverse transfer function (requires invertible D)."""
    if ss.num_inputs != ss.num_outputs:
        raise DimensionError("inverse needs a square system")
    _require_nonsingular(_min_singular_ratio(ss.D), "feedthrough D")
    d_inv = np.linalg.inv(ss.D)
    b_dinv = ss.B @ d_inv
    return StateSpace(ss.A - b_dinv @ ss.C, b_dinv, -d_inv @ ss.C, d_inv)


def transmission_zeros(ss: StateSpace) -> np.ndarray:
    """Transmission zeros as the poles of the inverse realization, by
    ``eigvals``: no caller needs their eigenvectors or decomposes that
    state matrix again, so they stay out of the ``_eigensystem`` memo."""
    a = inverse_realization(ss).A
    if a.shape[0] == 0:  # static checks make no LAPACK call
        return np.zeros(0, dtype=complex)
    return np.linalg.eigvals(a)


def match_multisets(left, right, tol: float = PAIRING_TOLERANCE):
    """Greedy nearest-neighbour matching of two complex multisets.

    Returns (matched, max_distance).  ``matched`` is False when the sizes
    differ or some pairing distance exceeds ``tol``; the left list is visited
    in lexicographic (real, imag) order to keep the pairing deterministic, and
    each takes the nearest still-unused right value (the first one on ties).
    When the nearest values of all left ones are distinct, that is the
    pairing, and it is taken at once.
    """
    left = np.asarray(left, dtype=complex).reshape(-1)
    right = np.asarray(right, dtype=complex).reshape(-1)
    if left.size != right.size:
        return False, float("inf")
    if not left.size:
        return True, 0.0
    left = left[np.lexsort((left.imag, left.real))]
    diff = left[:, None] - right[None, :]
    # hypot rounds exactly as the scalar abs(); np.abs on complex arrays may not
    dists = np.hypot(diff.real, diff.imag)
    nearest = np.argmin(dists, axis=1)
    # np.unique would import numpy.ma on its first call
    if np.bincount(nearest).max() == 1:
        d = dists[np.arange(left.size), nearest]
        over = np.flatnonzero(d > tol)
        stop = over[0] + 1 if over.size else d.size
        # the builtin max over the visited rows, as the loop below takes it
        return not over.size, max([0.0, *d[:stop].tolist()])
    max_dist = 0.0
    for row in dists:
        k = np.argmin(row)
        max_dist = max(max_dist, row[k])
        if row[k] > tol:
            return False, max_dist
        dists[:, k] = np.inf
    return True, max_dist


def _mirror_pairs(lam: np.ndarray) -> tuple:
    """(l_i + l_j, where it vanishes within PAIRING_TOLERANCE * max|l|): for the
    conjugate-closed spectrum of a real matrix, the pairs mirrored about the
    imaginary axis.  It decides genericity and the F solve's pinned entries."""
    gap = lam[:, None] + lam[None, :]
    return gap, np.abs(gap) <= PAIRING_TOLERANCE * np.abs(lam).max(initial=0.0)


def spectrum_report(ss: StateSpace) -> SpectrumReport:
    """Poles, zeros, the zero/pole mirror test, and spectral genericity.

    Mirror symmetry pairs the zeros against the poles reflected through the
    imaginary axis.  Spectral genericity fails when _mirror_pairs finds two
    poles placed symmetrically about it (purely imaginary poles included).
    """
    p = poles(ss)
    z = transmission_zeros(ss)
    matched, max_dist = match_multisets(
        -p.conj(), z, PAIRING_TOLERANCE * np.abs(p).max(initial=0.0))
    return SpectrumReport(p, z, mirror_symmetric=matched,
                          spectrally_generic=not _mirror_pairs(p)[1].any(),
                          max_pairing_distance=max_dist)


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
