"""Canonical factorizations of nonsingular real skew-symmetric matrices.

Any such Theta admits an orthogonal block-diagonalization
Theta = O blkdiag([[0, d_i], [-d_i, 0]]) O^T with d_1 >= ... >= d_n > 0, and a
Cholesky-like square-root factorization Theta = Sigma J Sigma^T against the
canonical symplectic form J.  The blocks are recovered through the Hermitian
eigenproblem of i*Theta, whose +d eigenvectors carry each invariant plane.
Theta's skew symmetry is accepted and the d_i, its singular values, decide
its invertibility by the package's two rules in ``structured``; both
factorizations treat all pairs in one array pass.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .structured import (
    _array_memo,
    _min_singular_ratio,
    _require_nonsingular,
    _require_structure,
    j_matrix,
    skew_symmetry_residual,
)

__all__ = ["SkewFactorization", "cholesky_like", "relate_ccr"]


@dataclass
class SkewFactorization:
    """Result of :func:`cholesky_like`: Theta = Sigma J Sigma^T = O canon O^T."""

    Sigma: np.ndarray
    O: np.ndarray
    deltas: np.ndarray

    def reconstruction_residual(self, theta) -> float:
        theta = np.asarray(theta, dtype=float)
        rebuilt = self.Sigma @ j_matrix(theta.shape[0]) @ self.Sigma.T
        denom = max(np.linalg.norm(theta), np.finfo(float).tiny)
        return float(np.linalg.norm(rebuilt - theta) / denom)


def _skew_form(theta) -> tuple:
    """Read-only orthogonal canonical form (O, deltas) of a nonsingular skew
    Theta, Theta = O blkdiag([[0, d_i], [-d_i, 0]]) O^T with the d_i
    descending, through a two-entry memo.

    The raw input is checked before the lookup, so a non-skew matrix is
    refused on every call.  The memo is keyed on the symmetrized matrix; that
    of an exactly skew input is the input itself, bit for bit, so Theta and
    the ``PmParams.symmetrized`` copy of it share one entry.  An entry of n
    states keeps the n^2 * 8 key bytes and O: about 16 MB at 1024 states.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.ndim != 2 or theta.shape[0] != theta.shape[1] or theta.shape[0] % 2:
        raise DimensionError("skew factorization needs an even-dimensional square "
                             f"matrix, got {theta.shape}")
    _require_structure("skew matrix", {"skew_symmetry": skew_symmetry_residual(theta)},
                       {"skew_symmetry": theta})
    return _canonical_form(0.5 * (theta - theta.T))


@_array_memo
def _canonical_form(theta: np.ndarray) -> tuple:
    """(O, deltas) of the exactly skew, even-dimensional ``theta``."""
    n = theta.shape[0] // 2
    evals, evecs = np.linalg.eigh(1j * theta)
    # eigenvalues come in +/- pairs; take the positive half, largest first
    order = np.argsort(evals)[::-1][:n]
    deltas = evals[order].astype(float)
    _require_nonsingular(_min_singular_ratio(deltas), "skew matrix")
    if n == 0:  # the argmax below has no row to take
        return np.zeros((0, 0)), deltas
    # The column pair (sqrt2 Im w, sqrt2 Re w) of each +delta eigenvector w is
    # rotated by the phase that makes its largest-norm row (positive, 0), so
    # that O does not depend on LAPACK's phase choice.
    w = evecs[:, order].T
    pairs = np.sqrt(2.0) * np.stack([w.imag, w.real], axis=2)
    a, b = pairs[np.arange(n), np.argmax(np.linalg.norm(pairs, axis=2), axis=1)].T
    rot = np.stack([a, -b, b, a], axis=1).reshape(n, 2, 2) / np.hypot(a, b)[:, None, None]
    o = (pairs @ rot).transpose(1, 0, 2).reshape(2 * n, 2 * n)
    return o, deltas


def cholesky_like(theta) -> SkewFactorization:
    """Square-root factorization Theta = Sigma J Sigma^T via the canonical form.

    Sigma = O diag(sqrt d_1, sqrt d_1, ..., sqrt d_n, sqrt d_n) P where P, an
    index array on the columns, permutes the block form of J into interleaved
    2x2 blocks.  Sigma is unique only up to a symplectic right factor; this
    construction is deterministic for identical input.  The canonical form
    comes from the skew-form memo (see ``_skew_form``), so a Theta factored
    again takes no second ``eigh``; every array returned is the caller's own.
    """
    o, deltas = _skew_form(theta)
    columns = np.arange(2 * deltas.size).reshape(-1, 2).T.ravel()
    sigma = o[:, columns] * np.tile(np.sqrt(deltas), 2)
    return SkewFactorization(Sigma=sigma, O=o.copy(), deltas=deltas.copy())


def relate_ccr(theta_1, theta_2) -> np.ndarray:
    """State transformation S with theta_1 = S theta_2 S^T.

    Built from the two square-root factors: S = Sigma_1 Sigma_2^{-1}.  Both
    factors go through the skew-form memo, so a later :func:`cholesky_like`
    of theta_2 (``pm_to_ac`` of parameters synthesized onto it) reuses its
    ``eigh``.
    """
    theta_1 = np.asarray(theta_1, dtype=float)
    theta_2 = np.asarray(theta_2, dtype=float)
    if theta_1.shape != theta_2.shape:
        raise DimensionError(
            f"commutation matrices must share a shape, got {theta_1.shape} "
            f"and {theta_2.shape}"
        )
    s1 = cholesky_like(theta_1).Sigma
    s2 = cholesky_like(theta_2).Sigma
    return np.linalg.solve(s2.T, s1.T).T
