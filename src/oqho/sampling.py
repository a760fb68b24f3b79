"""Seeded random generators for structured matrices and oscillator parameters.

All generators take a numpy Generator (or a seed) so test corpora are
reproducible.  Spectra and scales are kept moderate to give well-conditioned
instances.
"""

import numpy as np

from .forms import AcParams, PmParams
from .structured import nabla

__all__ = [
    "as_rng",
    "random_orthogonal",
    "random_unitary",
    "random_orthosymplectic",
    "random_symmetric",
    "random_skew_nonsingular",
    "random_symplectic",
    "random_pm_params",
    "random_ac_params",
]

# Scales of the random coupling and energy matrices, range of the skew pair
# strengths, and scale of the symplectic shear generators.
COUPLING_SCALE = 0.7
ENERGY_SCALE = 0.7
DELTA_RANGE = (0.5, 2.0)
SHEAR_SCALE = 0.4


def as_rng(seed_or_rng) -> np.random.Generator:
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(seed_or_rng)


def _complex_normal(rng, shape, scale=1.0) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * (
        scale / np.sqrt(2.0)
    )


def random_orthogonal(dim: int, rng) -> np.ndarray:
    """Haar-ish orthogonal matrix: QR of a Gaussian with sign-fixed diagonal."""
    rng = as_rng(rng)
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


def random_unitary(dim: int, rng) -> np.ndarray:
    rng = as_rng(rng)
    q, r = np.linalg.qr(_complex_normal(rng, (dim, dim)))
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_orthosymplectic(dim: int, rng) -> np.ndarray:
    """Orthogonal and symplectic matrix of even dimension (image of a unitary)."""
    if dim % 2:
        raise ValueError(f"orthosymplectic matrices have even dimension, got {dim}")
    s = random_unitary(dim // 2, rng)
    return nabla(s, np.zeros_like(s))


def random_symmetric(dim: int, rng, scale: float = 1.0) -> np.ndarray:
    rng = as_rng(rng)
    x = rng.standard_normal((dim, dim)) * scale
    return 0.5 * (x + x.T)


def random_skew_nonsingular(dim: int, rng) -> np.ndarray:
    """Well-conditioned skew-symmetric matrix with pair strengths in DELTA_RANGE."""
    if dim % 2 or dim < 2:
        raise ValueError(f"nonsingular skew matrices have even dimension, got {dim}")
    rng = as_rng(rng)
    deltas = rng.uniform(*DELTA_RANGE, dim // 2)
    canon = np.kron(np.diag(deltas), [[0.0, 1.0], [-1.0, 0.0]])
    q = random_orthogonal(dim, rng)
    return q @ canon @ q.T


def random_symplectic(dim: int, rng) -> np.ndarray:
    """Random symplectic matrix from shear and block-diagonal generators."""
    if dim % 2:
        raise ValueError(f"symplectic matrices have even dimension, got {dim}")
    rng = as_rng(rng)
    n = dim // 2
    s1 = random_symmetric(n, rng, SHEAR_SCALE)
    s2 = random_symmetric(n, rng, SHEAR_SCALE)
    q = random_orthogonal(n, rng) @ np.diag(rng.uniform(0.5, 2.0, n))
    eye = np.eye(n)
    zero = np.zeros((n, n))
    upper = np.block([[eye, s1], [zero, eye]])
    lower = np.block([[eye, zero], [s2, eye]])
    middle = np.block([[q, zero], [zero, np.linalg.inv(q).T]])
    return upper @ middle @ lower


def random_pm_params(modes: int, channels: int, rng) -> PmParams:
    rng = as_rng(rng)
    d = random_orthosymplectic(2 * channels, rng)
    m = rng.standard_normal((2 * channels, 2 * modes)) * COUPLING_SCALE
    r = random_symmetric(2 * modes, rng, ENERGY_SCALE)
    theta = random_skew_nonsingular(2 * modes, rng)
    return PmParams(d, m, r, theta)


def random_ac_params(modes: int, channels: int, rng) -> AcParams:
    rng = as_rng(rng)
    s = random_unitary(channels, rng)
    n1 = _complex_normal(rng, (channels, modes), COUPLING_SCALE)
    n2 = _complex_normal(rng, (channels, modes), COUPLING_SCALE)
    h = _complex_normal(rng, (modes, modes), ENERGY_SCALE)
    h1 = 0.5 * (h + h.conj().T)
    g = _complex_normal(rng, (modes, modes), ENERGY_SCALE)
    h2 = 0.5 * (g + g.T)
    while True:
        e1 = np.eye(modes) + _complex_normal(rng, (modes, modes), 0.3)
        e2 = _complex_normal(rng, (modes, modes), 0.3)
        params = AcParams(s, n1, n2, h1, h2, e1, e2)
        if params.structure_residuals()["e_min_singular_ratio"] > 1e-6:
            return params
