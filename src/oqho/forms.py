"""Oscillator parameterizations and the correspondence between them.

Two equivalent parameter sets describe a linear quantum harmonic oscillator
network:

* position-momentum form: real (D, M, R, Theta) with orthosymplectic
  feedthrough D, coupling M, symmetric energy matrix R and skew commutation
  matrix Theta; the real realization is

      A = 2 Theta R - (1/2) B J B^T Theta^{-1},  B = 2 Theta M^T,
      C = -D J B^T Theta^{-1}.

* annihilation-creation form: complex (S, N1, N2, H1, H2, E1, E2) with
  unitary scattering S, doubled-up coupling N = doubled_up(N1, N2), Hermitian
  energy doubled_up(H1, H2) and ladder transformation E = doubled_up(E1, E2);
  the complex realization is

      F = -i Th H - (1/2) Th N* bJ N,  G = -Th N* bJ doubled_up(S, 0),
      L = N,  K = doubled_up(S, 0),

  where Th = E bJ E* and bJ = diag(I, -I).

The two sides are exchanged entrywise by the nabla / block-extraction maps,
and the realizations are conjugate under the ladder change of basis T.  Every
builder and conversion first validates its parameters by the package's
structure and singular-matrix rules in ``structured``; none takes a tolerance.
A parameter set may have no modes (a static network, whose realization is
D alone) and takes the same formulas then; it needs at least one channel.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .skewfactor import cholesky_like
from .statespace import StateSpace, _eigensystem, _evaluate_quadruple
from .structured import (
    _array_memo,
    _min_singular_ratio,
    _require_nonsingular,
    _require_structure,
    bold_j_matrix,
    doubled_up,
    doubled_up_residual,
    extract_bold_blocks,
    hermitian_residual,
    j_matrix,
    nabla,
    orthogonality_residual,
    skew_symmetry_residual,
    symmetry_residual,
    symplectic_residual,
    unitarity_residual,
)

__all__ = [
    "PmParams",
    "AcParams",
    "ComplexStateSpace",
    "ito_matrix",
    "build_pm_realization",
    "build_ac_realization",
    "eval_ac_tf",
    "ac_to_pm",
    "pm_to_ac",
]


def ito_matrix(m: int) -> np.ndarray:
    """Quantum Ito matrix of m field channels: I + i J (eigenvalues 0 and 2)."""
    if m < 1:
        raise DimensionError(f"ito_matrix needs at least one channel, got {m}")
    return np.eye(2 * m) + 1j * j_matrix(2 * m)


@dataclass
class PmParams:
    """Position-momentum parameters (D, M, R, Theta) of a 2n-state, 2m-channel model."""

    D: np.ndarray
    M: np.ndarray
    R: np.ndarray
    Theta: np.ndarray

    def __post_init__(self):
        self.D = np.asarray(self.D, dtype=float)
        self.M = np.asarray(self.M, dtype=float)
        self.R = np.asarray(self.R, dtype=float)
        self.Theta = np.asarray(self.Theta, dtype=float)
        if self.D.ndim != 2 or self.D.shape[0] != self.D.shape[1] or self.D.shape[0] % 2:
            raise DimensionError(f"D must be even square, got {self.D.shape}")
        if not self.D.size:
            raise DimensionError("D must be non-empty: at least one channel pair")
        if self.R.ndim != 2 or self.R.shape[0] != self.R.shape[1] or self.R.shape[0] % 2:
            raise DimensionError(f"R must be even square, got {self.R.shape}")
        if self.Theta.shape != self.R.shape:
            raise DimensionError(
                f"Theta must match R, got {self.Theta.shape} vs {self.R.shape}"
            )
        if self.M.shape != (self.D.shape[0], self.R.shape[0]):
            raise DimensionError(
                f"M must be {self.D.shape[0]}x{self.R.shape[0]}, got {self.M.shape}"
            )

    @property
    def modes(self) -> int:
        return self.R.shape[0] // 2

    @property
    def channels(self) -> int:
        return self.D.shape[0] // 2

    def structure_residuals(self) -> dict:
        return {
            "d_orthogonality": orthogonality_residual(self.D),
            "d_symplectic": symplectic_residual(self.D),
            "r_symmetry": symmetry_residual(self.R),
            "theta_skew_symmetry": skew_symmetry_residual(self.Theta),
        }

    def validate(self) -> dict:
        """Check D orthosymplectic, R symmetric and Theta skew by the structure
        rule and Theta nonsingular; raise on violation, else return the residuals.

        A two-entry memo keyed on D, M, R and Theta serves a repeated
        validation of the same parameters (the builder's and then
        ``pm_to_ac``'s, after ``synthesize``) without the four residuals and
        the SVD of Theta.  Each call returns a fresh dict; a violation is
        found and raised afresh on every call.  An entry of n states keeps the
        key bytes, about 2 n^2 * 8 for R and Theta: 16 MB at 1024 states.
        """
        return dict(_validated_residuals(self.D, self.M, self.R, self.Theta))

    def symmetrized(self) -> "PmParams":
        """Copy with R exactly symmetric and Theta exactly skew."""
        return PmParams(
            self.D.copy(),
            self.M.copy(),
            0.5 * (self.R + self.R.T),
            0.5 * (self.Theta - self.Theta.T),
        )


@_array_memo
def _validated_residuals(d, m, r, theta) -> tuple:
    """``PmParams.validate`` of (D, M, R, Theta), its residuals as items."""
    params = PmParams(d, m, r, theta)
    res = params.structure_residuals()
    _require_structure("position-momentum parameters", res, {
        "d_orthogonality": params.D,
        "d_symplectic": params.D,
        "r_symmetry": params.R,
        "theta_skew_symmetry": params.Theta,
    })
    _require_nonsingular(_min_singular_ratio(params.Theta), "commutation matrix Theta")
    return tuple(res.items())


@dataclass
class AcParams:
    """Annihilation-creation parameters (S, N1, N2, H1, H2, E1, E2)."""

    S: np.ndarray
    N1: np.ndarray
    N2: np.ndarray
    H1: np.ndarray
    H2: np.ndarray
    E1: np.ndarray
    E2: np.ndarray

    def __post_init__(self):
        for name in ("S", "N1", "N2", "H1", "H2", "E1", "E2"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=complex))
        m = self.S.shape[0]
        if self.S.shape != (m, m):
            raise DimensionError(f"S must be square, got {self.S.shape}")
        if not m:
            raise DimensionError("S must be non-empty: at least one channel")
        n = self.H1.shape[0]
        for name in ("H1", "H2", "E1", "E2"):
            if getattr(self, name).shape != (n, n):
                raise DimensionError(
                    f"{name} must be {n}x{n}, got {getattr(self, name).shape}"
                )
        for name in ("N1", "N2"):
            if getattr(self, name).shape != (m, n):
                raise DimensionError(
                    f"{name} must be {m}x{n}, got {getattr(self, name).shape}"
                )

    @property
    def modes(self) -> int:
        return self.H1.shape[0]

    @property
    def channels(self) -> int:
        return self.S.shape[0]

    @property
    def N(self) -> np.ndarray:
        return doubled_up(self.N1, self.N2)

    @property
    def H(self) -> np.ndarray:
        return doubled_up(self.H1, self.H2)

    @property
    def E(self) -> np.ndarray:
        return doubled_up(self.E1, self.E2)

    def theta(self) -> np.ndarray:
        """Complex commutation matrix E bJ E* of the ladder variables."""
        e = self.E
        return e @ bold_j_matrix(2 * self.modes) @ e.conj().T

    def structure_residuals(self) -> dict:
        return {
            "s_unitarity": unitarity_residual(self.S),
            "h1_hermitian": hermitian_residual(self.H1),
            "h2_symmetry": float(np.linalg.norm(self.H2 - self.H2.T)),
            "e_min_singular_ratio": _min_singular_ratio(self.E),
        }

    def validate(self) -> dict:
        """Check S unitary, H1 Hermitian and H2 symmetric by the structure rule
        and E nonsingular; raise on violation, else return the residuals."""
        res = self.structure_residuals()
        _require_structure("annihilation-creation parameters", res, {
            "s_unitarity": self.S,
            "h1_hermitian": self.H1,
            "h2_symmetry": self.H2,
        })
        _require_nonsingular(res["e_min_singular_ratio"], "ladder transformation E")
        return res

    def hermitized(self) -> "AcParams":
        """Copy with H1 exactly Hermitian and H2 exactly symmetric."""
        return AcParams(
            self.S.copy(),
            self.N1.copy(),
            self.N2.copy(),
            0.5 * (self.H1 + self.H1.conj().T),
            0.5 * (self.H2 + self.H2.T),
            self.E1.copy(),
            self.E2.copy(),
        )


@dataclass
class ComplexStateSpace:
    """Complex quadruple (F, G, L, K) acting on doubled-up ladder variables."""

    F: np.ndarray
    G: np.ndarray
    L: np.ndarray
    K: np.ndarray

    def __post_init__(self):
        self.F = np.asarray(self.F, dtype=complex)
        self.G = np.asarray(self.G, dtype=complex)
        self.L = np.asarray(self.L, dtype=complex)
        self.K = np.asarray(self.K, dtype=complex)
        n2 = self.F.shape[0]
        if self.F.shape != (n2, n2):
            raise DimensionError(f"F must be square, got {self.F.shape}")
        if self.G.shape[0] != n2 or self.L.shape[1] != n2:
            raise DimensionError("G/L dimensions do not match F")
        if self.K.shape != (self.L.shape[0], self.G.shape[1]):
            raise DimensionError("K dimensions do not match L and G")

    @property
    def state_dim(self) -> int:
        return self.F.shape[0]

    def structure_residuals(self) -> dict:
        return {
            name: doubled_up_residual(mat)
            for name, mat in (("F", self.F), ("G", self.G), ("L", self.L), ("K", self.K))
        }


def build_pm_realization(params: PmParams) -> StateSpace:
    """Real realization (A, B, C, D) of position-momentum parameters."""
    params.validate()
    p = params.symmetrized()
    j_ch = j_matrix(2 * p.channels)
    theta_inv = np.linalg.inv(p.Theta)
    b = 2.0 * p.Theta @ p.M.T
    bjbt = b @ j_ch @ b.T
    a = 2.0 * p.Theta @ p.R - 0.5 * bjbt @ theta_inv
    c = -p.D @ j_ch @ b.T @ theta_inv
    return StateSpace(a, b, c, p.D.copy())


def build_ac_realization(params: AcParams) -> ComplexStateSpace:
    """Complex realization (F, G, L, K) of annihilation-creation parameters."""
    params.validate()
    p = params.hermitized()
    k = doubled_up(p.S, np.zeros_like(p.S))
    bj_ch = bold_j_matrix(2 * p.channels)
    theta_c = p.theta()
    n_mat = p.N
    f = -1j * theta_c @ p.H - 0.5 * theta_c @ n_mat.conj().T @ bj_ch @ n_mat
    g = -theta_c @ n_mat.conj().T @ bj_ch @ k
    return ComplexStateSpace(f, g, n_mat, k)


def eval_ac_tf(css: ComplexStateSpace, s: complex) -> np.ndarray:
    """Evaluate L (sI - F)^{-1} G + K by the evaluator and near-pole guard of eval_tf."""
    return _evaluate_quadruple(css.F, css.G, css.L, css.K, [s], _eigensystem(css.F))[0]


def ac_to_pm(params: AcParams) -> PmParams:
    """Entrywise conversion to position-momentum parameters.

    D = nabla(S, 0); M = -(1/2) D^T J nabla(N1, N2); R = (1/2) nabla(H1, H2);
    Theta = nabla(E1, E2) J nabla(E1, E2)^T.
    """
    params.validate()
    p = params.hermitized()
    m, n = p.channels, p.modes
    zero_s = np.zeros_like(p.S)
    d = nabla(p.S, zero_s)
    j_ch = j_matrix(2 * m)
    j_state = j_matrix(2 * n)
    m_mat = -0.5 * d.T @ j_ch @ nabla(p.N1, p.N2)
    r = 0.5 * nabla(p.H1, p.H2)
    sigma = nabla(p.E1, p.E2)
    theta = sigma @ j_state @ sigma.T
    return PmParams(d, m_mat, r, theta)


def pm_to_ac(params: PmParams) -> AcParams:
    """Entrywise conversion to annihilation-creation parameters.

    The scattering matrix is the first extracted block of D (the second
    vanishes for orthosymplectic D).  The ladder transformation comes from the
    square-root factorization Theta = Sigma J Sigma^T, so E is one
    deterministic representative of the symplectic gauge class.  For the
    parameters of a ``synthesize`` call, the validation and the ``eigh`` of
    Theta come from the memos that the synthesis filled; parameters seen
    afresh cost an SVD and an ``eigh`` of Theta.
    """
    params.validate()
    p = params.symmetrized()
    m, n = p.channels, p.modes
    d1, d2 = extract_bold_blocks(p.D)
    s = d1
    m1, m2 = extract_bold_blocks(p.M)
    n_mat = -2j * doubled_up(s, np.zeros_like(s)) @ bold_j_matrix(2 * m) @ doubled_up(m1, m2)
    n1, n2 = n_mat[:m, :n], n_mat[:m, n:]
    r1, r2 = extract_bold_blocks(p.R)
    h1, h2 = 2.0 * r1, 2.0 * r2
    sigma = cholesky_like(p.Theta).Sigma
    e1, e2 = extract_bold_blocks(sigma)
    return AcParams(s, n1, n2, h1, h2, e1, e2)
