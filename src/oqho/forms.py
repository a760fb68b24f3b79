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
and the realizations are conjugate under the ladder change of basis T.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, SingularMatrixError, StructureError
from .skewfactor import cholesky_like
from .statespace import StateSpace, _evaluate_quadruple
from .structured import (
    StructureTolerance,
    bold_j_matrix,
    doubled_up,
    extract_bold_blocks,
    hermitian_residual,
    j_matrix,
    nabla,
    orthogonality_residual,
    skew_symmetry_residual,
    symmetry_residual,
    symplectic_residual,
    t_matrix,
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
    "eval_conjugate_ac_tf",
    "ac_to_pm",
    "pm_to_ac",
    "pm_to_ac_realization_consistency",
]


def ito_matrix(m: int) -> np.ndarray:
    """Quantum Ito matrix of m field channels: I + i J (eigenvalues 0 and 2)."""
    if m < 1:
        raise DimensionError(f"ito_matrix needs at least one channel, got {m}")
    return np.eye(2 * m) + 1j * j_matrix(2 * m)


def _min_singular_ratio(mat: np.ndarray) -> float:
    if mat.size == 0:
        return np.inf
    sv = np.linalg.svd(mat, compute_uv=False)
    return float(sv[-1] / sv[0]) if sv[0] > 0 else 0.0


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

    def validate(self, tol=None) -> dict:
        """Residual-checked invariants; raises on violation, returns the residuals."""
        tol = StructureTolerance.coerce(tol)
        res = self.structure_residuals()
        scales = {
            "d_orthogonality": np.linalg.norm(self.D),
            "d_symplectic": np.linalg.norm(self.D),
            "r_symmetry": np.linalg.norm(self.R),
            "theta_skew_symmetry": np.linalg.norm(self.Theta),
        }
        bad = {k: v for k, v in res.items() if not tol.accepts(v, scales[k])}
        if bad:
            raise StructureError(
                "invalid position-momentum parameters: "
                + ", ".join(f"{k} residual {v:.3e}" for k, v in bad.items()),
                res,
            )
        if self.modes and _min_singular_ratio(self.Theta) <= 1e-12:
            raise SingularMatrixError("commutation matrix Theta is singular")
        return res

    def symmetrized(self) -> "PmParams":
        """Copy with R exactly symmetric and Theta exactly skew."""
        return PmParams(
            self.D.copy(),
            self.M.copy(),
            0.5 * (self.R + self.R.T),
            0.5 * (self.Theta - self.Theta.T),
        )


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
        if self.modes == 0:
            return np.zeros((0, 0), dtype=complex)
        e = self.E
        return e @ bold_j_matrix(2 * self.modes) @ e.conj().T

    def structure_residuals(self) -> dict:
        res = {
            "s_unitarity": unitarity_residual(self.S),
            "h1_hermitian": hermitian_residual(self.H1) if self.modes else 0.0,
            "h2_symmetry": float(np.linalg.norm(self.H2 - self.H2.T)),
        }
        res["e_min_singular_ratio"] = _min_singular_ratio(self.E) if self.modes else np.inf
        return res

    def validate(self, tol=None) -> dict:
        tol = StructureTolerance.coerce(tol)
        res = self.structure_residuals()
        scales = {
            "s_unitarity": np.linalg.norm(self.S),
            "h1_hermitian": np.linalg.norm(self.H1),
            "h2_symmetry": np.linalg.norm(self.H2),
        }
        bad = {
            k: v
            for k, v in res.items()
            if k in scales and not tol.accepts(v, scales[k])
        }
        if bad:
            raise StructureError(
                "invalid annihilation-creation parameters: "
                + ", ".join(f"{k} residual {v:.3e}" for k, v in bad.items()),
                res,
            )
        if self.modes and res["e_min_singular_ratio"] <= 1e-12:
            raise SingularMatrixError("ladder transformation E is singular")
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
        from .structured import doubled_up_residual

        return {
            name: doubled_up_residual(mat) if mat.size else 0.0
            for name, mat in (("F", self.F), ("G", self.G), ("L", self.L), ("K", self.K))
        }


def _validated_pm(params: PmParams, tol) -> PmParams:
    params.validate(tol)
    return params.symmetrized()


def build_pm_realization(params: PmParams, tol=None) -> StateSpace:
    """Real realization (A, B, C, D) of position-momentum parameters."""
    p = _validated_pm(params, tol)
    if p.modes == 0:
        return StateSpace.static(p.D)
    j_ch = j_matrix(2 * p.channels)
    theta_inv = np.linalg.inv(p.Theta)
    b = 2.0 * p.Theta @ p.M.T
    bjbt = b @ j_ch @ b.T
    a = 2.0 * p.Theta @ p.R - 0.5 * bjbt @ theta_inv
    c = -p.D @ j_ch @ b.T @ theta_inv
    return StateSpace(a, b, c, p.D.copy())


def build_ac_realization(params: AcParams, tol=None) -> ComplexStateSpace:
    """Complex realization (F, G, L, K) of annihilation-creation parameters."""
    params.validate(tol)
    p = params.hermitized()
    m = p.channels
    k = doubled_up(p.S, np.zeros_like(p.S))
    if p.modes == 0:
        z = np.zeros((0, 0), dtype=complex)
        return ComplexStateSpace(z, np.zeros((0, 2 * m), dtype=complex),
                                 np.zeros((2 * m, 0), dtype=complex), k)
    bj_ch = bold_j_matrix(2 * m)
    theta_c = p.theta()
    n_mat = p.N
    f = -1j * theta_c @ p.H - 0.5 * theta_c @ n_mat.conj().T @ bj_ch @ n_mat
    g = -theta_c @ n_mat.conj().T @ bj_ch @ k
    return ComplexStateSpace(f, g, n_mat, k)


def eval_ac_tf(css: ComplexStateSpace, s: complex) -> np.ndarray:
    """Evaluate L (sI - F)^{-1} G + K by the evaluator and near-pole guard of eval_tf."""
    return _evaluate_quadruple(css.F, css.G, css.L, css.K, [s])[0]


def eval_conjugate_ac_tf(css: ComplexStateSpace, s: complex) -> np.ndarray:
    return eval_ac_tf(css, -np.conj(complex(s))).conj().T


def ac_to_pm(params: AcParams, tol=None) -> PmParams:
    """Entrywise conversion to position-momentum parameters.

    D = nabla(S, 0); M = -(1/2) D^T J nabla(N1, N2); R = (1/2) nabla(H1, H2);
    Theta = nabla(E1, E2) J nabla(E1, E2)^T.
    """
    params.validate(tol)
    p = params.hermitized()
    m, n = p.channels, p.modes
    zero_s = np.zeros_like(p.S)
    d = nabla(p.S, zero_s)
    if n == 0:
        return PmParams(d, np.zeros((2 * m, 0)), np.zeros((0, 0)), np.zeros((0, 0)))
    j_ch = j_matrix(2 * m)
    j_state = j_matrix(2 * n)
    m_mat = -0.5 * d.T @ j_ch @ nabla(p.N1, p.N2)
    r = 0.5 * nabla(p.H1, p.H2)
    sigma = nabla(p.E1, p.E2)
    theta = sigma @ j_state @ sigma.T
    return PmParams(d, m_mat, r, theta)


def pm_to_ac(params: PmParams, tol=None) -> AcParams:
    """Entrywise conversion to annihilation-creation parameters.

    The scattering matrix is the first extracted block of D (the second
    vanishes for orthosymplectic D).  The ladder transformation comes from the
    square-root factorization Theta = Sigma J Sigma^T, so E is one
    deterministic representative of the symplectic gauge class.
    """
    p = _validated_pm(params, tol)
    m, n = p.channels, p.modes
    d1, d2 = extract_bold_blocks(p.D)
    s = d1
    if n == 0:
        zmn = np.zeros((m, 0), dtype=complex)
        z = np.zeros((0, 0), dtype=complex)
        return AcParams(s, zmn, zmn, z, z, z, z)
    m1, m2 = extract_bold_blocks(p.M)
    n_mat = -2j * doubled_up(s, np.zeros_like(s)) @ bold_j_matrix(2 * m) @ doubled_up(m1, m2)
    n1, n2 = n_mat[:m, :n], n_mat[:m, n:]
    r1, r2 = extract_bold_blocks(p.R)
    h1, h2 = 2.0 * r1, 2.0 * r2
    sigma = cholesky_like(p.Theta, tol).Sigma
    e1, e2 = extract_bold_blocks(sigma)
    return AcParams(s, n1, n2, h1, h2, e1, e2)


def pm_to_ac_realization_consistency(params: PmParams, tol=None) -> float:
    """Largest block residual between the two realizations under the T conjugation.

    Builds the real quadruple from ``params`` and the complex quadruple from
    the converted parameters, then checks A = (1/2) T F T*, B = (1/2) T G T*,
    C = (1/2) T L T*, D = (1/2) T K T* with state/channel-sized T factors.
    """
    real = build_pm_realization(params, tol)
    css = build_ac_realization(pm_to_ac(params, tol), tol)
    n2, m2 = real.state_dim, real.num_outputs
    t_ch = t_matrix(m2)
    pairs = [(real.D.astype(complex), 0.5 * t_ch @ css.K @ t_ch.conj().T)]
    if n2:
        t_st = t_matrix(n2)
        pairs.extend(
            [
                (real.A.astype(complex), 0.5 * t_st @ css.F @ t_st.conj().T),
                (real.B.astype(complex), 0.5 * t_st @ css.G @ t_ch.conj().T),
                (real.C.astype(complex), 0.5 * t_ch @ css.L @ t_st.conj().T),
            ]
        )
    return max(float(np.linalg.norm(x - y)) for x, y in pairs)
