"""Structured constant matrices, residual-based matrix-group predicates, and
the two rules by which the package refuses a matrix: one for a structure
residual (orthogonality, symmetry, skew symmetry, ...) and one for a singular
matrix.

Conventions: a dimension-2k quadrature vector is ordered as k positions
followed by k momenta, so the symplectic form is the block matrix
[[0, I], [-I, 0]].  The doubled-up complex form stacks k annihilation
entries on top of their k creation partners.  Zero is an even size: with
k = 0 the structured matrices are 0x0, so systems without dynamics and
parameter sets without modes take the same formulas as every other size.
"""

import numpy as np

from .errors import DimensionError, SingularMatrixError, StructureError

__all__ = [
    "j_matrix",
    "bold_j_matrix",
    "t_matrix",
    "doubled_up",
    "nabla",
    "extract_bold_blocks",
    "orthogonality_residual",
    "unitarity_residual",
    "symplectic_residual",
    "skew_symmetry_residual",
    "symmetry_residual",
    "hermitian_residual",
    "doubled_up_residual",
]


# Every structure decision of the package: a residual of the matrix X is
# accepted up to STRUCTURE_ABSOLUTE + STRUCTURE_RELATIVE * ||X||_F.
STRUCTURE_ABSOLUTE = 1e-10
STRUCTURE_RELATIVE = 1e-8

# Every invertibility decision of the package: a smallest/largest singular-value
# ratio at or below this makes a matrix singular to working precision (the SVD
# numerical-rank test, Golub and Van Loan, Matrix Computations, 4th ed., 5.4.1).
SINGULARITY_CUTOFF = 1e-12

_fro = np.linalg.norm


def _structure_bound(mat) -> float:
    """Largest structure residual accepted for the matrix ``mat``."""
    return STRUCTURE_ABSOLUTE + STRUCTURE_RELATIVE * float(_fro(mat))


def _require_structure(name: str, residuals: dict, matrices: dict) -> None:
    """Refuse ``name`` when the residual under a key of ``matrices`` exceeds the
    bound of the matrix there; the StructureError carries all ``residuals``."""
    bounds = {key: _structure_bound(mat) for key, mat in matrices.items()}
    failures = [f"{key} residual {residuals[key]:.3e} above bound {bound:.3e}"
                for key, bound in bounds.items() if not residuals[key] <= bound]
    if failures:
        raise StructureError(f"invalid {name}: " + ", ".join(failures), residuals)


def _min_singular_ratio(x) -> float:
    """Smallest/largest singular value of the matrix ``x``, or of ``x`` itself if
    1-d (singular values, descending); inf when empty, 0 when the largest is 0."""
    if x.size == 0:
        return np.inf
    sv = x if x.ndim == 1 else np.linalg.svd(x, compute_uv=False)
    return float(sv[-1] / sv[0]) if sv[0] > 0 else 0.0


def _require_nonsingular(ratio: float, name: str) -> None:
    """Refuse the matrix ``name`` by its smallest/largest singular-value ratio."""
    if not ratio > SINGULARITY_CUTOFF:
        raise SingularMatrixError(
            f"{name} is singular to working precision "
            f"(smallest/largest singular value {ratio:.3e})"
        )


def _require_even(r: int, name: str) -> int:
    r = int(r)
    if r < 0 or r % 2:
        raise DimensionError(f"{name} requires a non-negative even dimension, got {r}")
    return r


def _require_square(mat: np.ndarray, name: str) -> np.ndarray:
    mat = np.asarray(mat)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {mat.shape}")
    return mat


def j_matrix(r: int) -> np.ndarray:
    """Canonical symplectic form of even dimension r: [[0, I], [-I, 0]]."""
    r = _require_even(r, "j_matrix")
    h = r // 2
    out = np.zeros((r, r))
    out[:h, h:] = np.eye(h)
    out[h:, :h] = -np.eye(h)  # -0.0 off the diagonal, as the Kronecker product has
    return out


def bold_j_matrix(r: int) -> np.ndarray:
    """Signature matrix diag(I, -I) of even dimension r."""
    r = _require_even(r, "bold_j_matrix")
    h = r // 2
    out = np.zeros((r, r))
    out[:h, :h] = np.eye(h)
    out[h:, h:] = -np.eye(h)
    return out


def t_matrix(k: int) -> np.ndarray:
    """Quadrature-to-ladder change of basis of even dimension k.

    Satisfies T T* = 2 I and (1/2) T diag(I, -I) T* = i [[0, I], [-I, 0]].
    """
    k = _require_even(k, "t_matrix")
    h = k // 2
    out = np.zeros((k, k), dtype=complex)
    out[:h, :h] = out[:h, h:] = np.eye(h)
    out[h:, :h] = -1.0j * np.eye(h)
    out[h:, h:] = 1.0j * np.eye(h)
    return out


def doubled_up(x1, x2) -> np.ndarray:
    """Stack (x1, x2) into the doubled-up block form [[x1, x2], [conj x2, conj x1]]."""
    x1 = np.atleast_2d(np.asarray(x1, dtype=complex))
    x2 = np.atleast_2d(np.asarray(x2, dtype=complex))
    if x1.shape != x2.shape:
        raise DimensionError(
            f"doubled_up blocks must share a shape, got {x1.shape} and {x2.shape}"
        )
    return np.block([[x1, x2], [x2.conj(), x1.conj()]])


def nabla(x1, x2) -> np.ndarray:
    """Real quadrature form of a doubled-up pair.

    Returns [[Re(x1+x2), -Im(x1-x2)], [Im(x1+x2), Re(x1-x2)]], which equals
    (1/2) T (doubled_up(x1, x2)) T* with the appropriately sized T factors.
    """
    x1 = np.atleast_2d(np.asarray(x1, dtype=complex))
    x2 = np.atleast_2d(np.asarray(x2, dtype=complex))
    if x1.shape != x2.shape:
        raise DimensionError(
            f"nabla blocks must share a shape, got {x1.shape} and {x2.shape}"
        )
    plus = x1 + x2
    minus = x1 - x2
    return np.block([[plus.real, -minus.imag], [plus.imag, minus.real]])


def extract_bold_blocks(x) -> tuple[np.ndarray, np.ndarray]:
    """Invert :func:`nabla`: recover the complex pair from a real 2j x 2k matrix."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] % 2 or x.shape[1] % 2:
        raise DimensionError(
            f"extract_bold_blocks needs an even-by-even matrix, got shape {x.shape}"
        )
    j, k = x.shape[0] // 2, x.shape[1] // 2
    x11, x12 = x[:j, :k], x[:j, k:]
    x21, x22 = x[j:, :k], x[j:, k:]
    first = 0.5 * (x11 + x22) + 0.5j * (x21 - x12)
    second = 0.5 * (x11 - x22) + 0.5j * (x21 + x12)
    return first, second


def _real_or_complex(mat) -> np.ndarray:
    """``mat`` as float64, or complex128 if complex: no imaginary part is dropped."""
    mat = np.asarray(mat)
    return mat.astype(np.result_type(mat, float), copy=False)


def orthogonality_residual(mat) -> float:
    mat = _require_square(_real_or_complex(mat), "orthogonality_residual")
    return float(_fro(mat.T @ mat - np.eye(mat.shape[0])))


def unitarity_residual(mat) -> float:
    mat = _require_square(np.asarray(mat, dtype=complex), "unitarity_residual")
    return float(_fro(mat.conj().T @ mat - np.eye(mat.shape[0])))


def symplectic_residual(mat) -> float:
    mat = _require_square(_real_or_complex(mat), "symplectic_residual")
    j = j_matrix(mat.shape[0])
    return float(_fro(mat.T @ j @ mat - j))


def skew_symmetry_residual(mat) -> float:
    mat = _require_square(np.asarray(mat), "skew_symmetry_residual")
    return float(_fro(mat + mat.T))


def symmetry_residual(mat) -> float:
    mat = _require_square(np.asarray(mat), "symmetry_residual")
    return float(_fro(mat - mat.T))


def hermitian_residual(mat) -> float:
    mat = _require_square(np.asarray(mat, dtype=complex), "hermitian_residual")
    return float(_fro(mat - mat.conj().T))


def doubled_up_residual(mat) -> float:
    """Distance from the doubled-up block pattern (lower blocks conjugate the upper)."""
    mat = np.asarray(mat, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] % 2 or mat.shape[1] % 2:
        raise DimensionError(
            f"doubled_up_residual needs an even-by-even matrix, got shape {mat.shape}"
        )
    j, k = mat.shape[0] // 2, mat.shape[1] // 2
    return float(_fro(mat - doubled_up(mat[:j, :k], mat[:j, k:])))
