"""Dense complex matrix algebra for 2x2 and 4x4 matrices.

Everything here is a pure function over small numpy arrays.  The whole
problem lives in dimension 4 (two qubits), so no general N-dimensional
machinery is provided: fixed sizes keep every routine exhaustively
testable.  All inputs are O(1) in magnitude, so tolerances are absolute.

Only the matrix oracles use this module, and they import it when they are
called, so the scalar closed forms, ``import hyperspin`` and ``hyperspin
measure`` load neither it nor numpy.
"""

from __future__ import annotations

from typing import Literal

import numpy as np

from .errors import DomainError, NotHermitianError

Array = np.ndarray

HERMITICITY_ATOL = 1e-10

# Pauli matrices in the standard convention (sigma_y with -i/+i off-diagonal)
# plus the 2x2 identity as index 0.
SIGMA_0 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULI = (SIGMA_0, SIGMA_X, SIGMA_Y, SIGMA_Z)

for _m in PAULI:
    _m.setflags(write=False)


def as_matrix(m: Array, dim: int, dtype: type = complex) -> Array:
    """Validate and return ``m`` as a (dim, dim) array of ``dtype`` with finite entries."""
    try:
        out = np.asarray(m, dtype=dtype)
    except (TypeError, ValueError):
        raise DomainError(
            f"expected a {dim}x{dim} matrix, got a non-numeric or ragged {type(m).__name__}"
        ) from None
    except OverflowError:
        # A Python int past the float range.
        raise DomainError("matrix entry too large to convert to a float") from None
    if out.shape != (dim, dim):
        raise DomainError(f"expected a {dim}x{dim} matrix, got shape {out.shape}")
    if not np.all(np.isfinite(out)):
        raise DomainError("matrix entries must be finite")
    return out


def is_hermitian(m: Array, atol: float = HERMITICITY_ATOL) -> bool:
    """True if max-entry deviation from the adjoint is below ``atol``."""
    m = np.asarray(m)
    return bool(np.max(np.abs(m - m.conj().T)) <= atol)


def hermitian_eigenvalues(m: Array, atol: float = HERMITICITY_ATOL) -> Array:
    """Real eigenvalues of a Hermitian 4x4 matrix, sorted descending.

    Raises
    ------
    NotHermitianError
        If any entry of ``m - m^dagger`` exceeds ``atol`` in magnitude.
    """
    m = as_matrix(m, 4)
    if not is_hermitian(m, atol):
        raise NotHermitianError(
            f"matrix deviates from Hermitian by {np.max(np.abs(m - m.conj().T)):.3e}"
        )
    return np.sort(np.linalg.eigvalsh(m))[::-1]


def partial_trace(rho: Array, keep: Literal["first", "second"]) -> Array:
    """Trace out one qubit of a 4x4 two-qubit operator.

    Parameters
    ----------
    rho:
        4x4 matrix on the tensor product (first qubit) x (second qubit).
    keep:
        Which subsystem the returned 2x2 matrix describes.
    """
    rho = as_matrix(rho, 4)
    r = rho.reshape(2, 2, 2, 2)
    if keep == "first":
        return np.einsum("ikjk->ij", r)
    if keep == "second":
        return np.einsum("kikj->ij", r)
    raise DomainError(f"keep must be 'first' or 'second', got {keep!r}")
