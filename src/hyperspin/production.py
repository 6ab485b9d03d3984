"""Spin state of a hyperon-antihyperon pair produced via a vector charmonium.

The production state of the two spin-1/2 baryons is fixed by two channel
constants, the charmonium decay parameter ``upsilon_psi`` and the relative
form-factor phase ``delta_theta``, together with the production polar angle
``phi`` between the incoming electron and the outgoing baryon.  The state is
built in three equivalent representations:

* the polarization/correlation matrix ``phi_matrix`` (normalization slot,
  transverse polarization, and the spin-correlation block),
* the diagonalized X-state parameters ``(kappa, gamma1, gamma2, gamma3)``,
* the 4x4 density matrix in the sigma_z product basis.

The closed-form diagonalization uses the radicand

    (1 + upsilon*cos(2*phi))**2 - (1 - upsilon**2)*sin(delta_theta)**2*sin(2*phi)**2

which is what the analytic eigenvalue problem of the correlation block
yields; ``numeric_xstate_params`` re-derives the same numbers from a dense
eigensolver and is kept as a permanent cross-check.

The closed forms run on ``math`` alone.  numpy is imported by the matrix
representations only, when they are called: the validated constructor
``DensityMatrix4(matrix)``, ``DensityMatrix4.matrix``, ``phi_matrix`` and
``numeric_xstate_params``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Any

from .errors import (
    DomainError,
    NegativeDiscriminantError,
    NotXStateError,
    UnknownChannelError,
)

if TYPE_CHECKING:
    from .linalg import Array

PHI_ATOL = 1e-12
DISCRIMINANT_ATOL = 1e-12
XSHAPE_ATOL = 1e-12
TRACE_ATOL = 1e-10
PSD_ATOL = 1e-9

# Zero-based (row, col) slots of the off-X entries of a 4x4 matrix.
OFF_X_SLOTS = ((0, 1), (0, 2), (1, 0), (2, 0), (1, 3), (3, 1), (2, 3), (3, 2))


@dataclass(frozen=True)
class HyperonChannel:
    """One e+e- -> J/psi -> Y Ybar production channel.

    ``upsilon_psi`` is the decay parameter of the vector charmonium and
    ``delta_theta`` the relative form-factor phase, in radians.
    """

    name: str
    upsilon_psi: float
    delta_theta: float

    def __post_init__(self) -> None:
        for name, bound, domain in (
            ("upsilon_psi", 1.0, "[-1, 1]"),
            ("delta_theta", math.pi, "[-pi, pi]"),
        ):
            value = getattr(self, name)
            try:
                if not -bound <= value <= bound:
                    raise DomainError(f"{name} must be in {domain}, got {value}")
            except (TypeError, ValueError):
                # It does not compare with a float, or gives no one truth value.
                raise DomainError(f"{name} must be a real number, got {value!r}") from None
        # The phi-free leading factors of the polarization numerator and of
        # the radicand's second term, computed once per channel.  Each is the
        # left-most factor of its left-to-right product, so the products keep
        # their bits.  Instance attributes, not fields: equality, hash and
        # repr see the three fields only.
        u = self.upsilon_psi
        d = self.__dict__
        d["_polarization_scale"] = math.sqrt(1.0 - u**2) * math.sin(self.delta_theta)
        d["_radicand_scale"] = (1.0 - u**2) * math.sin(self.delta_theta) ** 2


#: Measured central values per channel; uncertainties are not modeled.
CHANNELS: dict[str, HyperonChannel] = {
    "lambda": HyperonChannel("lambda", 0.475, 0.752),
    "sigma+": HyperonChannel("sigma+", -0.508, -0.270),
    "xi-": HyperonChannel("xi-", 0.586, 1.213),
    "xi0": HyperonChannel("xi0", 0.514, 1.168),
}


def channel_params(name: str) -> HyperonChannel:
    """Look up a registered channel by its lower-case name.

    Raises
    ------
    UnknownChannelError
        For names outside {lambda, sigma+, xi-, xi0}, unhashable ones included.
    """
    try:
        return CHANNELS[name]
    except (KeyError, TypeError):
        raise UnknownChannelError(
            f"unknown channel {name!r}; registered: {sorted(CHANNELS)}"
        ) from None


@dataclass(frozen=True)
class XStateParams:
    """Diagonalized spin-correlation representation of the production state."""

    kappa: float
    gamma1: float
    gamma2: float
    gamma3: float

    def __post_init__(self) -> None:
        tol = 1e-9
        if not abs(self.kappa) <= 1.0 + tol:
            raise DomainError(f"|kappa| must be <= 1, got {self.kappa}")
        for g in (self.gamma1, self.gamma2, self.gamma3):
            if not abs(g) <= 1.0 + tol:
                raise DomainError(f"|gamma_i| must be <= 1, got {g}")
        if self.gamma1 < self.gamma2 - 1e-12:
            raise DomainError(
                f"gamma1 must carry the '+' branch: {self.gamma1} < {self.gamma2}"
            )


def _check_trace(trace: complex) -> None:
    if abs(trace - 1.0) > TRACE_ATOL:
        raise DomainError(f"density matrix trace must be 1, got {complex(trace):.12g}")


def _check_blocks(
    r11: float, r22: float, r33: float, r44: float, r14: complex, r23: complex
) -> None:
    # PSD of an X matrix reduces to its two 2x2 blocks.
    for a, d, w in ((r11, r44, r14), (r22, r33, r23)):
        lo = 0.5 * (a + d) - math.hypot(0.5 * (a - d), abs(w))
        if lo < -PSD_ATOL:
            raise DomainError(f"density matrix has eigenvalue {lo:.3e} < 0")


class DensityMatrix4:
    """4x4 Hermitian unit-trace positive X-shaped density matrix.

    The six X entries are the state: ``rho11``..``rho44`` are the real
    parts of the diagonal (``float``), ``rho14`` and ``rho23`` the upper
    anti-diagonal entries (``complex``).  ``matrix``, the read-only complex
    4x4 array, is derived from them and built on first read: zero off the
    X, with the lower anti-diagonal the conjugate of the upper one (a real
    entry is its own conjugate and keeps its ``+0.0`` imaginary part).
    Only the matrix oracles (``kraus_apply``, ``steering_operator``, the
    self-check) read it.

    The validated constructor checks the whole matrix it is given: off-X
    entries within ``XSHAPE_ATOL`` and a deviation from Hermiticity within
    ``HERMITICITY_ATOL`` pass.  It then keeps the six X entries and drops
    the array, so that sub-tolerance noise is not part of the state.
    ``density_matrix`` and ``dephase`` build states from their entries
    (``_of_entries``).  Instances are immutable.
    """

    rho11: float
    rho22: float
    rho33: float
    rho44: float
    rho14: complex
    rho23: complex

    def __init__(self, matrix: Any) -> None:
        import numpy as np

        from .linalg import HERMITICITY_ATOL, as_matrix, is_hermitian

        m = as_matrix(matrix, 4)
        # A modulus past the float range is inf, so it still fails its check.
        with np.errstate(over="ignore", invalid="ignore"):
            if not is_hermitian(m):
                raise DomainError(f"density matrix must be Hermitian within {HERMITICITY_ATOL:g}")
            _check_trace(m.trace())
            for i, j in OFF_X_SLOTS:
                if abs(m[i, j]) > XSHAPE_ATOL:
                    raise NotXStateError(f"entry ({i},{j}) = {m[i, j]:.3e} breaks the X pattern")
            r = m.diagonal().real
            _check_blocks(r[0], r[1], r[2], r[3], m[0, 3], m[1, 2])
        e = m.ravel().tolist()
        # Written to the instance dict, past the immutability guard.
        d = self.__dict__
        d["rho11"] = e[0].real
        d["rho22"] = e[5].real
        d["rho33"] = e[10].real
        d["rho44"] = e[15].real
        d["rho14"] = e[3]
        d["rho23"] = e[6]

    def __setattr__(self, name: str, value: Any) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    @classmethod
    def _of_entries(
        cls, r11: float, r22: float, r33: float, r44: float, r14: complex, r23: complex
    ) -> "DensityMatrix4":
        """The state with these X entries, unchecked.

        ``r11``..``r44`` must be ``float`` and ``r14``, ``r23`` ``complex``;
        the caller guarantees the trace and positivity (``_checked_entries``
        checks them).
        """
        obj = object.__new__(cls)
        d = obj.__dict__
        d["rho11"] = r11
        d["rho22"] = r22
        d["rho33"] = r33
        d["rho44"] = r44
        d["rho14"] = r14
        d["rho23"] = r23
        return obj

    @classmethod
    def _checked_entries(
        cls, r11: float, r22: float, r33: float, r44: float, r14: complex, r23: complex
    ) -> "DensityMatrix4":
        """``_of_entries`` after the finite, trace and positivity checks of the
        validated constructor, with the same errors; the other checks hold
        by construction."""
        if not all(map(cmath.isfinite, (r11, r22, r33, r44, r14, r23))):
            raise DomainError("matrix entries must be finite")
        # numpy's pairwise order, as for a matrix.
        _check_trace((r11 + r22) + (r33 + r44))
        _check_blocks(r11, r22, r33, r44, r14, r23)
        return cls._of_entries(r11, r22, r33, r44, r14, r23)

    @cached_property
    def matrix(self) -> Array:
        """The state as a read-only complex 4x4 array in the sigma_z product basis."""
        import numpy as np

        m = np.zeros((4, 4), dtype=complex)
        m[0, 0] = self.rho11
        m[1, 1] = self.rho22
        m[2, 2] = self.rho33
        m[3, 3] = self.rho44
        for (i, j), w in (((0, 3), self.rho14), ((1, 2), self.rho23)):
            m[i, j] = w
            m[j, i] = w.conjugate() if w.imag else w
        m.setflags(write=False)
        return m


def _check_phi(phi: float) -> float:
    try:
        inside = -PHI_ATOL <= phi <= math.pi + PHI_ATOL
    except (TypeError, ValueError):
        # It does not compare with a float, or gives no one truth value.
        raise DomainError(f"phi must be a real number, got {phi!r}") from None
    if not inside:
        raise DomainError(f"phi must be in [0, pi], got {phi}")
    return float(phi)


def _denominator(ch: HyperonChannel, phi: float, cos_phi: float) -> float:
    den = 1.0 + ch.upsilon_psi * cos_phi**2
    # 1 + u*cos^2 >= 1 - |u| > 0 for every registered channel; only an
    # upsilon_psi near -1 reaches the degenerate case.
    if not den > 0.01:
        raise DomainError(f"degenerate denominator {den} for {ch.name} at phi={phi}")
    return den


def polarization(ch: HyperonChannel, phi: float) -> float:
    """Transverse polarization of either baryon, normal to the production plane."""
    phi = _check_phi(phi)
    s, c = math.sin(phi), math.cos(phi)
    return _polarization(ch, s, c, _denominator(ch, phi, c))


def _polarization(ch: HyperonChannel, sin_phi: float, cos_phi: float, den: float) -> float:
    # sqrt(1 - u**2) * sin(delta_theta) * sin(phi) * cos(phi) / den
    return ch._polarization_scale * sin_phi * cos_phi / den


def phi_matrix(ch: HyperonChannel, phi: float) -> Array:
    """Polarization/correlation matrix of the produced pair (pre-swap axes).

    Row/column 0 is the normalization slot; the only populated entries are
    the transverse polarizations and the xx, yy, zz, xz=zx correlations.
    """
    import numpy as np

    phi = _check_phi(phi)
    u = ch.upsilon_psi
    s, c = math.sin(phi), math.cos(phi)
    den = _denominator(ch, phi, c)
    sc = s * c
    p_y = math.sqrt(1.0 - u**2) * math.sin(ch.delta_theta) * sc / den
    c_xx = s**2 / den
    c_yy = -u * s**2 / den
    c_zz = (u + c**2) / den
    c_xz = math.sqrt(1.0 - u**2) * math.cos(ch.delta_theta) * sc / den
    out = np.zeros((4, 4))
    out[0, 0] = 1.0
    out[0, 2] = p_y
    out[2, 0] = p_y
    out[1, 1] = c_xx
    out[2, 2] = c_yy
    out[3, 3] = c_zz
    out[1, 3] = c_xz
    out[3, 1] = c_xz
    return out


def _radicand(ch: HyperonChannel, phi: float) -> float:
    # (1 + u*cos(2*phi))**2 - (1 - u**2) * sin(delta_theta)**2 * sin(2*phi)**2
    rad = (1.0 + ch.upsilon_psi * math.cos(2.0 * phi)) ** 2
    rad -= ch._radicand_scale * math.sin(2.0 * phi) ** 2
    if rad < -DISCRIMINANT_ATOL:
        raise NegativeDiscriminantError(
            f"radicand {rad:.3e} < 0 at phi={phi} for channel {ch.name}"
        )
    return max(rad, 0.0)


def xstate_params(ch: HyperonChannel, phi: float) -> XStateParams:
    """Closed-form X-state parameters of the production state.

    ``kappa`` is the shared longitudinal polarization after the axis swap,
    ``gamma1/gamma2`` the eigenvalues of the in-plane correlation block
    (gamma1 on the '+' branch), and ``gamma3`` the out-of-plane correlation.
    """
    phi = _check_phi(phi)
    u = ch.upsilon_psi
    s, c = math.sin(phi), math.cos(phi)
    den = _denominator(ch, phi, c)
    root = math.sqrt(_radicand(ch, phi))
    g1 = (1.0 + u + root) / (2.0 * den)
    g2 = (1.0 + u - root) / (2.0 * den)
    g3 = -u * s**2 / den
    return XStateParams(_polarization(ch, s, c, den), g1, g2, g3)


def numeric_xstate_params(ch: HyperonChannel, phi: float) -> XStateParams:
    """X-state parameters via dense diagonalization of the correlation block.

    Independent cross-check for :func:`xstate_params`: reads gamma1/gamma2
    off a numeric eigensolver instead of the closed form, and relabels the
    out-of-plane yy correlation as gamma3.
    """
    import numpy as np

    phi = _check_phi(phi)
    f = phi_matrix(ch, phi)
    block = np.array([[f[1, 1], f[1, 3]], [f[3, 1], f[3, 3]]])
    lo, hi = np.linalg.eigvalsh(block)
    return XStateParams(f[0, 2], float(hi), float(lo), float(f[2, 2]))


def density_matrix(ch: HyperonChannel, phi: float) -> DensityMatrix4:
    """Production-state density matrix in the sigma_z product basis.

    The result is an X state of rank 2: the inner block has equal diagonal
    and off-diagonal entries, and the corner block satisfies
    ``rho11*rho44 == rho14**2``.
    """
    phi = _check_phi(phi)
    u = ch.upsilon_psi
    s, c = math.sin(phi), math.cos(phi)
    den = _denominator(ch, phi, c)
    p_y = _polarization(ch, s, c, den)
    g3 = -u * s**2 / den
    r11 = 0.25 * (1.0 + 2.0 * p_y + g3)
    r44 = 0.25 * (1.0 - 2.0 * p_y + g3)
    r22 = (1.0 + u) / (4.0 * den)
    r14 = math.sqrt(_radicand(ch, phi)) / (4.0 * den)
    return DensityMatrix4._checked_entries(r11, r22, r22, r44, complex(r14), complex(r22))
