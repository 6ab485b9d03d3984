"""Classically correlated two-qubit dephasing channel.

Both qubits see the same random-telegraph phase noise; consecutive
applications of the single-qubit channel share a classical correlation
``mu`` (0 independent, 1 perfectly correlated).  The ensemble-averaged
telegraph kernel ``K(t)`` fixes the single-qubit flip probability
``p = (1 - K)/2``; together with ``mu`` this yields the joint Kraus
probabilities and, for X states, the single closed-form survival factor

    eta = K(t)**2 + (1 - K(t)**2) * mu

multiplying the two anti-diagonal entries.

Kernel conventions.  With ``u = 1/(2*tau)`` and ``v = sqrt(|u*u - 1|)`` the
damped-oscillator pairings are used: cos/sin for ``4*tau > 1`` and
cosh/sinh for ``4*tau < 1``, both with coefficient ``u/v``.  These are the
only pairings compatible with K(0) = 1, K'(0) = 0 and |K| <= 1, i.e. with
``p`` staying a probability; see docs/errata.md for the variants they
replace and the numbers that change.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from .errors import DomainError, InvalidKernelError, NegativeTimeError, _check_domain, _not_real
from .production import DensityMatrix4

if TYPE_CHECKING:
    from .linalg import Array

BOUNDARY_ATOL = 1e-9
KERNEL_LIMIT_V = 1e-6
PROB_ATOL = 1e-12


def _outside_unit(value: Any) -> bool:
    return not 0.0 <= value <= 1.0


def _tau_outside(tau: Any) -> bool:
    return not 0.0 < tau < math.inf


class Regime(enum.Enum):
    """Dephasing regime, decided by the sign of 4*tau - 1."""

    MARKOVIAN = "markovian"
    NON_MARKOVIAN = "non_markovian"
    BOUNDARY = "boundary"


@dataclass(frozen=True)
class ChannelConfig:
    """Channel parameters: correlation strength ``mu`` and time constant ``tau``."""

    mu: float
    tau: float

    #: Decided once, from ``tau``, when the config is built.
    regime: Regime = field(init=False, repr=False, compare=False)

    def __init__(self, mu: float, tau: float) -> None:
        _check_domain("mu", mu, _outside_unit, "in [0, 1]")
        _check_domain("tau", tau, _tau_outside, "finite and > 0")
        # Python floats: an np.float64 tau would warn where u * u overflows.
        u = 1.0 / (2.0 * float(tau))
        if u * u == math.inf:
            # The kernel squares u; past the float range K would be nan or inf.
            raise DomainError(
                f"tau is too small: (1/(2*tau))**2 overflows below about 3.73e-155, "
                f"got {tau}"
            )
        x = 4.0 * float(tau) - 1.0
        if abs(x) < BOUNDARY_ATOL:
            regime = Regime.BOUNDARY
        else:
            regime = Regime.NON_MARKOVIAN if x > 0 else Regime.MARKOVIAN
        # Written to the instance dict, as the generated frozen __init__ would
        # write through object.__setattr__, at a fraction of its cost.
        d = self.__dict__
        d["mu"] = mu
        d["tau"] = tau
        d["regime"] = regime


@dataclass(frozen=True)
class KernelValue:
    """Kernel sample ``k = K(t)`` together with the rate constants u, v."""

    k: float
    u: float
    v: float

    def __init__(self, k: float, u: float, v: float) -> None:
        # As in ChannelConfig.__init__.
        d = self.__dict__
        d["k"] = k
        d["u"] = u
        d["v"] = v


#: ``(t, cfg, value)`` of the last kernel ``memory_kernel`` computed for a
#: ``float`` time and a ``ChannelConfig``; replaced as a whole, never edited.
_last_kernel: tuple[float, ChannelConfig, KernelValue] | None = None


def _not_finite(value: Any) -> bool:
    return not math.isfinite(value)


def memory_kernel(t: float, cfg: ChannelConfig) -> KernelValue:
    """Ensemble-averaged telegraph dephasing kernel K(t).

    Guarantees K(0) = 1, dK/dt(0) = 0 and |K| <= 1 (to roundoff) for every
    tau that ``ChannelConfig`` accepts and every finite t >= 0; K is 0 where
    t is so large that u*t overflows.  Markovian decay is monotone; for
    4*tau > 1 the kernel oscillates with period 2*pi/v.

    A one-entry memo returns the last value again when it is asked for with
    the very same ``t`` object (a ``float``) and the very same ``cfg``
    object, as a caller does that evaluates one point through ``evolve``,
    ``decoherence_factor`` and ``memory_kernel`` in turn.  Both objects are
    immutable and the memo holds them, so neither can be changed or
    recycled for another value while it is stored: a hit is the value a
    fresh evaluation would give, bit for bit.  Any other time (an
    ``np.float64``, a 0-d array) or config is evaluated afresh, a call that
    raises stores nothing, and the entry is swapped whole, so a thread
    never reads one half of another thread's entry.

    Raises
    ------
    DomainError
        If ``t`` is not finite.
    NegativeTimeError
        If ``t < 0``.
    """
    global _last_kernel
    last = _last_kernel
    if last is not None and last[0] is t and last[1] is cfg:
        return last[2]
    _check_domain("time", t, _not_finite, "finite")
    if t < 0.0:
        raise NegativeTimeError(f"time must be >= 0, got {t}")
    # Python floats: numpy scalars would warn where u * t or v * t overflows.
    # ``key`` keeps the caller's object for the memo.
    key, t = t, float(t)
    u = 1.0 / (2.0 * float(cfg.tau))
    v = math.sqrt(abs(u * u - 1.0))
    damp = math.exp(-u * t)
    regime = cfg.regime
    # Where u*t or v*t overflows, damp is already 0 (u >= v), so K is 0
    # there rather than 0 * inf or cos(inf).
    if regime is Regime.BOUNDARY or v < KERNEL_LIMIT_V:
        # v -> 0 limit of either pairing; also used on the 4*tau = 1 seam.
        k = damp * (1.0 + u * t) if damp else 0.0
    elif regime is Regime.NON_MARKOVIAN:
        vt = v * t
        k = damp * (math.cos(vt) + (u / v) * math.sin(vt)) if vt < math.inf else 0.0
    elif v * t < 30.0:
        k = damp * (math.cosh(v * t) + (u / v) * math.sinh(v * t))
    else:
        # Same hyperbolic combination in overflow-safe form; v < u here, so
        # both exponents are negative.
        k = 0.5 * (1.0 + u / v) * math.exp((v - u) * t) + 0.5 * (1.0 - u / v) * math.exp(
            -(v + u) * t
        )
    value = KernelValue(k, u, v)
    if type(key) is float and type(cfg) is ChannelConfig:
        _last_kernel = (key, cfg, value)
    return value


def flip_probability(kernel: KernelValue | float) -> float:
    """Phase-flip probability p = (1 - K)/2.

    Raises
    ------
    DomainError
        If ``kernel`` is not a real number.
    InvalidKernelError
        If |K| exceeds 1 beyond roundoff, which would make p leave [0, 1].
    """
    k = kernel.k if isinstance(kernel, KernelValue) else kernel
    # Checked before ``float``, which would parse a string.
    _check_domain("kernel", k, _not_real, "a real number")
    k = float(k)
    if not abs(k) <= 1.0 + PROB_ATOL:
        raise InvalidKernelError(f"|K| = {abs(k)} > 1")
    return min(max(0.5 * (1.0 - k), 0.0), 1.0)


@dataclass(frozen=True)
class JointProbabilities:
    """4x4 table p[i, j] over Pauli indices (0, x, y, z) for the pair channel."""

    table: Array = field(repr=False)

    def __post_init__(self) -> None:
        import numpy as np

        from .linalg import as_matrix

        t = as_matrix(self.table, 4, float).copy()
        if np.any(t < -PROB_ATOL):
            raise DomainError(f"negative joint probability {t.min():.3e}")
        # A sum past the float range is inf, and the check below rejects it.
        with np.errstate(over="ignore"):
            total = t.sum()
        if not abs(total - 1.0) <= PROB_ATOL:
            raise DomainError(f"joint probabilities sum to {total:.12g}, not 1")
        t.setflags(write=False)
        object.__setattr__(self, "table", t)


def joint_probabilities(p: float, mu: float) -> JointProbabilities:
    """Joint two-qubit Kraus weights for flip probability ``p`` and correlation ``mu``.

    ``p[i, j] = (1 - mu) * p_i * p_j + mu * p_i * delta_ij`` with the
    single-qubit distribution (1-p, 0, 0, p); only the four (identity, z)
    combinations can be populated.
    """
    import numpy as np

    _check_domain("p", p, _outside_unit, "in [0, 1]")
    _check_domain("mu", mu, _outside_unit, "in [0, 1]")
    single = np.array([1.0 - p, 0.0, 0.0, p])
    table = (1.0 - mu) * np.outer(single, single) + mu * np.diag(single)
    return JointProbabilities(table)


def kraus_apply(rho: DensityMatrix4, jp: JointProbabilities) -> DensityMatrix4:
    """Apply the pair channel as the explicit 16-term Kraus sum.

    Each term conjugates by ``sqrt(p[i, j]) * sigma_i (x) sigma_j``; terms of
    zero weight contribute nothing but the loop is written against the full
    sum so channels with nonzero x/y weights reuse it unchanged.
    """
    import numpy as np

    from .linalg import PAULI

    out = np.zeros((4, 4), dtype=complex)
    m = rho.matrix
    for i in range(4):
        for j in range(4):
            w = jp.table[i, j]
            if w == 0.0:
                continue
            op = np.kron(PAULI[i], PAULI[j])
            out += w * (op @ m @ op.conj().T)
    return DensityMatrix4(out)


def decoherence_factor(t: float, cfg: ChannelConfig) -> float:
    """Anti-diagonal survival factor eta = K**2 + (1 - K**2)*mu.

    Equals 1 at t = 0, tends to ``mu`` as the kernel dies, and is
    non-decreasing in ``mu`` at fixed time.
    """
    return _survival(memory_kernel(t, cfg).k, cfg.mu)


def _survival(k: Any, mu: Any) -> Any:
    """``eta`` of kernel ``k`` and correlation ``mu``: floats or numpy columns."""
    k2 = k * k
    return k2 + (1.0 - k2) * mu


def _eta_outside(eta: Any) -> Any:
    """Whether ``eta`` is NaN or outside [0, 1] by more than roundoff: a bool
    for a float, a mask over rows for a numpy column."""
    return (eta < 0.0) | (eta > 1.0 + PROB_ATOL) | (eta != eta)


def dephase(rho: DensityMatrix4, eta: float) -> DensityMatrix4:
    """Scale the two anti-diagonal entries of an X state by ``eta``.

    Every density-matrix invariant survives this map for eta in [0, 1]
    (the block determinants only grow), so the result is built without
    re-validation from the four populations and the two scaled entries.
    """
    _check_domain("eta", eta, _eta_outside, "in [0, 1]")
    return DensityMatrix4._of_entries(
        rho.rho11, rho.rho22, rho.rho33, rho.rho44, rho.rho14 * eta, rho.rho23 * eta
    )


def evolve(rho0: DensityMatrix4, t: float, cfg: ChannelConfig) -> DensityMatrix4:
    """Closed-form channel action on an X state.

    Diagonal entries are untouched; the anti-diagonal picks up
    ``decoherence_factor(t, cfg)``.  Identical (to 1e-12) to routing the
    state through :func:`kraus_apply` with the matching joint table, which
    the test suite enforces as a standing oracle.
    """
    return dephase(rho0, decoherence_factor(t, cfg))
