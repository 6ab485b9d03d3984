"""Quantum-resource measures on dephased two-qubit X states.

Four measures are evaluated on the same state: bidirectional steering with
its one-way/two-way/no-way classification, concurrence with its entropic
transform (entanglement of formation), geometric quantum discord in the
Schatten 1-norm via the Fano-Bloch correlation components, and the l1-norm
of coherence.  The input matrices already carry any decoherence factor in
their anti-diagonal entries; nothing here re-applies channel physics.

Each formula is written once, as a private body that the public functions
run on Python floats and the sweep engine on numpy columns, with the same
bits.  The bodies write ``max(a, b)`` as ``where(b > a, b, a)`` and ``min``
as ``where(b < a, b, a)``, which choose between signed zeros as Python does.
The sequence that runs them is written once too: ``measure_all`` and the
engine's ``_measure_chunk`` both call ``_measure_values``, on floats and on
columns, after the same domain checks.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Literal, NamedTuple

from .channel import _eta_outside
from .errors import DomainError
from .production import DensityMatrix4, HyperonChannel, xstate_params

if TYPE_CHECKING:
    from .linalg import Array

SQRT3 = math.sqrt(3.0)
GQD_DENOMINATOR_ATOL = 1e-14
#: Roundoff allowed outside [0, 1] for concurrence and [-1, 1] for Bloch components.
DOMAIN_ATOL = 1e-12


class SteeringClass(enum.Enum):
    NO_WAY = "no_way"
    ONE_WAY_AB = "one_way_ab"
    ONE_WAY_BA = "one_way_ba"
    TWO_WAY = "two_way"


#: Steering classes, in definition order, indexed by the code
#: ``(s_ab > 0) + 2 * (s_ba > 0)``.
STEERING_CLASSES = tuple(SteeringClass)


class _Ops(NamedTuple):
    """What the measure bodies compute differently on floats and on numpy
    columns; ``where(cond, x, y)`` is ``x`` where ``cond`` holds, else ``y``."""

    where: Callable[[Any, Any, Any], Any]
    sqrt: Callable[[Any], Any]
    log2: Callable[[Any], Any]


_FLOAT_OPS = _Ops(lambda cond, x, y: x if cond else y, math.sqrt, math.log2)


@dataclass(frozen=True)
class SteeringResult:
    """Steerabilities in both directions plus their asymmetry and class.

    ``s_ab`` is first-to-second qubit (hyperon steers antihyperon), ``s_ba``
    the reverse; ``delta_s = |s_ab - s_ba|``.
    """

    s_ab: float
    s_ba: float
    delta_s: float
    steering_class: SteeringClass

    def __init__(
        self, s_ab: float, s_ba: float, delta_s: float, steering_class: SteeringClass
    ) -> None:
        # Written to the instance dict, as the generated frozen __init__ would
        # write through object.__setattr__, at a fraction of its cost.
        d = self.__dict__
        d["s_ab"] = s_ab
        d["s_ba"] = s_ba
        d["delta_s"] = delta_s
        d["steering_class"] = steering_class


@dataclass(frozen=True)
class FanoBloch:
    """Nonzero correlation components of the Fano-Bloch decomposition."""

    r11: float
    r22: float
    r33: float
    r03: float
    r30: float

    def __post_init__(self) -> None:
        _check_bloch((self.r11, self.r22, self.r33, self.r03, self.r30))


def _bloch_outside(*components: Any) -> Any:
    """Whether a Bloch component is NaN or outside [-1, 1] by more than
    roundoff: a bool for floats, a mask over rows for numpy columns."""
    outside = False
    for r in components:
        outside = outside | (abs(r) > 1.0 + DOMAIN_ATOL) | (r != r)
    return outside


def _check_bloch(components: tuple[float, ...]) -> None:
    if _bloch_outside(*components):
        r = next(r for r in components if _bloch_outside(r))
        raise DomainError(f"Bloch component {r} outside [-1, 1]")


@dataclass(frozen=True)
class MeasureRecord:
    """All measures of one evolved state, plus the channel factors that made it."""

    steering: SteeringResult
    concurrence: float
    eof: float
    gqd: float
    coherence_l1: float
    eta: float
    kernel: float

    def __init__(
        self,
        steering: SteeringResult,
        concurrence: float,
        eof: float,
        gqd: float,
        coherence_l1: float,
        eta: float,
        kernel: float,
    ) -> None:
        # As in SteeringResult.__init__.
        d = self.__dict__
        d["steering"] = steering
        d["concurrence"] = concurrence
        d["eof"] = eof
        d["gqd"] = gqd
        d["coherence_l1"] = coherence_l1
        d["eta"] = eta
        d["kernel"] = kernel


def steering_operator(
    rho: DensityMatrix4, direction: Literal["ab", "ba"]
) -> Array:
    """Steering operator, the matrix oracle for :func:`steering`.

    ``tau = rho/sqrt(3) + (1 - 1/sqrt(3)) * sigma`` where ``sigma`` replaces
    the steering party by the maximally mixed state and keeps the steered
    party's marginal: for direction "ab" (first steers second)
    ``sigma = I/2 (x) rho_B``, for "ba" ``sigma = rho_A (x) I/2``.  The
    output is Hermitian with unit trace.  The steerability of ``rho`` in
    that direction is the X-state entanglement test on ``tau``,

        max{0, 8*sqrt(3) * max(|tau14|^2 - tau22*tau33, |tau23|^2 - tau11*tau44)},

    which :func:`steering` evaluates in closed form on the entries of
    ``rho``; it is positive exactly when the partial transpose of ``tau``
    has a negative eigenvalue.
    """
    import numpy as np

    from .linalg import partial_trace

    m = rho.matrix
    eye = np.eye(2, dtype=complex)
    if direction == "ab":
        sigma = np.kron(eye / 2.0, partial_trace(m, "second"))
    elif direction == "ba":
        sigma = np.kron(partial_trace(m, "first"), eye / 2.0)
    else:
        raise DomainError(f"direction must be 'ab' or 'ba', got {direction!r}")
    return m / SQRT3 + (1.0 - 1.0 / SQRT3) * sigma


def steering_bounds(rho: DensityMatrix4) -> tuple[float, float, float]:
    """Separable-model bounds entering the X-state steering inequalities.

    Returns ``(corner_bound, direction_bias, inner_bound)``: the thresholds
    that the squared anti-diagonal entries must exceed for the corner and
    inner branches, and the population-asymmetry term that splits the two
    steering directions.  Equal inner populations force the bias to zero.
    """
    return _steering_bounds(rho.rho11, rho.rho22, rho.rho33, rho.rho44)


def _steering_bounds(a: Any, b: Any, c: Any, d: Any) -> tuple[Any, Any, Any]:
    """``steering_bounds`` of the populations ``a, b, c, d``: floats, or numpy
    columns of them, which the same operations in the same order give bit
    for bit."""
    shared = 0.25 * (a + d) * (b + c)
    corner = 0.5 * (2.0 - SQRT3) * a * d + 0.5 * (2.0 + SQRT3) * b * c + shared
    inner = 0.5 * (2.0 + SQRT3) * a * d + 0.5 * (2.0 - SQRT3) * b * c + shared
    bias = 0.25 * (a - d) * (b - c)
    return corner, bias, inner


def steering(rho: DensityMatrix4) -> SteeringResult:
    """Bidirectional steerability of an evolved X state.

    Each direction is ``max{0, (8/sqrt(3)) * max(branches)}`` where the
    branches compare the squared anti-diagonal magnitudes against the
    corner/inner bounds, biased by the population-asymmetry term (minus for
    first-to-second, plus for the reverse).
    """
    bounds = _steering_bounds(rho.rho11, rho.rho22, rho.rho33, rho.rho44)
    s_ab, s_ba, delta_s, code = _steering(abs(rho.rho14), abs(rho.rho23), *bounds, _FLOAT_OPS)
    return SteeringResult(s_ab, s_ba, delta_s, STEERING_CLASSES[code])


def _steering(w: Any, z: Any, corner: Any, bias: Any, inner: Any, ops: _Ops) -> tuple:
    """``(s_ab, s_ba, delta_s, code)`` of :func:`steering` from ``w = |rho14|``,
    ``z = |rho23|`` and the bounds; ``code`` indexes ``STEERING_CLASSES``."""
    where = ops.where
    w2 = w * w
    z2 = z * z
    scale = 8.0 / SQRT3
    corner_ab = w2 - corner - bias
    inner_ab = z2 - inner - bias
    corner_ba = w2 - corner + bias
    inner_ba = z2 - inner + bias
    s_ab = scale * where(inner_ab > corner_ab, inner_ab, corner_ab)
    s_ba = scale * where(inner_ba > corner_ba, inner_ba, corner_ba)
    s_ab = where(s_ab > 0.0, s_ab, 0.0)
    s_ba = where(s_ba > 0.0, s_ba, 0.0)
    return s_ab, s_ba, abs(s_ab - s_ba), (s_ab > 0.0) + 2 * (s_ba > 0.0)


def concurrence(rho: DensityMatrix4) -> float:
    """Concurrence of a dephased rank-2 production X state.

    The family built here satisfies ``rho11*rho44 == rho14(0)**2`` and
    ``rho22*rho33 == rho23(0)**2`` at full coherence, collapsing the Wootters
    X-state expression to the anti-diagonal difference

        C = 2 * max{|rho23| - |rho14|, |rho14| - |rho23|, 0},

    which then scales linearly with the survival factor carried by the
    anti-diagonal.  Exact for the states this package produces; coincides
    with the general Wootters value at full coherence.  For moduli the
    maximum is ``abs(|rho23| - |rho14|)``, bit for bit.
    """
    return _concurrence(abs(rho.rho14), abs(rho.rho23))


def _concurrence(w: Any, z: Any) -> Any:
    """:func:`concurrence` of the anti-diagonal moduli ``w``, ``z``."""
    return 2.0 * abs(z - w)


def concurrence_closed(ch: HyperonChannel, phi: float, eta: float) -> float:
    """Closed-form concurrence ``|eta * gamma2|`` straight from channel and angle."""
    try:
        if _eta_outside(eta):
            raise DomainError(f"eta must be in [0, 1], got {eta}")
    except (TypeError, ValueError):
        # It does not compare with a float, or gives no one truth value.
        raise DomainError(f"eta must be a real number, got {eta!r}") from None
    return abs(eta * xstate_params(ch, phi).gamma2)


def entanglement_of_formation(c: float) -> float:
    """Entropic transform of the concurrence: E = h((1 + sqrt(1 - C^2))/2).

    Monotone from E(0) = 0 to E(1) = 1.

    Raises
    ------
    DomainError
        If ``c`` is not a real number, or is outside [0, 1] by more than 1e-12.
    """
    try:
        _check_concurrence(c)
    except (TypeError, ValueError):
        raise DomainError(f"concurrence must be a real number, got {c!r}") from None
    return _eof(c, _FLOAT_OPS)


def _concurrence_outside(c: Any) -> Any:
    """Whether ``c`` is NaN or outside [0, 1] by more than roundoff: a bool
    for a float, a mask over rows for a numpy column."""
    return (c < -DOMAIN_ATOL) | (c > 1.0 + DOMAIN_ATOL) | (c != c)


def _check_concurrence(c: float) -> None:
    if _concurrence_outside(c):
        raise DomainError(f"concurrence must be in [0, 1], got {c}")


def _eof(c: Any, ops: _Ops) -> Any:
    """:func:`entanglement_of_formation` of a checked concurrence ``c``."""
    where = ops.where
    c = where(0.0 > c, 0.0, c)
    c = where(1.0 < c, 1.0, c)
    x = 0.5 * (1.0 + ops.sqrt(1.0 - c * c))
    # The binary entropy of x, which is at least 1/2: only 1 - x can be 0,
    # and 0*log(0) := 0.  ``0.0 -`` makes a zero entropy +0, not -0.
    total = 0.0 - x * ops.log2(x)
    y = 1.0 - x
    positive = y > 0.0
    return where(positive, total - y * ops.log2(where(positive, y, 1.0)), total)


def fano_bloch(rho: DensityMatrix4) -> FanoBloch:
    """Fano-Bloch correlation components of an X state.

    ``r11/r22/r33`` are the diagonal correlation entries, ``r03/r30`` the
    two local-z components written out from their trace definitions
    ``tr[(sigma_0 (x) sigma_3) rho]`` and ``tr[(sigma_3 (x) sigma_0) rho]``.
    """
    return FanoBloch(*_bloch_components(rho))


def _bloch_components(rho: DensityMatrix4) -> tuple[float, float, float, float, float]:
    """``(r11, r22, r33, r03, r30)`` of :func:`fano_bloch`, range-checked as
    ``FanoBloch`` checks them."""
    r = (
        *_anti_diagonal_bloch(rho.rho14.real, rho.rho23.real),
        *_diagonal_bloch(rho.rho11, rho.rho22, rho.rho33, rho.rho44),
    )
    _check_bloch(r)
    return r


def _anti_diagonal_bloch(w: Any, z: Any) -> tuple[Any, Any]:
    """``(r11, r22)`` of the real entries ``w = rho14``, ``z = rho23``."""
    return 2.0 * (z + w), 2.0 * (z - w)


def _diagonal_bloch(a: Any, b: Any, c: Any, d: Any) -> tuple[Any, Any, Any]:
    """``(r33, r03, r30)`` of the populations ``a, b, c, d``."""
    return 1.0 - 2.0 * (b + c), a - b + c - d, a + b - c - d


def geometric_discord(rho: DensityMatrix4) -> float:
    """Schatten-1-norm geometric quantum discord of an X state (closed form).

    Built from the Fano-Bloch components with
    ``rmax^2 = max(r22^2 + r30^2, r33^2)`` and
    ``rmin^2 = min(r11^2, r33^2)``.  When the denominator vanishes all
    components vanish with it (fully dephased axial states), so 0 is
    returned as the continuous limit.
    """
    r11, r22, r33, _, r30 = _bloch_components(rho)
    return _discord(r11, r22, r33, r30, _FLOAT_OPS)


def _discord(r11: Any, r22: Any, r33: Any, r30: Any, ops: _Ops) -> Any:
    """:func:`geometric_discord` of the Fano-Bloch components it reads."""
    where = ops.where
    r11sq = r11 * r11
    r22sq = r22 * r22
    r33sq = r33 * r33
    rmax_sq = r22sq + r30 * r30
    rmax_sq = where(r33sq > rmax_sq, r33sq, rmax_sq)
    rmin_sq = where(r33sq < r11sq, r33sq, r11sq)
    den = rmax_sq - rmin_sq + r11sq - r22sq
    num = r11sq * rmax_sq - r22sq * rmin_sq
    num = where(0.0 > num, 0.0, num)
    vanishing = den < GQD_DENOMINATOR_ATOL
    return where(vanishing, 0.0, 0.5 * ops.sqrt(num / where(vanishing, 1.0, den)))


def coherence_l1(rho: DensityMatrix4) -> float:
    """l1-norm of coherence: sum of the magnitudes of all off-diagonal
    entries, which for an X state is ``2 * (|rho23| + |rho14|)``."""
    return _coherence_l1(abs(rho.rho14), abs(rho.rho23))


def _coherence_l1(w: Any, z: Any) -> Any:
    """:func:`coherence_l1` of the anti-diagonal moduli ``w``, ``z``."""
    return 2.0 * (z + w)


def _measure_values(
    w: Any,
    z: Any,
    c: Any,
    bounds: tuple[Any, Any, Any],
    r11: Any,
    r22: Any,
    r33: Any,
    r30: Any,
    ops: _Ops,
) -> tuple:
    """Every measure of a checked state, in the order of the measure columns
    of ``grid.COLUMNS``: ``(s_ab, s_ba, delta_s, code, concurrence, eof, gqd,
    coherence_l1)``, where ``code`` indexes ``STEERING_CLASSES``.

    Takes the anti-diagonal moduli ``w``, ``z``, their concurrence ``c``,
    the ``_steering_bounds`` and the Fano-Bloch components the discord
    reads: floats for ``measure_all``, numpy columns for the sweep engine.
    """
    return (
        *_steering(w, z, *bounds, ops),
        c,
        _eof(c, ops),
        _discord(r11, r22, r33, r30, ops),
        _coherence_l1(w, z),
    )


def measure_all(rho: DensityMatrix4, eta: float, kernel: float) -> MeasureRecord:
    """Evaluate every measure on one state and bundle the result.

    ``eta`` and ``kernel`` are recorded for reporting only; the state already
    carries the decoherence factor.  Equal, bit for bit and error for error,
    to the record built from :func:`steering`, :func:`concurrence`,
    :func:`entanglement_of_formation`, :func:`geometric_discord` and
    :func:`coherence_l1`: the concurrence is checked before the Bloch
    components, as those calls would check them, and each modulus is taken
    once.
    """
    w = abs(rho.rho14)
    z = abs(rho.rho23)
    c = _concurrence(w, z)
    _check_concurrence(c)
    r11, r22, r33, _, r30 = _bloch_components(rho)
    bounds = _steering_bounds(rho.rho11, rho.rho22, rho.rho33, rho.rho44)
    s_ab, s_ba, delta_s, code, c, eof, gqd, l1 = _measure_values(
        w, z, c, bounds, r11, r22, r33, r30, _FLOAT_OPS
    )
    steering = SteeringResult(s_ab, s_ba, delta_s, STEERING_CLASSES[code])
    return MeasureRecord(steering, c, eof, gqd, l1, eta, kernel)
