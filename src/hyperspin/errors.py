"""Exception hierarchy for hyperspin, and the one check of a scalar input.

``_check_domain`` checks every scalar input with a predicate that says
whether a value is outside the input's domain.  A value that does not
compare with a float (a string, ``None``, a complex number) or gives no one
truth value (an array of several elements) is ``DomainError: <name> must be
a real number, got <repr>``; one outside the domain is ``DomainError:
<name> must be <domain>, got <value>``.  This module loads no numpy.
"""

from __future__ import annotations

import math
from typing import Any, Callable


class HyperspinError(Exception):
    """Base class for all hyperspin errors."""


class NotHermitianError(HyperspinError):
    """Matrix handed to a Hermitian-only routine is not Hermitian."""


class UnknownChannelError(HyperspinError):
    """Requested production channel is not in the registry."""


class NegativeDiscriminantError(HyperspinError):
    """Radicand of the correlation-block diagonalization is negative.

    Never expected for valid channel parameters; signals a parameter bug.
    """


class NegativeTimeError(HyperspinError):
    """Evolution time must be non-negative."""


class InvalidKernelError(HyperspinError):
    """Memory-kernel value outside [-1, 1], so no valid flip probability."""


class NotXStateError(HyperspinError):
    """Density matrix has support outside the X (diagonal + anti-diagonal) pattern."""


class UnknownPresetError(HyperspinError):
    """Requested figure preset id is not registered."""


class DomainError(HyperspinError):
    """Scalar argument outside its documented domain."""


class GridSyntaxError(HyperspinError):
    """Malformed sweep-grid specification string."""


def _check_domain(name: str, value: Any, outside: Callable[[Any], Any], domain: str) -> None:
    """Raise ``DomainError`` unless ``value`` is a real number for which
    ``outside`` is false; ``domain`` says what the input must be."""
    try:
        if not outside(value):
            return
    except (TypeError, ValueError):
        # It does not compare with a float, or gives no one truth value.
        raise DomainError(f"{name} must be a real number, got {value!r}") from None
    raise DomainError(f"{name} must be {domain}, got {value}")


def _not_real(value: Any) -> Any:
    """The predicate of an input that need only be a real number: no real
    number, NaN included, is below -inf, and any other value raises."""
    return value < -math.inf
