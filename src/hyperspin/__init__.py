"""Hyperon-pair spin correlations under classically correlated dephasing.

Builds the two-qubit spin density matrix of an e+e- -> J/psi -> Y Ybar
production channel, evolves it through a random-telegraph dephasing channel
whose consecutive single-qubit applications share a classical correlation,
and evaluates quantum steering, entanglement of formation, geometric
quantum discord and l1-norm coherence over parameter sweeps.
"""

from ._version import __version__
from .channel import (
    ChannelConfig,
    JointProbabilities,
    KernelValue,
    Regime,
    decoherence_factor,
    dephase,
    evolve,
    flip_probability,
    joint_probabilities,
    kraus_apply,
    memory_kernel,
)
from .errors import (
    DomainError,
    GridSyntaxError,
    HyperspinError,
    InvalidKernelError,
    NegativeDiscriminantError,
    NegativeTimeError,
    NotHermitianError,
    NotXStateError,
    UnknownChannelError,
    UnknownPresetError,
)
from .measures import (
    FanoBloch,
    MeasureRecord,
    SteeringClass,
    SteeringResult,
    coherence_l1,
    concurrence,
    concurrence_closed,
    entanglement_of_formation,
    fano_bloch,
    geometric_discord,
    measure_all,
    steering,
    steering_bounds,
    steering_operator,
)
from .production import (
    CHANNELS,
    DensityMatrix4,
    HyperonChannel,
    XStateParams,
    channel_params,
    density_matrix,
    numeric_xstate_params,
    phi_matrix,
    polarization,
    xstate_params,
)
from .grid import SweepGrid, SweepRow, TimeGrid

__all__ = [
    "__version__",
    "CHANNELS",
    "PRESETS",
    "ChannelConfig",
    "DensityMatrix4",
    "DomainError",
    "FanoBloch",
    "FigurePreset",
    "GridSyntaxError",
    "HyperonChannel",
    "HyperspinError",
    "InvalidKernelError",
    "JointProbabilities",
    "KernelValue",
    "MeasureRecord",
    "NegativeDiscriminantError",
    "NegativeTimeError",
    "NotHermitianError",
    "NotXStateError",
    "Regime",
    "SteeringClass",
    "SteeringResult",
    "SweepGrid",
    "SweepResult",
    "SweepRow",
    "TimeGrid",
    "UnknownChannelError",
    "UnknownPresetError",
    "XStateParams",
    "channel_params",
    "coherence_l1",
    "concurrence",
    "concurrence_closed",
    "decoherence_factor",
    "density_matrix",
    "dephase",
    "emit",
    "entanglement_of_formation",
    "evolve",
    "fano_bloch",
    "figure_preset",
    "flip_probability",
    "geometric_discord",
    "joint_probabilities",
    "kraus_apply",
    "measure_all",
    "memory_kernel",
    "numeric_xstate_params",
    "phi_matrix",
    "polarization",
    "run_preset",
    "run_sweep",
    "steering",
    "steering_bounds",
    "steering_operator",
    "xstate_params",
]

#: Each name's module, imported on the name's first read: the figure presets,
#: which load no numpy, and the sweep engine, which does.  So ``import
#: hyperspin`` and one point load neither.
_LAZY_NAMES = {
    **dict.fromkeys(("PRESETS", "FigurePreset", "figure_preset"), ".presets"),
    **dict.fromkeys(("SweepResult", "emit", "run_preset", "run_sweep"), ".sweep"),
}


def __getattr__(name: str) -> object:
    if name not in _LAZY_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(_LAZY_NAMES[name], __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY_NAMES})
