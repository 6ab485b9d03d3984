"""The frozen-dataclass contract of the records built once per point.

``SteeringResult``, ``MeasureRecord``, ``KernelValue`` and ``ChannelConfig``
write their fields in an ``__init__`` of their own; everything the
``dataclass`` decorator gives them stays as it was: the fields and their
order, ``replace``, equality, hashing, ``repr``, pickling and copying, and
``FrozenInstanceError`` on assignment and deletion.
"""

import copy
import dataclasses
import math
import pickle
import sys

import numpy as np
import pytest

from hyperspin import (
    ChannelConfig,
    DomainError,
    KernelValue,
    MeasureRecord,
    Regime,
    SteeringClass,
    SteeringResult,
)

STEERING = SteeringResult(0.25, 0.0, 0.25, SteeringClass.ONE_WAY_AB)
STEERING_REPR = (
    "SteeringResult(s_ab=0.25, s_ba=0.0, delta_s=0.25, "
    "steering_class=<SteeringClass.ONE_WAY_AB: 'one_way_ab'>)"
)

#: (record, its fields in order, a replacement, its repr)
CASES = [
    (
        STEERING,
        ("s_ab", "s_ba", "delta_s", "steering_class"),
        {"s_ba": 0.5},
        STEERING_REPR,
    ),
    (
        MeasureRecord(STEERING, 0.5, 0.375, 0.125, 1.5, eta=0.75, kernel=-0.5),
        ("steering", "concurrence", "eof", "gqd", "coherence_l1", "eta", "kernel"),
        {"gqd": 0.5},
        f"MeasureRecord(steering={STEERING_REPR}, concurrence=0.5, eof=0.375, "
        "gqd=0.125, coherence_l1=1.5, eta=0.75, kernel=-0.5)",
    ),
    (KernelValue(0.5, 2.5, 1.5), ("k", "u", "v"), {"v": 0.0}, "KernelValue(k=0.5, u=2.5, v=1.5)"),
    (
        ChannelConfig(mu=0.5, tau=0.25),
        ("mu", "tau", "regime"),
        {"tau": 2.0},
        "ChannelConfig(mu=0.5, tau=0.25)",
    ),
]
IDS = [type(case[0]).__name__ for case in CASES]


@pytest.mark.parametrize("record, names, change, text", CASES, ids=IDS)
def test_fields_repr_and_instance_dict(record, names, change, text):
    assert tuple(f.name for f in dataclasses.fields(record)) == names
    assert repr(record) == text
    # The instance dict holds the fields in order, as the generated
    # ``__init__`` left it.
    assert tuple(vars(record)) == names


@pytest.mark.parametrize("record, names, change, text", CASES, ids=IDS)
def test_replace_equality_and_hash(record, names, change, text):
    same = dataclasses.replace(record)
    assert same == record and same is not record
    assert hash(same) == hash(record)
    changed = dataclasses.replace(record, **change)
    assert changed != record
    (name, value), = change.items()
    assert getattr(changed, name) == value
    for other in names:
        if other not in change and other != "regime":
            assert getattr(changed, other) == getattr(record, other)
    compared = tuple(getattr(record, f.name) for f in dataclasses.fields(record) if f.compare)
    assert hash(record) == hash(compared)


@pytest.mark.parametrize("record, names, change, text", CASES, ids=IDS)
def test_pickle_and_deepcopy_round_trip(record, names, change, text):
    for twin in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record), copy.copy(record)):
        assert type(twin) is type(record)
        assert twin == record
        assert vars(twin) == vars(record)
        assert repr(twin) == text


@pytest.mark.parametrize("record, names, change, text", CASES, ids=IDS)
def test_frozen_on_assignment_and_deletion(record, names, change, text):
    frozen = dataclasses.FrozenInstanceError
    for name in names:
        with pytest.raises(frozen, match=f"cannot assign to field '{name}'"):
            setattr(record, name, 0.0)
        with pytest.raises(frozen, match=f"cannot delete field '{name}'"):
            delattr(record, name)
    assert repr(record) == text


def test_config_replace_recomputes_the_regime():
    cfg = ChannelConfig(mu=0.5, tau=0.1)
    assert cfg.regime is Regime.MARKOVIAN
    assert dataclasses.replace(cfg, tau=2.0).regime is Regime.NON_MARKOVIAN
    assert dataclasses.replace(cfg, tau=0.25).regime is Regime.BOUNDARY
    # The regime takes no part in equality: it follows from tau.
    assert ChannelConfig(0.5, 0.1) == cfg
    # The standard library raises ValueError here, and TypeError from Python 3.13 on.
    refused = TypeError if sys.version_info >= (3, 13) else ValueError
    with pytest.raises(refused, match="field regime is declared with init=False"):
        dataclasses.replace(cfg, regime=Regime.BOUNDARY)
    with pytest.raises(TypeError):
        ChannelConfig(mu=0.5, tau=0.1, regime=Regime.BOUNDARY)


@pytest.mark.parametrize(
    "mu, tau, message",
    [
        (1.5, 1.0, "mu must be in [0, 1], got 1.5"),
        (math.nan, 1.0, "mu must be in [0, 1], got nan"),
        # mu is checked before tau.
        (-0.5, 0.0, "mu must be in [0, 1], got -0.5"),
        (0.5, 0.0, "tau must be finite and > 0, got 0.0"),
        (0.5, math.inf, "tau must be finite and > 0, got inf"),
        (0.5, math.nan, "tau must be finite and > 0, got nan"),
        (
            0.5,
            1e-160,
            "tau is too small: (1/(2*tau))**2 overflows below about 3.73e-155, got 1e-160",
        ),
        # A value that does not compare with a float, or gives no one truth
        # value, is named by its field; mu is still checked first.
        ("0.5", 1.0, "mu must be a real number, got '0.5'"),
        (0.5, None, "tau must be a real number, got None"),
        (np.array([0.1, 0.2]), 1.0, "mu must be a real number, got array([0.1, 0.2])"),
        (None, "1", "mu must be a real number, got None"),
    ],
)
def test_config_domain_errors(mu, tau, message):
    with pytest.raises(DomainError) as err:
        ChannelConfig(mu=mu, tau=tau)
    assert str(err.value) == message
    with pytest.raises(DomainError) as err:
        dataclasses.replace(ChannelConfig(0.5, 1.0), mu=mu, tau=tau)
    assert str(err.value) == message
