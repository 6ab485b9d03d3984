import math
import sys
import threading

import numpy as np
import pytest
from conftest import bisect
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperspin import (
    ChannelConfig,
    DomainError,
    FanoBloch,
    HyperonChannel,
    HyperspinError,
    InvalidKernelError,
    JointProbabilities,
    NegativeTimeError,
    Regime,
    XStateParams,
    channel_params,
    decoherence_factor,
    density_matrix,
    dephase,
    evolve,
    flip_probability,
    joint_probabilities,
    kraus_apply,
    measure_all,
    memory_kernel,
)

HALF_PI = math.pi / 2.0
TAUS = (0.05, 0.1, 0.25, 1.0, 5.0)


def kernel(t: float, tau: float) -> float:
    return memory_kernel(t, ChannelConfig(mu=0.0, tau=tau)).k


def test_config_validation_and_regime():
    assert ChannelConfig(mu=0.0, tau=0.1).regime is Regime.MARKOVIAN
    assert ChannelConfig(mu=0.0, tau=5.0).regime is Regime.NON_MARKOVIAN
    assert ChannelConfig(mu=0.0, tau=0.25).regime is Regime.BOUNDARY
    assert ChannelConfig(mu=0.0, tau=0.25 + 1e-8).regime is Regime.NON_MARKOVIAN
    with pytest.raises(DomainError):
        ChannelConfig(mu=1.2, tau=0.1)
    with pytest.raises(DomainError):
        ChannelConfig(mu=0.5, tau=0.0)


def test_kernel_starts_at_one():
    for tau in TAUS:
        assert kernel(0.0, tau) == 1.0


def test_kernel_decays_to_zero():
    for tau in TAUS:
        u = 1.0 / (2.0 * tau)
        v = math.sqrt(abs(u * u - 1.0))
        horizon = 60.0 * max(tau, 1.0 / (u - v) if u > v else tau)
        assert abs(kernel(horizon, tau)) < 1e-6


def test_kernel_initial_slope_vanishes():
    h = 1e-4
    for tau in TAUS:
        slope = (-3.0 * kernel(0.0, tau) + 4.0 * kernel(h, tau) - kernel(2 * h, tau)) / (
            2.0 * h
        )
        assert abs(slope) < 1e-6


def test_kernel_bounded_by_one():
    for tau in TAUS:
        for t in np.arange(0.0, 50.0, 0.01):
            assert abs(kernel(float(t), tau)) <= 1.0 + 1e-12


def test_markovian_kernel_monotone():
    for tau in (0.05, 0.1):
        samples = [kernel(float(t), tau) for t in np.arange(0.0, 50.0, 0.01)]
        assert all(a >= b >= 0.0 for a, b in zip(samples, samples[1:]))


def test_non_markovian_kernel_oscillates():
    samples = [kernel(float(t), 5.0) for t in np.arange(0.0, 50.0, 0.01)]
    signs = np.sign(samples)
    assert int(np.sum(signs[:-1] * signs[1:] < 0)) >= 2


def test_non_markovian_first_zero():
    u = 0.1
    v = math.sqrt(1.0 - u * u)
    analytic = (math.pi - math.atan(v / u)) / v
    numeric = bisect(lambda t: kernel(t, 5.0), 1.0, 2.5)
    assert abs(numeric - analytic) < 1e-9
    assert abs(numeric - 1.68) < 0.01


def test_kernel_continuous_where_oscillation_turns_over():
    # v -> 0 inside the oscillatory region (tau = 0.5); the series limit takes over.
    for t in (0.0, 0.5, 1.0, 3.0, 10.0):
        base = kernel(t, 0.5)
        u = 1.0
        assert abs(base - (1.0 + u * t) * math.exp(-u * t)) < 1e-12
        assert abs(kernel(t, 0.5 + 1e-7) - base) < 1e-5
        assert abs(kernel(t, 0.5 - 1e-7) - base) < 1e-5


def test_boundary_kernel_form():
    u = 2.0
    for t in (0.0, 0.3, 1.7, 9.0):
        assert abs(kernel(t, 0.25) - (1.0 + u * t) * math.exp(-u * t)) < 1e-14


def test_kernel_rejects_negative_time():
    with pytest.raises(NegativeTimeError):
        memory_kernel(-0.1, ChannelConfig(mu=0.0, tau=0.1))


def test_flip_probability_linear_map():
    assert flip_probability(1.0) == 0.0
    assert flip_probability(0.0) == 0.5
    assert flip_probability(-0.5) == 0.75
    with pytest.raises(InvalidKernelError):
        flip_probability(1.1)


def test_joint_probabilities_independent():
    jp = joint_probabilities(0.5, 0.0)
    for i, j in ((0, 0), (0, 3), (3, 0), (3, 3)):
        assert abs(jp.table[i, j] - 0.25) < 1e-15


def test_joint_probabilities_perfectly_correlated():
    jp = joint_probabilities(0.5, 1.0)
    assert abs(jp.table[0, 0] - 0.5) < 1e-15
    assert abs(jp.table[3, 3] - 0.5) < 1e-15
    assert jp.table[0, 3] == 0.0
    assert jp.table[3, 0] == 0.0


def test_joint_probabilities_partial_correlation():
    jp = joint_probabilities(0.3, 0.8)
    assert abs(jp.table[0, 0] - 0.658) < 1e-12
    assert abs(jp.table[3, 3] - 0.258) < 1e-12
    assert abs(jp.table[0, 3] - 0.042) < 1e-12
    assert abs(jp.table[3, 0] - 0.042) < 1e-12


def test_joint_probabilities_marginals_and_sum():
    for p in (0.0, 0.2, 0.7, 1.0):
        for mu in (0.0, 0.4, 1.0):
            jp = joint_probabilities(p, mu)
            single = np.array([1.0 - p, 0.0, 0.0, p])
            assert abs(jp.table.sum() - 1.0) < 1e-12
            assert jp.table.min() >= 0.0
            assert np.max(np.abs(jp.table.sum(axis=1) - single)) < 1e-12
            assert np.max(np.abs(jp.table.sum(axis=0) - single)) < 1e-12


def test_joint_probabilities_validation():
    bad = np.zeros((4, 4))
    bad[0, 0] = 0.7
    with pytest.raises(DomainError):
        JointProbabilities(bad)


@pytest.mark.parametrize(
    "call",
    [
        lambda: flip_probability(float("nan")),
        lambda: JointProbabilities(np.full((4, 4), np.nan)),
        lambda: JointProbabilities(np.full((4, 4), 1e308)),
        lambda: JointProbabilities("abc"),
        lambda: JointProbabilities([[1, 2], [3]]),
        lambda: XStateParams(float("nan"), 0.5, 0.1, 0.0),
        lambda: XStateParams(0.0, float("nan"), 0.1, 0.0),
        lambda: FanoBloch(float("nan"), 0.0, 0.0, 0.0, 0.0),
    ],
    ids=[
        "nan-kernel",
        "nan-table",
        "overflowing-table",
        "non-numeric-table",
        "ragged-table",
        "nan-kappa",
        "nan-gamma",
        "nan-bloch",
    ],
)
def test_range_checks_reject_nan_and_unreadable_input(call):
    with pytest.raises(HyperspinError):
        call()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: flip_probability("x"), "kernel must be a real number, got 'x'"),
        (lambda: flip_probability(None), "kernel must be a real number, got None"),
        (lambda: joint_probabilities("x", 0.5), "p must be a real number, got 'x'"),
        (lambda: joint_probabilities(0.5, None), "mu must be a real number, got None"),
    ],
    ids=["kernel-str", "kernel-none", "p-str", "mu-none"],
)
def test_kraus_weights_of_a_wrong_type_are_a_domain_error(call, message):
    with pytest.raises(DomainError) as err:
        call()
    assert str(err.value) == message


def test_kraus_identity_channel():
    rho = density_matrix(channel_params("lambda"), 1.1)
    table = np.zeros((4, 4))
    table[0, 0] = 1.0
    out = kraus_apply(rho, JointProbabilities(table))
    assert np.max(np.abs(out.matrix - rho.matrix)) < 1e-15


def test_kraus_zz_channel_fixes_x_states():
    rho = density_matrix(channel_params("lambda"), 0.9)
    table = np.zeros((4, 4))
    table[3, 3] = 1.0
    out = kraus_apply(rho, JointProbabilities(table))
    assert np.max(np.abs(out.matrix - rho.matrix)) < 1e-15
    # Basis-projector oracle: zz conjugation leaves both X coherences alone.
    sz = np.diag([1.0, -1.0]).astype(complex)
    zz = np.kron(sz, sz)
    for ket, bra in ((0, 3), (1, 2)):
        proj = np.zeros((4, 4), dtype=complex)
        proj[ket, bra] = 1.0
        assert np.max(np.abs(zz @ proj @ zz.conj().T - proj)) < 1e-15


def test_kraus_preserves_trace():
    rho = density_matrix(channel_params("xi-"), 0.77)
    for p, mu in ((0.3, 0.1), (0.9, 0.9), (0.5, 0.0)):
        out = kraus_apply(rho, joint_probabilities(p, mu))
        assert abs(out.matrix.trace().real - 1.0) < 1e-12


def test_decoherence_factor_limits():
    cfg = ChannelConfig(mu=0.8, tau=0.1)
    assert decoherence_factor(0.0, cfg) == 1.0
    assert abs(decoherence_factor(400.0, cfg) - 0.8) < 1e-12
    frozen = ChannelConfig(mu=1.0, tau=5.0)
    for t in (0.0, 1.3, 7.0, 44.0):
        assert decoherence_factor(t, frozen) == 1.0


def test_decoherence_factor_is_affine_in_kernel_squared():
    # eta - mu = (1 - mu) * K^2, so eta shares every stationary point of K^2.
    for mu in (0.0, 0.35, 0.8):
        for tau in (0.1, 5.0):
            cfg = ChannelConfig(mu=mu, tau=tau)
            for t in np.linspace(0.0, 20.0, 81):
                k = memory_kernel(float(t), cfg).k
                eta = decoherence_factor(float(t), cfg)
                assert abs((eta - mu) - (1.0 - mu) * k * k) < 1e-15


def test_decoherence_factor_monotone_in_mu():
    for t in (0.1, 0.9, 3.0):
        for tau in (0.1, 5.0):
            values = [
                decoherence_factor(t, ChannelConfig(mu=mu, tau=tau))
                for mu in np.linspace(0.0, 1.0, 21)
            ]
            assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))


def test_evolve_identity_at_time_zero():
    rho = density_matrix(channel_params("lambda"), HALF_PI)
    out = evolve(rho, 0.0, ChannelConfig(mu=0.3, tau=0.1))
    assert np.max(np.abs(out.matrix - rho.matrix)) < 1e-15


def test_evolve_frozen_at_full_correlation():
    rho = density_matrix(channel_params("lambda"), HALF_PI)
    out = evolve(rho, 7.3, ChannelConfig(mu=1.0, tau=0.1))
    assert np.max(np.abs(out.matrix - rho.matrix)) < 1e-15


def test_evolve_uncorrelated_scales_by_kernel_squared():
    rho = density_matrix(channel_params("lambda"), HALF_PI)
    cfg = ChannelConfig(mu=0.0, tau=0.1)
    for t in (0.2, 0.9, 2.4):
        k = memory_kernel(t, cfg).k
        out = evolve(rho, t, cfg)
        assert abs(out.rho14 - 0.13125 * k * k) < 1e-14
        assert abs(out.rho23 - 0.36875 * k * k) < 1e-14


def test_evolve_matches_kraus_composition():
    taus = (0.1, 5.0)
    mus = (0.0, 0.3, 0.6, 0.8, 1.0)
    phis = (0.0, 0.5, 1.1, HALF_PI, 2.3)
    for name in ("lambda", "sigma+"):
        ch = channel_params(name)
        for phi in phis:
            rho0 = density_matrix(ch, phi)
            for mu in mus:
                for tau in taus:
                    cfg = ChannelConfig(mu=mu, tau=tau)
                    for t in np.linspace(0.0, 10.0, 9):
                        k = memory_kernel(float(t), cfg).k
                        jp = joint_probabilities(flip_probability(k), mu)
                        a = evolve(rho0, float(t), cfg).matrix
                        b = kraus_apply(rho0, jp).matrix
                        assert np.max(np.abs(a - b)) < 1e-12


def test_dephase_domain():
    rho = density_matrix(channel_params("lambda"), HALF_PI)
    with pytest.raises(DomainError):
        dephase(rho, 1.5)


@pytest.mark.parametrize(
    "function", [memory_kernel, decoherence_factor, evolve], ids=lambda f: f.__name__
)
@pytest.mark.parametrize(
    "t, message",
    [
        ("1", "time must be a real number, got '1'"),
        (None, "time must be a real number, got None"),
        (1j, "time must be a real number, got 1j"),
    ],
    ids=["str", "none", "complex"],
)
def test_time_of_a_wrong_type_is_a_domain_error(function, t, message):
    cfg = ChannelConfig(mu=0.5, tau=1.0)
    rho = density_matrix(channel_params("lambda"), HALF_PI)
    with pytest.raises(DomainError) as err:
        function(*((rho, t, cfg) if function is evolve else (t, cfg)))
    assert str(err.value) == message


@pytest.mark.parametrize(
    "eta, message",
    [
        ("0.5", "eta must be a real number, got '0.5'"),
        (None, "eta must be a real number, got None"),
        (np.array([0.1, 0.2]), "eta must be a real number, got array([0.1, 0.2])"),
    ],
    ids=["str", "none", "array"],
)
def test_dephase_of_a_wrong_type_is_a_domain_error(eta, message):
    rho = density_matrix(channel_params("lambda"), HALF_PI)
    with pytest.raises(DomainError) as err:
        dephase(rho, eta)
    assert str(err.value) == message


@pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
def test_kernel_rejects_non_finite_time(t):
    for tau in (0.1, 0.5, 5.0):
        with pytest.raises(DomainError, match="time must be finite"):
            kernel(t, tau)


@pytest.mark.parametrize("tau", [math.inf, math.nan])
def test_config_rejects_non_finite_tau(tau):
    with pytest.raises(DomainError, match="tau"):
        ChannelConfig(mu=0.5, tau=tau)


@pytest.mark.parametrize("tau", [1e-160, 1e-300, 5e-324, 3.7e-155])
def test_config_rejects_tau_whose_kernel_rate_overflows(tau):
    with pytest.raises(DomainError, match="tau is too small"):
        ChannelConfig(mu=0.5, tau=tau)


# An np.float64 near the float range must not make the arithmetic warn.
def test_config_rejects_a_numpy_tau_whose_kernel_rate_overflows_as_a_float():
    with pytest.raises(DomainError) as want:
        ChannelConfig(mu=0.5, tau=1e-160)
    with pytest.raises(DomainError, match="tau is too small") as got:
        ChannelConfig(mu=0.5, tau=np.float64(1e-160))
    assert str(got.value) == str(want.value)


def test_kernel_of_a_huge_numpy_time_is_zero_as_for_a_float():
    cfg = ChannelConfig(mu=0.5, tau=0.1)
    assert memory_kernel(np.float64(1e308), cfg).k == 0.0
    assert memory_kernel(1e308, cfg).k == 0.0


#: Times up to the largest float, where u*t and v*t overflow.
EDGE_TIMES = (0.0, 5e-324, 1.0, 1e300, 1e308, 1.7e308, 1.79e308, sys.float_info.max)


def test_kernel_contract_holds_at_float_edges():
    # Every tau ChannelConfig accepts, log-spaced from the subnormals to the
    # largest float, and the taus whose kernels broke at huge t.
    taus = [10.0 ** float(e) for e in np.arange(-323.0, 308.5, 0.5)]
    taus += [3.73e-155, 0.25, 0.2500001, 0.25 - 1e-9, 0.3, 0.5, 1.79e308, sys.float_info.max]
    accepted = 0
    for tau in taus:
        try:
            cfg = ChannelConfig(mu=0.5, tau=tau)
        except DomainError as exc:
            assert "tau" in str(exc)
            assert tau < 3.73e-155
            continue
        accepted += 1
        assert memory_kernel(0.0, cfg).k == 1.0
        for t in EDGE_TIMES:
            k = memory_kernel(t, cfg).k
            assert math.isfinite(k) and abs(k) <= 1.0 + 1e-15, (tau, t, k)
    assert accepted > 900


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    upsilon=st.one_of(st.sampled_from([1.0, -1.0, -0.99, -0.98]), st.floats(-1.0, 1.0)),
    delta_theta=st.floats(-math.pi, math.pi),
    phi=st.one_of(st.sampled_from([0.0, HALF_PI, math.pi]), st.floats(0.0, math.pi)),
    mu=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    tau=st.sampled_from([0.1, 0.25, 0.5, 5.0]),
    t=st.floats(0.0, 60.0),
)
def test_custom_channels_match_kraus_or_raise(upsilon, delta_theta, phi, mu, tau, t):
    """Any channel constants either raise inside the ``HyperspinError``
    hierarchy or evolve as the Kraus sum does and measure cleanly."""
    try:
        rho0 = density_matrix(HyperonChannel("x", upsilon, delta_theta), phi)
        cfg = ChannelConfig(mu=mu, tau=tau)
        k = memory_kernel(t, cfg).k
        direct = evolve(rho0, t, cfg)
        via_kraus = kraus_apply(rho0, joint_probabilities(flip_probability(k), mu))
        measure_all(direct, decoherence_factor(t, cfg), k)
    except HyperspinError:
        return
    assert np.max(np.abs(direct.matrix - via_kraus.matrix)) <= 1e-12


def test_kernel_memo_equal_but_distinct_arguments():
    t1 = 1.75
    t2 = float("1.75")
    assert t2 is not t1
    cfg1 = ChannelConfig(mu=0.3, tau=0.7)
    cfg2 = ChannelConfig(mu=0.3, tau=0.7)
    other = ChannelConfig(mu=0.3, tau=0.1)
    first = memory_kernel(t1, cfg1)
    for t, cfg in ((t2, cfg2), (t1, cfg2), (t2, cfg1), (t1, cfg1)):
        assert memory_kernel(t, cfg) == first
    # The same time object under another config is that config's value.
    assert memory_kernel(t1, other) == memory_kernel(float("1.75"), other) != first
    assert memory_kernel(t1, cfg1) == first


def test_kernel_memo_is_not_poisoned_by_a_raising_call():
    cfg = ChannelConfig(mu=0.2, tau=5.0)
    t = 0.8
    good = memory_kernel(t, cfg)
    for bad, error in ((-0.5, NegativeTimeError), (math.nan, DomainError), (math.inf, DomainError)):
        for _ in range(2):
            with pytest.raises(error):
                memory_kernel(bad, cfg)
        assert memory_kernel(t, cfg) == good
        assert memory_kernel(float("0.8"), cfg) == good


def test_kernel_memo_recomputes_numpy_times(kernel_bodies):
    cfg = ChannelConfig(mu=0.5, tau=0.1)
    t64 = np.float64(1.5)
    assert memory_kernel(t64, cfg) == memory_kernel(t64, cfg)
    assert len(kernel_bodies) == 2
    # A 0-d array is mutable: a memo keyed on it would return a stale value.
    t0d = np.array(1.5)
    before = memory_kernel(t0d, cfg).k
    t0d[()] = 3.0
    assert memory_kernel(t0d, cfg).k == memory_kernel(3.0, cfg).k != before
    assert len(kernel_bodies) == 5
    # A float time is memoized: its repeat builds nothing.
    t = 2.5
    memory_kernel(t, cfg)
    memory_kernel(t, cfg)
    assert len(kernel_bodies) == 6


def test_kernel_memo_threads_match_a_serial_run():
    configs = [ChannelConfig(mu=0.4, tau=tau) for tau in (0.1, 5.0)]
    # Few time objects, asked for over and over, so threads collide on them.
    times = [0.3 * i for i in range(1, 5)]
    # Consecutive calls here never share a time object, so none is a memo hit.
    serial = {
        (i, j): memory_kernel(t, c).k for j, c in enumerate(configs) for i, t in enumerate(times)
    }
    n_threads = 4
    passes = 5000
    results = [[] for _ in range(n_threads)]
    start = threading.Barrier(n_threads)

    def work(slot):
        # Threads of one parity ask for the same keys in the same order, the
        # others for the other config at each time object; each key is asked
        # for twice in a row, as a quick-tour point does.
        out = results[slot]
        start.wait(timeout=60.0)
        for _ in range(passes):
            for i, t in enumerate(times):
                j = (i + slot) % 2
                out.append(((i, j), memory_kernel(t, configs[j]).k, memory_kernel(t, configs[j]).k))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(n,)) for n in range(n_threads)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    for out in results:
        assert len(out) == passes * len(times)
        for key, first, second in out:
            assert first == second == serial[key]
