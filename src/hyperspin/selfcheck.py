"""Embedded invariant suite backing the ``check`` CLI command.

Runs fast versions of the standing oracle tests (closed forms against
numeric re-derivations, channel closed form against the Kraus sum, kernel
contract, CPTP bookkeeping, the measure hierarchy, the phi-boundary zeros,
and the columnar sweep engine against the scalar row of ``point_row``) and
reports per-suite pass/fail counts.  The full-resolution
versions live in the test suite; this module is for release-gate and
field diagnostics.  The suites take no options; the test suite's negative
control substitutes a wrong ``memory_kernel`` in this module and expects
the check to fail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import (
    ChannelConfig,
    decoherence_factor,
    evolve,
    flip_probability,
    joint_probabilities,
    kraus_apply,
    memory_kernel,
)
from .linalg import hermitian_eigenvalues
from .grid import SweepGrid, TimeGrid, point_row
from .measures import measure_all
from .production import CHANNELS, density_matrix, numeric_xstate_params, xstate_params
from .sweep import run_sweep

HIERARCHY_EPS = 1e-12


@dataclass
class SuiteResult:
    """Pass/fail tally of one named check suite."""

    name: str
    passed: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, message: str) -> None:
        if ok:
            self.passed += 1
        else:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(message)

    @property
    def ok(self) -> bool:
        return self.failed == 0


def _suite_production_oracle() -> SuiteResult:
    suite = SuiteResult("production-oracle")
    phis = [k * math.pi / 180.0 for k in range(181)]
    for ch in CHANNELS.values():
        for phi in phis:
            closed = xstate_params(ch, phi)
            numeric = numeric_xstate_params(ch, phi)
            dev = max(
                abs(closed.kappa - numeric.kappa),
                abs(closed.gamma1 - numeric.gamma1),
                abs(closed.gamma2 - numeric.gamma2),
                abs(closed.gamma3 - numeric.gamma3),
            )
            suite.check(dev <= 1e-10, f"{ch.name} phi={phi:.4f} deviation {dev:.2e}")
    return suite


def _suite_state_validity() -> SuiteResult:
    suite = SuiteResult("state-validity")
    phis = [k * math.pi / 90.0 for k in range(91)]
    for ch in CHANNELS.values():
        for phi in phis:
            rho = density_matrix(ch, phi)  # constructor enforces Hermitian/trace/PSD
            eig = hermitian_eigenvalues(rho.matrix)
            suite.check(
                abs(eig.sum() - 1.0) <= 1e-10 and eig[-1] >= -1e-9,
                f"{ch.name} phi={phi:.4f} spectrum {eig}",
            )
            suite.check(
                int(np.sum(np.abs(eig) < 1e-9)) == 2,
                f"{ch.name} phi={phi:.4f} not rank 2: {eig}",
            )
    return suite


def _suite_kernel_contract() -> SuiteResult:
    suite = SuiteResult("kernel-contract")
    times = [k * 0.05 for k in range(1001)]
    for tau in (0.05, 0.1, 0.25, 1.0, 5.0):
        cfg = ChannelConfig(mu=0.0, tau=tau)
        k0 = memory_kernel(0.0, cfg).k
        suite.check(k0 == 1.0, f"tau={tau}: K(0) = {k0}")
        h = 1e-4
        # Second-order one-sided stencil; t < 0 is outside the kernel domain.
        slope = (
            -3.0 * k0 + 4.0 * memory_kernel(h, cfg).k - memory_kernel(2.0 * h, cfg).k
        ) / (2.0 * h)
        suite.check(abs(slope) < 1e-6, f"tau={tau}: dK/dt(0) = {slope:.2e}")
        samples = [memory_kernel(t, cfg).k for t in times]
        suite.check(
            max(abs(s) for s in samples) <= 1.0 + 1e-12,
            f"tau={tau}: |K| exceeds 1",
        )
        if 4.0 * tau < 1.0:
            monotone = all(a >= b >= 0.0 for a, b in zip(samples, samples[1:]))
            suite.check(monotone, f"tau={tau}: Markovian kernel not monotone")
        if tau == 5.0:
            signs = np.sign(samples)
            flips = int(np.sum(signs[:-1] * signs[1:] < 0))
            suite.check(flips >= 2, f"tau=5: only {flips} sign changes")
    return suite


def _suite_channel_oracle() -> SuiteResult:
    suite = SuiteResult("channel-oracle")
    phis = (0.0, math.pi / 3.0, math.pi / 2.0)
    for ch in CHANNELS.values():
        for phi in phis:
            rho0 = density_matrix(ch, phi)
            for mu in (0.0, 0.6, 1.0):
                for tau in (0.1, 5.0):
                    cfg = ChannelConfig(mu=mu, tau=tau)
                    for t in [k * 1.1 for k in range(11)]:
                        direct = evolve(rho0, t, cfg)
                        k = memory_kernel(t, cfg).k
                        jp = joint_probabilities(flip_probability(k), mu)
                        viakraus = kraus_apply(rho0, jp)
                        dev = float(np.max(np.abs(direct.matrix - viakraus.matrix)))
                        suite.check(
                            dev <= 1e-12,
                            f"{ch.name} phi={phi:.3f} mu={mu} tau={tau} t={t}: {dev:.2e}",
                        )
    return suite


def _suite_cptp() -> SuiteResult:
    suite = SuiteResult("cptp")
    rho = density_matrix(CHANNELS["lambda"], math.pi / 2.0)
    for p in (0.0, 0.2, 0.5, 0.9, 1.0):
        for mu in (0.0, 0.3, 0.8, 1.0):
            jp = joint_probabilities(p, mu)
            table = jp.table
            suite.check(
                abs(table.sum() - 1.0) <= 1e-12 and table.min() >= -1e-12,
                f"p={p} mu={mu}: bad joint table",
            )
            single = np.array([1.0 - p, 0.0, 0.0, p])
            marg = float(np.max(np.abs(table.sum(axis=1) - single)))
            suite.check(marg <= 1e-12, f"p={p} mu={mu}: marginal off by {marg:.2e}")
            out = kraus_apply(rho, jp)
            suite.check(
                abs(out.matrix.trace().real - 1.0) <= 1e-12,
                f"p={p} mu={mu}: trace not preserved",
            )
    return suite


def _suite_hierarchy() -> SuiteResult:
    suite = SuiteResult("hierarchy")
    phis = [k * math.pi / 8.0 for k in range(9)]
    for name in ("lambda", "sigma+"):
        ch = CHANNELS[name]
        for phi in phis:
            rho0 = density_matrix(ch, phi)
            for mu in (0.0, 0.6, 1.0):
                for tau in (0.1, 5.0):
                    cfg = ChannelConfig(mu=mu, tau=tau)
                    for t in [k * 0.5 for k in range(21)]:
                        eta = decoherence_factor(t, cfg)
                        rec = measure_all(evolve(rho0, t, cfg), eta, memory_kernel(t, cfg).k)
                        chain = (
                            rec.steering.s_ab,
                            rec.concurrence,
                            rec.gqd,
                            rec.coherence_l1,
                        )
                        ok = all(
                            not (lo > HIERARCHY_EPS and hi <= HIERARCHY_EPS)
                            for lo, hi in zip(chain, chain[1:])
                        )
                        suite.check(
                            ok,
                            f"{name} phi={phi:.3f} mu={mu} tau={tau} t={t}: {chain}",
                        )
    return suite


def _suite_phi_boundary() -> SuiteResult:
    suite = SuiteResult("phi-boundary")
    for name, ch in CHANNELS.items():
        for phi in (0.0, math.pi):
            rho0 = density_matrix(ch, phi)
            for mu, tau, t in ((0.0, 0.1, 0.7), (0.8, 5.0, 3.0)):
                cfg = ChannelConfig(mu=mu, tau=tau)
                eta = decoherence_factor(t, cfg)
                rec = measure_all(evolve(rho0, t, cfg), eta, memory_kernel(t, cfg).k)
                zeroed = max(
                    rec.steering.s_ab, rec.steering.s_ba, rec.concurrence, rec.eof, rec.gqd
                )
                suite.check(zeroed < 1e-12, f"{name} phi={phi}: nonzero measure {zeroed}")
                suite.check(
                    abs(rec.coherence_l1 - eta) <= 1e-12,
                    f"{name} phi={phi}: coherence {rec.coherence_l1} != eta {eta}",
                )
    return suite


def _suite_sweep_oracle() -> SuiteResult:
    """Every row of a small sweep per channel, both regimes, equal in every
    column to ``point_row`` of its one-point grid, the scalar row that
    ``hyperspin measure`` prints: floats bit for bit, signed zeros included."""
    suite = SuiteResult("sweep-oracle")
    phis = (0.0, math.pi / 6.0, math.pi / 2.0, 2.0, math.pi)
    for ch in CHANNELS.values():
        grid = SweepGrid(ch.name, phis, (0.0, 0.6, 1.0), (0.1, 5.0), TimeGrid(0.0, 40.0, 0.8))
        for row in run_sweep(grid).rows:
            point = TimeGrid(row.time, row.time, 1.0)
            want = point_row(SweepGrid(ch.name, (row.phi,), (row.mu,), (row.tau,), point))
            suite.check(
                [v.hex() if isinstance(v, float) else v for v in row.values()]
                == [v.hex() if isinstance(v, float) else v for v in want.values()],
                f"{row.values()} != {want.values()}",
            )
    return suite


def run_checks() -> list[SuiteResult]:
    """Run every suite in a fixed order and return their tallies."""
    return [
        _suite_production_oracle(),
        _suite_state_validity(),
        _suite_kernel_contract(),
        _suite_channel_oracle(),
        _suite_cptp(),
        _suite_hierarchy(),
        _suite_phi_boundary(),
        _suite_sweep_oracle(),
    ]
