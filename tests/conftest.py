"""Shared independent oracles for the test suite.

These helpers intentionally avoid the library's closed forms: states are
rebuilt from the correlation-matrix definition with ``np.kron``, and
spectra come straight from numpy eigensolvers, so agreement with the
package is evidence rather than tautology.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from hyperspin import HyperonChannel, channel, numeric_xstate_params, phi_matrix
from hyperspin.production import DensityMatrix4

SIG = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def reconstruct_pre_swap(ch: HyperonChannel, phi: float) -> np.ndarray:
    """Production state from its polarization/correlation matrix (original axes)."""
    f = phi_matrix(ch, phi)
    rho = np.zeros((4, 4), dtype=complex)
    for a in range(4):
        for b in range(4):
            if f[a, b] != 0.0:
                rho += f[a, b] * np.kron(SIG[a], SIG[b])
    return rho / 4.0


def reconstruct_x_basis(ch: HyperonChannel, phi: float) -> np.ndarray:
    """Production state rebuilt from the numerically diagonalized X parameters."""
    p = numeric_xstate_params(ch, phi)
    rho = np.kron(SIG[0], SIG[0]).astype(complex)
    rho += p.kappa * (np.kron(SIG[3], SIG[0]) + np.kron(SIG[0], SIG[3]))
    for g, i in zip((p.gamma1, p.gamma2, p.gamma3), (1, 2, 3)):
        rho += g * np.kron(SIG[i], SIG[i])
    return rho / 4.0


def pauli_expectation(rho: np.ndarray, a: int, b: int) -> float:
    """tr[(sigma_a (x) sigma_b) rho], real part."""
    return float(np.trace(np.kron(SIG[a], SIG[b]) @ rho).real)


def wootters_concurrence_general(rho: np.ndarray) -> float:
    """Wootters concurrence from the spin-flipped spectrum, no X shortcuts."""
    yy = np.kron(SIG[2], SIG[2])
    lam = np.linalg.eigvals(rho @ yy @ rho.conj() @ yy)
    roots = np.sqrt(np.abs(np.sort(lam.real)[::-1]))
    return max(0.0, roots[0] - roots[1] - roots[2] - roots[3])


def wootters_concurrence_x(
    a: float, b: float, c: float, d: float, w: complex, z: complex
) -> float:
    """Wootters concurrence of an X matrix via the block closed-form spectrum.

    ``a..d`` are the diagonal entries, ``w`` the corner and ``z`` the inner
    anti-diagonal entry.  The four spin-flip spectrum roots are
    sqrt(b*c) +/- |z| and sqrt(a*d) +/- |w|.
    """
    roots = sorted(
        (
            math.sqrt(b * c) + abs(z),
            abs(math.sqrt(b * c) - abs(z)),
            math.sqrt(a * d) + abs(w),
            abs(math.sqrt(a * d) - abs(w)),
        ),
        reverse=True,
    )
    return max(0.0, roots[0] - roots[1] - roots[2] - roots[3])


def x_state(a: float, b: float, c: float, d: float, w: float, z: float) -> DensityMatrix4:
    """The X state with populations ``a, b, c, d``, ``rho14 = w`` and ``rho23 = z``."""
    m = np.diag([a, b, c, d]).astype(complex)
    m[0, 3] = m[3, 0] = w
    m[1, 2] = m[2, 1] = z
    return DensityMatrix4(m)


def random_x_state(rng: np.random.Generator) -> DensityMatrix4:
    """An X state with Dirichlet populations and real anti-diagonal entries
    drawn uniformly up to the positivity bound."""
    diag = rng.dirichlet((1.0, 1.0, 1.0, 1.0))
    w = rng.uniform(0.0, math.sqrt(diag[0] * diag[3]))
    z = rng.uniform(0.0, math.sqrt(diag[1] * diag[2]))
    return x_state(*diag, w, z)


def binary_entropy(x: float) -> float:
    total = 0.0
    for p in (x, 1.0 - x):
        if p > 0.0:
            total -= p * math.log2(p)
    return total


def bisect(fn, lo: float, hi: float, iters: int = 200) -> float:
    """Plain bisection for a sign change of ``fn`` on [lo, hi]."""
    flo = fn(lo)
    assert flo * fn(hi) <= 0.0, "bisection bracket does not straddle a root"
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if flo * fn(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
            flo = fn(lo)
    return 0.5 * (lo + hi)


def threshold_bisect(pred, lo: float, hi: float, iters: int = 200) -> float:
    """Boundary between pred(lo) == False and pred(hi) == True."""
    assert not pred(lo) and pred(hi), "predicate must flip across the bracket"
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


@pytest.fixture
def kernel_bodies(monkeypatch) -> list:
    """Arguments of every ``KernelValue`` that ``memory_kernel`` builds from
    here on: one per evaluation of the kernel body, none for a memo hit."""
    built: list = []
    real = channel.KernelValue

    def counting(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(channel, "KernelValue", counting)
    return built
