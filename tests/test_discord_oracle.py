"""``geometric_discord`` against a numeric minimization, with numpy alone.

The trace-norm geometric discord measured on the first qubit is

    D(rho) = min over chi of 0.5 * ||rho - chi||_1,

with ``chi = P+ (x) t+ + P- (x) t-`` a classical-quantum state: ``P+-`` the
projectors ``(I +- n.sigma)/2`` of a unit vector ``n`` and ``t+-`` positive
2x2 operators of total trace 1.  A seeded Nelder-Mead over ``n`` (two
angles) and the Cholesky factors of ``t+-`` (four reals each) can only find
a distance at or above the minimum, so the closed form must not exceed the
numeric value, and must come close to it.
"""

import math

import numpy as np
from conftest import SIG, random_x_state, x_state

from hyperspin import CHANNELS, channel_params, density_matrix, dephase, geometric_discord

EYE2 = SIG[0]


def kron(a, b):
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(4, 4)


def projectors(theta, azimuth):
    n = (math.sin(theta) * math.cos(azimuth), math.sin(theta) * math.sin(azimuth), math.cos(theta))
    n_sigma = sum(c * s for c, s in zip(n, SIG[1:]))
    return (EYE2 + n_sigma) / 2.0, (EYE2 - n_sigma) / 2.0


def positive(p):
    """``L L^dagger`` of the lower-triangular ``L`` with real diagonal ``p[0]``,
    ``p[3]`` and complex corner ``p[1] + i p[2]``."""
    low = np.array([[p[0], 0.0], [p[1] + 1j * p[2], p[3]]])
    return low @ low.conj().T


def cholesky(t):
    """Parameters that ``positive`` maps to ``t``, a positive 2x2 matrix."""
    l11 = math.sqrt(max(t[0, 0].real, 1e-12))
    l21 = t[1, 0] / l11
    l22 = math.sqrt(max(t[1, 1].real - abs(l21) ** 2, 1e-12))
    return [l11, l21.real, l21.imag, l22]


def distance(m, x):
    """``0.5 * ||m - chi||_1`` for the classical-quantum state of parameters ``x``."""
    plus, minus = projectors(x[0], x[1])
    chi = kron(plus, positive(x[2:6])) + kron(minus, positive(x[6:10]))
    chi /= chi.trace().real
    return 0.5 * np.abs(np.linalg.eigvalsh(m - chi)).sum()


def warm_start(m, theta):
    """Measurement axis at polar angle ``theta`` in the x-z plane, with ``t+-``
    the second qubit's unnormalized states after that measurement."""
    def after(projector):
        block = (kron(projector, EYE2) @ m).reshape(2, 2, 2, 2)
        return np.einsum("ijik->jk", block)

    plus, minus = projectors(theta, 0.0)
    return np.array([theta, 0.0, *cholesky(after(plus)), *cholesky(after(minus))])


def nelder_mead(f, x0, step, iterations):
    """Lowest value and point found from the simplex at ``x0`` with edges ``step``."""
    simplex = [x0] + [x0 + step * e for e in np.eye(len(x0))]
    values = [f(x) for x in simplex]
    for _ in range(iterations):
        order = np.argsort(values)
        simplex = [simplex[i] for i in order]
        values = [values[i] for i in order]
        centroid = np.mean(simplex[:-1], axis=0)
        worst = simplex[-1]
        reflected = 2.0 * centroid - worst
        f_reflected = f(reflected)
        if f_reflected < values[0]:
            expanded = 3.0 * centroid - 2.0 * worst
            f_expanded = f(expanded)
            if f_expanded < f_reflected:
                simplex[-1], values[-1] = expanded, f_expanded
            else:
                simplex[-1], values[-1] = reflected, f_reflected
        elif f_reflected < values[-2]:
            simplex[-1], values[-1] = reflected, f_reflected
        else:
            toward = reflected if f_reflected < values[-1] else worst
            contracted = 0.5 * (centroid + toward)
            f_contracted = f(contracted)
            if f_contracted < min(f_reflected, values[-1]):
                simplex[-1], values[-1] = contracted, f_contracted
            else:
                simplex = [0.5 * (simplex[0] + x) for x in simplex]
                values = [values[0]] + [f(x) for x in simplex[1:]]
    best = int(np.argmin(values))
    return values[best], simplex[best]


def numeric_discord(rho):
    """The least distance found from warm starts on the z and x axes, each
    refined once from its end point."""
    m = rho.matrix
    found = []
    for theta in (0.0, math.pi / 2.0):
        _, x = nelder_mead(lambda x: distance(m, x), warm_start(m, theta), 0.05, 400)
        found.append(nelder_mead(lambda x: distance(m, x), x, 0.01, 400)[0])
    return min(found)


def oracle_states():
    lam = channel_params("lambda")
    states = [
        dephase(density_matrix(lam, math.radians(deg)), eta)
        for deg in (45, 72, 90)
        for eta in (1.0, 0.5)
    ]
    rng = np.random.default_rng(2025)
    for name in sorted(CHANNELS):
        phi, eta = rng.uniform(0.0, math.pi), rng.uniform(0.0, 1.0)
        states.append(dephase(density_matrix(channel_params(name), phi), eta))
    # Unequal inner populations, so r03 != r30: the measured side matters.
    states.append(x_state(0.2034, 0.2554, 0.5230, 0.0182, 0.0347, 0.2687))
    states.append(random_x_state(rng))
    return states


def test_closed_form_discord_is_the_numeric_minimum():
    states = oracle_states()
    assert len(states) == 12
    for rho in states:
        closed = geometric_discord(rho)
        numeric = numeric_discord(rho)
        assert numeric >= closed - 1e-9, (rho, closed, numeric)
        assert numeric - closed <= 2e-3, (rho, closed, numeric)
