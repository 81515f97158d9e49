from functools import cached_property

import numpy as np
import pytest

from bnsolver.functional import Params
from bnsolver.grid import (
    AnnulusD,
    Box,
    DomainSpec,
    Field,
    build_domain,
    compute_spectral_data,
)
from bnsolver.lift import Constant, solve_lift
from bnsolver.numutil import abs_pow, signed_pow


class Setup:
    """One domain with its spectral data and the g = 1 lift."""

    def __init__(self, spec):
        self.domain = build_domain(spec)
        self.spectral = compute_spectral_data(self.domain)
        self.lift = solve_lift(Constant(1.0), self.domain)

    def params(self, lam_factor=0.5, mu=0.01, lam=None):
        lam = lam if lam is not None else lam_factor * self.spectral.lambda1
        return Params(lam=lam, mu=mu, spectral=self.spectral, lift=self.lift)

    def random_field(self, rng, positive=False):
        v = rng.standard_normal(self.domain.n_interior)
        if positive:
            v = np.abs(v) + 0.1
        return Field(v, self.domain)


def count_builds(monkeypatch, cls, names):
    """Wrap the cached properties `names` of cls so that every build is
    logged as (name, id of the object); returns the log."""
    builds = []
    for name in names:
        def counted(self, func=vars(cls)[name].func, name=name):
            builds.append((name, id(self)))
            return func(self)

        prop = cached_property(counted)
        prop.__set_name__(cls, name)
        monkeypatch.setattr(cls, name, prop)
    return builds


def text_dump(full):
    """A lattice array in the text dump format of older runs: a header line
    "N size_1 ... size_N", then the values in row-major order."""
    return (" ".join(str(n) for n in (full.ndim, *full.shape)) + "\n"
            + " ".join("%.17g" % x for x in full.ravel()) + "\n")


def quadrature_fibering(v, p, t, order):
    """Direct quadrature of the fibering map T(t) = E(t v) along the ray v,
    independent of `FiberingProfile`.  For order k = 0, 1 or 2 returns the
    arrays (C_k, T^(k)) at every t of the array t, with w = t v + mu phi and
    the critical integrals C_0 = int |w|^(2*), C_1 = int |w|^(2*-2) w v and
    C_2 = int |w|^(2*-2) v^2, each summed over every node at every t."""
    d = p.domain
    ts = p.two_star
    a = d.h1_norm_sq(v)
    t = np.atleast_1d(np.asarray(t, dtype=float))
    crit, lin = np.empty(t.size), np.empty(t.size)
    step = max(1, 2**18 // v.size)
    for s in range(0, t.size, step):
        w = t[s : s + step, None] * v[None, :] + p.mu_phi[None, :]
        if order == 0:
            crit_k, lin_k = abs_pow(w, ts), w * w
        elif order == 1:
            crit_k, lin_k = signed_pow(w, ts - 1.0) * v, w * v
        else:
            crit_k, lin_k = abs_pow(w, ts - 2.0) * (v * v), np.broadcast_to(v * v, w.shape)
        crit[s : s + step] = d.weight * crit_k.sum(axis=1)
        lin[s : s + step] = d.weight * lin_k.sum(axis=1)
    if order == 0:
        return crit, 0.5 * (a * t * t - p.lam * lin) - crit / ts
    if order == 1:
        return crit, a * t - p.lam * lin - crit
    return crit, a - p.lam * lin - (ts - 1.0) * crit


@pytest.fixture(scope="session")
def box9():
    return Setup(DomainSpec(Box((1.0, 1.0, 1.0)), 3, 9))


@pytest.fixture(scope="session")
def box13():
    return Setup(DomainSpec(Box((1.0, 1.0, 1.0)), 3, 13))


@pytest.fixture(scope="session")
def box5():
    return Setup(DomainSpec(Box((1.0, 1.0, 1.0)), 3, 5))


@pytest.fixture(scope="session")
def annulus9():
    return Setup(DomainSpec(AnnulusD(0.5), 3, 9))
