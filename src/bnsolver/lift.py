"""Boundary data and its discrete harmonic lift.

The nonhomogeneous problem with boundary values mu*g is reduced to a
homogeneous one by the lift phi solving the discrete Laplace equation with
Dirichlet data g; solutions are composed as u = v + mu*phi.  Admissible g is
nonnegative and not identically zero.  The lift is the `Field` phi itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, AssumptionGError, NumericalError
from .grid import Box, Domain, Field


@dataclass(frozen=True)
class Constant:
    value: float


@dataclass(frozen=True)
class BumpOnBoundary:
    direction: tuple
    width: float
    amplitude: float


@dataclass(frozen=True)
class NodeTable:
    values: np.ndarray


def _boundary_target(domain: Domain, direction):
    """Point where the ray from the domain center along `direction` exits."""
    d = np.asarray(direction, dtype=float)
    nd = np.linalg.norm(d)
    if nd == 0 or d.size != domain.ndim:
        raise ArgumentError("bump direction must be a nonzero vector of the domain dimension")
    d = d / nd
    if isinstance(domain.spec.shape, Box):
        center = np.array([0.5 * s for s in domain.spec.shape.sides])
        ts = []
        for k in range(domain.ndim):
            if d[k] > 0:
                ts.append((domain.spec.shape.sides[k] - center[k]) / d[k])
            elif d[k] < 0:
                ts.append(-center[k] / d[k])
        return center + min(ts) * d
    return domain._r_out * d


def boundary_values(g, domain: Domain) -> np.ndarray:
    """Evaluate boundary data on the domain's boundary nodes and check the
    nonnegativity assumption."""
    nb = domain.boundary_flat.size
    if isinstance(g, Constant):
        vals = np.full(nb, float(g.value))
    elif isinstance(g, BumpOnBoundary):
        if g.width <= 0:
            raise ArgumentError("bump width must be positive")
        c = _boundary_target(domain, g.direction)
        d2 = np.sum((domain.boundary_coords - c) ** 2, axis=1)
        vals = float(g.amplitude) * np.exp(-d2 / (2.0 * g.width**2))
    elif isinstance(g, NodeTable):
        vals = np.asarray(g.values, dtype=float)
        if vals.shape != (nb,):
            raise ArgumentError(
                f"node table has {vals.shape} values, domain has {nb} boundary nodes"
            )
    else:
        raise ArgumentError(f"unknown boundary data {g!r}")
    if not np.all(np.isfinite(vals)):
        raise AssumptionGError("boundary data contains non-finite values")
    if np.any(vals < 0):
        raise AssumptionGError("boundary data must be nonnegative")
    if not np.any(vals > 0):
        raise AssumptionGError("boundary data must not vanish identically")
    return vals


def load_node_table(path, domain: Domain) -> NodeTable:
    """Two-column text file: boundary node index, value."""
    vals = np.zeros(domain.boundary_flat.size)
    try:
        with open(path) as f:
            lines = f.readlines()
    except (OSError, ValueError) as e:
        raise ArgumentError(f"{path}: unreadable node table: {e}") from None
    for lineno, line in enumerate(lines, 1):
        parts = line.split("#")[0].split()
        if not parts:
            continue
        if len(parts) != 2:
            raise ArgumentError(f"{path}:{lineno}: expected 'index value'")
        try:
            idx, val = int(parts[0]), float(parts[1])
        except ValueError:
            raise ArgumentError(
                f"{path}:{lineno}: expected an integer index and a number, got {line.strip()!r}"
            ) from None
        if not 0 <= idx < vals.size:
            raise ArgumentError(f"{path}:{lineno}: boundary index {idx} out of range")
        vals[idx] = val
    return NodeTable(vals)


def solve_lift(g, domain: Domain) -> Field:
    """Solve the discrete Laplace equation with Dirichlet data g
    (`Domain.solve_poisson`: exact on a box, CG to 1e-13 otherwise).

    The returned lift phi satisfies the discrete maximum principle bounds
    min g <= phi <= max g and has interior residual below 1e-10 * max g.
    """
    gvals = boundary_values(g, domain)
    gmax = float(gvals.max())

    rhs = np.zeros(domain.n_interior)
    for d, ii, border in domain._boundary_edges:
        np.add.at(rhs, ii, gvals[border] / domain.h[d] ** 2)

    phi = domain.solve_poisson(rhs, rtol=1e-13, maxiter=50 * domain.n_interior, label="lift")
    resid = domain.l2_norm(domain.matrix @ phi - rhs)
    if resid >= 1e-10 * gmax:
        raise NumericalError(
            f"lift residual {resid:.3e} not below 1e-10 * max g = {1e-10 * gmax:.3e}",
            residual=resid,
        )

    # The discrete solution obeys the maximum principle exactly; the computed
    # one may sit a few ulps outside.  Snap those, reject anything larger.
    lo, hi = float(gvals.min()), gmax
    slack = 1e-9 * max(gmax, 1.0)
    if phi.min() < lo - slack or phi.max() > hi + slack:
        raise NumericalError(
            f"lift violates maximum principle bounds [{lo:g}, {hi:g}] "
            f"beyond tolerance: range [{phi.min():g}, {phi.max():g}]"
        )
    phi = np.clip(phi, lo, hi)

    return Field(phi, domain)


def compose_solution(v: Field, mu: float, phi: Field) -> Field:
    """u = v + mu * phi."""
    if v.domain is not phi.domain:
        raise ArgumentError("field and lift live on different domains")
    if mu < 0:
        raise ArgumentError("mu must be nonnegative")
    return Field(v.values + mu * phi.values, v.domain)
