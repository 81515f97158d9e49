"""Boundary data and its discrete harmonic lift.

The nonhomogeneous problem with boundary values mu*g is reduced to a
homogeneous one by the lift phi solving the discrete Laplace equation with
Dirichlet data g; solutions are composed as u = v + mu*phi.  Admissible g is
nonnegative and not identically zero.  The lift is the `Field` phi itself.

A lift is accepted by one test, `check_lift`: interior residual below
1e-10 * max g and the maximum principle bounds.  `solve_lift` solves for phi
and applies it (the solve's few-ulp spill past the bounds is clipped);
`load_lift` applies it, with no slack, to the lift a run stored, so that
`bnsolver certify` reads phi instead of solving for it again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, AssumptionGError, NumericalError
from .grid import Box, Domain, Field, load_field


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


@dataclass(frozen=True)
class TableFile:
    """A node table named by its path (`load_node_table`), read on the
    domain each time the data are evaluated."""
    path: str


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
    if isinstance(g, TableFile):
        g = load_node_table(g.path, domain)
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
    """Two-column text file: boundary node index, value; an index not given
    is 0.  ArgumentError, naming the file and line, on a line that is not a
    boundary index and a finite number, and on an index given twice (both
    lines named)."""
    vals = np.zeros(domain.boundary_flat.size)
    given = {}  # the line of each index
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
        if not math.isfinite(val):
            raise ArgumentError(f"{path}:{lineno}: not a finite number: {parts[1]!r}")
        if idx in given:
            raise ArgumentError(
                f"{path}:{lineno}: boundary index {idx} repeats the one at line {given[idx]}")
        vals[idx], given[idx] = val, lineno
    return NodeTable(vals)


def solve_lift(g, domain: Domain) -> Field:
    """Solve the discrete Laplace equation with Dirichlet data g
    (`Domain.solve_poisson`: exact on a box, CG to 1e-13 otherwise, on the
    reflection fold over the axes that fix the boundary term when the
    lattice has at least `grid.FOLD_MIN_NODES` interior nodes).

    The returned lift phi passes `check_lift` on the lattice: interior
    residual below 1e-10 * max g and the discrete maximum principle bounds
    min g <= phi <= max g, which the solve meets to a few ulps and the
    returned phi exactly (clipped).
    """
    gvals = boundary_values(g, domain)
    rhs = _lift_rhs(gvals, domain)
    phi = domain.solve_poisson(rhs, rtol=1e-13, maxiter=50 * domain.n_interior, label="lift")
    # The discrete solution obeys the maximum principle exactly; the computed
    # one may sit a few ulps outside.  Snap those, reject anything larger.
    check_lift(phi, gvals, rhs, domain, slack=1e-9 * max(float(gvals.max()), 1.0))
    return Field(np.clip(phi, gvals.min(), gvals.max()), domain)


@np.errstate(over="ignore", invalid="ignore")  # damaged values that overflow fail the check
def load_lift(path, g, domain: Domain) -> Field:
    """The lift of a run, read from its `dump_field` dump at path and checked
    instead of solved again: it must pass `check_lift` against the boundary
    data g with no slack, as the clipped lift that `solve_lift` returns
    does.  ArgumentError, naming the path, when the file is not a readable
    field dump (`load_field`) or fails the check."""
    phi = load_field(path, domain)
    gvals = boundary_values(g, domain)
    try:
        check_lift(phi.values, gvals, _lift_rhs(gvals, domain), domain)
    except NumericalError as e:
        raise ArgumentError(f"{path}: {e}") from None
    return phi


def _lift_rhs(gvals, domain: Domain):
    """The boundary term of -Lap phi on the interior nodes: the stencil's
    couplings to the boundary nodes, carrying the data gvals."""
    rhs = np.zeros(domain.n_interior)
    for d, ii, border in domain._boundary_edges:
        np.add.at(rhs, ii, gvals[border] / domain.h[d] ** 2)
    return rhs


def check_lift(phi, gvals, rhs, domain: Domain, slack=0.0):
    """The acceptance test of a lift, the raw value array phi, for boundary
    data gvals and their boundary term rhs (`_lift_rhs`): the interior
    residual ||-Lap phi - rhs||_2 is below 1e-10 * max g, and
    min g - slack <= phi <= max g + slack.  NumericalError, carrying the
    residual when that is what fails."""
    gmax = float(gvals.max())
    resid = domain.l2_norm(domain.matrix @ phi - rhs)
    if resid >= 1e-10 * gmax:
        raise NumericalError(
            f"lift residual {resid:.3e} not below 1e-10 * max g = {1e-10 * gmax:.3e}",
            residual=resid,
        )
    lo, hi = float(gvals.min()), gmax
    if phi.min() < lo - slack or phi.max() > hi + slack:
        raise NumericalError(
            f"lift violates maximum principle bounds [{lo:g}, {hi:g}] "
            f"beyond tolerance: range [{float(phi.min())!r}, {float(phi.max())!r}]"
        )

