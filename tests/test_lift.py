import numpy as np
import pytest

from bnsolver.errors import ArgumentError, AssumptionGError
from bnsolver.grid import Field
from bnsolver.lift import (
    BumpOnBoundary,
    Constant,
    NodeTable,
    boundary_values,
    compose_solution,
    load_node_table,
    solve_lift,
)


def test_constant_lift_is_constant(box9):
    phi = box9.lift  # g = 1
    dom = box9.domain
    assert type(phi) is Field and phi.domain is dom  # the lift is the field phi itself
    assert np.abs(phi.values - 1.0).max() < 1e-8
    # -Lap phi equals the boundary term of g = 1 on every interior node
    rhs = np.zeros(dom.n_interior)
    for d, ii, _ in dom._boundary_edges:
        np.add.at(rhs, ii, 1.0 / dom.h[d] ** 2)
    assert np.sqrt(dom.weight) * np.linalg.norm(dom.matrix @ phi.values - rhs) < 1e-10


def test_bump_lift_strictly_inside_bounds(box9):
    g = BumpOnBoundary((1.0, 0.0, 0.0), width=0.25, amplitude=2.0)
    phi = solve_lift(g, box9.domain)
    assert phi.values.min() > 0.0
    assert phi.values.max() < 2.0


def test_phi_pairs_positively_with_e1(box9, annulus9):
    rng = np.random.default_rng(2)
    for setup in (box9, annulus9):
        dom = setup.domain
        e1 = setup.spectral.e1.values
        for _ in range(5):
            g = NodeTable(rng.uniform(0.0, 1.0, dom.boundary_flat.size))
            phi = solve_lift(g, dom)
            assert dom.inner(phi.values, e1) > 0.0


def test_maximum_principle_random_tables(box9):
    rng = np.random.default_rng(4)
    dom = box9.domain
    for _ in range(8):
        vals = rng.uniform(0.0, 3.0, dom.boundary_flat.size)
        vals[rng.integers(0, vals.size, 5)] = 0.0
        phi = solve_lift(NodeTable(vals), dom)
        assert phi.values.min() >= vals.min()
        assert phi.values.max() <= vals.max()


def test_lift_linearity(box9):
    rng = np.random.default_rng(9)
    dom = box9.domain
    g1 = rng.uniform(0.0, 1.0, dom.boundary_flat.size)
    g2 = rng.uniform(0.0, 2.0, dom.boundary_flat.size)
    a, b = 0.7, 1.3
    phi1 = solve_lift(NodeTable(g1), dom).values
    phi2 = solve_lift(NodeTable(g2), dom).values
    phi = solve_lift(NodeTable(a * g1 + b * g2), dom).values
    combo = a * phi1 + b * phi2
    scale = np.abs(combo).max()
    assert np.abs(phi - combo).max() <= 1e-10 * scale


def test_assumption_violations(box9):
    dom = box9.domain
    with pytest.raises(AssumptionGError):
        solve_lift(Constant(0.0), dom)
    bad = np.ones(dom.boundary_flat.size)
    bad[3] = -0.5
    with pytest.raises(AssumptionGError):
        solve_lift(NodeTable(bad), dom)
    with pytest.raises(AssumptionGError):
        boundary_values(NodeTable(np.zeros(dom.boundary_flat.size)), dom)


def test_wrong_table_size(box9):
    with pytest.raises(ArgumentError):
        solve_lift(NodeTable(np.ones(7)), box9.domain)


def test_compose_and_invert(box9):
    rng = np.random.default_rng(1)
    v = box9.random_field(rng)
    u = compose_solution(v, 2.5, box9.lift)
    back = u.values - 2.5 * box9.lift.values
    assert np.abs(back - v.values).max() <= 4 * np.finfo(float).eps * np.abs(u.values).max()
    zero = Field(np.zeros(box9.domain.n_interior), box9.domain)
    z = compose_solution(zero, 0.0, box9.lift)
    assert not np.any(z.values)
    ones = compose_solution(zero, 1.0, box9.lift)
    assert np.abs(ones.values - 1.0).max() < 1e-8


def test_compose_domain_mismatch(box9, box13):
    v = Field(np.zeros(box13.domain.n_interior), box13.domain)
    with pytest.raises(ArgumentError):
        compose_solution(v, 1.0, box9.lift)
    with pytest.raises(ArgumentError):
        compose_solution(Field(np.zeros(box9.domain.n_interior), box9.domain), -1.0, box9.lift)


def test_node_table_file(tmp_path, box9):
    dom = box9.domain
    path = tmp_path / "g.txt"
    with open(path, "w") as f:
        f.write("# boundary node index, value\n")
        f.write("0 1.5\n")
        f.write(f"{dom.boundary_flat.size - 1} 0.25\n")
    table = load_node_table(path, dom)
    assert table.values[0] == 1.5
    assert table.values[-1] == 0.25
    assert table.values[1] == 0.0
    phi = solve_lift(table, dom)
    assert phi.values.min() >= 0.0

    bad = tmp_path / "bad.txt"
    with open(bad, "w") as f:
        f.write("99999 1.0\n")
    with pytest.raises(ArgumentError):
        load_node_table(bad, dom)
