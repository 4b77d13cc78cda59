import numpy as np
import pytest

from fracac import (
    KernelSpec,
    Periodic,
    Potential,
    embed_profile,
    make_grid,
    rescale_blowdown,
    solve_layer_1d,
)


@pytest.fixture(scope="session")
def quartic():
    return Potential.quartic()


@pytest.fixture(scope="session")
def layer_s05():
    return solve_layer_1d(0.5, 40.0, 0.05, tol=1e-10)


@pytest.fixture(scope="session")
def layer_s03():
    return solve_layer_1d(0.3, 40.0, 0.05, tol=1e-10)


@pytest.fixture(scope="session")
def layer_s08():
    return solve_layer_1d(0.8, 40.0, 0.05, tol=1e-10)


@pytest.fixture(scope="session")
def grid2d():
    return make_grid(2, 16.0, 0.125)


@pytest.fixture(scope="session")
def embedded_layer(layer_s05, grid2d):
    """Plain embedding of the s = 0.5 profile along the first axis."""
    return embed_profile(layer_s05, (1.0, 0.0), grid2d)


@pytest.fixture(scope="session")
def embedded_layer_zoomed(layer_s05, grid2d):
    """Zoomed embedding probing the large-radius regime."""
    return embed_profile(rescale_blowdown(layer_s05, 32.0), (1.0, 0.0), grid2d)


@pytest.fixture(scope="session")
def spec1_unit():
    return KernelSpec.fractional_unit(0.5, 1)


@pytest.fixture(scope="session")
def spec2_unit():
    return KernelSpec.fractional_unit(0.5, 2)


def dense_matrix(op):
    """Oracle for LU solves and dense eigensolves: the full matrix of an
    exterior-grid operator, tails on the diagonal, assembled entry by entry
    from the pair-weight table (entry (i, j) is -w(x_i - x_j)).  Any
    dimension; N^2 doubles, so small grids only."""
    g = op.grid
    assert not isinstance(g.boundary, Periodic) and g.node_count <= 4096
    p = g.nodes_per_axis
    idx = np.indices(g.shape).reshape(g.n, -1)
    mat = -op.weights[tuple(a[:, None] - a[None, :] + (p - 1) for a in idx)]
    np.fill_diagonal(mat, op.diagonal.ravel())
    return mat


def mode_field(grid, coeffs):
    """Band-limited periodic field from (k, a, b) coefficient triples."""
    x = grid.coords()
    vals = np.zeros(len(x))
    for k, a, b in coeffs:
        vals += a * np.cos(k * x[:, 0]) + b * np.sin(k * x[:, 0])
    from fracac import ScalarField
    return ScalarField(grid, vals.reshape(grid.shape))
