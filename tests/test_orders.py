"""Observed convergence orders of certified residuals on the grid ladder 33 / 65 / 129.

A residual that vanishes in the continuum at rate h^p falls by about 2^p from
one grid to the next finer one.  The two-grid bound of the CLI,
``fd.two_grid_bound``, passes a fine residual while it is below 10/16 of the
coarse one, an observed order above log2(1.6) = 0.68, or while it is roundoff.
``ORDERS`` pins the order each residual shows on smooth data, so a change
that moves a verdict shows here as a moved order first.  A halving step
whose finer value is within ``ROUNDOFF`` times its floor is roundoff, not
truncation, and is not read as an order.
"""

import numpy as np
import pytest

from slmoduli.cli import _legendre_residuals
from slmoduli.hessian import HessianPotential, legendre_floor
from slmoduli.semiflat import gh_metric, gh_ricci_max

LADDER = (33, 65, 129)
ROUNDOFF = 10.0  # the factor of the floor in fd.two_grid_bound

# residual: (lowest, highest) observed order of one halving of h
ORDERS = {
    # the quintic spline of the Legendre polish interpolates to sixth order
    "fenchel": (5.0, 6.5),
    "legendre_involution": (5.0, 6.5),
    # fourth-order stencils, but the Christoffel oracle reads order 3
    "gh ricci_flat": (2.7, 3.4),
    # a V whose harmonic conjugate W is not polynomial: W's quadrature error
    # is fourth order, but the curvature built on it falls as h^2 (with the
    # exact W it falls 7.2 to 7.9 times per halving)
    "gh ricci_flat, quadrature W": (1.5, 2.0),
}


def _orders(values, floors):
    """log2 of each coarse-to-fine ratio of the ladder, None where the finer
    value is roundoff."""
    return [None if fine <= ROUNDOFF * floor else float(np.log2(coarse / fine))
            for coarse, fine, floor in zip(values, values[1:], floors[1:])]


def _assert_band(name, orders):
    lowest, highest = ORDERS[name]
    read = [order for order in orders if order is not None]
    assert read, f"{name}: every step is roundoff"
    assert all(lowest <= order <= highest for order in read), (name, orders)


@pytest.mark.parametrize("half_width, beta", [(1.0, 0.05), (1.0, 0.15), (2.0, 0.1)])
def test_legendre_residual_orders(half_width, beta):
    # the chart benchmark's potential over its range of beta, and on a wider
    # box, where the 129^2 residuals are still far above roundoff
    values = {"fenchel": [], "legendre_involution": []}
    floors = []
    for n in LADDER:
        axes = [np.linspace(-half_width, half_width, n)] * 2
        pot = HessianPotential.from_function(
            axes, lambda a, b: (a ** 2 + b ** 2) / 2 + beta * np.cosh(a))
        dual, residuals = _legendre_residuals(pot)
        floors.append(legendre_floor(pot, dual))
        for name, value in residuals.items():
            values[name].append(value)
    for name, ladder in values.items():
        _assert_band(name, _orders(ladder, floors))


def _gh_orders(v_of):
    values, floors = [], []
    for n in LADDER:
        axes = [np.linspace(0.0, 1.0, n)] * 2
        gh = gh_metric(v_of(*np.meshgrid(*axes, indexing="ij")), axes)
        coarse = gh.coarsened()
        values.append(gh_ricci_max(gh))
        floors.append(2 ** 4 * gh_ricci_max(coarse, coarse.roughened()))
    return _orders(values, floors)


@pytest.mark.parametrize("b", [0.1, 0.5])
def test_gh_curvature_order(b):
    # the curvature benchmark's V over its range of b
    orders = _gh_orders(lambda y1, y2: 2.0 + y1 + b * (y1 ** 2 - y2 ** 2))
    _assert_band("gh ricci_flat", orders)


def test_gh_curvature_order_with_a_quadrature_conjugate():
    orders = _gh_orders(lambda y1, y2: 3.0 + np.exp(y1) * np.cos(y2))
    _assert_band("gh ricci_flat, quadrature W", orders)
