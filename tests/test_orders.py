"""Observed convergence orders of certified residuals on the grid ladder 33 / 65 / 129
(65 / 129 / 257 for Monge-Ampere solver output).

A residual that vanishes in the continuum at rate h^p falls by about 2^p from
one grid to the next finer one.  The two-grid bound of the CLI,
``fd.two_grid_bound``, passes a fine residual while it is below 10/16 of the
coarse one, an observed order above log2(1.6) = 0.68, or while it is roundoff.
``ORDERS`` pins the order each residual shows on smooth data, so a change
that moves a verdict shows here as a moved order first.  Every value and
floor is read from the CLI's two-grid entry points (``cli.TWO_GRID``), the
ones the commands report.  A halving step whose finer value is within
``ROUNDOFF`` times its floor is roundoff, not truncation, and is not read as
an order.
"""

import numpy as np
import pytest

from slmoduli import cli
from slmoduli.hessian import HessianPotential, solve_ma_dirichlet
from slmoduli.semiflat import gh_metric

LADDER = (33, 65, 129)
ROUNDOFF = 10.0  # the factor of the floor in fd.two_grid_bound

# residual: (lowest, highest) observed order of each halving of h, 33 -> 65
# and 65 -> 129
ORDERS = {
    # the line conjugates read the primal's quintic spline, sixth order, and
    # resample from its slopes and curvatures, so the Fenchel gap at the
    # dual's nodes is sixth order where it is above roundoff
    "fenchel": [(5.0, 6.5)] * 2,
    "legendre_involution": [(5.0, 6.5)] * 2,
    # fourth-order stencils, but the Christoffel oracle reads order 3
    "gh ricci_flat": [(2.7, 3.4)] * 2,
    # a V whose harmonic conjugate W is not polynomial: W's quadrature error
    # is fourth order, but the curvature built on it falls as h^2 (with the
    # exact W it falls 7.2 to 7.9 times per halving)
    "gh ricci_flat, quadrature W": [(1.5, 2.0)] * 2,
    # the exact solution of det Hess = 1: the norm variation and the Kahler
    # Ricci form read the fourth order of the stencils; the oracle's
    # agreement falls faster on the first halving (5.5), while its
    # one-sided rows still reach into the read region
    "semiflat prop5": [(3.8, 4.2)] * 2,
    "semiflat ricci_flat": [(3.8, 4.2)] * 2,
    "semiflat ricci_oracle": [(5.2, 5.8), (3.8, 4.2)],
    # the Laplace residual of the partial reduction of the solver's cosh
    # solution, against a coarse re-solve: 2.9 to 3.5 on the first halving
    # and 3.6 to 4.0 on the second, rising towards the stencils' fourth order
    "partial-legendre prop3, solver output": [(2.6, 3.8), (3.4, 4.2)],
}


def _orders(values, floors):
    """log2 of each coarse-to-fine ratio of the ladder, None where the finer
    value is roundoff."""
    return [None if fine <= ROUNDOFF * floor else float(np.log2(coarse / fine))
            for coarse, fine, floor in zip(values, values[1:], floors[1:])]


def _assert_band(name, orders):
    read = [(order, band) for order, band in zip(orders, ORDERS[name]) if order is not None]
    assert read, f"{name}: every step is roundoff"
    assert all(lowest <= order <= highest for order, (lowest, highest) in read), (name, orders)


def _assert_ladder_orders(entry_point, inputs, label="{}"):
    """Read each check's fine values and floors off ``entry_point`` on the
    ladder's inputs, pin the orders of ``ORDERS[label.format(check)]`` and
    return the ladder."""
    ladder = [entry_point(source) for source in inputs]
    for name in ladder[0][0]:
        values = [fine[name] for fine, _, _ in ladder]
        floors = [floor[name] for _, _, floor in ladder]
        _assert_band(label.format(name), _orders(values, floors))
    return ladder


@pytest.mark.parametrize("half_width, beta", [(1.0, 0.05), (1.0, 0.15), (2.0, 0.1)])
def test_legendre_residual_orders(half_width, beta):
    # the chart benchmark's potential over its range of beta, and on a wider
    # box, where the 129^2 residuals are still far above roundoff.  On the
    # narrow box the Fenchel gap is already roundoff at 65^2 and 129^2
    # (within 10 floors on both halvings, at beta = 0.05 and 0.15), so it is
    # pinned there as the partial reduction is, and shows no order
    pots = [HessianPotential.from_function([np.linspace(-half_width, half_width, n)] * 2,
                                           lambda a, b: (a ** 2 + b ** 2) / 2 + beta * np.cosh(a))
            for n in LADDER]
    if half_width != 1.0:
        _assert_ladder_orders(cli.TWO_GRID["legendre"], pots)
        return
    ladder = [cli.TWO_GRID["legendre"](pot) for pot in pots]
    for fine, _, floor in ladder[1:]:
        assert fine["fenchel"] <= ROUNDOFF * floor["fenchel"]
    _assert_band("legendre_involution", _orders(
        [fine["legendre_involution"] for fine, _, _ in ladder],
        [floor["legendre_involution"] for _, _, floor in ladder]))


def _gh_ladder(v_of):
    for n in LADDER:
        axes = [np.linspace(0.0, 1.0, n)] * 2
        yield gh_metric(v_of(*np.meshgrid(*axes, indexing="ij")), axes)


@pytest.mark.parametrize("b", [0.1, 0.5])
def test_gh_curvature_order(b):
    # the curvature benchmark's V over its range of b
    _assert_ladder_orders(cli.TWO_GRID["gh"],
                          _gh_ladder(lambda y1, y2: 2.0 + y1 + b * (y1 ** 2 - y2 ** 2)), "gh {}")


def test_gh_curvature_order_with_a_quadrature_conjugate():
    _assert_ladder_orders(cli.TWO_GRID["gh"],
                          _gh_ladder(lambda y1, y2: 3.0 + np.exp(y1) * np.cos(y2)),
                          "gh {}, quadrature W")


def _exact(n, a):
    """a u1^2 / (2 u2) + u2^3 / (6 a), det Hess = 1, on the curvature
    benchmark's box [-1/2, 1/2] x [1/2, 3/2]."""
    axes = [np.linspace(-0.5, 0.5, n), np.linspace(0.5, 1.5, n)]
    return HessianPotential.from_function(
        axes, lambda u1, u2: a * u1 ** 2 / (2 * u2) + u2 ** 3 / (6 * a), c=1.0)


@pytest.mark.parametrize("a", [0.8, 1.25])
def test_semiflat_residual_orders_on_the_exact_solution(a):
    # the curvature benchmark's exact solution over its range of a
    ladder = _assert_ladder_orders(
        lambda pot: cli.TWO_GRID["semiflat"](pot, oracle=True),
        (_exact(n, a) for n in LADDER), "semiflat {}")
    if a == 0.8:
        # the 129^2 Kahler Ricci form is already within 10x its floor
        fine, _, floor = ladder[-1]
        assert fine["ricci_flat"] <= ROUNDOFF * floor["ricci_flat"]


@pytest.mark.parametrize("alpha", [0.95, 1.0, 1.05])
def test_partial_legendre_order_on_solver_output(alpha):
    # the chart benchmark's ma-solve output, boundary alpha (cosh u1 +
    # cosh u2) on [0, 1]^2 over its range of alpha, read as the CLI reads a
    # solution.csv: against the coarse re-solve.  The ladder starts at 65^2,
    # as 33^2 is still pre-asymptotic there
    axes = [np.linspace(0.0, 1.0, n) for n in (65, 129, 257)]
    _assert_ladder_orders(
        lambda sol: cli.TWO_GRID["partial-legendre"](sol, True),
        (solve_ma_dirichlet([ax, ax], lambda u1, u2: alpha * (np.cosh(u1) + np.cosh(u2)))
         for ax in axes), "partial-legendre {}, solver output")


@pytest.mark.parametrize("a", [0.8, 1.25])
def test_partial_legendre_is_roundoff_on_the_exact_solution(a):
    # h is exactly harmonic, so the Laplace residual is the rounding of its
    # passes on every rung (1.5e-12 to 1.4e-10), below its closed-form floor,
    # and shows no order
    for n in LADDER:
        fine, _, floor = cli.TWO_GRID["partial-legendre"](_exact(n, a))
        assert 0.0 < fine["prop3"] < floor["prop3"]
