"""The piecewise-linear error scale that bounds the Legendre involution in tests."""

from slmoduli.hessian import legendre_transform


def interpolation_tolerance(pot):
    """Error scale of the piecewise-linear conjugation route onto the dual box.

    Classical bound: the PL interpolant deviates by M h^2 / 8 with M the
    curvature; conjugation maps curvature M to 1/M, so both grids contribute.
    The quintic line conjugates lie far below it; the tests keep it as a
    loose bound.
    """
    m_min, m_max = pot.eigenvalue_bounds
    h_u = max(pot.spacings)
    h_v = max(float(ax[1] - ax[0]) for ax in legendre_transform(pot).dual.axes)
    return (m_max * h_u ** 2 + h_v ** 2 / m_min) / 8.0
