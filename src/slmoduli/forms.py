"""Differential forms on periodic grid tori.

The numerical substrate for every geometric check: exterior calculus with
spectral (trigonometric) differentiation, the Hodge star of a constant
(flat-torus) metric, cycle integration and L^2 pairings.  Orientation is
fixed by ascending axis order.
"""

from dataclasses import dataclass, field
from math import comb

import numpy as np

from .errors import DegreeError, GridMismatchError, MetricError
from .multilinear import (
    complement_table,
    index_tuples,
    minor_matrix,
    tuple_position,
    wedge_coeffs,
)

MIN_RESOLUTION = 8
# symmetry and positive-eigenvalue threshold of a metric
METRIC_TOL = 1e-10


@dataclass(frozen=True)
class GridTorus:
    """Uniform periodic grid on a d-torus.

    Node (i_1..i_d) sits at (i_k * period_k / N_k) with periodic wraparound.
    """

    shape: tuple
    periods: tuple = None

    def __post_init__(self):
        shape = tuple(int(n) for n in self.shape)
        object.__setattr__(self, "shape", shape)
        if any(n < MIN_RESOLUTION for n in shape):
            raise GridMismatchError(
                f"all resolutions must be >= {MIN_RESOLUTION}, got {shape}"
            )
        periods = self.periods
        if periods is None:
            periods = (1.0,) * len(shape)
        periods = tuple(float(p) for p in periods)
        if len(periods) != len(shape):
            raise GridMismatchError("periods and shape must have equal length")
        if any(p <= 0 for p in periods):
            raise GridMismatchError("periods must be positive")
        object.__setattr__(self, "periods", periods)

    @property
    def dim(self):
        return len(self.shape)

    @property
    def spacings(self):
        return tuple(p / n for p, n in zip(self.periods, self.shape))

    @property
    def cell_volume(self):
        return float(np.prod(self.spacings))

    def axes(self):
        """1D coordinate arrays per axis."""
        return [
            np.arange(n) * (p / n) for n, p in zip(self.shape, self.periods)
        ]

    def meshgrid(self):
        return np.meshgrid(*self.axes(), indexing="ij")


@dataclass
class FormField:
    """A k-form: one real coefficient per increasing index tuple per node."""

    torus: GridTorus
    degree: int
    coeffs: np.ndarray

    def __post_init__(self):
        d = self.torus.dim
        if not 0 <= self.degree <= d:
            raise DegreeError(f"degree {self.degree} out of range for d={d}")
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        expected = self.torus.shape + (comb(d, self.degree),)
        if self.coeffs.shape != expected:
            raise GridMismatchError(
                f"coefficient array shape {self.coeffs.shape} != {expected}"
            )

    @classmethod
    def constant(cls, torus, degree, values):
        """The form with the same coefficients at every node.

        ``coeffs`` is a read-only broadcast view of ``values``: it holds no
        bytes per node, and arithmetic on the form returns new arrays.
        """
        values = np.asarray(values, dtype=float)
        coeffs = np.broadcast_to(values, torus.shape + (comb(torus.dim, degree),))
        return cls(torus, degree, coeffs)

    @classmethod
    def from_scalar(cls, torus, values):
        return cls(torus, 0, np.asarray(values, dtype=float)[..., None])

    def norm_inf(self):
        return float(np.max(np.abs(self.coeffs))) if self.coeffs.size else 0.0

    def __add__(self, other):
        _check_same(self, other, same_degree=True)
        return FormField(self.torus, self.degree, self.coeffs + other.coeffs)

    def __sub__(self, other):
        _check_same(self, other, same_degree=True)
        return FormField(self.torus, self.degree, self.coeffs - other.coeffs)

    def __mul__(self, scalar):
        return FormField(self.torus, self.degree, self.coeffs * float(scalar))

    __rmul__ = __mul__

    def __neg__(self):
        return FormField(self.torus, self.degree, -self.coeffs)


@dataclass
class MetricField:
    """Constant symmetric positive definite d x d metric on a grid torus.

    Every metric on a flat torus is one matrix, so the field stores it once
    and validates it once.
    """

    torus: GridTorus
    components: np.ndarray

    def __post_init__(self):
        d = self.torus.dim
        self.components = np.asarray(self.components, dtype=float)
        if self.components.shape != (d, d):
            raise GridMismatchError(
                f"metric components must be ({d}, {d}), got {self.components.shape}"
            )
        sym = np.max(np.abs(self.components - self.components.T))
        if sym > METRIC_TOL:
            raise MetricError(f"metric not symmetric, deviation {sym:.3e}")
        min_eig = np.linalg.eigvalsh(self.components)[0]
        if min_eig <= METRIC_TOL:
            raise MetricError(
                f"metric not positive definite: min eigenvalue {min_eig:.3e}"
            )

    @classmethod
    def euclidean(cls, torus):
        return cls(torus, np.eye(torus.dim))


def _check_same(a, b, same_degree=False):
    if a.torus != b.torus:
        raise GridMismatchError("form fields live on different grid tori")
    if same_degree and a.degree != b.degree:
        raise DegreeError(f"degrees {a.degree} and {b.degree} differ")


def wedge(a, b):
    """Pointwise alternating product a ^ b."""
    _check_same(a, b)
    d = a.torus.dim
    if a.degree + b.degree > d:
        raise DegreeError(
            f"wedge degree {a.degree}+{b.degree} exceeds dimension {d}"
        )
    coeffs = wedge_coeffs(a.coeffs, b.coeffs, d, a.degree, b.degree)
    return FormField(a.torus, a.degree + b.degree, coeffs)


def spectral_derivative(values, axis, period):
    """Derivative along one periodic axis by trigonometric interpolation.

    Exact on trigonometric polynomials below the Nyquist degree; the Nyquist
    mode of an even-length axis is annihilated (its sawtooth has no consistent
    derivative on the grid).
    """
    values = np.asarray(values, dtype=float)
    n = values.shape[axis]
    freq = np.fft.fftfreq(n, d=period / n)
    factor = 2j * np.pi * freq
    if n % 2 == 0:
        factor[n // 2] = 0.0
    shape = [1] * values.ndim
    shape[axis] = n
    spectrum = np.fft.fft(values, axis=axis) * factor.reshape(shape)
    return np.fft.ifft(spectrum, axis=axis).real


def exterior_derivative(a):
    """Exterior derivative by spectral differentiation along each axis."""
    d = a.torus.dim
    k = a.degree
    if k >= d:
        raise DegreeError(f"cannot apply d to a top-degree ({k}) form")
    out_pos = tuple_position(d, k + 1)
    out = np.zeros(a.torus.shape + (comb(d, k + 1),))
    for ii, tup in enumerate(index_tuples(d, k)):
        for axis in range(d):
            if axis in tup:
                continue
            merged = tuple(sorted((axis,) + tup))
            sign = -1 if sum(1 for t in tup if t < axis) % 2 else 1
            out[..., out_pos[merged]] += sign * spectral_derivative(
                a.coeffs[..., ii], axis, a.torus.periods[axis]
            )
    return FormField(a.torus, k + 1, out)


def hodge_star(a, g):
    """Metric Hodge star, orientation from ascending axis order.

    The minors of the inverse metric are scalars, applied to every node's
    coefficients.  Each output component is summed in place in its own slice
    of the result and then scaled once by sign * sqrt(det g), so the call
    holds the result and one node-sized term.  Satisfies
    star(star(a)) = (-1)^{k(d-k)} a.
    """
    if g.torus != a.torus:
        raise GridMismatchError("metric and form live on different grids")
    d = a.torus.dim
    k = a.degree
    ginv = np.linalg.inv(g.components)
    sqrt_det = np.sqrt(np.linalg.det(g.components))
    k_tuples = index_tuples(d, k)
    out = np.zeros(a.torus.shape + (comb(d, d - k),))
    for ii, comp_pos, sign in complement_table(d, k):
        raised = out[..., comp_pos]
        for jj, tj in enumerate(k_tuples):
            raised += minor_matrix(ginv, k_tuples[ii], tj) * a.coeffs[..., jj]
        raised *= sign * sqrt_det
    return FormField(a.torus, d - k, out)


def integrate_top(a):
    """Integral of a top-degree form over the whole torus."""
    d = a.torus.dim
    if a.degree != d:
        raise DegreeError("integrate_top requires a top-degree form")
    return float(np.sum(a.coeffs)) * a.torus.cell_volume


def l2_inner(a, b, g):
    """L^2 pairing integral(a ^ star b) with volume from g."""
    _check_same(a, b, same_degree=True)
    return integrate_top(wedge(a, hodge_star(b, g)))


@dataclass
class CycleBasis:
    """Coordinate one-cycles A_i, Poincare-dual slabs B_i, and dual classes.

    A_i is the axis-i grid loop through the origin node; B_i is the
    codimension-1 slab {s_i = 0} with sign fixed so that the constant classes
    satisfy integral_{A_i} alpha_j = delta_ij and
    integral_L alpha_i ^ beta_l = delta_il.
    """

    torus: GridTorus
    alphas: list = field(default_factory=list)
    betas: list = field(default_factory=list)

    def __post_init__(self):
        d = self.torus.dim
        if not self.alphas:
            pos1 = tuple_position(d, 1)
            volume = float(np.prod(self.torus.periods))
            for i in range(d):
                a = np.zeros(d)
                a[pos1[(i,)]] = 1.0 / self.torus.periods[i]
                self.alphas.append(FormField.constant(self.torus, 1, a))
                b = np.zeros(comb(d, d - 1))
                comp = tuple(j for j in range(d) if j != i)
                sign = -1.0 if i % 2 else 1.0
                b[tuple_position(d, d - 1)[comp]] = (
                    sign * self.torus.periods[i] / volume
                )
                self.betas.append(FormField.constant(self.torus, d - 1, b))

    @property
    def size(self):
        return self.torus.dim

    def integrate_loop(self, a, i):
        """Integral of a 1-form over the coordinate loop A_i."""
        if a.degree != 1:
            raise DegreeError("one-cycle integration requires a 1-form")
        d = self.torus.dim
        pos = tuple_position(d, 1)[(i,)]
        index = [0] * d
        index[i] = slice(None)
        line = a.coeffs[tuple(index) + (pos,)]
        return float(np.sum(line)) * self.torus.spacings[i]

    def integrate_slab(self, a, i):
        """Integral of an (n-1)-form over the dual slab B_i."""
        d = self.torus.dim
        if a.degree != d - 1:
            raise DegreeError("slab integration requires a degree d-1 form")
        comp = tuple(j for j in range(d) if j != i)
        pos = tuple_position(d, d - 1)[comp]
        index = [slice(None)] * d
        index[i] = 0
        slab = a.coeffs[tuple(index) + (pos,)]
        measure = np.prod([self.torus.spacings[j] for j in comp])
        sign = -1.0 if i % 2 else 1.0
        return sign * float(np.sum(slab)) * float(measure)

