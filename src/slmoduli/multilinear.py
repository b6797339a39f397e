"""Combinatorics of antisymmetric index tuples.

Coefficients of a k-form are stored per strictly increasing index tuple, in
lexicographic order.  The helpers here generate the wedge/contraction/pullback
bookkeeping once per (dimension, degree) and cache it, so that both constant
ambient forms and gridded form fields share one set of sign conventions:
orientation is the ascending axis order throughout.
"""

from functools import lru_cache
from itertools import combinations
from math import comb

import numpy as np


@lru_cache(maxsize=None)
def index_tuples(d, k):
    """All strictly increasing k-tuples in {0..d-1}, lexicographic."""
    return tuple(combinations(range(d), k))


@lru_cache(maxsize=None)
def tuple_position(d, k):
    """Map increasing tuple -> position in the coefficient layout."""
    return {t: i for i, t in enumerate(index_tuples(d, k))}


def merge_sign(left, right):
    """Sign of sorting the concatenation of two disjoint increasing tuples.

    Returns 0 if the tuples share an index.
    """
    if set(left) & set(right):
        return 0
    inversions = sum(1 for a in left for b in right if a > b)
    return -1 if inversions % 2 else 1


@lru_cache(maxsize=None)
def wedge_table(d, k, l):
    """List of (pos_a, pos_b, pos_out, sign) entries for the wedge product."""
    out_pos = tuple_position(d, k + l)
    table = []
    for ia, ta in enumerate(index_tuples(d, k)):
        for ib, tb in enumerate(index_tuples(d, l)):
            s = merge_sign(ta, tb)
            if s:
                merged = tuple(sorted(ta + tb))
                table.append((ia, ib, out_pos[merged], s))
    return tuple(table)


def wedge_coeffs(a, b, d, k, l):
    """Wedge two coefficient arrays whose last axis is the tuple index."""
    a = np.asarray(a)
    b = np.asarray(b)
    shape = np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
    out = np.zeros(shape + (comb(d, k + l),), dtype=np.result_type(a, b))
    for ia, ib, io, s in wedge_table(d, k, l):
        out[..., io] += s * a[..., ia] * b[..., ib]
    return out


@lru_cache(maxsize=None)
def contraction_table(d, k):
    """Entries (axis, pos_in, pos_out, sign) for interior product with a vector."""
    out_pos = tuple_position(d, k - 1)
    table = []
    for ii, tup in enumerate(index_tuples(d, k)):
        for p, axis in enumerate(tup):
            rest = tup[:p] + tup[p + 1:]
            table.append((axis, ii, out_pos[rest], -1 if p % 2 else 1))
    return tuple(table)


def contract_coeffs(vector, a, d, k):
    """Interior product iota(v) applied to k-form coefficients."""
    a = np.asarray(a)
    vector = np.asarray(vector)
    out = np.zeros(a.shape[:-1] + (comb(d, k - 1),), dtype=np.result_type(a, vector))
    for axis, ii, io, s in contraction_table(d, k):
        out[..., io] += s * vector[axis] * a[..., ii]
    return out


def pullback_coeffs(a, matrix, k):
    """Pull back k-form coefficients through the linear map s -> matrix @ s.

    ``matrix`` has shape (d_src, d_tgt); the result lives in d_tgt dimensions.
    Coefficient rule: (f*a)_J = sum_I a_I det(matrix[I, J]).
    """
    matrix = np.asarray(matrix)
    d_src, d_tgt = matrix.shape
    a = np.asarray(a)
    src_tuples = index_tuples(d_src, k)
    tgt_tuples = index_tuples(d_tgt, k)
    out = np.zeros(a.shape[:-1] + (len(tgt_tuples),), dtype=np.result_type(a, matrix))
    if k:
        # every (target, source) minor in one stacked det call
        rows = np.array(src_tuples, dtype=np.intp).reshape(len(src_tuples), k)
        cols = np.array(tgt_tuples, dtype=np.intp).reshape(len(tgt_tuples), k)
        minors = np.linalg.det(matrix[rows[None, :, :, None], cols[:, None, None, :]])
    else:
        minors = np.ones((1, 1))
    for jj in range(len(tgt_tuples)):
        for ii in range(len(src_tuples)):
            minor = minors[jj, ii]
            if minor != 0.0:
                out[..., jj] += minor * a[..., ii]
    return out


@lru_cache(maxsize=None)
def complement_table(d, k):
    """For each increasing k-tuple: (position, complement position, sign).

    The sign is that of the permutation (tuple, complement) relative to
    ascending order, i.e. the coefficient of dx^tuple ^ dx^complement on the
    volume form.
    """
    comp_pos = tuple_position(d, d - k)
    table = []
    for ii, tup in enumerate(index_tuples(d, k)):
        comp = tuple(i for i in range(d) if i not in tup)
        table.append((ii, comp_pos[comp], merge_sign(tup, comp)))
    return tuple(table)


def minor_matrix(g, rows, cols):
    """Determinant of the (rows, cols) submatrix of a stacked matrix field."""
    if len(rows) == 0:
        return np.ones(np.asarray(g).shape[:-2])
    sub = np.asarray(g)[..., list(rows), :][..., :, list(cols)]
    return np.linalg.det(sub)
