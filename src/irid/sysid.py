"""Rational model fitting from sampled impulse responses.

The Steiglitz-McBride iteration fits numerator and denominator by linear
least squares on data filtered through the previous pass's all-pole filter
1/A(z).  It starts from A(z) = 1, so its first pass is the plain
equation-error fit, and it returns the iterate with the least output
error.  Each pass copies its regression's lag columns, one block at a
time, from strided views over the filtered data and impulse, each stored
behind its zero prehistory.  It solves its least-squares problem by one
Householder QR of [regression | data], chosen by size: LAPACK geqrf,
column by column, for a matrix of at most 2**13 entries, and geqrt,
blocked in panels, above that; then a minimum-norm solve of the small
triangular factor R with the eps*n rank rule, by LAPACK gelsd called
directly, its workspace queried once per fit.
A bilinear (Tustin) substitution converts the fitted discrete model to a
continuous one of the same order.
"""

from __future__ import annotations

import functools
import math
import sys
from typing import Tuple

import numpy as np

from .errors import EvaluationError, ParamError
from .lti import (ContinuousTransferFunction, DiscreteTransferFunction,
                  TimeSeries, _all_finite, _allpole, _count,
                  _first_non_finite, _flapack, _sum_squares)

__all__ = ["stmcb_fit", "bilinear_d2c"]

# module-level names, so that a test can replace one
dgelsd, dgelsd_lwork = _flapack.dgelsd, _flapack.dgelsd_lwork
dgeqrf, dgeqrt = _flapack.dgeqrf, _flapack.dgeqrt

# least-squares passes per fit, as in MATLAB's stmcb
_PASSES = 5
# the QR's size rule: a fit's matrix of at most this many entries goes to
# dgeqrf, which runs unblocked below 32 columns, a larger one to dgeqrt.
# Per call on one CPU of a 2-CPU Xeon VM, in two runs: at 256 rows by 12
# columns dgeqrf takes 8-14 us and dgeqrt 13-23 us; the two cross between
# 2**13 and 2**14 entries at 12 and 18 columns (768 by 12 and 512 by 18
# tie, and dgeqrt is 1.1x as fast at 1024 by 12), beyond 2048 rows at 6
_QR_UNBLOCKED_MAX = 2 ** 13
# dgeqrt's panel width, at most the k + 1 >= 3 columns of the fit's
# matrix: a fit has a dozen or so, fewer than dgeqrf's block size of 32;
# blocked, it is 1.3-1.4x as fast as dgeqrf at 16384 rows by 12 columns
_QR_BLOCK = 4
# most entries of a fit's n-by-(nb + na + 2) [regression | data] matrix,
# about 151 MB of doubles: its size at m = 2**20 and norder 8.  The filter's
# band lives in the matrix's storage, so the fit peaks near the matrix
# itself: 187 MB there, 1.24 times it (tracemalloc)
_MAX_FIT_ENTRIES = 2 ** 20 * 18


def _check_fit(n: int, nb: int, na: int) -> Tuple[int, int]:
    """``(nb, na)`` as ints; raises ParamError unless :func:`stmcb_fit`
    can fit a (nb, na) model to ``n`` samples within its matrix cap."""
    nb, na = _count("nb", nb, 0), _count("na", na, 1)
    if n < 3 * (nb + na):
        raise ParamError(f"need at least {3 * (nb + na)} samples, got {n}")
    if n * (nb + na + 2) > _MAX_FIT_ENTRIES:
        raise ParamError(f"a fit of {n} samples at nb={nb}, na={na} needs "
                         f"a {n}x{nb + na + 2} matrix, more than "
                         f"{_MAX_FIT_ENTRIES} entries")
    return nb, na


def _lag_view(src: np.ndarray, n: int, lags: int) -> np.ndarray:
    """The n-by-``lags`` view of ``src`` whose column j is
    src[lags - 1 - j:][:n].  With ``src`` a signal behind p values of
    prehistory, column j is the signal delayed by p - lags + 1 + j."""
    step = src.itemsize
    return np.ndarray((n, lags), src.dtype, src, (lags - 1) * step,
                      (step, -step))


def _keep(best: tuple, resp: np.ndarray, y: np.ndarray, a: np.ndarray,
          b: np.ndarray) -> tuple:
    """``(error, a, b)`` of the iterate b/a, whose impulse response is
    ``resp``, if its squared output error ||y - resp||**2 is below
    ``best[0]``; else ``best``.  ``resp`` is overwritten by y - resp.  A
    non-finite error is never kept, so callers compute ``resp`` and call
    this with floating-point warnings off."""
    err = _sum_squares(np.subtract(y, resp, out=resp))
    return (err, a, b) if err < best[0] else best


def stmcb_fit(h: TimeSeries, nb: int, na: int) -> DiscreteTransferFunction:
    """Fit a discrete rational model to an impulse response by
    Steiglitz-McBride iteration.

    ``nb`` >= 0 and ``na`` >= 1 are the integral numerator and denominator
    degrees; at least 3*(nb + na) samples are needed, and n samples may
    make at most 2**20 * 18 matrix entries, n*(nb + na + 2), else
    ParamError.
    All-zero data has no model to fit and raises EvaluationError.

    Starting from A(z) = 1, each of five passes filters the data and the
    unit impulse together, as two columns of one triangular solve, through
    1/A(z) of the previous pass (zero initial state; both are refilled in
    place each pass, the impulse behind nb values of 0.0 and the data right
    after it, and the solve's band borrows the first (na + 1)*n doubles of
    the regression matrix, idle from one pass's solve to the next pass's
    lag fill), then solves one
    joint least-squares problem for all numerator coefficients and the
    trailing denominator coefficients (a0 pinned at one), minimizing
    ||A(z)*h_f - B(z)*delta_f|| over all samples.  The regression's lag
    columns, h_f delayed by 1..na and negated, and delta_f delayed by
    0..nb, are copied each pass, one ``np.copyto`` per block, from
    strided views, made once per fit, of -h_f behind na values of -0.0
    and of delta_f behind nb of 0.0; -0.0 is what negating lagged zeros
    gives, so the bits are those of a column-by-column build.  The solve
    is one Householder QR of the n-by-(k + 1) matrix [regression | data],
    k = na + nb + 1, which leaves R in its top k-by-k block and
    (Q^T h_f)[:k] above it in the last column: by LAPACK geqrf, one
    column at a time, when n*(k + 1) <= 2**13 (m = 256 at every order),
    and above that by LAPACK geqrt, blocked in panels of min(4, k + 1)
    columns (compact WY), the faster of the two at those sizes; then the
    minimum-norm solution of that k-by-k triangular system with the eps*n
    rank rule, the rule ``np.linalg.lstsq`` applies to the full regression
    matrix.  A rank-deficient (overparameterized) fit therefore gets the
    same minimum-norm answer as a full-matrix solve.  That solve calls
    LAPACK gelsd (the SVD routine lstsq wraps) directly, with its
    workspace sized by one query per fit; a solve LAPACK reports as
    failed (gelsd's SVD did not converge) raises EvaluationError naming
    the iteration, as does a non-finite factor or solution.  A(z) = 1
    leaves the data as it is, so the first pass uses it unfiltered and is
    the equation-error fit.

    Of the five iterates, the one with the least output error
    ||h - impulse response of B(z)/A(z)||, over all samples, is returned;
    a tie keeps the earlier pass.  The iteration need not converge, and
    its last iterate can be worse than one it has already passed.  No
    extra solve is needed: each pass filters the unit impulse through
    the previous iterate's 1/A(z), so the lags of that column times the
    iterate's numerator are its impulse response.  Only the last iterate
    takes one more single-column filter pass, of its numerator.  A
    non-finite output error is never kept; EvaluationError when no
    iterate has a finite one.

    The fit is equivariant under power-of-two scaling: it fits the data
    times 2**-e, e the ``math.frexp`` exponent of its peak, so that the
    rank rule weighs data and unit impulse alike at every scale, and
    returns the numerator times 2**e.  Powers of two are exact, so data
    times 2**k fits to the same denominator and the numerator times 2**k,
    bit for bit; a numerator that overflows when scaled back raises
    EvaluationError.

    Memory: the n-by-(k + 1) matrix, the scaled data, the filtered pair
    and -h_f, about (k + 5)*n doubles; at n = 2**20 and nb = na = 8 the
    fit peaks at 1.24 times its matrix.

    Noiseless data from a model inside the (nb, na) class is recovered to
    roundoff; the iteration is then a fixed point.  No stabilization is
    applied: data that grows without bound fits to a model with poles
    outside the unit circle, and the stability flag is left to the caller
    (see :func:`irid.lti.is_stable_discrete`).
    """
    y = h.values
    n = len(y)
    nb, na = _check_fit(n, nb, na)
    if not y.any():
        raise EvaluationError("all-zero data has no model to fit")
    # the data scaled by 2**-e to peak in [0.5, 1): the rank rule then
    # weighs it against the unit impulse the same way at every scale
    _, e = math.frexp(float(np.abs(y).max()))
    data = np.ldexp(y, -e)
    k = na + nb + 1
    # [-lagged h_f | lagged delta_f | h_f], rewritten each pass; the
    # filter's band borrows its first (na + 1)*n doubles, which nothing
    # reads from one pass's solve to the next pass's lag fill
    store = np.empty((k + 1) * n)
    mat = store.reshape((n, k + 1), order="F")
    band = store[:(na + 1) * n].reshape((na + 1, n), order="F")
    # delta_f behind nb values of 0.0, then h_f: the two columns of one
    # Fortran-order array, refilled each pass and filtered in place
    src_x = np.zeros(nb + 2 * n)
    filtered = src_x[nb:].reshape((n, 2), order="F")
    xf, hf = filtered[:, 0], filtered[:, 1]
    # -h_f behind na values of -0.0, refilled each pass, and the lag blocks
    # of both signals; the -0.0 in row 0 sets the sign of the QR's first
    # reflector, so +0.0 there would change last bits
    src_h = np.full(n + na, -0.0)
    lags_h, lags_x = _lag_view(src_h, n, na), _lag_view(src_x, n, nb + 1)
    # lstsq's default rank rule for the full n-by-k matrix (n > k)
    rcond = sys.float_info.epsilon * n
    # gelsd's workspace for the k-by-k, one-column solves of every pass
    lwork, liwork, _ = dgelsd_lwork(k, k, 1, cond=rcond)
    lwork, liwork = int(lwork), int(liwork)
    unblocked = n * (k + 1) <= _QR_UNBLOCKED_MAX
    below = np.tri(k, k, -1, dtype=bool)
    # the iterate with the least output error so far: (error, a, b)
    best = (math.inf, None, None)
    # floating-point warnings off for the iterates' impulse responses and
    # output errors, which may overflow: a non-finite error is never kept
    with np.errstate(all="ignore"):
        for it in range(_PASSES):
            xf[...] = 0.0
            xf[0] = 1.0
            hf[...] = data
            # pass 0 filters through A(z) = 1, which leaves both as they are
            if it:
                _allpole(a, filtered, band)
                # each column on its own, so "(sample k)" names a time index
                if not np.isfinite(filtered).all():
                    for name, col in (("impulse", xf), ("data", hf)):
                        _all_finite(f"prefiltered {name} overflowed "
                                    f"(iteration {it})", col)
            np.negative(hf, out=src_h[na:])
            np.copyto(mat[:, :na], lags_h)
            np.copyto(mat[:, na:k], lags_x)
            mat[:, k] = hf
            if it:
                # xf is the unit impulse through the last iterate's 1/A(z),
                # so its lags times b are that iterate's impulse response,
                # formed in hf, which the matrix no longer needs
                resp = np.matmul(mat[:, na:k], b, out=hf)
                best = _keep(best, resp, data, a, b)
            # R of the regression and (Q^T h_f)[:k] in one Householder QR
            if unblocked:
                qr = dgeqrf(mat, overwrite_a=1)[0]
            else:
                qr = dgeqrt(min(_QR_BLOCK, k + 1), mat, overwrite_a=1)[0]
            # an overflowed factor would reach LAPACK's rescaling in gelsd
            r = qr[:k, :k + 1]
            bad = _first_non_finite(r)
            if bad is not None:
                row, col = divmod(bad, k + 1)
                raise EvaluationError(
                    f"least-squares factor is non-finite (iteration {it}) "
                    f"(row {row}, column {col})")
            # R is the upper triangle; the QR left its reflectors below it
            r[:, :k][below] = 0.0
            sol, _, _, info = dgelsd(r[:, :k], r[:, k:], lwork, liwork,
                                     cond=rcond)
            if info != 0:
                raise EvaluationError(f"least-squares solve failed, LAPACK "
                                      f"gelsd info {info} (iteration {it})")
            bad = _first_non_finite(sol)
            if bad is not None:
                # sol holds a[1..na], then b[0..nb], in one column
                coef = f"a[{bad + 1}]" if bad < na else f"b[{bad - na}]"
                raise EvaluationError(f"least-squares solution is non-finite "
                                      f"(iteration {it}) (coefficient {coef})")
            a = np.concatenate(([1.0], sol[:na, 0]))
            b = sol[na:, 0]
        # the last iterate's impulse response: its numerator through 1/A(z)
        resp = filtered[:, 1:]
        resp[...] = 0.0
        resp[:nb + 1, 0] = b
        err, a, b = _keep(best, _allpole(a, resp, band)[:, 0], data, a, b)
        if not err < math.inf:
            raise EvaluationError("no iterate has a finite output error")
        b = np.ldexp(b, e)
    return DiscreteTransferFunction(_all_finite(
        "fitted numerator overflows when scaled back to the data", b), a,
        h.dt)


@functools.lru_cache(maxsize=16)
def _bilinear_basis(deg: int) -> np.ndarray:
    """Read-only (deg + 1)-square array whose row k holds the ascending
    coefficients in x = s*ts/2 of (1 + x)**k * (1 - x)**(deg - k), the
    image of z**k once the denominator (1 - x)**deg of the substitution is
    cleared.

    Row 0 holds (-1)**j * comb(deg, j), and since (1 - x) * row k+1 =
    (1 + x) * row k, row k+1 is the running sum of row k plus row k
    shifted up one power: O(deg**2) additions of Python ints, so every
    entry is exact before its one rounding to float."""
    basis = np.empty((deg + 1, deg + 1), dtype=object)
    basis[0] = [(-1) ** j * math.comb(deg, j) for j in range(deg + 1)]
    for k in range(deg):
        row = basis[k].copy()
        row[1:] += basis[k, :-1]
        basis[k + 1] = np.cumsum(row)
    basis = basis.astype(float)
    basis.flags.writeable = False
    return basis


def bilinear_d2c(g: DiscreteTransferFunction) -> ContinuousTransferFunction:
    """Continuous model from the exact substitution
    z = (1 + s*ts/2) / (1 - s*ts/2).

    ``g.num`` and ``g.den`` are stored equally long, so both are read as
    polynomials in z of one degree, the model order.  The resulting
    rational function satisfies Gc(s) == Gd(z(s)) pointwise up to roundoff
    wherever both sides are defined.  A denominator root at z = -1 maps a
    pole to infinity and is rejected.  EvaluationError also when
    (ts/2)**order, the scale of the leading coefficients, is not a finite,
    normal double, when the order is above 1029, where the binomial
    coefficients of the substitution are beyond the double range, or when
    a continuous coefficient, or its quotient by the leading denominator
    coefficient, is not finite: the continuous model's coefficients are
    then out of range, and the message names the first such numerator or
    denominator coefficient, counted from the highest power of s.
    """
    deg = len(g.den) - 1
    with np.errstate(over="ignore"):
        powers = (g.ts / 2.0) ** np.arange(deg + 1)
    if not sys.float_info.min <= powers[-1] < math.inf:
        raise EvaluationError(f"(ts/2)**{deg} = {powers[-1]:g} is not a "
                              f"normal double; the continuous model's "
                              f"coefficients are out of range")
    # the largest basis entry: |coefficients of (1+x)**k * (1-x)**(deg-k)|
    # are at most comb(deg, j), and row deg holds them
    if math.comb(deg, deg // 2) > sys.float_info.max:
        raise EvaluationError(f"model order {deg} is above 1029: the "
                              f"bilinear map's binomial coefficients are "
                              f"beyond the double range")
    # row i of the reversed basis is the image of z**(deg - i), which
    # coefficient i multiplies
    basis = _bilinear_basis(deg)[::-1]
    # sum(|den|) in Python floats, left to right: sum() compensates its
    # float sums from Python 3.12 on, which changes their bits
    den_size = 0.0
    for c in g.den.tolist():
        den_size += abs(c)
    with np.errstate(all="ignore"):
        raw = g.den @ basis
        # the basis's last column is (-1)**i, so raw[-1] is +-den(-1)
        if abs(raw[-1]) <= 1e-12 * den_size:
            raise EvaluationError("discrete denominator has a root at z = -1")
        num = (g.num @ basis * powers)[::-1]
        den = (raw * powers)[::-1]
        # the quotients the monic continuous model stores
        for part, coef in (("numerator", num), ("denominator", den)):
            bad = _first_non_finite(coef / den[0])
            if bad is not None:
                raise EvaluationError(f"continuous model coefficients are out "
                                      f"of the double range ({part} "
                                      f"coefficient {bad})")
    return ContinuousTransferFunction(num, den)
