"""Orbit iteration, escape classification, cobweb traces, escape-time grids.

Escape is decided by the sound radius test |x| > p in model coordinates: once
an iterate clears the larger fixed point the orbit increases monotonically to
infinity, so "escaped at n" is a proof, while "bounded" always means "did not
escape within max_iter" (no finite computation can certify true boundedness
on a measure-zero invariant set).

The escape threshold carries a small documented slack, ORBIT_DRIFT_BUDGET:
orbits are iterated in double-double but their observable states are doubles,
so points that represent members of the invariant set (segment endpoints,
whose true orbits stay inside the hull forever) sit up to an ulp off the set
and oscillate around the hull corners by a few 1e-16.  The threshold
p * (1 + 1e-13) ignores that representation jitter without ever excusing a
genuine escape: a true escape grows by a factor ~lambda per step and crosses
any such band immediately.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _dd
from .conjugacy import _finite, _phi_dd, _phi_inv_dd
from .errors import DomainError
from .quadratic_map import QuadraticParams, derive_params

ORBIT_DRIFT_BUDGET = 1e-13


@dataclass(frozen=True)
class OrbitResult:
    """Outcome of iterating a point.

    escaped=True: `iteration` is the first index n with |x_n| beyond the
    escape radius.  escaped=False: `iteration` is the number of iterations
    run without escaping.  `trajectory` optionally keeps the first iterates
    (capped), starting with the initial point.  A batched iterate_target
    fills `escaped` and `iteration` with arrays, one entry per start point.
    """

    escaped: bool
    iteration: int
    trajectory: Optional[tuple] = None


def _resolve_model(params_or_c):
    """Accept QuadraticParams or a bare c; returns (c, radius).

    For c > 1/4 there is no fixed point and every orbit diverges; any iterate
    past max(1, |c|) is then provably on its way out, which keeps plain
    parameters like c = 1/2 usable for cobweb demonstrations.  A c that is
    not finite, or whose fixed point overflows, raises DomainError from
    derive_params.
    """
    if isinstance(params_or_c, QuadraticParams):
        return params_or_c.c, params_or_c.escape_radius
    c = float(params_or_c)
    if 0.25 < c < math.inf:
        return c, max(1.0, abs(c))
    return c, derive_params(c).escape_radius


def iterate_model(params_or_c, x0, max_iter, keep_trajectory=0):
    """Iterate F_c from x0, classifying against the escape radius."""
    max_iter = int(max_iter)
    if max_iter < 1:
        raise DomainError(f"max_iter must be >= 1, got {max_iter}")
    c, radius = _resolve_model(params_or_c)
    threshold = radius * (1.0 + ORBIT_DRIFT_BUDGET)
    xh, xl = float(x0), 0.0
    traj = [] if keep_trajectory else None
    for n in range(max_iter + 1):
        x = xh + xl
        if traj is not None and len(traj) < keep_trajectory:
            traj.append(x)
        if abs(x) > threshold:
            return OrbitResult(True, n, tuple(traj) if traj is not None else None)
        if n == max_iter:
            break
        xh, xl = _dd.add(*_dd.sqr(xh, xl), c, 0.0)
    return OrbitResult(False, max_iter, tuple(traj) if traj is not None else None)


def iterate_target(pl, params, y0, max_iter, keep_trajectory=0):
    """Iterate F* from y0; escape is tested in model coordinates, i.e. at the
    first n with |phi^(-1)(y_n)| beyond the escape radius.

    Each step stores the iterate as a plain double (the observable state of
    eval_fstar) before mapping back, so orbit and pointwise evaluation agree.

    y0 must be finite (DomainError otherwise).  An ndarray y0 iterates
    every lane at once: the result's `escaped` (bool) and `iteration`
    (int64) are arrays of y0's shape, equal lane by lane to the scalar
    call, and `trajectory` is None.
    """
    max_iter = int(max_iter)
    if max_iter < 1:
        raise DomainError(f"max_iter must be >= 1, got {max_iter}")
    threshold = params.escape_radius * (1.0 + ORBIT_DRIFT_BUDGET)
    if isinstance(y0, np.ndarray) and keep_trajectory:
        raise DomainError("keep_trajectory needs a scalar y0")
    y = _finite(y0)
    if isinstance(y, np.ndarray):
        return _iterate_target_array(pl, params, y, max_iter, threshold)
    traj = [] if keep_trajectory else None
    for n in range(max_iter + 1):
        if traj is not None and len(traj) < keep_trajectory:
            traj.append(y)
        xh, xl = _phi_inv_dd(pl, y)
        if abs(xh + xl) > threshold:
            return OrbitResult(True, n, tuple(traj) if traj is not None else None)
        if n == max_iter:
            break
        fh, fl = _dd.add(*_dd.sqr(xh, xl), params.c, 0.0)
        yh, yl = _phi_dd(pl, fh, fl)
        y = yh + yl
    return OrbitResult(False, max_iter, tuple(traj) if traj is not None else None)


def _iterate_target_array(pl, params, y0, max_iter, threshold):
    """The loop of iterate_target over the lanes of y0 that have not yet
    escaped: like mandelbrot_grid, it records the lanes that escape and
    drops them, so each step costs the lanes still alive."""
    escaped = np.zeros(y0.shape, dtype=bool)
    iteration = np.full(y0.shape, max_iter, dtype=np.int64)
    alive = np.arange(y0.size)
    y = y0.ravel()
    for n in range(max_iter + 1):
        xh, xl = _phi_inv_dd(pl, y)
        esc = np.abs(xh + xl) > threshold
        if esc.any():
            escaped.flat[alive[esc]] = True
            iteration.flat[alive[esc]] = n
            alive, xh, xl = alive[~esc], xh[~esc], xl[~esc]
        if n == max_iter or alive.size == 0:
            break
        fh, fl = _dd.add(*_dd.sqr(xh, xl), params.c, 0.0)
        yh, yl = _phi_dd(pl, fh, fl)
        y = yh + yl
    return OrbitResult(escaped, iteration)


def cobweb_trace(f, x0, steps):
    """Segments of the graphical-analysis path for `steps` applications of f.

    Starts at (x0, f(x0)), then alternates horizontally to the diagonal and
    vertically to the graph, ending on the diagonal: 2*steps - 1 segments.
    """
    steps = int(steps)
    if steps < 1:
        raise DomainError(f"steps must be >= 1, got {steps}")
    x = float(x0)
    fx = f(x)
    verts = [(x, fx)]
    for _ in range(steps - 1):
        x = fx
        fx = f(x)
        verts.append((x, x))
        verts.append((x, fx))
    verts.append((fx, fx))
    return [(verts[k], verts[k + 1]) for k in range(len(verts) - 1)]


def classify_grid(classifier, lo, hi, n_points, max_iter):
    """Classify a uniform grid of starting points.

    classifier(x0, max_iter) must return an OrbitResult (pass a closure over
    iterate_model or iterate_target).  Returns a list of (x, OrbitResult).
    """
    n_points = int(n_points)
    if n_points < 2:
        raise DomainError(f"n_points must be >= 2, got {n_points}")
    lo, hi = float(lo), float(hi)
    if not lo < hi:
        raise DomainError(f"invalid grid range [{lo!r}, {hi!r}]")
    xs = np.linspace(lo, hi, n_points)
    return [(float(x), classifier(float(x), max_iter)) for x in xs]


def _check_bailout(bailout):
    """bailout squared, refusing a bailout that is not finite or whose
    square overflows: the escape test would then never fire."""
    b2 = float(bailout) * float(bailout)
    if not np.isfinite(b2):
        raise DomainError(f"bailout must be finite with a finite square, "
                          f"got {bailout!r}")
    return b2


def mandelbrot_escape(c_re, c_im, max_iter, bailout=2.0):
    """Escape iteration of z -> z^2 + c from z = 0, or None when the orbit
    stays within the bailout for max_iter steps.  c and bailout must be
    finite (DomainError otherwise)."""
    max_iter = int(max_iter)
    if max_iter < 1:
        raise DomainError(f"max_iter must be >= 1, got {max_iter}")
    cr, ci = float(c_re), float(c_im)
    if not (np.isfinite(cr) and np.isfinite(ci)):
        raise DomainError(f"c must be finite, got {cr!r} + {ci!r}i")
    b2 = _check_bailout(bailout)
    zr = zi = 0.0
    for n in range(1, max_iter + 1):
        zr, zi = zr * zr - zi * zi + cr, 2.0 * zr * zi + ci
        if zr * zr + zi * zi > b2:
            return n
    return None


def mandelbrot_grid(region, width, height, max_iter, bailout=2.0):
    """Escape-iteration counts over a pixel grid; -1 marks inside points.

    region = (re_min, re_max, im_min, im_max).  Pixel (row, col) samples the
    center of its cell, rows running top to bottom (row 0 at im_max).  The
    per-pixel arithmetic matches mandelbrot_escape exactly.  A region entry
    or bailout that is not finite, or a region too wide for its pixel
    centres to be finite doubles, raises DomainError.

    The loop runs on flat arrays of the live pixels only: each iteration
    writes the count of the pixels that escaped and drops them, so the work
    per iteration is the number of pixels still inside.
    """
    width, height = int(width), int(height)
    if width < 1 or height < 1:
        raise DomainError(f"image dimensions must be >= 1, got {width}x{height}")
    max_iter = int(max_iter)
    if max_iter < 1:
        raise DomainError(f"max_iter must be >= 1, got {max_iter}")
    re_min, re_max, im_min, im_max = (float(v) for v in region)
    b2 = _check_bailout(bailout)
    # a non-finite entry or an overflowing spacing leaves a centre non-finite
    with np.errstate(over="ignore", invalid="ignore"):
        re = re_min + (np.arange(width) + 0.5) * (re_max - re_min) / width
        im = im_max - (np.arange(height) + 0.5) * (im_max - im_min) / height
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise DomainError(f"region must be finite with finite pixel centres, "
                          f"got {(re_min, re_max, im_min, im_max)!r}")
    cr = np.tile(re, height)
    ci = np.repeat(im, width)
    out = np.full(height * width, -1, dtype=np.int32)
    zr = np.zeros_like(cr)
    zi = np.zeros_like(ci)
    live = np.arange(out.size)
    for n in range(1, max_iter + 1):
        zr, zi = zr * zr - zi * zi + cr, 2.0 * zr * zi + ci
        esc = zr * zr + zi * zi > b2
        if esc.any():
            out[live[esc]] = n
            keep = ~esc
            live, zr, zi = live[keep], zr[keep], zi[keep]
            cr, ci = cr[keep], ci[keep]
            if live.size == 0:
                break
    return out.reshape(height, width)
