"""Orbit iteration, escape classification, cobweb traces, escape-time grids.

Escape is decided by the sound radius test |x| > p in model coordinates: once
an iterate clears the larger fixed point the orbit increases monotonically to
infinity, so "escaped at n" is a proof, while "bounded" always means "did not
escape within max_iter" (no finite computation can certify true boundedness
on a measure-zero invariant set).  A batched iterate_target stops early
once its live states close under F*: those states are then certified never
to escape.  The certificate covers the F* the program computes in doubles,
not the true orbit, and the result is reported exactly as before, bounded
with iteration max_iter.

The escape threshold carries a small documented slack, ORBIT_DRIFT_BUDGET:
orbits are iterated in double-double but their observable states are doubles,
so points that represent members of the invariant set (segment endpoints,
whose true orbits stay inside the hull forever) sit up to an ulp off the set
and oscillate around the hull corners by a few 1e-16.  The threshold
p * (1 + 1e-13) ignores that representation jitter without ever excusing a
genuine escape, which it can only delay: beyond p, F(x) - p equals
(|x| - p)(|x| + p), so the excess over p grows by a factor above 2p >= 1 per
step whatever lambda is, and a true escape crosses the band within finitely
many steps (few for c < -2, where 2p > 4).
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _dd
from .conjugacy import (_eval_array, _eval_float, _finite, _fstar_scalar,
                        _fstar_step)
from .errors import DomainError
from .quadratic_map import QuadraticParams, derive_params

ORBIT_DRIFT_BUDGET = 1e-13


@dataclass(frozen=True)
class OrbitResult:
    """Outcome of iterating a point.

    escaped=True: `iteration` is the first index n with |x_n| beyond the
    escape radius.  escaped=False: `iteration` is max_iter, the number of
    iterations the orbit stayed within the radius.  `trajectory`
    optionally keeps the first iterates (capped), starting with the
    initial point.  A batched iterate_model or iterate_target fills
    `escaped` and `iteration` with arrays, one entry per start point.
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
    """Iterate F_c from x0, classifying against the escape radius.

    x0 must be finite (DomainError otherwise).  An iterate whose square
    overflows the double range has escaped.  An ndarray x0 iterates every
    lane at once, like iterate_target: the result's `escaped` (bool) and
    `iteration` (int64) are arrays of x0's shape, equal lane by lane to
    the scalar call, and `trajectory` is None.
    """
    max_iter = int(max_iter)
    if max_iter < 1:
        raise DomainError(f"max_iter must be >= 1, got {max_iter}")
    c, radius = _resolve_model(params_or_c)
    threshold = radius * (1.0 + ORBIT_DRIFT_BUDGET)
    if isinstance(x0, np.ndarray):
        if keep_trajectory:
            raise DomainError("keep_trajectory needs a scalar x0")
        return _iterate_model_array(c, threshold, _finite(x0), max_iter)
    xh, xl = _finite(float(x0)), 0.0
    traj = [] if keep_trajectory else None
    for n in range(max_iter + 1):
        x = xh + xl
        if traj is not None and len(traj) < keep_trajectory:
            traj.append(x)
        # an overflowing square makes the dd iterate nan, which must count
        # as escaped, so the test is not written as abs(x) > threshold
        if not abs(x) <= threshold:
            return OrbitResult(True, n, tuple(traj) if traj is not None else None)
        if n == max_iter:
            break
        xh, xl = _dd.quad(xh, xl, c)
    return OrbitResult(False, max_iter, tuple(traj) if traj is not None else None)


def _iterate_model_array(c, threshold, x0, max_iter):
    """The loop of iterate_model over the lanes of x0, with the scalar
    loop's dd step and escape test elementwise, so every lane gets the
    scalar bits.  A lane that escapes is recorded at that n and dropped,
    like mandelbrot_grid drops its escaped pixels, so each step costs the
    lanes still alive."""
    escaped = np.zeros(x0.shape, dtype=bool)
    iteration = np.full(x0.shape, max_iter, dtype=np.int64)
    lanes = np.arange(x0.size)
    xh, xl = x0.ravel(), np.zeros(x0.size)
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(max_iter + 1):
            out = ~(np.abs(xh + xl) <= threshold)
            if out.any():
                escaped.flat[lanes[out]] = True
                iteration.flat[lanes[out]] = n
                keep = ~out
                lanes, xh, xl = lanes[keep], xh[keep], xl[keep]
            if n == max_iter or lanes.size == 0:
                break
            xh, xl = _dd.quad(xh, xl, c)
    return OrbitResult(escaped, iteration)


def iterate_target(pl, params, y0, max_iter, keep_trajectory=0):
    """Iterate F* from y0; escape is tested in model coordinates, i.e. at the
    first n with |phi^(-1)(y_n)| beyond the escape radius.

    Each step stores the iterate as a plain double (the observable state of
    eval_fstar) before mapping back, so orbit and pointwise evaluation agree.

    y0 must be finite (DomainError otherwise).  An ndarray y0 iterates
    every lane at once, each distinct state once: the result's `escaped`
    (bool) and `iteration` (int64) are arrays of y0's shape, equal lane by
    lane to the scalar call, and `trajectory` is None.  The array loop
    stops as soon as the images of its live states are all live states
    themselves (closed under F*), since none of them can escape later; see
    _iterate_target_array.  The scalar loop runs every step, on the
    scalar helpers of conjugacy; the trajectory holds y0 as a float and
    the later iterates as np.float64.

    The verdict is the double orbit's, which can disagree with the exact
    orbit of y0 (ROADMAP item 4): a double up to about 1024 ulps inside a
    target gap edge can read bounded although its exact orbit escapes.
    For c = -3, the middle-thirds target and depth 12, y0 =
    0.11111111111111112 lies 7.7e-18 inside the level-2 gap (1/9, 2/9), so
    its exact orbit leaves at step 2; one F* step triples that offset to
    less than half an ulp of 2/3, the double rounds onto the knot 2/3, and
    the orbit reads bounded for 100 steps.
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
    d, c = pl._phi_inv, params.c
    traj = [] if keep_trajectory else None
    for n in range(max_iter + 1):
        if traj is not None and len(traj) < keep_trajectory:
            traj.append(np.float64(y) if n else y)
        xh, xl, _ = _eval_float(d, y)
        if abs(xh + xl) > threshold:
            return OrbitResult(True, n, tuple(traj) if traj is not None else None)
        if n == max_iter:
            break
        y = _fstar_scalar(pl, c, xh, xl)
    return OrbitResult(False, max_iter, tuple(traj) if traj is not None else None)


def _iterate_target_array(pl, params, y0, max_iter, threshold):
    """The loop of iterate_target over the distinct live states of y0.

    A step's outcome depends only on the state's bits, and F* is 2-to-1 on
    the Cantor set, so endpoint orbits merge as they go.  The loop keeps
    the distinct states, deduplicated by bit pattern (0.0 and -0.0 stay
    apart), and an owner index from each live lane to its state; it
    re-deduplicates after every step.  When a state escapes, every lane it
    owns is recorded escaped at that n and dropped, like mandelbrot_grid
    drops its escaped pixels, so each step costs the distinct states still
    alive.

    Let T_n be the states that passed the escape test at step n and
    S_{n+1} = F*(T_n) the next step's states.  When S_{n+1} is a subset of
    T_n the loop stops and every live lane keeps escaped=False and
    iteration=max_iter.  This is exact: a state's verdict and image depend
    only on its bits, so every state of S_{n+1} passes the test again, and
    F*(S_{n+1}) is a subset of F*(T_n) = S_{n+1}; by induction no live
    lane escapes at any later step.  The weaker test "S_{n+1} lies in the
    union of earlier T_k" would be wrong, since F*(T_k) may hold states
    that escape at step k + 1.  Endpoint batches close after a step or two,
    as F* shifts the addresses of stored endpoints onto stored endpoints.
    """
    escaped = np.zeros(y0.shape, dtype=bool)
    iteration = np.full(y0.shape, max_iter, dtype=np.int64)
    lanes = np.arange(y0.size)
    bits, owner = np.unique(y0.ravel().view(np.int64), return_inverse=True)
    for n in range(max_iter + 1):
        xh, xl = _eval_array(pl._phi_inv, bits.view(np.float64))[:2]
        esc = np.abs(xh + xl) > threshold
        if esc.any():
            out = esc[owner]
            escaped.flat[lanes[out]] = True
            iteration.flat[lanes[out]] = n
            keep = ~esc
            # renumber the surviving states 0, 1, ... in their old order
            lanes, owner = lanes[~out], (np.cumsum(keep) - 1)[owner[~out]]
            bits, xh, xl = bits[keep], xh[keep], xl[keep]
        if n == max_iter or lanes.size == 0:
            break
        y = _fstar_step(pl, params.c, xh, xl)
        image, merged = np.unique(y.view(np.int64), return_inverse=True)
        # bits is sorted (np.unique, then the escape mask): one searchsorted
        # tells whether every image is a state that just passed the test
        at = np.searchsorted(bits, image)
        if at[-1] < bits.size and np.array_equal(bits[at], image):
            break
        bits, owner = image, merged[owner]
    return OrbitResult(escaped, iteration)


def cobweb_trace(f, x0, steps):
    """Segments of the graphical-analysis path for `steps` applications of f.

    Starts at (x0, f(x0)), then alternates horizontally to the diagonal and
    vertically to the graph, ending on the diagonal: 2*steps - 1 segments.
    x0 must be finite (DomainError otherwise).
    """
    steps = int(steps)
    if steps < 1:
        raise DomainError(f"steps must be >= 1, got {steps}")
    x = _finite(float(x0))
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

    classifier(xs, max_iter) is called once, on the whole grid as a float64
    ndarray, and must return an OrbitResult of arrays, one entry per point
    (pass a closure over iterate_model or iterate_target, which both take
    arrays).  Returns a list of (x, OrbitResult) with a float x, a bool
    `escaped` and an int `iteration` in each row.  Rows with the same
    verdict share one OrbitResult: there are at most 2 * (max_iter + 1)
    of them, and the dataclass is frozen.
    """
    n_points = int(n_points)
    if n_points < 2:
        raise DomainError(f"n_points must be >= 2, got {n_points}")
    lo, hi = float(lo), float(hi)
    if not lo < hi:
        raise DomainError(f"invalid grid range [{lo!r}, {hi!r}]")
    xs = np.linspace(lo, hi, n_points)
    res = classifier(xs, max_iter)
    verdicts, which = np.unique(2 * res.iteration + res.escaped,
                                return_inverse=True)
    shared = [OrbitResult(bool(v & 1), int(v >> 1)) for v in verdicts.tolist()]
    return [(x, shared[k]) for x, k in zip(xs.tolist(), which.tolist())]


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
    finite (DomainError otherwise).  It returns None once a state equals
    the one one or two steps back: the step is a function of the state's
    value, so the orbit then cycles among states already tested."""
    max_iter = int(max_iter)
    if max_iter < 1:
        raise DomainError(f"max_iter must be >= 1, got {max_iter}")
    cr, ci = float(c_re), float(c_im)
    if not (np.isfinite(cr) and np.isfinite(ci)):
        raise DomainError(f"c must be finite, got {cr!r} + {ci!r}i")
    b2 = _check_bailout(bailout)
    zr = zi = yr = yi = 0.0  # z_0, and z_0 again as the state before it
    for n in range(1, max_iter + 1):
        xr, xi, yr, yi = yr, yi, zr, zi
        zr, zi = zr * zr - zi * zi + cr, 2.0 * zr * zi + ci
        if zr * zr + zi * zi > b2:
            return n
        if (zr == yr and zi == yi) or (zr == xr and zi == xi):
            return None
    return None


def mandelbrot_grid(region, width, height, max_iter, bailout=2.0):
    """Escape-iteration counts over a pixel grid; -1 marks inside points.

    region = (re_min, re_max, im_min, im_max).  Pixel (row, col) samples the
    center of its cell, rows running top to bottom (row 0 at im_max).  The
    per-pixel arithmetic matches mandelbrot_escape exactly.  A region entry
    or bailout that is not finite, or a region too wide for its pixel
    centres to be finite doubles, raises DomainError.

    The loop runs on flat arrays of lanes.  A pixel that escapes gets its
    count and retires in place: its z and c are set to 0.0, and z = c = 0
    is a fixed point with |z|^2 = 0, never past any bailout (b2 >= 0), so a
    retired lane never writes a second count.  The arrays are compacted to
    the lanes still inside only once more than a quarter of them have
    retired, and the loop stops when all have.  Live lanes run the same
    operations in the same order whichever lanes share their arrays, so
    every count is unchanged by when compaction happens.

    The grid is rendered in bands of whole rows, _BAND pixels or fewer each
    (one row at least), one band after another, so that the loop's arrays
    take a few MB however large the grid is; only the int32 counts span it
    all.  No lane's arithmetic reads another lane's, and each band runs the
    steps from n = 1 with the certificate at the same checkpoints, so a
    band computes the counts the whole grid would: like the compaction, the
    band size changes no count.

    A lane is also retired, as inside, once a certificate proves that its
    orbit under the float step F the loop computes can never pass the
    bailout.  Let f(z) = z^2 + c and u = 2^-53.  For |z| <= 1/2 and
    |Re c|, |Im c| <= 1, |F(z) - f(z)| <= E = 2^-51: the real part's two
    squares, difference and sum are off by at most u*(1/4 + 1/4 + 5/4)
    plus 2^-1074 for underflow, the imaginary part's product and sum by
    u*(1/4 + 5/4) plus 2^-1075, 3.3u in all.

    Every 8 steps, when b2 >= 1, each live lane's last two states
    w = z_(n-1) and z_n = F(w) are tested.  Let a = 1 - 2|w|.  If |w| < 1/2
    and a^2/4 >= |z_n - w| + 2E, the closed disk D = D(w, a/2) holds every
    later z_k:
    - z_n is in D, since |z_n - w| <= a^2/4 <= a/2;
    - every z in D has |z| <= |w| + a/2 = 1/2 and |z + w| <= 1 - a/2, so
      |F(z) - w| <= E + |z - w||z + w| + E + |z_n - w|
                  <= a/2 - a^2/4 + 2E + |z_n - w| <= a/2;
    - on D the float escape test reads at most 1/4 * (1 + 3u) < 1 <= b2,
      so it never fires, and the lane's count is -1.  For b2 < 1 the
      certificate is off.
    E applies at w and on D: |z_n| <= |w| + 1/16 below, and z_n's parts
    are c's parts plus terms of size at most 1/4 * (1 + 3u), each sum
    rounded once, so |Re c|, |Im c| < 1.

    The test uses squares only (_trapped).  With s = 1 - 4|w|^2, s/2 <= a
    on |w| <= 1/2 (a - s/2 = 2(|w| - 1/2)^2), so |z_n - w| <= s^2/16 - 2E
    is enough.  In doubles the loop checks
        s = 1 - 4*(wr*wr + wi*wi) > 0,   r = s*s/16 - (2E + M) > 0,
        (zr - wr)^2 + (zi - wi)^2 <= r*r,
    with the margin M = 2^-52 = 2u.  The rounded s is within 4u of the
    real one, and r > 0 makes it at least 2^-23, so the real s is
    positive.  The rounded r exceeds the real s^2/16 - 2E - M by at most
    0.7u, and the comparison's roundings let |z_n - w| exceed r by at
    most 0.2u, so a passing test has |z_n - w| <= s^2/16 - 2E - M + 0.9u,
    and M covers the 0.9u.

    Certified lanes retire to z = c = 0 like escaped ones, with the marker
    count 0 (no escape count is below 1) so that compaction drops them;
    the marker becomes -1 at the end.  Retired lanes pass the test too,
    so a lane is marked only while its count is still -1.
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
    out = np.full(height * width, -1, dtype=np.int32)
    rows = max(1, _BAND // width)
    for r in range(0, height, rows):
        band = im[r:r + rows]
        _escape_band(np.tile(re, band.size), np.repeat(band, width),
                     out[r * width:(r + band.size) * width], max_iter, b2)
    return out.reshape(height, width)


# pixels per band of mandelbrot_grid, rounded down to whole rows (one row
# at least): enough for numpy's per-call overhead to stay small beside the
# arithmetic, few enough for the band's arrays to stay a few MB
_BAND = 40000


def _escape_band(cr, ci, out, max_iter, b2):
    """mandelbrot_grid's loop over the pixels c = cr + i ci of one band,
    writing their counts into out, a view of the grid filled with -1.

    Each step writes into arrays made once per band (and cut to the live
    lanes at each compaction): z's new parts go into the buffers that held
    its previous parts, which stay at hand as w for the certificate, and
    the squares zr*zr and zi*zi that the escape test takes are the next
    step's squares.  Those are the products the step would compute again,
    so every bit is that of (zr*zr - zi*zi + cr, 2.0*zr*zi + ci).
    """
    m = cr.size
    zr, zi, rr, ii = (np.zeros(m) for _ in range(4))
    wr, wi, t = np.empty(m), np.empty(m), np.empty(m)
    big = np.empty(m, dtype=bool)
    live = np.arange(m)
    retired = 0
    trap = b2 >= 1.0
    for n in range(1, max_iter + 1):
        wr, zr, wi, zi = zr, wr, zi, wi
        np.multiply(wr, 2.0, out=zi)
        np.multiply(zi, wi, out=zi)
        np.add(zi, ci, out=zi)
        np.subtract(rr, ii, out=zr)
        np.add(zr, cr, out=zr)
        np.multiply(zr, zr, out=rr)
        np.multiply(zi, zi, out=ii)
        np.add(rr, ii, out=t)
        esc = np.flatnonzero(np.greater(t, b2, out=big))
        if esc.size:
            out[live[esc]] = n
        if trap and n % 8 == 0:
            held = np.flatnonzero(_trapped(wr, wi, zr, zi))
            held = held[out[live[held]] < 0]
            out[live[held]] = 0
            esc = np.concatenate((esc, held))
        if esc.size:
            for x in (zr, zi, rr, ii, cr, ci):
                x[esc] = 0.0
            retired += esc.size
            if retired == live.size:
                break
            if 4 * retired > live.size:
                keep = out[live] < 0
                live, zr, zi, rr, ii, cr, ci = (
                    x[keep] for x in (live, zr, zi, rr, ii, cr, ci))
                m = live.size
                wr, wi, t, big = wr[:m], wi[:m], t[:m], big[:m]
                retired = 0
    out[out == 0] = -1


# E and M of mandelbrot_grid's certificate: a bound on the rounding error of
# one float step near the origin, and the test's rounding margin
_STEP_ERROR = 2.0 ** -51
_TRAP_MARGIN = 2.0 ** -52


def _trapped(wr, wi, zr, zi):
    """Lanes whose step w -> z passes mandelbrot_grid's trapping-disk test;
    the argument and its rounding margins are in that docstring."""
    s = 1.0 - 4.0 * (wr * wr + wi * wi)
    r = 0.0625 * s * s - (2.0 * _STEP_ERROR + _TRAP_MARGIN)
    return (s > 0.0) & (r > 0.0) & ((zr - wr) ** 2 + (zi - wi) ** 2 <= r * r)
