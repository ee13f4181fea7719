"""Finite-depth piecewise-linear conjugacy between two interval systems.

phi_N matches model and target endpoints address for address through level N
and interpolates linearly in between: across paired gaps this is the exact
affine gap-to-gap map, across the remaining level-N segments it approximates
the limiting homeomorphism with sup-error at most the widest level-N target
segment.  Outside the hull both tails are translations (slope one).

Evaluation is exact at knots by construction: a query equal to a stored knot
abscissa returns the paired ordinate bit for bit, which is what lets orbits
of F* = phi o F o phi^(-1) lock onto the endpoint cycles instead of drifting
off the invariant set within a handful of expanding steps.  Interior
arithmetic runs in double-double; public results are correctly rounded.

The evaluators read a map through one record per direction, _Direction:
phi maps the xs onto the ys and phi^(-1) the ys onto the xs.  A record
holds its direction's four knot arrays, memoryviews of them, and the two
slope-one tail offsets at the hull corners, made once with the map.  A
scalar query is placed with bisect on the abscissa view, which gives
searchsorted's side="right" index (NaN, +-inf and +-0.0 included) at
about 60% of its cost; off the knots it reads the few knots it needs
through the views, as Python floats, which give the bits of numpy scalar
arithmetic at about half its cost.  Scalar and array queries alike
interpolate with _dd.interp and step F_c with _dd.quad, the written-out
kernels, so one formula serves both.  A knot hit returns the stored numpy
scalars themselves, so the F* step from a knot still runs on numpy
scalars: as Python floats the bounded orbits run faster, but the
benchmark's per-op ledger then grows past its memory bound, and that step
is left for the address shift (model_cantor._shift), which names its
image outright.  Public scalar results are np.float64 off the knots and
float on a knot.  Every evaluator also takes an ndarray, which one
evaluator, _eval_array, places whole with one searchsorted, reading each
lane's branch (knot, piece or tail) from that index alone; each lane gets
the bits of the scalar call.
"""

import bisect
import math
import operator
import random
from dataclasses import dataclass, field

import numpy as np

from . import _dd
from .errors import CantorDynError, DomainError
from .model_cantor import _BLOCK, _interleave


@dataclass(frozen=True)
class MonotonePLMap:
    """Strictly increasing piecewise-linear map with slope-one tails.

    xs/ys are the knot coordinates (model endpoints paired with target
    endpoints at the same address), xs_lo/ys_lo their double-double tails.
    err_bound is the certified sup-distance to the depth-limit map: the
    widest level-N target segment.  A map that build_phi pairs at a
    system's own depth shares that system's knot arrays (IntervalSystem's
    knots and knots_lo) instead of copying them, so writing into one
    writes into the other, with one exception: the tail offsets at the
    two hull corners are fixed when the map is made.

    The evaluators read the map through _phi and _phi_inv, its two
    directions as _Direction records.
    """

    xs: np.ndarray
    ys: np.ndarray
    err_bound: float
    depth: int
    xs_lo: np.ndarray = field(repr=False, default=None)
    ys_lo: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        if self.xs_lo is None:
            object.__setattr__(self, "xs_lo", np.zeros_like(self.xs))
        if self.ys_lo is None:
            object.__setattr__(self, "ys_lo", np.zeros_like(self.ys))
        object.__setattr__(self, "_phi", _Direction(
            self.xs, self.xs_lo, self.ys, self.ys_lo))
        object.__setattr__(self, "_phi_inv", _Direction(
            self.ys, self.ys_lo, self.xs, self.xs_lo))

    @property
    def breakpoints(self):
        return list(zip(self.xs.tolist(), self.ys.tolist()))


class _Direction:
    """One direction of a MonotonePLMap, knots xs (tails xs_lo) onto knots
    ys (tails ys_lo), as the evaluators read it.

    xv, xv_lo, yv and yv_lo are memoryviews of the four arrays: indexing
    one gives a Python float, and bisect places a scalar on xv.  The
    views share the arrays' memory.  left and right are the dd offsets
    ys - xs at knot 0 and at knot last, the slope-one tails' translations,
    computed once, on Python floats.
    """

    __slots__ = ("xs", "xs_lo", "ys", "ys_lo", "xv", "xv_lo", "yv", "yv_lo",
                 "last", "left", "right")

    def __init__(self, xs, xs_lo, ys, ys_lo):
        self.xs, self.xs_lo, self.ys, self.ys_lo = xs, xs_lo, ys, ys_lo
        self.xv, self.xv_lo, self.yv, self.yv_lo = map(memoryview,
                                                       (xs, xs_lo, ys, ys_lo))
        self.last = xs.size - 1
        self.left, self.right = (_dd.sub(self.yv[k], self.yv_lo[k],
                                         self.xv[k], self.xv_lo[k])
                                 for k in (0, -1))

    def __reduce__(self):
        # memoryviews do not pickle; the arrays rebuild them
        return _Direction, (self.xs, self.xs_lo, self.ys, self.ys_lo)


def build_phi(model, target, N):
    """Pair the level-N endpoints of two interval systems into a MonotonePLMap.

    Both systems must be built at least N deep (DomainError otherwise).  The
    knot set automatically contains every shallower endpoint pair, since a
    segment endpoint survives into all deeper levels.  A system built N
    deep stores level N as its knot arrays, and the map takes those arrays
    themselves; a deeper system's level N is interleaved into new ones.
    CantorDynError unless both knot sequences strictly increase.
    """
    N = int(N)
    if N < 0:
        raise DomainError(f"depth must be >= 0, got {N}")
    if model.depth < N or target.depth < N:
        raise DomainError(
            f"systems of depth {model.depth} and {target.depth} cannot pair "
            f"level {N}"
        )
    xs, xs_lo = _level_knots(model, N)
    ys, ys_lo = _level_knots(target, N)
    if not ((xs[1:] > xs[:-1]).all() and (ys[1:] > ys[:-1]).all()):
        raise CantorDynError("endpoint pairing is not strictly increasing")
    # the widest level-N segment, taken block by block so that no
    # level-sized temporary is made (the maximum is exact either way)
    a, b = target.level_a[N], target.level_b[N]
    err = float(np.max([np.max(b[k:k + _BLOCK] - a[k:k + _BLOCK])
                        for k in range(0, a.size, _BLOCK)]))
    return MonotonePLMap(xs=xs, ys=ys, err_bound=err, depth=N,
                         xs_lo=xs_lo, ys_lo=ys_lo)


def _level_knots(system, N):
    """Level N's endpoints interleaved, and their tails: at N == depth the
    system's own knot arrays, shared, else copies."""
    if N == system.depth:
        return system.knots, system.knots_lo
    return (_interleave(system.level_a[N], system.level_b[N]),
            _interleave(system.a_lo[N], system.b_lo[N]))


def _eval_dd(d, xh, xl):
    """Evaluate direction d at the double-double point (xh, xl).

    The point is placed as _eval_array places a lane, by bisect on d.xv.
    A query equal to a knot (both components) returns the paired knot
    unperturbed, as the stored numpy scalars; this includes the hull
    corners, which must not go through the tail arithmetic or orbit
    locking degrades.  Any other query goes to _piece, on Python floats.
    A numpy-scalar query (the F_c image of a knot hit) gives numpy
    scalars, with the same bits.
    """
    j = i = bisect.bisect_right(d.xv, xh) - 1
    if d.xv[i] == xh:  # i = -1 reads the last knot, which lies above xh
        lo = d.xv_lo[i]
        if lo == xl:
            return d.ys[i], d.ys_lo[i]
        if xl < lo:
            j = i - 1  # dd-below the knot: the piece left of it
    return _piece(d, j, xh, xl)


def _piece(d, j, xh, xl):
    """Piece j of direction d at (xh, xl), where j = -1 is the left tail
    and j = d.last the right tail: a tail adds its stored corner offset,
    a piece interpolates between its two knots, read through the views as
    Python floats."""
    if j < 0:
        return _dd.add(xh, xl, *d.left)
    if j == d.last:
        return _dd.add(xh, xl, *d.right)
    x, x_lo, y, y_lo, k = d.xv, d.xv_lo, d.yv, d.yv_lo, j + 1
    return _dd.interp(xh, xl, x[j], x_lo[j], x[k], x_lo[k],
                      y[j], y_lo[j], y[k], y_lo[k])


def _eval_array(d, xh, xl=None):
    """Direction d over an array of points: the dd value (h, l) and the
    knot-hit mask, each of xh's shape, every lane with the scalar call's
    bits.

    With xl None the lanes are plain doubles, as _eval_double takes them: a
    lane equal to a knot's hi part is that knot.  Else they are the dd
    points (xh, xl), as _eval_dd takes them: a knot only on an exact
    (hi, lo) match.  One searchsorted places every lane at i, the last
    knot whose hi part is at or below it, and i alone decides its branch:
    knot i, or piece j = i (i - 1 when dd-below knot i), where j = -1 is
    the left tail and j = last the right tail.  So a lane dd-below knot 0
    is in the left tail, one dd-below the last knot on the last piece, and
    a NaN lane in the right tail.  Hits are a table read; the tail (the
    record's corner offsets) and the interpolation run only on their own
    lanes, and are scattered back.
    """
    xs, xs_lo, ys, ys_lo = d.xs, d.xs_lo, d.ys, d.ys_lo
    shape, xh = np.shape(xh), np.ravel(xh)
    j = i = xs.searchsorted(xh, side="right") - 1
    hit = xs[i] == xh  # i = -1 reads the last knot, which lies above xh
    if xl is not None:
        xl, lo = np.ravel(xl), xs_lo[i]
        j = i - (hit & (xl < lo))
        hit &= lo == xl
    h, l = ys[i], ys_lo[i]  # fancy indexing copies: the hits are final
    k = (~hit).nonzero()[0]
    if k.size:
        j = j[k]
        tail = (j < 0) | (j == d.last)
        with np.errstate(over="ignore", invalid="ignore"):
            if tail.any():
                t, left = k[tail], j[tail] < 0
                h[t], l[t] = _dd.add(xh[t], 0.0 if xl is None else xl[t],
                                     np.where(left, d.left[0], d.right[0]),
                                     np.where(left, d.left[1], d.right[1]))
                k, j = k[~tail], j[~tail]
            if k.size:
                j1 = j + 1
                h[k], l[k] = _dd.interp(xh[k], 0.0 if xl is None else xl[k],
                                        xs[j], xs_lo[j], xs[j1], xs_lo[j1],
                                        ys[j], ys_lo[j], ys[j1], ys_lo[j1])
    return h.reshape(shape), l.reshape(shape), hit.reshape(shape)


def _eval_dd_array(d, xh, xl):
    """_eval_dd over arrays of dd points, with its bits: _eval_array's h, l."""
    return _eval_array(d, xh, xl)[:2]


def _finite(x):
    """x as a float or a float64 ndarray; DomainError unless every entry is
    finite."""
    if isinstance(x, np.ndarray):
        x = np.asarray(x, dtype=np.float64)
        if not np.all(np.isfinite(x)):
            raise DomainError("array queries must be finite")
        return x
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"query must be finite, got {x!r}")
    return x


def _eval_double(d, x):
    """Evaluate direction d at x, a float or an ndarray of plain doubles,
    returning the double-double value (h, l) and its rounding r.

    A query matching a knot's public (hi) coordinate counts as that knot:
    public doubles are the only coordinates callers can name.  It yields
    the paired full-precision knot, and r is then the knot's public
    ordinate (-0.0 keeps its sign).  x is placed once, by the last knot at
    or below it, as _eval_array places a lane (an ndarray x goes there
    whole).  A scalar x off the knots is computed on Python floats with
    _eval_dd's bits, and r is then an np.float64.
    """
    if isinstance(x, np.ndarray):
        h, l, hit = _eval_array(d, x)
        return h, l, np.where(hit, h, h + l)
    x = float(x)
    i = bisect.bisect_right(d.xv, x) - 1
    if d.xv[i] == x:  # i = -1 reads the last knot, which lies above x
        return d.ys[i], d.ys_lo[i], d.yv[i]
    h, l = _piece(d, i, x, 0.0)
    return h, l, np.float64(h + l)


def eval_phi(pl, x):
    """phi_N(x): piecewise-linear, exact at knots, slope-one tails.

    Takes a finite float or ndarray (DomainError otherwise); an ndarray
    gives an ndarray of the same shape, equal bit for bit to evaluating
    each element on its own.
    """
    return _eval_double(pl._phi, _finite(x))[2]


def eval_phi_inverse(pl, y):
    """The unique x with phi_N(x) = y (the knot table read sideways).

    Takes a finite float or ndarray, like eval_phi."""
    return _eval_double(pl._phi_inv, _finite(y))[2]


def _phi_inv_dd(pl, y):
    """Inverse image of the public double y (a float, an np.float64 or an
    ndarray) as a double-double pair: _eval_double's (h, l), without
    building the rounding."""
    d = pl._phi_inv
    if isinstance(y, np.ndarray):
        return _eval_array(d, y)[:2]
    y = float(y)
    i = bisect.bisect_right(d.xv, y) - 1
    if d.xv[i] == y:
        return d.ys[i], d.ys_lo[i]
    return _piece(d, i, y, 0.0)


def _fstar_step(pl, c, xh, xl):
    """phi(F_c(x)) at the dd point x (floats or arrays), rounded once; +inf
    where F_c(x) overflows.  A scalar x gives an np.float64, or math.inf.
    A caller whose x may overflow enters np.errstate itself."""
    fh, fl = _dd.quad(xh, xl, c)
    if isinstance(fh, np.ndarray):
        h, l, _ = _eval_array(pl._phi, fh, fl)
        return np.where(np.isfinite(fh), h + l, np.inf)
    if not math.isfinite(fh):
        return math.inf
    yh, yl = _eval_dd(pl._phi, fh, fl)
    return np.float64(yh + yl)


def eval_fstar(pl, params, y):
    """F*(y) = phi(F_c(phi^(-1)(y))), the conjugated quadratic map.

    Evaluated compositionally in double-double and rounded once at the end;
    the rounding projects sub-ulp noise away, so endpoint orbits land back on
    knot coordinates instead of accumulating drift.  Takes a finite float
    or ndarray, like eval_phi.  Where F_c(phi^(-1)(y)) overflows the double
    range, F*(y) is +inf.
    """
    xh, xl = _phi_inv_dd(pl, _finite(y))
    with np.errstate(over="ignore", invalid="ignore"):
        return _fstar_step(pl, params.c, xh, xl)


@dataclass(frozen=True)
class MappingReport:
    """Outcome of segment_mapping_check: sampled points per segment/gap and
    any that landed outside their paired image (expected none)."""

    samples_checked: int
    violations: tuple

    @property
    def ok(self):
        return not self.violations


def _random_draws(rng, k):
    """The next k values of rng.random() for a random.Random rng, as an
    array, bit for bit.  random() is genrand_res53: (a * 2^26 + b) / 2^53
    from two Mersenne Twister outputs, a >> 5 then b >> 6; getrandbits
    hands the same outputs out as 32-bit words, least significant first,
    and advances the generator past them alike.  Every step is exact in
    doubles.  (numpy.random would replay the state too, but importing it
    costs a few MB.)"""
    words = np.frombuffer(rng.getrandbits(64 * k).to_bytes(8 * k, "little"),
                          dtype="<u4")
    return (((words[0::2] >> 5) * 67108864.0 + (words[1::2] >> 6))
            * (1.0 / 9007199254740992.0))


def _mapping_samples(pl, model, target, samples, seed):
    """The sampled abscissae of segment_mapping_check in blocks of at most
    _BLOCK rows, as (pieces, xs, lo, hi).  Rows run over the levels
    n <= pl.depth, segments before gaps within a level, and a block may
    span several such groups: pieces lists (row, n, j) for each group it
    meets, the block row where that group's rows start, its level and
    the index of that row within the group.  xs holds `samples` points per
    row and lo, hi the paired target interval of each row.  The draws are
    those of rng.uniform(a, b) = a + (b - a) * rng.random(), taken in the
    same order, a block at a time (see _random_draws: getrandbits hands
    out the words of consecutive calls as one long call would).
    """
    groups, starts = [], [0]
    for n in range(pl.depth + 1):
        groups.append((n, model.level_a[n], model.level_b[n],
                       target.level_a[n], target.level_b[n]))
        if n > 0:
            groups.append((n, model.gap_c[n], model.gap_d[n],
                           target.gap_c[n], target.gap_d[n]))
    for g in groups:
        starts.append(starts[-1] + g[1].size)
    rng = random.Random(seed)
    for top in range(0, starts[-1], _BLOCK):
        bottom = min(top + _BLOCK, starts[-1])
        pieces, cols = [], []
        for (n, *quad), s, e in zip(groups, starts, starts[1:]):
            if s < bottom and top < e:
                first = max(top, s)
                pieces.append((first - top, n, first - s))
                cols.append([x[first - s:min(bottom, e) - s] for x in quad])
        ma, mb, lo, hi = (np.concatenate(c) for c in zip(*cols))
        u = _random_draws(rng, ma.size * samples).reshape(ma.size, samples)
        yield pieces, ma[:, None] + (mb - ma)[:, None] * u, lo, hi


def segment_mapping_check(pl, model, target, samples, seed=0):
    """Sample `samples` points inside every segment and gap through level N
    and verify phi maps each into the paired target segment or gap.  The
    samples are drawn and mapped by eval_phi _BLOCK rows at a time, so
    that its memory stays the size of a block whatever the depth.
    DomainError unless samples is a non-negative integer."""
    try:
        samples = operator.index(samples)
    except TypeError:
        msg = f"samples must be an integer, got {samples!r}"
        raise DomainError(msg) from None
    if samples < 0:
        raise DomainError(f"samples must be >= 0, got {samples}")
    checked, bad = 0, []
    for pieces, xs, lo, hi in _mapping_samples(pl, model, target, samples,
                                               seed):
        ys = eval_phi(pl, xs)
        inside = (lo[:, None] <= ys) & (ys <= hi[:, None])
        rows = [row for row, _, _ in pieces]
        for r, k in zip(*np.nonzero(~inside)):
            row, n, j = pieces[bisect.bisect_right(rows, r) - 1]
            bad.append((n, j + int(r) - row, xs[r, k], ys[r, k]))
        checked += xs.size
    return MappingReport(samples_checked=checked, violations=tuple(bad))
