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
A scalar query off the knots reads the few knots it needs with
ndarray.item and computes on Python floats, which give the bits of numpy
scalar arithmetic at about half its cost.  Scalar and array queries alike
interpolate with _dd.interp and step F_c with _dd.quad, the written-out
kernels, so one formula serves both.  A knot hit returns the
stored numpy scalars themselves, so the F* step from a knot still runs on
numpy scalars; that step is left for the address shift
(model_cantor._shift), which names its image outright.  Public scalar
results are np.float64 off the knots and float on a knot.  Every evaluator also takes
an ndarray and then gives, lane by lane, the bits of the scalar call.
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
    writes into the other.
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

    @property
    def breakpoints(self):
        return list(zip(self.xs.tolist(), self.ys.tolist()))


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


def _eval_dd(xs, xs_lo, ys, ys_lo, xh, xl):
    """Evaluate the PL map at the double-double point (xh, xl).

    A query equal to a knot (both components) returns the paired knot
    unperturbed, as the stored numpy scalars; this includes the hull
    corners, which must not go through the tail arithmetic or orbit
    locking degrades.  Any other query reads the hull corners and its
    piece's two knots with ndarray.item, so that the dd arithmetic runs on
    Python floats: the same IEEE operations, hence the same bits, without
    a numpy scalar made for every intermediate.  A numpy-scalar query (the
    F_c image of a knot hit) gives numpy scalars, with the same bits.
    """
    x0, x0_lo = xs.item(0), xs_lo.item(0)
    if (xh, xl) <= (x0, x0_lo):
        if xh == x0 and xl == x0_lo:
            return ys[0], ys_lo[0]
        return _tail(xs, xs_lo, ys, ys_lo, 0, xh, xl)
    xn, xn_lo = xs.item(-1), xs_lo.item(-1)
    if (xh, xl) >= (xn, xn_lo):
        if xh == xn and xl == xn_lo:
            return ys[-1], ys_lo[-1]
        return _tail(xs, xs_lo, ys, ys_lo, -1, xh, xl)
    i = int(xs.searchsorted(xh, side="right")) - 1
    if xs.item(i) == xh:
        if xs_lo.item(i) == xl:
            return ys[i], ys_lo[i]
        if xl < xs_lo.item(i):
            i -= 1  # dd-below the knot: the point belongs to the piece left of it
    return _piece(xs, xs_lo, ys, ys_lo, i, xh, xl)


def _tail(xs, xs_lo, ys, ys_lo, k, xh, xl):
    """The slope-one tail through knot k (0 or -1) at (xh, xl)."""
    return _dd.add(xh, xl, *_dd.sub(ys.item(k), ys_lo.item(k), xs.item(k),
                                    xs_lo.item(k)))


def _piece(xs, xs_lo, ys, ys_lo, i, xh, xl):
    """The interpolation on piece i at (xh, xl), on Python floats."""
    return _dd.interp(xh, xl, xs.item(i), xs_lo.item(i), xs.item(i + 1),
                      xs_lo.item(i + 1), ys.item(i), ys_lo.item(i),
                      ys.item(i + 1), ys_lo.item(i + 1))


def _eval_dd_array(xs, xs_lo, ys, ys_lo, xh, xl):
    """_eval_dd over arrays of double-double points, with the same bits.

    One searchsorted places every point; each lane then takes the branch
    the scalar version would take: the paired knot on an exact (hi, lo)
    match (hull corners included), the slope-one tail outside the hull, and
    otherwise the dd interpolation on its piece, a point dd-below a knot
    belonging to the piece left of it.  Knot hits are a table read; the
    tail and the interpolation each run only on their own lanes, and their
    results are scattered back.  The result has the shape of xh.
    """
    shape = np.shape(xh)
    xh, xl = np.ravel(xh), np.ravel(xl)
    last = xs.size - 1
    i = np.maximum(xs.searchsorted(xh, side="right") - 1, 0)
    on_knot = xs[i] == xh
    knot_lo = xs_lo[i]
    hit = on_knot & (knot_lo == xl)
    h, l = ys[i], ys_lo[i]  # fancy indexing copies: the hits are final
    left = _dd.le(xh, xl, xs[0], xs_lo[0])
    tail = ~hit & (left | _dd.le(xs[-1], xs_lo[-1], xh, xl))
    inner = ~(hit | tail)
    with np.errstate(over="ignore", invalid="ignore"):
        k = tail.nonzero()[0]
        if k.size:
            off_l = _dd.sub(ys[0], ys_lo[0], xs[0], xs_lo[0])
            off_r = _dd.sub(ys[-1], ys_lo[-1], xs[-1], xs_lo[-1])
            lk = left[k]
            h[k], l[k] = _dd.add(xh[k], xl[k],
                                 np.where(lk, off_l[0], off_r[0]),
                                 np.where(lk, off_l[1], off_r[1]))
        k = inner.nonzero()[0]
        if k.size:
            # an inner lane's piece starts at knot 0 or later (a lane
            # dd-below knot 0 is a tail); a NaN lane lands past the last
            # knot and is held to the last piece
            j = np.minimum(i - (on_knot & (xl < knot_lo)), last - 1)[k]
            j1 = j + 1
            h[k], l[k] = _dd.interp(xh[k], xl[k], xs[j], xs_lo[j], xs[j1],
                                    xs_lo[j1], ys[j], ys_lo[j], ys[j1],
                                    ys_lo[j1])
    return h.reshape(shape), l.reshape(shape)


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


def _eval_double(xs, xs_lo, ys, ys_lo, x):
    """Evaluate at x, a float or an ndarray of plain doubles, returning the
    double-double value (h, l) and its rounding r.

    A query matching a knot's public (hi) coordinate counts as that knot:
    public doubles are the only coordinates callers can name.  It yields the
    paired full-precision knot, and r is then the knot's public ordinate.
    A scalar x is placed once, by the last knot at or below it: that knot
    is a hit, or x lies in the left tail (no such knot), the right tail
    (the last knot) or that knot's piece, and the value is computed on
    Python floats with _eval_dd's bits; r is then an np.float64.  (A
    plain double has no tail, so it is never dd-below the knot it shares
    a hi part with: that would be a hit.)  An ndarray x is evaluated lane
    by lane with the same bits; only the lanes that are not knots go
    through _eval_dd_array, the whole batch at once when it holds no knot.
    """
    if isinstance(x, np.ndarray):
        shape, x = x.shape, x.ravel()
        i = np.minimum(xs.searchsorted(x), xs.size - 1)
        miss = xs[i] != x
        if miss.all():
            h, l = _eval_dd_array(xs, xs_lo, ys, ys_lo, x, np.zeros(x.size))
            return h.reshape(shape), l.reshape(shape), (h + l).reshape(shape)
        h, l = ys[i], ys_lo[i]
        r = h.copy()
        rest = miss.nonzero()[0]
        if rest.size:
            rh, rl = _eval_dd_array(xs, xs_lo, ys, ys_lo, x[rest],
                                    np.zeros(rest.size))
            h[rest], l[rest], r[rest] = rh, rl, rh + rl
        return h.reshape(shape), l.reshape(shape), r.reshape(shape)
    i = int(xs.searchsorted(x, side="right")) - 1
    if i >= 0 and xs.item(i) == x:
        return ys[i], ys_lo[i], ys.item(i)
    x = float(x)
    if i < 0 or i == xs.size - 1:
        h, l = _tail(xs, xs_lo, ys, ys_lo, max(i, 0), x, 0.0)
    else:
        h, l = _piece(xs, xs_lo, ys, ys_lo, i, x, 0.0)
    return h, l, np.float64(h + l)


def eval_phi(pl, x):
    """phi_N(x): piecewise-linear, exact at knots, slope-one tails.

    Takes a finite float or ndarray (DomainError otherwise); an ndarray
    gives an ndarray of the same shape, equal bit for bit to evaluating
    each element on its own.
    """
    return _eval_double(pl.xs, pl.xs_lo, pl.ys, pl.ys_lo, _finite(x))[2]


def eval_phi_inverse(pl, y):
    """The unique x with phi_N(x) = y (the knot table read sideways).

    Takes a finite float or ndarray, like eval_phi."""
    return _eval_double(pl.ys, pl.ys_lo, pl.xs, pl.xs_lo, _finite(y))[2]


def _phi_inv_dd(pl, y):
    """Inverse image of the public double y as a double-double pair."""
    return _eval_double(pl.ys, pl.ys_lo, pl.xs, pl.xs_lo, y)[:2]


def _fstar_step(pl, c, xh, xl):
    """phi(F_c(x)) at the dd point x (floats or arrays), rounded once; +inf
    where F_c(x) overflows.  A scalar x gives an np.float64, or math.inf.
    A caller whose x may overflow enters np.errstate itself."""
    fh, fl = _dd.quad(xh, xl, c)
    if isinstance(fh, np.ndarray):
        yh, yl = _eval_dd_array(pl.xs, pl.xs_lo, pl.ys, pl.ys_lo, fh, fl)
        return np.where(np.isfinite(fh), yh + yl, np.inf)
    if not math.isfinite(fh):
        return math.inf
    yh, yl = _eval_dd(pl.xs, pl.xs_lo, pl.ys, pl.ys_lo, fh, fl)
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
