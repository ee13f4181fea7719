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
arithmetic runs in double-double, and a public result off the knots is its
dd value rounded once.  Against the exact map (the stored dd knots,
linear in between, slope-one tails through the exact corner offsets, F*
composed with no rounding) that result is correctly rounded wherever the
exact value is at least 1e-6 in magnitude and not within 2^-100 of its
own size from a rounding midpoint.  Elsewhere it can be off by one:
each dd kernel errs by a few units of 2^-104 relative to its operands
(Joldes, Muller and Popescu, ACM TOMS 44, 2017), and near zero that
absolute error, taken from knots of size one, exceeds half an ulp of the
result; in F* it is also multiplied by F_c' and by phi's slope.  There a
result is within half an ulp of the exact value, plus 2^-100 of it, plus
an error measured against an exact rational oracle over c in {-3, -2.5,
-4, -8, -20}, five targets and depths 1, 4 and 8 (tests/test_conjugacy.py,
MEASURED_ERROR; not a derived bound): none for phi, 6.1e-33 for phi^(-1)
and 5.7e-27 for F*.  phi and phi^(-1) of a knot give its paired knot;
F* of a knot is outside this contract, since its dd step can miss the
knot it should land on by about 1e-31 (the address shift names that knot
outright, model_cantor._shift).

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
kernels, so one formula serves both.

_dd.interp takes a piece's left knot and its dd width and height.  The
scalar path reads those from the map's piece table, which the two
directions share (phi^(-1)'s widths are phi's heights).  The table is
computed a block of _BLOCK pieces at a time, with _dd.sub on contiguous
knot slices, the first time a scalar query lands in that block, so
build_phi allocates nothing for it and a one-shot query on a deep map
pays for one block, not for the whole map.  Like the tail offsets, a
block is fixed once made: writing into the knot arrays afterwards does
not reach it.  The array path computes the same two differences per
batch, with the same _dd.sub, from the knots it gathers anyway: a batch
such as segment_mapping_check's touches every block of a deep map, and
through the table it would keep the whole map's differences (four
doubles a piece) alive.  Either way a difference is _dd.sub of two
knots, so the two paths give the same bits.

A knot hit returns the stored numpy scalars themselves, so the F* step
from a knot still runs on numpy scalars: as Python floats the bounded
orbits run faster, but the benchmark's per-op ledger then grows past its
memory bound, and that step is left for the address shift
(model_cantor._shift), which names its image outright.  Public scalar
results are np.float64 off the knots and float on a knot.  Every
evaluator also takes an ndarray, which one evaluator, _eval_array, places
whole with one searchsorted, reading each lane's branch (knot, piece or
tail) from that index alone; each lane gets the bits of the scalar call.

Scalars and arrays take separate helpers, so no step of an orbit tests
its argument's type: _eval_float (a double) and _eval_dd (a dd point)
evaluate one point, _fstar_scalar composes one F* step from them, and
_eval_array and _fstar_step do the same for arrays.
iterate_target's scalar loop and scalar eval_fstar call the scalar ones
directly, and place every query by bisect on the direction's knots.
"""

import bisect
import math
import operator
import random
from dataclasses import dataclass, field

import numpy as np

from . import _dd
from .errors import CantorDynError, DomainError
from .model_cantor import _BLOCK, _interleave, max_segment_length


@dataclass(frozen=True)
class MonotonePLMap:
    """Strictly increasing piecewise-linear map with slope-one tails.

    xs/ys are the knot coordinates (model endpoints paired with target
    endpoints at the same address), xs_lo/ys_lo their double-double tails.
    err_bound is the certified sup-distance to the depth-limit map: the
    widest level-N target segment.  A map that build_phi pairs at a
    system's own depth shares that system's knot arrays (IntervalSystem's
    knots and knots_lo) instead of copying them, so writing into one
    writes into the other, with two exceptions: the tail offsets at the
    two hull corners are fixed when the map is made, and each block of
    the piece table when a scalar query first reads it.

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
        phi = _Direction(self.xs, self.xs_lo, self.ys, self.ys_lo)
        object.__setattr__(self, "_phi", phi)
        object.__setattr__(self, "_phi_inv", phi.inverse())

    def __reduce__(self):
        # the records hold memoryviews, which do not pickle; a copy makes
        # them anew from the arrays, with an empty piece table
        return MonotonePLMap, (self.xs, self.ys, self.err_bound, self.depth,
                               self.xs_lo, self.ys_lo)

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

    blocks is the direction's piece table: entry b is None until a scalar
    query first lands on one of the pieces j = b * block ... b * block +
    block - 1 (block is _BLOCK when the map is made), and then the widths
    xs[j + 1] - xs[j] and heights ys[j + 1] - ys[j] of those pieces, as
    dd memoryviews (w, w_lo, v, v_lo).  fill computes them with _dd.sub
    on contiguous knot slices and enters them in mirror too, the table of
    the inverse direction, as (v, v_lo, w, w_lo): the two directions share
    one table, whose memory grows a block at a time.
    """

    __slots__ = ("xs", "xs_lo", "ys", "ys_lo", "xv", "xv_lo", "yv", "yv_lo",
                 "last", "left", "right", "block", "blocks", "mirror")

    def __init__(self, xs, xs_lo, ys, ys_lo, tables=None):
        self.xs, self.xs_lo, self.ys, self.ys_lo = xs, xs_lo, ys, ys_lo
        self.xv, self.xv_lo, self.yv, self.yv_lo = map(memoryview,
                                                       (xs, xs_lo, ys, ys_lo))
        self.last = xs.size - 1
        self.left, self.right = (_dd.sub(self.yv[k], self.yv_lo[k],
                                         self.xv[k], self.xv_lo[k])
                                 for k in (0, -1))
        self.block = _BLOCK
        if tables is None:
            n = -(-self.last // _BLOCK)
            tables = [None] * n, [None] * n
        self.blocks, self.mirror = tables

    def inverse(self):
        """The direction ys onto xs, sharing this one's piece table."""
        return _Direction(self.ys, self.ys_lo, self.xs, self.xs_lo,
                          (self.mirror, self.blocks))

    def fill(self, b):
        """Enter block b of the piece table in both directions; return this
        direction's entry."""
        s = b * self.block
        e = min(s + self.block, self.last)
        left, right = slice(s, e), slice(s + 1, e + 1)
        xs, xs_lo, ys, ys_lo = self.xs, self.xs_lo, self.ys, self.ys_lo
        w, w_lo, v, v_lo = map(memoryview, (
            *_dd.sub(xs[right], xs_lo[right], xs[left], xs_lo[left]),
            *_dd.sub(ys[right], ys_lo[right], ys[left], ys_lo[left])))
        self.mirror[b] = v, v_lo, w, w_lo
        self.blocks[b] = entry = w, w_lo, v, v_lo
        return entry


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
    return MonotonePLMap(xs=xs, ys=ys, err_bound=max_segment_length(target, N),
                         depth=N, xs_lo=xs_lo, ys_lo=ys_lo)


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


def _eval_float(d, x):
    """Evaluate direction d at the float x: the dd value (h, l) and i, the
    index of the knot whose hi part x equals, or None.

    x is placed by bisect, as _eval_dd places a point; a knot gives the
    stored numpy scalars, any other x _piece's Python floats.
    """
    i = bisect.bisect_right(d.xv, x) - 1
    if d.xv[i] == x:  # i = -1 reads the last knot, which lies above x
        return d.ys[i], d.ys_lo[i], i
    return (*_piece(d, i, x, 0.0), None)


def _piece(d, j, xh, xl):
    """Piece j of direction d at (xh, xl), where j = -1 is the left tail
    and j = d.last the right tail: a tail adds its stored corner offset,
    a piece interpolates from its left knot by its width and height, read
    through the views and the piece table as Python floats."""
    if j < 0:
        return _dd.add(xh, xl, *d.left)
    if j == d.last:
        return _dd.add(xh, xl, *d.right)
    b, k = divmod(j, d.block)
    w, w_lo, v, v_lo = d.blocks[b] or d.fill(b)
    return _dd.interp(xh, xl, d.xv[j], d.xv_lo[j], w[k], w_lo[k],
                      d.yv[j], d.yv_lo[j], v[k], v_lo[k])


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
    lanes, and are scattered back.  The interpolated lanes take their
    pieces' widths and heights from the knots gathered for them, not
    from the piece table (see the module docstring).
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
                a, a_lo, c, c_lo = xs[j], xs_lo[j], ys[j], ys_lo[j]
                w = _dd.sub(xs[j1], xs_lo[j1], a, a_lo)
                v = _dd.sub(ys[j1], ys_lo[j1], c, c_lo)
                del j, j1  # spent, before interp peaks
                h[k], l[k] = _dd.interp(xh[k], 0.0 if xl is None else xl[k],
                                        a, a_lo, *w, c, c_lo, *v)
    return h.reshape(shape), l.reshape(shape), hit.reshape(shape)


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
    ordinate (-0.0 keeps its sign).  An ndarray x is placed whole by
    _eval_array, a float by _eval_float, with the same bits; a float off
    the knots gives an np.float64 r.
    """
    if isinstance(x, np.ndarray):
        h, l, hit = _eval_array(d, x)
        return h, l, np.where(hit, h, h + l)
    h, l, i = _eval_float(d, x)
    return h, l, (np.float64(h + l) if i is None else d.yv[i])


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


def _fstar_step(pl, c, xh, xl):
    """phi(F_c(x)) over arrays of dd points x, rounded once; +inf where
    F_c(x) overflows.  The caller enters np.errstate."""
    fh, fl = _dd.quad(xh, xl, c)
    h, l, _ = _eval_array(pl._phi, fh, fl)
    return np.where(np.isfinite(fh), h + l, np.inf)


def _fstar_scalar(pl, c, xh, xl):
    """_fstar_step at one dd point: the float phi(F_c(x)), or math.inf
    where F_c(x) overflows.  A knot-hit x (numpy scalars) steps on numpy
    scalars."""
    fh, fl = _dd.quad(xh, xl, c)
    if not math.isfinite(fh):
        return math.inf
    h, l = _eval_dd(pl._phi, fh, fl)
    return float(h + l)


def eval_fstar(pl, params, y):
    """F*(y) = phi(F_c(phi^(-1)(y))), the conjugated quadratic map.

    Evaluated compositionally in double-double and rounded once at the end;
    the rounding projects sub-ulp noise away, so endpoint orbits land back on
    knot coordinates instead of accumulating drift.  Takes a finite float
    or ndarray, like eval_phi.  Where F_c(phi^(-1)(y)) overflows the double
    range, F*(y) is +inf.
    """
    y = _finite(y)
    with np.errstate(over="ignore", invalid="ignore"):
        if isinstance(y, np.ndarray):
            return _fstar_step(pl, params.c,
                               *_eval_array(pl._phi_inv, y)[:2])
        xh, xl, _ = _eval_float(pl._phi_inv, y)
        y = _fstar_scalar(pl, params.c, xh, xl)
    return y if y == math.inf else np.float64(y)


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
