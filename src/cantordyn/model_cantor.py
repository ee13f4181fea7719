"""Nested interval system for the bounded set of F_c(x) = x^2 + c, c < -2.

The construction is backward: C_0 = [-p, p], and each refinement replaces a
segment by the two preimage branches of its parent, so every endpoint is
obtained through square roots (which contract rounding error) instead of
forward iteration (which multiplies it by ~lambda per step).  Level n holds
2^n closed segments and the 2^(n-1) open gaps removed from C_(n-1).  Every
endpoint survives into the deepest level N, so a system stores level N alone,
as one array of its endpoints in increasing order (the knots of phi_N), and
reads each shallower level and gap off it as a strided view.  Endpoints are
kept as numpy arrays of doubles plus double-double tails so level-20 builds
stay both fast and faithful.  A level is one dd root, sqrt(x - c), over
every gap edge, as numpy arrays in blocks of _BLOCK lanes; the narrow
levels near the hull, with fewer than _NARROW edges, take the same kernel
edge by edge on Python floats, where numpy's fixed cost per call would
outweigh their arithmetic.  Both give the same bits.
"""

from dataclasses import dataclass

import numpy as np

from . import _dd
from .errors import DomainError, RegimeError
from .quadratic_map import _check_interval, _params_dd, expansion_bound

# A hard cap on the depth, not a resolution limit: neighbouring endpoints
# collide in doubles much sooner for every c (about depth 26 near the
# regime edge, 25 at c = -3, 14 at c = -50 and 9 at c = -1e3), and the
# builders refuse a system whose endpoints collide (_check_resolved).
# Memory binds before either: a system stores 2^(N+2) doubles, 32 MB at
# depth 20, and a depth-20 chain (model, target and the phi sharing their
# knots) peaked at about 105 MB of RSS, 30 MB of it the interpreter.
MAX_DEPTH = 48

# Lanes per dd pass of the model and target builds.  A level runs over
# blocks this size, whose temporaries stay in cache and are not fresh
# memory: one pass over a whole level of 2^17 lanes was slower than two
# passes over its halves.
_BLOCK = 1 << 13

# Lanes below which a block runs lane by lane on Python floats: a dd step
# on a narrow array costs numpy's fixed overhead per call, about 16 calls
# for a dd add, more than the same arithmetic on floats.
_NARROW = 32


@dataclass(frozen=True)
class IntervalAddress:
    """Address (level, index) of a segment; index runs 1..2^level left to right.

    `word` is the left-to-right tree path, index - 1 in `level` binary
    digits: bit k is 0 when the level-(k+1) segment on the path is the left
    child of its parent, 1 when it is the right one.  On a model system it
    is not the itinerary of the segment's points (bit k = 0 when
    F_c^k(x) < 0, on the left preimage branch): the itinerary is the
    word's reflected-binary transform.  The left branch -sqrt(x - c)
    reverses order, so each left-branch symbol flips the bits after it:
    word bit k is itinerary bit k XOR the parity of the left-branch
    symbols before it.  At c = -3 the fixed point q < 0 has itinerary 00
    and lies in word 01.
    """

    level: int
    index: int

    def __post_init__(self):
        if self.level < 0:
            raise DomainError(f"negative level {self.level}")
        if not 1 <= self.index <= 1 << self.level:
            raise DomainError(
                f"index {self.index} out of range 1..{1 << self.level}"
            )

    @property
    def word(self):
        return format(self.index - 1, f"0{self.level}b") if self.level else ""

    @classmethod
    def from_word(cls, word):
        for ch in word:
            if ch not in "01":
                raise DomainError(f"address word must be binary, got {word!r}")
        return cls(len(word), (int(word, 2) if word else 0) + 1)

    def parent(self):
        if self.level == 0:
            raise DomainError("the hull has no parent")
        return IntervalAddress(self.level - 1, (self.index + 1) // 2)

    def child(self, bit):
        if bit not in (0, 1):
            raise DomainError(f"child bit must be 0 or 1, got {bit!r}")
        return IntervalAddress(self.level + 1, 2 * self.index - 1 + bit)


def _shift(depth, k):
    """The level-N knots that F_c, the shift on addresses, sends the knots k
    (an int array) onto.  Knot k is side k & 1 of segment j = k >> 1; with
    half = 2^(N-1), j < half maps onto level N-1's segment half-1-j with its
    ends swapped, any other j onto j - half.  Side a and b of that segment
    s are level N's knots 4s and 4s+3; at N = 0 both ends go to knot 1."""
    if depth == 0:
        return np.ones_like(k)
    half = 1 << (depth - 1)
    j = k >> 1
    left = j < half
    return 4 * np.where(left, half - 1 - j, j - half) + 3 * ((k & 1) ^ left)


class IntervalSystem:
    """Levels of a nested binary interval refinement, stored as its deepest
    level.

    knots holds the 2^(N+1) endpoints of level N in increasing order,
    interleaved as a_0, b_0, a_1, b_1, ..., and knots_lo their
    double-double tails; the depth N comes from their size.  a_N / b_N
    (the left / right endpoints) and a_lo_N / b_lo_N are its even and odd
    entries.  Every shallower endpoint survives into level N and every gap
    lies between two neighbouring level-N endpoints, so the per-level
    attributes are strided views of the knots too: level_a[n] / level_b[n]
    are the 2^n segment endpoints of level n, gap_c[n] / gap_d[n] the
    2^(n-1) gaps removed from level n-1 (empty at n = 0), and a_lo, b_lo,
    c_lo, d_lo their tails.  build_phi pairs two systems' level N by
    taking their knot arrays themselves as the knots of phi_N, so a map
    shares its arrays with the systems it pairs.

    The constructor interleaves its four arrays into new knot arrays, and
    refuses (DomainError) arrays that are not 1-D of one size 2^N; the
    builders allocate the knots and fill them through the views
    (_from_knots).
    """

    def __init__(self, a_N, b_N, a_lo_N, b_lo_N, params=None):
        shapes = {np.shape(x) for x in (a_N, b_N, a_lo_N, b_lo_N)}
        if len(shapes) != 1 or len(next(iter(shapes))) != 1:
            raise DomainError("deepest level needs four 1-D arrays of one "
                              f"size, got shapes {sorted(shapes)}")
        size = a_N.size
        if size < 1 or size & (size - 1):
            raise DomainError(f"deepest level needs 2^N endpoints, got {size}")
        self._store(_interleave(a_N, b_N), _interleave(a_lo_N, b_lo_N))
        self.params = params  # QuadraticParams for model systems, else None

    @classmethod
    def _from_knots(cls, knots, knots_lo, params=None, **attrs):
        """A system storing the given knot arrays themselves, with params
        and any further attributes (a target's spec and mode)."""
        system = cls.__new__(cls)
        system._store(knots, knots_lo)
        system.params = params
        system.__dict__.update(attrs)
        return system

    def _store(self, knots, knots_lo):
        self.depth = depth = knots.size.bit_length() - 2
        self.knots, self.knots_lo = knots, knots_lo
        self.a_N, self.b_N = knots[0::2], knots[1::2]
        self.a_lo_N, self.b_lo_N = knots_lo[0::2], knots_lo[1::2]
        steps = [1 << (depth - n) for n in range(depth + 1)]
        self.level_a = tuple(self.a_N[::k] for k in steps)
        self.level_b = tuple(self.b_N[k - 1::k] for k in steps)
        self.a_lo = tuple(self.a_lo_N[::k] for k in steps)
        self.b_lo = tuple(self.b_lo_N[k - 1::k] for k in steps)
        # gap n splits segment i of level n-1 into children 2i and 2i + 1:
        # it runs from the right end of child 2i to the left end of 2i + 1
        self.gap_c = _gap_views(self.level_b, 0)
        self.c_lo = _gap_views(self.b_lo, 0)
        self.gap_d = _gap_views(self.level_a, 1)
        self.d_lo = _gap_views(self.a_lo, 1)

    @property
    def hull(self):
        return float(self.level_a[0][0]), float(self.level_b[0][0])

    def _check_level(self, n, for_gaps=False):
        if not 0 <= n <= self.depth:
            raise DomainError(f"level {n} out of range 0..{self.depth}")
        if for_gaps and n == 0:
            raise DomainError("level 0 has no gaps")

    def segments(self, n):
        """Closed segments of level n as an (2^n, 2) array of doubles."""
        self._check_level(n)
        return np.column_stack([self.level_a[n], self.level_b[n]])

    def gaps(self, n):
        """Open gaps removed from level n-1, as an (2^(n-1), 2) array."""
        self._check_level(n, for_gaps=True)
        return np.column_stack([self.gap_c[n], self.gap_d[n]])

    def segment(self, address):
        """Endpoints (a, b) of the segment at the given IntervalAddress."""
        self._check_level(address.level)
        j = address.index - 1
        return float(self.level_a[address.level][j]), float(self.level_b[address.level][j])


def _interleave(even, odd):
    """The entries of even and odd alternating, in even's dtype."""
    out = np.empty(2 * even.size, even.dtype)
    out[0::2] = even
    out[1::2] = odd
    return out


def _gap_views(levels, first):
    """Every other endpoint of each level from index `first`: one gap edge
    per parent segment, none at level 0."""
    return tuple(x[first::2] if n else x[:0] for n, x in enumerate(levels))


def preimage_interval(params, interval):
    """The two branches of F_c^(-1)([u, v]) for [u, v] inside the hull.

    Returns (left, right) with left = [-sqrt(v-c), -sqrt(u-c)] and
    right = [sqrt(u-c), sqrt(v-c)]; F_c maps each monotonically onto [u, v].
    Raises DomainError when the interval is not contained in [-p, p].
    """
    u, v = float(interval[0]), float(interval[1])
    _check_interval(params, u, v)
    c = params.c
    # root leaves out sqrt's zero test, so x = c gives sqrt(0) = 0 here
    ru, rv = (_dd.root(x, 0.0, c) if x != c else (0.0, 0.0) for x in (u, v))
    return (-rv[0], -ru[0]), (ru[0], rv[0])


def _validate_depth(depth):
    depth = int(depth)
    if depth < 0:
        raise DomainError(f"depth must be >= 0, got {depth}")
    if depth > MAX_DEPTH:
        raise DomainError(f"depth {depth} exceeds the supported maximum {MAX_DEPTH}")
    return depth


def _check_resolved(system, what):
    """system, once its deepest level resolves in doubles: a_N < b_N, and
    each segment ends before the next begins (b_N[:-1] < a_N[1:]), that is,
    its knots strictly increase.

    Otherwise raise DomainError naming the depth and the deepest level that
    resolves.  Resolving levels run from 0 up: level n's endpoints are every
    2^(N-n)-th of level N's, so it resolves whenever level N does.
    """
    def resolves(n):
        a, b = system.level_a[n], system.level_b[n]
        return bool((a < b).all() and (b[:-1] < a[1:]).all())

    knots = system.knots
    if (knots[1:] > knots[:-1]).all():
        return system
    n = system.depth - 1
    while n > 0 and not resolves(n):
        n -= 1
    raise DomainError(f"{what} at depth {system.depth}: neighbouring endpoints "
                      f"collide in doubles; the deepest level that resolves "
                      f"is {n}")


def build_model_system(params, depth):
    """Backward-construct the nested system C_0 .. C_depth for certified params.

    A level costs one dd root, sqrt(x - c), over both edges of every gap
    at once, read from the knots side by side, in blocks of _BLOCK lanes
    once a level outgrows one; a level of fewer than _NARROW edges runs
    them one by one on Python floats, with the same bits.  Raises
    RegimeError unless the expansion bound certifies lambda > 1, and
    DomainError for depth outside 0..MAX_DEPTH or deeper than the doubles
    resolve (_check_resolved).
    """
    depth = _validate_depth(depth)
    lam, certified = expansion_bound(params)
    if not certified:
        raise RegimeError(
            f"c = {params.c!r} is outside the certified regime "
            f"(lambda = {lam!r} <= 1); the nested construction needs lambda > 1"
        )
    (ph, pl), (sh, sl) = _params_dd(params)
    c = params.c

    # The gaps removed at level n are the level's new endpoints: writing
    # them into the knots fills the deepest level.
    system = IntervalSystem._from_knots(*np.empty((2, 2 << depth)),
                                        params=params)
    system.level_a[0][:], system.a_lo[0][:] = -ph, -pl
    system.level_b[0][:], system.b_lo[0][:] = ph, pl
    if depth:
        system.gap_c[1][:], system.c_lo[1][:] = -sh, -sl
        system.gap_d[1][:], system.d_lo[1][:] = sh, sl

    for n in range(1, depth):
        # Preimages of level n's gaps are level n+1's: the positive branch
        # [sqrt(u-c), sqrt(v-c)] in order, the negative branch mirrored and
        # reversed.  Both edges of a block of gaps, read from the knots,
        # take one elementwise pass, so each bit is the one a pass per edge
        # gives, and the results go straight to their knots.
        g = 1 << (n - 1)
        for start in range(0, g, _BLOCK // 2):
            b = slice(start, start + _BLOCK // 2)
            xh = np.concatenate((system.gap_c[n][b], system.gap_d[n][b]))
            xl = np.concatenate((system.c_lo[n][b], system.d_lo[n][b]))
            if xh.size < _NARROW:
                r = np.array([_dd.root(h, l, c) for h, l in
                              zip(xh.tolist(), xl.tolist())]).T
            else:
                r = _dd.root(xh, xl, c)
            del xh, xl
            k = r[0].size // 2
            up, down = slice(g + start, g + start + k), slice(g - start - k,
                                                               g - start)
            for (cs, ds), x in zip(((system.gap_c, system.gap_d),
                                    (system.c_lo, system.d_lo)), r):
                cs[n + 1][up], ds[n + 1][up] = x[:k], x[k:]
                np.negative(x[k:][::-1], out=cs[n + 1][down])
                np.negative(x[:k][::-1], out=ds[n + 1][down])

    return _check_resolved(system, f"model c = {c!r}")


def max_segment_length(system, n):
    """Largest segment length at level n, scanned block by block with no
    level-sized temporary; DomainError if n is out of range."""
    n = int(n)
    system._check_level(n)
    a, b = system.level_a[n], system.level_b[n]
    return max(float(np.max(b[k:k + _BLOCK] - a[k:k + _BLOCK]))
               for k in range(0, a.size, _BLOCK))
