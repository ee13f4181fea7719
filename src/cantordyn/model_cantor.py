"""Nested interval system for the bounded set of F_c(x) = x^2 + c, c < -2.

The construction is backward: C_0 = [-p, p], and each refinement replaces a
segment by the two preimage branches of its parent, so every endpoint is
obtained through square roots (which contract rounding error) instead of
forward iteration (which multiplies it by ~lambda per step).  Level n holds
2^n closed segments; the 2^(n-1) open gaps removed from C_(n-1) are recorded
alongside.  Endpoints are kept as numpy arrays of doubles plus double-double
tails so level-20 builds stay both fast and faithful.
"""

from dataclasses import dataclass

import numpy as np

from . import _dd
from .errors import DomainError, RegimeError
from .quadratic_map import _check_interval, _params_dd, expansion_bound

MAX_DEPTH = 48  # deeper than this, neighbouring endpoints collide in doubles


@dataclass(frozen=True)
class IntervalAddress:
    """Address (level, index) of a segment; index runs 1..2^level left to right.

    The equivalent binary word has one bit per refinement: 0 = left preimage
    branch, 1 = right.
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


class IntervalSystem:
    """Levels of a nested binary interval refinement.

    level_a[n] / level_b[n] are the 2^n left/right segment endpoints in
    increasing order; gap_c[n] / gap_d[n] are the 2^(n-1) gaps removed from
    level n-1 (index 0 is empty).  The *_lo arrays carry double-double tails
    and are zero for systems loaded from disk.
    """

    def __init__(self, depth, level_a, level_b, gap_c, gap_d,
                 a_lo=None, b_lo=None, c_lo=None, d_lo=None, params=None):
        self.depth = depth
        self.level_a = level_a
        self.level_b = level_b
        self.gap_c = gap_c
        self.gap_d = gap_d
        self.params = params  # QuadraticParams for model systems, else None
        zeros = lambda arrs: [np.zeros_like(a) for a in arrs]
        self.a_lo = a_lo if a_lo is not None else zeros(level_a)
        self.b_lo = b_lo if b_lo is not None else zeros(level_b)
        self.c_lo = c_lo if c_lo is not None else zeros(gap_c)
        self.d_lo = d_lo if d_lo is not None else zeros(gap_d)

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


def preimage_interval(params, interval):
    """The two branches of F_c^(-1)([u, v]) for [u, v] inside the hull.

    Returns (left, right) with left = [-sqrt(v-c), -sqrt(u-c)] and
    right = [sqrt(u-c), sqrt(v-c)]; F_c maps each monotonically onto [u, v].
    Raises DomainError when the interval is not contained in [-p, p].
    """
    u, v = float(interval[0]), float(interval[1])
    _check_interval(params, u, v)
    c = params.c
    ru = _dd.sqrt(*_dd.add(u, 0.0, -c, 0.0))
    rv = _dd.sqrt(*_dd.add(v, 0.0, -c, 0.0))
    return (-rv[0], -ru[0]), (ru[0], rv[0])


def _validate_depth(depth):
    depth = int(depth)
    if depth < 0:
        raise DomainError(f"depth must be >= 0, got {depth}")
    if depth > MAX_DEPTH:
        raise DomainError(f"depth {depth} exceeds the supported maximum {MAX_DEPTH}")
    return depth


def build_model_system(params, depth):
    """Backward-construct the nested system C_0 .. C_depth for certified params.

    Raises RegimeError unless the expansion bound certifies lambda > 1, and
    DomainError for depth outside 0..MAX_DEPTH.
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

    level_a = [np.array([-ph])]
    level_b = [np.array([ph])]
    a_lo = [np.array([-pl])]
    b_lo = [np.array([pl])]
    gap_c = [np.empty(0)]
    gap_d = [np.empty(0)]
    c_lo = [np.empty(0)]
    d_lo = [np.empty(0)]

    # Current deepest gaps, one per current segment.
    gch, gcl = np.array([-sh]), np.array([-sl])
    gdh, gdl = np.array([sh]), np.array([sl])

    for n in range(1, depth + 1):
        gap_c.append(gch)
        gap_d.append(gdh)
        c_lo.append(gcl)
        d_lo.append(gdl)

        # Split each segment [A, B] at its gap (G, H) into [A, G], [H, B].
        ah, al, bh, bl = level_a[-1], a_lo[-1], level_b[-1], b_lo[-1]
        na = np.empty(2 * ah.size)
        nal = np.empty_like(na)
        nb = np.empty_like(na)
        nbl = np.empty_like(na)
        na[0::2], nal[0::2] = ah, al
        na[1::2], nal[1::2] = gdh, gdl
        nb[0::2], nbl[0::2] = gch, gcl
        nb[1::2], nbl[1::2] = bh, bl
        level_a.append(na)
        a_lo.append(nal)
        level_b.append(nb)
        b_lo.append(nbl)

        if n == depth:
            break
        # Preimages of the gaps just consumed become the next level's gaps:
        # the positive branch [sqrt(u-c), sqrt(v-c)] in order, the negative
        # branch mirrored and reversed.
        puh, pul = _dd.v_sqrt(*_dd.add(gch, gcl, -c, 0.0))
        pvh, pvl = _dd.v_sqrt(*_dd.add(gdh, gdl, -c, 0.0))
        gch = np.concatenate([-pvh[::-1], puh])
        gcl = np.concatenate([-pvl[::-1], pul])
        gdh = np.concatenate([-puh[::-1], pvh])
        gdl = np.concatenate([-pul[::-1], pvl])

    return IntervalSystem(depth, level_a, level_b, gap_c, gap_d,
                          a_lo, b_lo, c_lo, d_lo, params=params)


def max_segment_length(system, n):
    """Largest segment length at level n; DomainError if n is out of range."""
    n = int(n)
    if not 0 <= n <= system.depth:
        raise DomainError(f"level {n} out of range 0..{system.depth}")
    return float(np.max(system.level_b[n] - system.level_a[n]))
