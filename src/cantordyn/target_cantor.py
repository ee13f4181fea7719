"""Target Cantor sets and their certified nested refinements.

A target set is given constructively as a binary gap tree: every segment
carries one principal open gap splitting it into two children.  Four families
are provided (parametric middle-gap, two-map affine attractors, fat Cantor
sets with a summable gap schedule, and explicit file-backed trees).  The
refinement C*_0 ⊇ C*_1 ⊇ ... removes, from each segment, a gap meeting its
middle third, which certifies that level-n segments shrink like (2/3)^n times
the hull regardless of where the natural gaps sit.  Endpoint arithmetic is
double-double throughout so stored endpoints are correctly rounded members.

build_target_system refines a level at a time on arrays, with one lane per
segment, and keeps only the current level; the last one is the deepest
level, the only one a system stores.  Natural mode applies the split
formulas to the whole level at once.  Strict mode runs the scalar
middle-third search and tightening (_find_gap_dd, _tighten_dd) as masked
descents that make the same double-double operations in the same branch
order per lane, so it stores the bits of a per-segment loop.  A lane starts
its descents not at the hull but at the deepest tree node already known to
contain its segment: the matching child of the parent's gap node when a
comparison confirms the containment, else the parent's own start node.
Every gap above such a node lies wholly left or right of the segment, so a
descent from the hull would pass those nodes without changing state;
starting below them saves a descent of length ~n per segment at level n.
"""

from dataclasses import dataclass, field

import numpy as np

from . import _dd
from .errors import DomainError, RegimeError, SpecError
from .model_cantor import IntervalSystem, _validate_depth


def _check_hull(hull):
    a, b = float(hull[0]), float(hull[1])
    if not (np.isfinite(a) and np.isfinite(b)):
        raise DomainError(f"hull must be finite, got [{a!r}, {b!r}]")
    if not a < b:
        raise DomainError(f"hull must satisfy a < b, got [{a!r}, {b!r}]")
    return a, b


@dataclass(frozen=True)
class MiddleAlpha:
    """Remove the central proportion alpha from every segment.

    alpha_lo is an optional double-double tail for alpha; the middle_thirds()
    factory uses it so that alpha = 1/3 is exact beyond double precision.
    """

    alpha: float
    hull: tuple = (0.0, 1.0)
    alpha_lo: float = field(default=0.0, repr=False)

    def __post_init__(self):
        _check_hull(self.hull)
        if not 0.0 < self.alpha < 1.0:
            raise DomainError(f"alpha must lie in (0, 1), got {self.alpha!r}")


@dataclass(frozen=True)
class AffineIFS2:
    """Attractor of the two contractions x -> r1*x and x -> r2*x + (1 - r2),
    rescaled to the hull.  The principal gap of [u, v] with length L is
    (u + r1*L, v - r2*L), which need not meet the middle third."""

    r1: float
    r2: float
    hull: tuple = (0.0, 1.0)

    def __post_init__(self):
        _check_hull(self.hull)
        if not (0.0 < self.r1 < 1.0 and 0.0 < self.r2 < 1.0):
            raise DomainError(f"ratios must lie in (0, 1), got {self.r1!r}, {self.r2!r}")
        if not self.r1 + self.r2 < 1.0:
            raise DomainError(f"need r1 + r2 < 1, got {self.r1 + self.r2!r}")


@dataclass(frozen=True)
class FatCantor:
    """Remove the central proportion gap0 * ratio^(n-1) at step n.

    The schedule sums to gap0 / (1 - ratio), required < 1 so the set keeps
    positive measure while segments still halve (or better) every level.
    """

    gap0: float
    ratio: float
    hull: tuple = (0.0, 1.0)

    def __post_init__(self):
        _check_hull(self.hull)
        if not 0.0 < self.gap0 < 1.0:
            raise DomainError(f"gap0 must lie in (0, 1), got {self.gap0!r}")
        if not 0.0 < self.ratio < 1.0:
            raise DomainError(f"ratio must lie in (0, 1), got {self.ratio!r}")
        if not self.gap0 / (1.0 - self.ratio) < 1.0:
            raise DomainError(
                f"gap schedule sums to {self.gap0 / (1.0 - self.ratio)!r} >= 1"
            )


@dataclass(frozen=True)
class ExplicitGapTree:
    """File-backed gap tree: levels[k] lists the 2^k gaps splitting level-k
    segments, left to right.  Validated on construction; descent below the
    stored depth clamps (membership) or fails (refinement)."""

    hull: tuple
    levels: tuple

    def __post_init__(self):
        a, b = _check_hull(self.hull)
        segs = [(a, b)]
        for k, level in enumerate(self.levels):
            if len(level) != len(segs):
                raise SpecError(
                    f"gap level {k} has {len(level)} entries, expected {len(segs)}"
                )
            nxt = []
            for (u, v), gap in zip(segs, level):
                if len(gap) != 2:
                    raise SpecError(f"gap level {k}: entry {gap!r} is not a pair")
                g, h = float(gap[0]), float(gap[1])
                if not g < h:
                    raise SpecError(f"gap level {k}: empty gap ({g!r}, {h!r})")
                if not (u < g and h < v):
                    raise SpecError(
                        f"gap level {k}: ({g!r}, {h!r}) not strictly inside "
                        f"its parent segment [{u!r}, {v!r}]"
                    )
                nxt.append((u, g))
                nxt.append((h, v))
            segs = nxt

    @property
    def depth(self):
        return len(self.levels)


CantorSpec = MiddleAlpha | AffineIFS2 | FatCantor | ExplicitGapTree


def middle_thirds(hull=(0.0, 1.0)):
    """The classical middle-thirds spec with alpha = 1/3 exact in double-double."""
    ah, al = _dd.div(1.0, 0.0, 3.0, 0.0)
    return MiddleAlpha(alpha=ah, hull=hull, alpha_lo=al)


def _fractions(spec, count):
    """Removed proportions of the centred splits at tree levels 0..count-1,
    as double-double pairs."""
    if isinstance(spec, MiddleAlpha):
        return [(spec.alpha, spec.alpha_lo)] * count
    fracs = [(spec.gap0, 0.0)]
    while len(fracs) < count:
        fracs.append(_dd.mul(*fracs[-1], spec.ratio, 0.0))
    return fracs


def _cut(spec, U, V, frac):
    """Principal gap (G, H) of [U, V] for the formula families; frac is the
    centred proportion (unused for AffineIFS2).  Parts may be arrays."""
    L = _dd.sub(*V, *U)
    if isinstance(spec, AffineIFS2):
        G = _dd.add(*U, *_dd.mul(*L, spec.r1, 0.0))
        H = _dd.sub(*V, *_dd.mul(*L, spec.r2, 0.0))
        return G, H
    # centered gap of proportion frac: children have length L * (1 - frac) / 2
    rh, rl = _dd.sub(1.0, 0.0, *frac)
    half = _dd.mul(*L, rh / 2.0, rl / 2.0)
    G = _dd.add(*U, *half)
    H = _dd.sub(*V, *half)
    return G, H


def _split(spec, U, V, n, j):
    """Principal gap (G, H) of segment (U, V) at level n, index j, as
    double-double pairs; None when an explicit tree has no deeper data."""
    if isinstance(spec, ExplicitGapTree):
        if n >= len(spec.levels):
            return None
        g, h = spec.levels[n][j]
        return (float(g), 0.0), (float(h), 0.0)
    if isinstance(spec, AffineIFS2):
        return _cut(spec, U, V, None)
    if isinstance(spec, (MiddleAlpha, FatCantor)):
        return _cut(spec, U, V, _fractions(spec, n + 1)[n])
    raise DomainError(f"unsupported spec type {type(spec).__name__}")


def _hull_dd(spec):
    a, b = spec.hull
    return (float(a), 0.0), (float(b), 0.0)


def membership(spec, x, depth):
    """Whether x survives `depth` levels of the spec's interval tree.

    Endpoints count as members; anything outside the hull is out.  Explicit
    gap trees deeper than their stored data clamp at the deepest stored level.
    Raises DomainError for depth < 1.
    """
    depth = int(depth)
    if depth < 1:
        raise DomainError(f"membership depth must be >= 1, got {depth}")
    x = float(x)
    U, V = _hull_dd(spec)
    if x < U[0] or x > V[0]:
        return False
    j = 0
    for n in range(depth):
        gap = _split(spec, U, V, n, j)
        if gap is None:
            return True
        G, H = gap
        if x <= G[0]:
            V, j = G, 2 * j
        elif x >= H[0]:
            U, j = H, 2 * j + 1
        else:
            return False
    return True


def _find_gap_dd(spec, c, d):
    """Gap meeting the middle third of [c, d] (double-double pairs in/out).

    Walks the gap tree keeping a window that starts as the closed middle
    third and shrinks past any gap that substantially straddles its edge;
    returns either a tree gap inside the window or the window's overlap with
    a gap that swallows it (the caller's tightening recovers the full gap).
    The window edges carry a 1e-12 relative slack: segment endpoints arrive
    rounded to doubles, and without the slack a sub-ulp shift of the window
    could push the genuine middle-third gap just past an edge and send the
    descent into ever-smaller gaps hugging that edge.
    """
    w = _dd.sub(*d, *c)
    third = _dd.div(*w, 3.0, 0.0)
    lo = _dd.add(*c, *third)
    hi = _dd.sub(*d, *third)
    slack = (1e-12 * w[0], 0.0)
    U, V = _hull_dd(spec)
    n = j = 0
    for _ in range(64):
        gap = _split(spec, U, V, n, j)
        if gap is None:
            raise SpecError(
                f"gap tree has no data below level {n}; cannot refine "
                f"[{c[0]!r}, {d[0]!r}]"
            )
        G, H = gap
        if _dd.le(*_dd.sub(*lo, *G), *slack) and _dd.le(*_dd.sub(*H, *hi), *slack):
            return G, H  # gap (essentially) inside the window
        if _dd.le(*_dd.sub(*G, *lo), *slack) and _dd.le(*_dd.sub(*hi, *H), *slack):
            # gap swallows the window; report the overlap
            return (lo if _dd.le(*G, *lo) else G), (hi if _dd.le(*hi, *H) else H)
        if _dd.le(*H, *lo):  # gap left of the window
            U, n, j = H, n + 1, 2 * j + 1
        elif _dd.le(*hi, *G):  # gap right of the window
            V, n, j = G, n + 1, 2 * j
        elif _dd.le(*G, *lo):  # gap straddles the left edge; keep (H, hi)
            U, n, j = H, n + 1, 2 * j + 1
            lo = H
        else:  # gap straddles the right edge; keep (lo, G)
            V, n, j = G, n + 1, 2 * j
            hi = G
    raise SpecError(
        f"no gap found in the middle third of [{c[0]!r}, {d[0]!r}] within 64 "
        "levels; the specification may describe degenerate segments"
    )


def find_gap_in_middle_third(spec, interval):
    """An open gap (e, f) of the target set meeting the middle third of the
    segment [c, d], with e - c and d - f both below 2/3 of the length.

    [c, d] must be a segment of the refinement (its endpoints members).
    """
    c, d = float(interval[0]), float(interval[1])
    if not c < d:
        raise DomainError(f"invalid segment [{c!r}, {d!r}]")
    if not (membership(spec, c, 16) and membership(spec, d, 16)):
        raise DomainError(
            f"segment endpoints [{c!r}, {d!r}] are not members of the target set"
        )
    E, F = _find_gap_dd(spec, (c, 0.0), (d, 0.0))
    return float(E[0]), float(F[0])


def _tighten_dd(spec, e, f, slack=(0.0, 0.0)):
    """Widen the member-free interval (e, f) to the maximal natural gap
    containing it (double-double pairs in/out).

    slack absorbs endpoint rounding: a natural gap counts as containing
    (e, f) when it does so up to slack per side.  Internal callers hand in
    exact tree values and use zero slack; the public wrapper passes its tol.
    """
    U, V = _hull_dd(spec)
    n = j = 0
    for _ in range(64):
        gap = _split(spec, U, V, n, j)
        if gap is None:
            raise SpecError(
                f"gap tree has no data below level {n}; cannot tighten "
                f"({e[0]!r}, {f[0]!r})"
            )
        G, H = gap
        if _dd.le(*_dd.sub(*G, *e), *slack) and _dd.le(*_dd.sub(*f, *H), *slack):
            return G, H
        if _dd.le(*f, *G):
            V, j = G, 2 * j
        elif _dd.le(*H, *e):
            U, j = H, 2 * j + 1
        else:
            raise DomainError(
                f"({e[0]!r}, {f[0]!r}) contains members of the target set"
            )
        n += 1
    raise SpecError(
        f"no natural gap contains ({e[0]!r}, {f[0]!r}) within 64 levels"
    )


def tighten_gap(spec, gap, tol=None):
    """Maximal natural gap (e', f') containing the member-free interval (e, f).

    e' is the largest member below e, f' the smallest member above f.  For
    the tree-backed specs of this module both are computed exactly by descent;
    tol only guards the argument contract (it must be positive) and defaults
    to 1e-12 times the hull length.
    """
    a, b = _check_hull(spec.hull)
    if tol is None:
        tol = 1e-12 * (b - a)
    if not tol > 0.0:
        raise DomainError(f"tolerance must be positive, got {tol!r}")
    e, f = float(gap[0]), float(gap[1])
    if not e < f:
        raise DomainError(f"invalid open interval ({e!r}, {f!r})")
    if e < a or f > b:
        raise DomainError(f"({e!r}, {f!r}) is not inside the hull [{a!r}, {b!r}]")
    E, F = _tighten_dd(spec, (e, 0.0), (f, 0.0), slack=(tol, 0.0))
    return float(E[0]), float(F[0])


class TargetSystem(IntervalSystem):
    """IntervalSystem for a target Cantor set, remembering its spec and the
    build mode ("strict" follows the middle-third certificate, "natural"
    splits at the spec's own principal gaps)."""

    def __init__(self, spec, mode, a_N, b_N, a_lo_N, b_lo_N):
        super().__init__(a_N, b_N, a_lo_N, b_lo_N)
        self.spec = spec
        self.mode = mode


def _natural_ratio_bound(spec, depth):
    """Upper bound on child/parent length ratios in natural mode."""
    if isinstance(spec, MiddleAlpha):
        return (1.0 - spec.alpha) / 2.0
    if isinstance(spec, AffineIFS2):
        return max(spec.r1, spec.r2)
    if isinstance(spec, FatCantor):
        # schedule decreases, so the loosest split is the deepest one
        return (1.0 - spec.gap0 * spec.ratio ** max(depth - 1, 0)) / 2.0
    return None  # explicit trees: strict insideness already gives ratio < 1


def build_target_system(spec, depth, mode="strict"):
    """Refine the target hull `depth` times.

    Strict mode splits each segment at the tightened gap found in its middle
    third, certifying level-n lengths <= (2/3)^n times the hull.  Natural
    mode splits at the spec's principal gaps and is refused (RegimeError)
    when the family's child ratios do not certify shrinking lengths.
    """
    depth = _validate_depth(depth)
    if mode not in ("strict", "natural"):
        raise DomainError(f"mode must be 'strict' or 'natural', got {mode!r}")
    if mode == "natural":
        ratio = _natural_ratio_bound(spec, depth)
        if ratio is not None and ratio >= 1.0:
            raise RegimeError(
                f"natural mode needs child ratios < 1, got {ratio!r}"
            )
        if isinstance(spec, ExplicitGapTree) and depth > len(spec.levels):
            raise SpecError(
                f"gap tree stores {len(spec.levels)} levels, cannot build "
                f"depth {depth} naturally"
            )
    a, b = _check_hull(spec.hull)
    split = _NodeSplitter(spec)

    A = np.array([a]), np.array([0.0])
    B = np.array([b]), np.array([0.0])
    start = (*A, *B, np.zeros(1, np.int64), np.zeros(1, np.int64))  # the hull

    for n in range(depth):
        # overflow and NaN stay silent, as in float arithmetic; the split
        # check below refuses what they produce
        with np.errstate(over="ignore", invalid="ignore"):
            if mode == "strict":
                G, H, start, failed = _strict_gaps(split, A, B, start)
            else:
                m = A[0].size
                G, H = split(A, B, np.full(m, n), np.arange(m))
                failed = np.zeros(m, bool)
            _check_splits(spec, mode, n, A, B, G, H, failed)
        # children of segment i are [A_i, G_i] (index 2i) and [H_i, B_i] (2i + 1)
        A = tuple(_interleave(u, g) for u, g in zip(A, H))
        B = tuple(_interleave(g, v) for g, v in zip(G, B))

    return TargetSystem(spec, mode, A[0], B[0], A[1], B[1])


def _interleave(even, odd):
    out = np.empty(2 * even.size, even.dtype)
    out[0::2] = even
    out[1::2] = odd
    return out


def _pick(mask, x, y):
    """Elementwise x where mask else y, over matching tuples of arrays."""
    return tuple(np.where(mask, u, v) for u, v in zip(x, y))


def _put(out, lane, mask, x):
    """Store the masked lanes of a tuple of arrays into lane slots of out."""
    for o, u in zip(out, x):
        o[lane[mask]] = u[mask]


def _check_splits(spec, mode, n, U, V, G, H, failed):
    """Raise the scalar build's error for the first failing segment: its own
    descent error in strict mode, else a degenerate split."""
    # strict U < G and H < V, false on NaN like tuple comparison
    ok = (_dd.le(*U, *G) & ~_dd.le(*G, *U)) & (_dd.le(*H, *V) & ~_dd.le(*V, *H))
    bad = failed | ~ok
    if not bad.any():
        return
    k = int(np.argmax(bad))
    Uk, Vk, Gk, Hk = ((float(x[0][k]), float(x[1][k])) for x in (U, V, G, H))
    if mode == "strict":
        Gk, Hk = _tighten_dd(spec, *_find_gap_dd(spec, Uk, Vk))
    raise SpecError(
        f"level {n + 1} split degenerated: segment "
        f"[{Uk[0]!r}, {Vk[0]!r}] with gap ({Gk[0]!r}, {Hk[0]!r})"
    )


class _NodeSplitter:
    """_split for many tree nodes at once.

    A call takes dd pairs of arrays U, V and int arrays n, j (level and
    index), one node per lane, and applies the scalar formulas elementwise,
    so every lane gets the bits _split would give it.  `limit` is the first
    level the scalar descents cannot visit: 64, or an explicit tree's stored
    depth when that is smaller (where _split runs out of data).
    """

    def __init__(self, spec):
        self.spec = spec
        self.limit = 64
        if isinstance(spec, ExplicitGapTree):
            self.limit = min(64, len(spec.levels))
            # gaps in heap order: node (n, j) sits at 2^n - 1 + j
            flat = [gap for level in spec.levels for gap in level]
            gaps = np.array(flat, dtype=float).reshape(len(flat), 2)
            self.g, self.h = gaps[:, 0], gaps[:, 1]
        elif isinstance(spec, (MiddleAlpha, FatCantor)):
            self.fracs = np.array(_fractions(spec, 64)).T

    def __call__(self, U, V, n, j):
        spec = self.spec
        if isinstance(spec, ExplicitGapTree):
            k = (1 << n) - 1 + j
            zero = np.zeros(k.size)
            return (self.g[k], zero), (self.h[k], zero)
        if isinstance(spec, AffineIFS2):
            return _cut(spec, U, V, None)
        if isinstance(spec, (MiddleAlpha, FatCantor)):
            return _cut(spec, U, V, (self.fracs[0][n], self.fracs[1][n]))
        raise DomainError(f"unsupported spec type {type(spec).__name__}")


def _strict_gaps(split, C, D, start):
    """_tighten_dd(_find_gap_dd(segment)) for every segment [C_i, D_i] of a
    level, as masked descents with one lane per segment.

    Each lane begins at its start node (U, V, n, j) instead of the hull (see
    the module docstring).  Returns the gaps G, H, the start nodes of the 2m
    children and a mask of the lanes whose scalar descents raise.
    """
    w = _dd.sub(*D, *C)
    third = _dd.div(*w, 3.0, 0.0)
    lo = _dd.add(*C, *third)
    hi = _dd.sub(*D, *third)
    m = w[0].size
    failed = np.zeros(m, bool)

    def lanes(state):
        # drop lanes whose node level (state[5]) the scalar descents cannot visit
        stop = state[5] >= split.limit
        failed[state[0][stop]] = True
        return tuple(x[~stop] for x in state)

    # _find_gap_dd: (lane, Uh, Ul, Vh, Vl, n, j, loh, lol, hih, hil, slack)
    E, F = _blank(m, 2), _blank(m, 2)
    state = lanes((np.arange(m), *start, *lo, *hi, 1e-12 * w[0]))
    while state[0].size:
        lane, Uh, Ul, Vh, Vl, n, j, loh, lol, hih, hil, sl = state
        lo, hi = (loh, lol), (hih, hil)
        Gs, Hs = split((Uh, Ul), (Vh, Vl), n, j)
        inside = (_dd.le(*_dd.sub(*lo, *Gs), sl, 0.0)
                  & _dd.le(*_dd.sub(*Hs, *hi), sl, 0.0))
        swallow = (~inside & _dd.le(*_dd.sub(*Gs, *lo), sl, 0.0)
                   & _dd.le(*_dd.sub(*hi, *Hs), sl, 0.0))
        _put(E, lane, inside, Gs)
        _put(F, lane, inside, Hs)
        _put(E, lane, swallow, _pick(_dd.le(*Gs, *lo), lo, Gs))
        _put(F, lane, swallow, _pick(_dd.le(*hi, *Hs), hi, Hs))
        gap_left = _dd.le(*Hs, *lo)
        gap_right = ~gap_left & _dd.le(*hi, *Gs)
        cut_left = ~gap_left & ~gap_right & _dd.le(*Gs, *lo)
        cut_right = ~gap_left & ~gap_right & ~cut_left
        right = gap_left | cut_left
        lo = _pick(cut_left, Hs, lo)
        hi = _pick(cut_right, Gs, hi)
        U = _pick(right, Hs, (Uh, Ul))
        V = _pick(right, (Vh, Vl), Gs)
        go = ~(inside | swallow)
        state = lanes(tuple(x[go] for x in (
            lane, *U, *V, n + 1, 2 * j + right, *lo, *hi, sl)))

    # _tighten_dd with zero slack: (lane, Uh, Ul, Vh, Vl, n, j, eh, el, fh, fl)
    G, H = _blank(m, 2), _blank(m, 2)
    node = (*_blank(m, 4), np.zeros(m, np.int64), np.zeros(m, np.int64))
    ok = ~failed
    state = lanes((np.flatnonzero(ok), *(x[ok] for x in (*start, *E, *F))))
    while state[0].size:
        lane, Uh, Ul, Vh, Vl, n, j, eh, el, fh, fl = state
        e, f = (eh, el), (fh, fl)
        Gs, Hs = split((Uh, Ul), (Vh, Vl), n, j)
        hit = (_dd.le(*_dd.sub(*Gs, *e), 0.0, 0.0)
               & _dd.le(*_dd.sub(*f, *Hs), 0.0, 0.0))
        _put(G, lane, hit, Gs)
        _put(H, lane, hit, Hs)
        _put(node, lane, hit, (Uh, Ul, Vh, Vl, n, j))
        left = ~hit & _dd.le(*f, *Gs)
        right = ~hit & ~left & _dd.le(*Hs, *e)
        failed[lane[~(hit | left | right)]] = True  # members inside (e, f)
        U = _pick(right, Hs, (Uh, Ul))
        V = _pick(left, Gs, (Vh, Vl))
        go = left | right
        state = lanes(tuple(x[go] for x in (
            lane, *U, *V, n + 1, 2 * j + right, *e, *f)))

    # a child starts at the matching child of its gap's node when that node
    # contains it, else where its parent started
    Uh, Ul, Vh, Vl, n, j = node
    left = _pick(_dd.le(Uh, Ul, *C), (Uh, Ul, *G, n + 1, 2 * j), start)
    right = _pick(_dd.le(*D, Vh, Vl), (*H, Vh, Vl, n + 1, 2 * j + 1), start)
    children = tuple(_interleave(x, y) for x, y in zip(left, right))
    return G, H, children, failed


def _blank(m, k):
    return tuple(np.zeros(m) for _ in range(k))
