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
segment, inside the knot arrays of the system it returns: it reads level n
from their views and writes the gaps it removes, level n + 1's new
endpoints, through the gap views, so it keeps no level of its own.
Natural mode applies the split formulas to a block of _BLOCK segments at
a time.  Strict mode runs one masked descent per level, the middle-third
search (_find_gaps), and splits at the maximal gap each lane stops at;
find_gap_in_middle_third runs that search on one lane.  tighten_gap's
tightening (_tighten), which the build does not need, walks the tree
on floats.
All splits come from _NodeSplitter, which membership and _tighten call
one node at a time for floats, and membership one level at a time, the
level one int, for an array of points; only the strict search passes a
level per lane.  A descent stops at _descent_limit(spec).  In the build
a lane starts its search not at the hull but at the deepest tree node
already known to contain its segment: the matching child of the parent's
gap node when a comparison confirms the containment, else the parent's
own start node.
Every gap above such a node lies wholly left or right of the segment, so a
descent from the hull would pass those nodes without changing state;
starting below them saves a descent of length ~n per segment at level n.

For the centred families (MiddleAlpha, FatCantor), and for an AffineIFS2
whose two ratios lie on one side of 1/3, a segment's own gap meets its
middle third (_splits_naturally).  Strict mode then is natural mode: it
splits with the formulas, block by block.  Only the other strict specs,
affine ratios on opposite sides of 1/3 and explicit trees, run the search.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import _dd
from .errors import DomainError, SpecError
from .model_cantor import (_BLOCK, IntervalSystem, _check_resolved,
                           _interleave, _validate_depth)


def _check_hull(hull):
    a, b = float(hull[0]), float(hull[1])
    if not (np.isfinite(a) and np.isfinite(b)):
        raise DomainError(f"hull must be finite, got [{a!r}, {b!r}]")
    if not a < b:
        raise DomainError(f"hull must satisfy a < b, got [{a!r}, {b!r}]")
    # the dd kernels split a node's length by multiplying it by 2^27 + 1
    if not np.isfinite(_dd._SPLITTER * (b - a)):
        raise DomainError(f"hull width overflows the double-double split, "
                          f"got [{a!r}, {b!r}]")
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


def _descent_limit(spec):
    """First tree level no descent visits.

    For an explicit tree it is the stored depth.  For a formula family with
    largest child/parent length ratio r, a level-k node is at most r^k times
    the hull long, and the limit is the first k where that falls below
    double-double resolution (2^-106) at the hull's larger endpoint.
    """
    if isinstance(spec, ExplicitGapTree):
        return len(spec.levels)
    if isinstance(spec, MiddleAlpha):
        r = (1.0 - spec.alpha) / 2.0
    elif isinstance(spec, AffineIFS2):
        r = max(spec.r1, spec.r2)
    else:
        r = 0.5  # FatCantor: the removed proportions shrink towards 0
    a, b = _check_hull(spec.hull)
    return math.ceil(math.log(max(abs(a), abs(b)) / (b - a) * 2.0 ** -106)
                     / math.log(r))


def _splits_naturally(spec):
    """Whether every segment's own gap meets its middle third, so that the
    strict split is the natural one.

    On a segment [u, v] of length L the middle third is [u + L/3, v - L/3].
    A centred gap leaves h = L(1 - frac)/2 on either side: it lies inside
    the third when h >= L/3 and covers it when h <= L/3.  An AffineIFS2 gap
    leaves r1*L on the left and r2*L on the right: inside the third when
    both ratios exceed 1/3, covering it when neither does.  No double lies
    between the double 1/3 and 1/3, so r <= 1/3 compares as over the reals.
    """
    if isinstance(spec, AffineIFS2):
        return (spec.r1 <= 1 / 3) == (spec.r2 <= 1 / 3)
    return isinstance(spec, (MiddleAlpha, FatCantor))


class _NodeSplitter:
    """Principal gaps of gap-tree nodes: the one dispatcher over the
    families' split formulas.

    A call takes a node's segment [U, V] as dd pairs, its level n and its
    index j, and returns its gap (G, H) as dd pairs.  The parts are floats
    for one node, or arrays with one node per lane, with n one int or (for
    lanes at different levels) an array; a lane gets the float call's
    bits.  FatCantor's removed proportions (a pair of floats at an int n)
    and an explicit tree's gap arrays are built as deep as the calls go.
    """

    def __init__(self, spec):
        self.spec = spec
        if isinstance(spec, FatCantor):
            self.fracs = [(spec.gap0, 0.0)]  # level n removes gap0 * ratio^n
        self.tables = None  # the arrays lane calls index

    def __call__(self, U, V, n, j):
        spec = self.spec
        if isinstance(spec, AffineIFS2):
            return _cut(spec, U, V, None)
        if isinstance(spec, MiddleAlpha):
            return _cut(spec, U, V, (spec.alpha, spec.alpha_lo))
        if isinstance(spec, ExplicitGapTree):
            if not isinstance(j, np.ndarray):
                g, h = spec.levels[n][j]
                return (float(g), 0.0), (float(h), 0.0)
            if self.tables is None:
                # gaps in heap order: node (n, j) sits at 2^n - 1 + j
                flat = [gap for level in spec.levels for gap in level]
                self.tables = np.array(flat, dtype=float).reshape(len(flat), 2).T
            g, h = self.tables[:, (1 << n) - 1 + j]
            zero = np.zeros(j.size)
            return (g, zero), (h, zero)
        if not isinstance(spec, FatCantor):
            raise DomainError(f"unsupported spec type {type(spec).__name__}")
        lanes = isinstance(n, np.ndarray)
        deepest = int(n.max()) if lanes else n
        while len(self.fracs) <= deepest:
            self.fracs.append(_dd.mul(*self.fracs[-1], spec.ratio, 0.0))
            self.tables = None
        if not lanes:
            return _cut(spec, U, V, self.fracs[n])
        if self.tables is None:
            self.tables = np.array(self.fracs).T
        return _cut(spec, U, V, (self.tables[0][n], self.tables[1][n]))


def membership(spec, x, depth):
    """Whether x survives `depth` levels of the spec's interval tree.

    Endpoints count as members; anything outside the hull is out.  Explicit
    gap trees deeper than their stored data clamp at the deepest stored level.
    Raises DomainError for depth < 1.  An ndarray x gives a bool array of
    its shape, equal lane by lane to the scalar call: one descent over all
    lanes that drops each lane where it falls into a gap.
    """
    depth = int(depth)
    if depth < 1:
        raise DomainError(f"membership depth must be >= 1, got {depth}")
    split = _NodeSplitter(spec)
    if isinstance(spec, ExplicitGapTree):
        depth = min(depth, len(spec.levels))
    if isinstance(x, np.ndarray):
        return _members(split, x, depth)
    x = float(x)
    a, b = spec.hull
    U, V = (float(a), 0.0), (float(b), 0.0)
    if x < U[0] or x > V[0]:
        return False
    j = 0
    for n in range(depth):
        G, H = split(U, V, n, j)
        if x <= G[0]:
            V, j = G, 2 * j
        elif x >= H[0]:
            U, j = H, 2 * j + 1
        else:
            return False
    return True


def _members(split, x, depth):
    """membership's descent over the lanes of the array x."""
    x = np.asarray(x, dtype=np.float64)
    flat = x.ravel()
    a, b = (float(v) for v in split.spec.hull)
    # the scalar hull test: nan passes it and falls at the first gap, or
    # stays a member of a tree without levels
    lane = np.flatnonzero(~((flat < a) | (flat > b)))
    m = lane.size
    U = (np.full(m, a), np.zeros(m))
    V = (np.full(m, b), np.zeros(m))
    j = np.zeros(m, np.int64)
    for n in range(depth):
        if not lane.size:
            break
        G, H = split(U, V, n, j)
        xs = flat[lane]
        down = xs <= G[0]
        up = ~down & (xs >= H[0])
        U, V = _pick(up, H, U), _pick(down, G, V)
        j = 2 * j + up
        keep = down | up
        lane, j = lane[keep], j[keep]
        U, V = (tuple(u[keep] for u in w) for w in (U, V))
    out = np.zeros(flat.size, dtype=bool)
    out[lane] = True
    return out.reshape(x.shape)


def find_gap_in_middle_third(spec, interval):
    """An open gap (e, f) of the target set meeting the middle third of the
    segment [c, d], with e - c and d - f both below 2/3 of the length.

    [c, d] must be a segment of the refinement (its endpoints members).
    This is the build's strict search (_find_gaps) on one lane from the
    hull; the build splits at the whole tree gap holding (e, f).
    """
    c, d = float(interval[0]), float(interval[1])
    if not c < d:
        raise DomainError(f"invalid segment [{c!r}, {d!r}]")
    if not (membership(spec, c, 16) and membership(spec, d, 16)):
        raise DomainError(
            f"segment endpoints [{c!r}, {d!r}] are not members of the target set"
        )
    E, F, *_, missed = _find_gaps(_NodeSplitter(spec), _lane(c, 0.0),
                                  _lane(d, 0.0), _hull_lane(spec))
    if missed[0] >= 0:
        raise _descent_error(spec, "refine", missed[0], c, d)
    return float(E[0][0]), float(F[0][0])


def tighten_gap(spec, gap, tol=None):
    """Maximal natural gap (e', f') containing the member-free interval (e, f).

    e' is the largest member below e, f' the smallest member above f.  For
    the tree-backed specs of this module both are computed exactly by the
    tightening (_tighten) from the hull; tol is its slack (a natural gap
    counts as containing (e, f) when it does so up to tol per side), must
    be positive, and defaults to 1e-12 times the hull length.
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
    G, H = _tighten(_NodeSplitter(spec), (e, 0.0), (f, 0.0), float(tol))
    return float(G[0]), float(H[0])


def _tighten(split, E, F, slack):
    """The maximal natural gap (G, H) containing the member-free interval
    (E, F), dd pairs of floats, walked down from the hull on floats as
    membership walks a point.

    A natural gap counts as containing (E, F) when it does so up to slack
    per side.  Raises _descent_error's error for the level where the walk
    stops: short of the descent limit when members lie inside (E, F).
    """
    spec = split.spec
    U, V = ((float(x), 0.0) for x in spec.hull)
    j, limit = 0, _descent_limit(spec)
    for n in range(limit):
        G, H = split(U, V, n, j)
        if (_dd.le(*_dd.sub(*G, *E), slack, 0.0)
                and _dd.le(*_dd.sub(*F, *H), slack, 0.0)):
            return G, H
        if _dd.le(*F, *G):
            V, j = G, 2 * j
        elif _dd.le(*H, *E):
            U, j = H, 2 * j + 1
        else:
            raise _descent_error(spec, "tighten", n, E[0], F[0])
    raise _descent_error(spec, "tighten", limit, E[0], F[0])


def _lane(*xs):
    """One-lane arrays of the values xs."""
    return tuple(np.array([x]) for x in xs)


def _hull_lane(spec):
    """The tree's root node (U, V, n, j) as a descent start for one lane."""
    a, b = _check_hull(spec.hull)
    return _lane(a, 0.0, b, 0.0, 0, 0)


def _descent_error(spec, verb, at, x, y):
    """The error of a descent that stopped at level `at` trying to `verb`
    ("refine" the segment [x, y] or "tighten" the interval (x, y)).  It
    stops short of the descent limit only when tightening meets members
    inside (x, y).
    """
    x, y = float(x), float(y)
    where = f"[{x!r}, {y!r}]" if verb == "refine" else f"({x!r}, {y!r})"
    if at < _descent_limit(spec):
        return DomainError(f"{where} contains members of the target set")
    if isinstance(spec, ExplicitGapTree):
        return SpecError(
            f"gap tree has no data below level {at}; cannot {verb} {where}")
    if verb == "refine":
        return SpecError(
            f"no gap found in the middle third of {where} within {at} levels; "
            "the specification may describe degenerate segments")
    return SpecError(f"no natural gap contains {where} within {at} levels")


class TargetSystem(IntervalSystem):
    """IntervalSystem for a target Cantor set, remembering its spec and the
    build mode ("strict" follows the middle-third certificate, "natural"
    splits at the spec's own principal gaps).  The mode is a label: for a
    spec whose own gaps meet the middle thirds (_splits_naturally) both
    modes build the same endpoints.

    Like a model system it stores level N once, as its knot arrays, and a
    phi_N that build_phi pairs at depth N shares them.
    """

    def __init__(self, spec, mode, a_N, b_N, a_lo_N, b_lo_N):
        super().__init__(a_N, b_N, a_lo_N, b_lo_N)
        self.spec = spec
        self.mode = mode


def build_target_system(spec, depth, mode="strict"):
    """Refine the target hull `depth` times.

    Strict mode splits each segment at the maximal gap found in its middle
    third, certifying level-n lengths <= (2/3)^n times the hull.  Natural
    mode splits at the spec's principal gaps, whose child/parent length
    ratios every family's constructor already keeps below 1.  Where each
    segment's own gap meets its middle third (_splits_naturally) the two
    coincide, and strict mode splits with the natural formula; other
    strict specs run the middle-third search on every level.  A depth
    whose endpoints collide in doubles raises DomainError
    (_check_resolved).
    """
    depth = _validate_depth(depth)
    if mode not in ("strict", "natural"):
        raise DomainError(f"mode must be 'strict' or 'natural', got {mode!r}")
    if (mode == "natural" and isinstance(spec, ExplicitGapTree)
            and depth > len(spec.levels)):
        raise SpecError(f"gap tree stores {len(spec.levels)} levels, cannot "
                        f"build depth {depth} naturally")
    split = _NodeSplitter(spec)
    search = mode == "strict" and not _splits_naturally(spec)
    a, b = _check_hull(spec.hull)
    system = TargetSystem._from_knots(*np.empty((2, 2 << depth)),
                                      spec=spec, mode=mode)
    system.level_a[0][:], system.level_b[0][:] = a, b
    system.a_lo[0][:], system.b_lo[0][:] = 0.0, 0.0
    start = _hull_lane(spec)  # the search's start nodes

    # Level n is read from the knots' views and its gaps are written
    # through the gap views of level n + 1, the new endpoints of level N.
    # Formula splits go block by block, each block copied to contiguous
    # arrays first; the search takes a whole level.
    for n in range(depth):
        m = 1 << n
        level = (system.level_a[n], system.a_lo[n],
                 system.level_b[n], system.b_lo[n])
        gaps = (system.gap_c[n + 1], system.c_lo[n + 1],
                system.gap_d[n + 1], system.d_lo[n + 1])
        step = m if search else _BLOCK
        for k in (slice(i, i + step) for i in range(0, m, step)):
            Ch, Cl, Dh, Dl = (x[k].copy() for x in level)
            C, D = (Ch, Cl), (Dh, Dl)
            # overflow and NaN stay silent, as in float arithmetic; the split
            # check below refuses what they produce
            with np.errstate(over="ignore", invalid="ignore"):
                if search:
                    G, H, start, missed = _strict_gaps(split, C, D, start)
                else:  # each segment's own tree node
                    G, H = split(C, D, n, k.start + np.arange(Ch.size))
                    missed = np.full(Ch.size, -1)
                _check_splits(spec, n, C, D, G, H, missed)
            # segment i's children are [C_i, G_i] and [H_i, D_i]
            for gap, x in zip(gaps, (*G, *H)):
                gap[k] = x

    return _check_resolved(system, f"{mode} target {spec!r}")


def _pick(mask, x, y):
    """Elementwise x where mask else y, over matching tuples of arrays."""
    return tuple(np.where(mask, u, v) for u, v in zip(x, y))


def _put(out, lane, mask, x):
    """Store the masked lanes of a tuple of arrays into lane slots of out."""
    for o, u in zip(out, x):
        o[lane[mask]] = u[mask]


def _check_splits(spec, n, U, V, G, H, missed):
    """Raise for the first failing segment of a level: the error of a
    strict search that reached the descent limit (missed, see _strict_gaps;
    all -1 for formula splits), else a degenerate split."""
    # strict U < G and H < V, false on NaN like tuple comparison
    ok = _dd.lt(*U, *G) & _dd.lt(*H, *V)
    bad = ~ok | (missed >= 0)
    if not bad.any():
        return
    k = int(np.argmax(bad))
    if missed[k] >= 0:
        raise _descent_error(spec, "refine", missed[k], U[0][k], V[0][k])
    raise SpecError(
        f"level {n + 1} split degenerated: segment "
        f"[{float(U[0][k])!r}, {float(V[0][k])!r}] with gap "
        f"({float(G[0][k])!r}, {float(H[0][k])!r})"
    )


def _drop_spent(limit, state, at):
    """The lanes of a descent state (lane, Uh, Ul, Vh, Vl, n, j, ...) whose
    node level is short of limit; the others record it in `at`."""
    n = state[5]
    stop = n >= limit
    at[state[0][stop]] = n[stop]
    return tuple(x[~stop] for x in state)


def _find_gaps(split, C, D, start):
    """The middle-third search: for every segment [C_i, D_i], a gap meeting
    its middle third, as a masked descent with one lane per segment from
    its start node (U, V, n, j).

    A lane keeps a window that starts as the closed middle third and
    shrinks past any gap that substantially straddles its edge; it stops at
    a tree gap (G, H) inside the window, recording E, F = G, H, or at the
    window's overlap (E, F) with a gap that swallows it.  Tree gaps are
    disjoint, so (G, H) is the maximal gap containing (E, F), the one a
    tightening would find.  The window edges carry a 1e-12 relative slack:
    segment endpoints arrive rounded to doubles, and without the slack a
    sub-ulp shift of the window could push the genuine middle-third gap
    just past an edge and send the descent into ever-smaller gaps hugging
    that edge.  Returns E, F, G, H, the node (U, V, n, j) each lane stopped
    at and, per lane, -1 or the level where the search reached the descent
    limit.
    """
    w = _dd.sub(*D, *C)
    third = _dd.div(*w, 3.0, 0.0)
    lo = _dd.add(*C, *third)
    hi = _dd.sub(*D, *third)
    m = w[0].size
    E, F, G, H = (_blank(m, 2) for _ in range(4))
    node = (*_blank(m, 4), np.zeros(m, np.int64), np.zeros(m, np.int64))
    missed = np.full(m, -1)
    limit = _descent_limit(split.spec)
    # (lane, Uh, Ul, Vh, Vl, n, j, loh, lol, hih, hil, slack)
    state = _drop_spent(limit, (np.arange(m), *start, *lo, *hi, 1e-12 * w[0]),
                        missed)
    while state[0].size:
        lane, Uh, Ul, Vh, Vl, n, j, loh, lol, hih, hil, sl = state
        lo, hi = (loh, lol), (hih, hil)
        Gs, Hs = split((Uh, Ul), (Vh, Vl), n, j)
        inside = (_dd.le(*_dd.sub(*lo, *Gs), sl, 0.0)
                  & _dd.le(*_dd.sub(*Hs, *hi), sl, 0.0))
        swallow = (~inside & _dd.le(*_dd.sub(*Gs, *lo), sl, 0.0)
                   & _dd.le(*_dd.sub(*hi, *Hs), sl, 0.0))
        stop = inside | swallow
        _put(G, lane, stop, Gs)
        _put(H, lane, stop, Hs)
        _put(node, lane, stop, (Uh, Ul, Vh, Vl, n, j))
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
        go = ~stop
        state = _drop_spent(limit, tuple(x[go] for x in (
            lane, *U, *V, n + 1, 2 * j + right, *lo, *hi, sl)), missed)
    return E, F, G, H, node, missed


def _strict_gaps(split, C, D, start):
    """The maximal middle-third gap of every segment [C_i, D_i] of a level,
    one lane per segment: the tree gap its middle-third search stops at.

    Each lane begins its search at its start node instead of the hull (see
    the module docstring).  Returns the gaps G, H, the start nodes of the
    2m children, and, per lane, -1 or the level where the search reached
    the descent limit.
    """
    _, _, G, H, node, missed = _find_gaps(split, C, D, start)

    # a child starts at the matching child of its gap's node when that node
    # contains it, else where its parent started
    Uh, Ul, Vh, Vl, n, j = node
    left = _pick(_dd.le(Uh, Ul, *C), (Uh, Ul, *G, n + 1, 2 * j), start)
    right = _pick(_dd.le(*D, Vh, Vl), (*H, Vh, Vl, n + 1, 2 * j + 1), start)
    children = tuple(_interleave(x, y) for x, y in zip(left, right))
    return G, H, children, missed


def _blank(m, k):
    return tuple(np.zeros(m) for _ in range(k))
