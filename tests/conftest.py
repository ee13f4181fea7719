"""Shared fixtures: the c = -3 / middle-thirds pair used throughout.

Builds are deterministic, so everything heavy is session-scoped.  The one
reference chain of the evaluators is kept here, with the query lanes that
every evaluator surface is compared on against it (see reference_lanes),
and so is the frozen array dd square root, shared by the kernel and model
tests.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from cantordyn import (
    ORBIT_DRIFT_BUDGET,
    AffineIFS2,
    FatCantor,
    MiddleAlpha,
    build_model_system,
    build_phi,
    build_target_system,
    derive_params,
    middle_thirds,
)
from cantordyn import _dd, conjugacy


@pytest.fixture(scope="session")
def params3():
    return derive_params(-3.0)


@pytest.fixture(scope="session")
def model12(params3):
    return build_model_system(params3, 12)


@pytest.fixture(scope="session")
def model13(params3):
    return build_model_system(params3, 13)


@pytest.fixture(scope="session")
def thirds():
    return middle_thirds()


@pytest.fixture(scope="session")
def thirds12(thirds):
    return build_target_system(thirds, 12)


@pytest.fixture(scope="session")
def thirds13(thirds):
    return build_target_system(thirds, 13)


@pytest.fixture(scope="session")
def phi12(model12, thirds12):
    return build_phi(model12, thirds12, 12)


@pytest.fixture(scope="session")
def phi13(model13, thirds13):
    return build_phi(model13, thirds13, 13)


@pytest.fixture(scope="session")
def phi14(params3, thirds):
    """Depth 14: four blocks of the piece table, so three seams."""
    return build_phi(build_model_system(params3, 14),
                     build_target_system(thirds, 14), 14)


@pytest.fixture(scope="session")
def affine():
    return AffineIFS2(0.8, 0.1)


@pytest.fixture(scope="session")
def oracle_cases():
    """(phi, params, target) over c x family x depth x mode, the grid the
    evaluators are compared on against the reference chain."""
    specs = [middle_thirds(), MiddleAlpha(0.5, hull=(-0.0, 1.0)),
             AffineIFS2(0.3, 0.2), AffineIFS2(0.8, 0.1), FatCantor(0.3, 0.5)]
    cases = []
    for c in (-3.0, -2.5, -4.0):
        params = derive_params(c)
        for spec in specs:
            for depth in (0, 1, 4, 8):
                model = build_model_system(params, depth)
                for mode in ("strict", "natural"):
                    target = build_target_system(spec, depth, mode)
                    cases.append((build_phi(model, target, depth), params,
                                  target))
    return cases


def _mp_images(system):
    """For each knot x of a model system (its dd value, tail included), the
    index of the stored knot nearest the 50-digit mpmath F_c(x), and the
    double that F_c(x) rounds to: an oracle of the address shift that
    shares no code with the library's dd kernels."""
    import mpmath

    knots = system.knots.tolist()
    with mpmath.workdps(50):
        c = mpmath.mpf(system.params.c)
        exact = [mpmath.mpf(h) + mpmath.mpf(l)
                 for h, l in zip(knots, system.knots_lo.tolist())]
        near, value = [], []
        for x in exact:
            f = x * x + c
            i = int(np.searchsorted(system.knots, float(f)))
            near.append(min((j for j in (i - 1, i, i + 1)
                             if 0 <= j < len(knots)),
                            key=lambda j: abs(exact[j] - f)))
            value.append(float(f))
    return np.array(near), np.array(value)


@pytest.fixture(scope="session")
def mp_images():
    return _mp_images


# --- the reference chain of the evaluators ---------------------------------
#
# _eval_array on dd points and on doubles as it was when every branch ran on
# every lane and np.where kept each lane's answer, F* composed from it, and
# iterate_target's loop as it was when it stepped every live lane, frozen as
# the one oracle of every evaluator surface: _eval_array, _eval_double,
# _eval_float, _eval_dd, the public phi, phi^(-1) and F* on scalars and
# arrays, and iterate_target on scalars (trajectories included) and arrays.
# Each surface is compared with it on the lanes of reference_lanes; a faster
# evaluator extends those lanes where it adds an input class, and adds no
# copy of the code it replaces.

def reference_eval_dd_array(xs, xs_lo, ys, ys_lo, xh, xl):
    last = xs.size - 1
    i = np.clip(np.searchsorted(xs, xh, side="right") - 1, 0, last)
    on_knot = xs[i] == xh
    hit = on_knot & (xs_lo[i] == xl)
    left = _dd.le(xh, xl, xs[0], xs_lo[0])
    tail = left | _dd.le(xs[-1], xs_lo[-1], xh, xl)
    j = np.clip(i - (on_knot & (xl < xs_lo[i])), 0, last - 1)
    off_l = _dd.sub(ys[0], ys_lo[0], xs[0], xs_lo[0])
    off_r = _dd.sub(ys[-1], ys_lo[-1], xs[-1], xs_lo[-1])
    with np.errstate(over="ignore", invalid="ignore"):
        th, tl = _dd.add(xh, xl, np.where(left, off_l[0], off_r[0]),
                         np.where(left, off_l[1], off_r[1]))
        dx = _dd.sub(xh, xl, xs[j], xs_lo[j])
        t = _dd.div(*dx, *_dd.sub(xs[j + 1], xs_lo[j + 1], xs[j], xs_lo[j]))
        dy = _dd.mul(*t, *_dd.sub(ys[j + 1], ys_lo[j + 1], ys[j], ys_lo[j]))
        ih, il = _dd.add(ys[j], ys_lo[j], *dy)
    h = np.where(hit, ys[i], np.where(tail, th, ih))
    l = np.where(hit, ys_lo[i], np.where(tail, tl, il))
    return h, l


def reference_eval_double_array(xs, xs_lo, ys, ys_lo, x):
    i = np.minimum(np.searchsorted(xs, x), xs.size - 1)
    knot = xs[i] == x
    h, l = reference_eval_dd_array(xs, xs_lo, ys, ys_lo, x, np.zeros_like(x))
    return (np.where(knot, ys[i], h), np.where(knot, ys_lo[i], l),
            np.where(knot, ys[i], h + l))


def reference_fstar_array(pl, c, xh, xl):
    """phi(F_c(x)) at the dd points x = phi^(-1)(y), rounded once; +inf
    where F_c(x) overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        fh, fl = _dd.add(*_dd.sqr(xh, xl), c, 0.0)
        h, l = reference_eval_dd_array(pl.xs, pl.xs_lo, pl.ys, pl.ys_lo,
                                       fh, fl)
    return np.where(np.isfinite(fh), h + l, np.inf)


def reference_iterate_target_array(pl, params, y0, max_iter):
    """(escaped, iteration, states): iterate_target from every lane of y0,
    each lane stepped on its own until it escapes.  escaped and iteration
    have y0's shape; states[n] holds each lane's y_n, NaN once the lane
    escaped before step n (the state it escapes from is kept)."""
    threshold = params.escape_radius * (1.0 + ORBIT_DRIFT_BUDGET)
    escaped = np.zeros(y0.shape, dtype=bool)
    iteration = np.full(y0.shape, max_iter, dtype=np.int64)
    states = np.full((max_iter + 1, y0.size), np.nan)
    alive = np.arange(y0.size)
    y = y0.ravel()
    for n in range(max_iter + 1):
        states[n, alive] = y
        xh, xl, _ = reference_eval_double_array(pl.ys, pl.ys_lo, pl.xs,
                                                pl.xs_lo, y)
        esc = np.abs(xh + xl) > threshold
        escaped.flat[alive[esc]] = True
        iteration.flat[alive[esc]] = n
        alive, xh, xl = alive[~esc], xh[~esc], xl[~esc]
        if n == max_iter or alive.size == 0:
            break
        y = reference_fstar_array(pl, params.c, xh, xl)
    return escaped, iteration, states


def inside(knots, pieces):
    """Three doubles inside each piece j: an ulp above knot j, the
    midpoint, an ulp below knot j + 1."""
    a, b = knots[pieces], knots[pieces + 1]
    return np.concatenate([np.nextafter(a, b), a + 0.5 * (b - a),
                           np.nextafter(b, a)])


def _table_lanes(d, c, extra=()):
    """The double lanes, with extra, and the (hi, lo) lanes of one
    direction d, and the pieces either side of its table's seams."""
    xs, xs_lo = d.xs, d.xs_lo
    n, last = xs.size, d.last
    rng = np.random.default_rng(n)
    k = np.unique(np.r_[0:n:max(1, n // 64), last])
    knots, knots_lo = xs[k], xs_lo[k]
    # piece 2m + 1 is a gap of level N - (trailing zeros of m + 1)
    depth = n.bit_length() - 2
    gaps = np.arange(1, last, 2)
    gaps = gaps[(gaps + 1) // 2 % (1 << max(0, depth - 8)) == 0]
    seams = np.unique([0, last - 1, *(j for s in range(d.block, last, d.block)
                                      for j in (s - 1, s))])
    a, b = xs[0], xs[-1]
    x = np.concatenate([
        knots, np.nextafter(knots, np.inf), np.nextafter(knots, -np.inf),
        0.5 * (xs[gaps] + xs[gaps + 1]), inside(xs, seams),
        rng.uniform(a - 0.5, b + 0.5, 32),
        [a - 1.0, a - 1e-9, b + 1e-9, b + 2.5, 1e300, -1e300, 0.0, -0.0,
         5e-324, -5e-324],
        extra])
    special = [np.inf, -np.inf, np.nan]
    sh, sl = (v.ravel() for v in np.meshgrid(
        special + [a, xs[n // 2], b, 0.5 * (a + b)], special + [0.0, 1e-30]))
    fh, fl = _dd.add(*_dd.sqr(knots, knots_lo), c, 0.0)
    zero = np.zeros_like(x)
    xh = np.concatenate([x, x, x, knots, knots, knots, fh, [0.0, -0.0, -0.0],
                         sh])
    xl = np.concatenate([zero, zero + 1e-30, zero - 1e-30, knots_lo,
                         knots_lo + 1e-30, knots_lo - 1e-30, fl,
                         [0.0, 0.0, -0.0], sl])
    return x, xh, xl, seams


def reference_lanes(pl, params):
    """The query lanes of pl's two directions, phi then phi^(-1), as
    (record, knot table, doubles, dd hi parts, dd lo parts).

    The doubles of a direction: knots (every one of a small map, about 64
    of a larger one, both hull corners included) and their neighbours an
    ulp away; the midpoints of the gaps of levels <= 8; three points inside
    each piece either side of every seam between two blocks of the piece
    table, and in the first and last piece; 32 seeded points over the hull
    and 0.5 past it; both slope-one tails (1 and 1e-9 past either corner,
    2.5 past the last, +-1e300); +-0.0 and +-5e-324.  phi^(-1)'s doubles,
    the F* and orbit starts, add the points whose phi^(-1) is the escape
    threshold or an ulp from it, at both ends, and the points whose
    F_c(phi^(-1)(y)) lands in phi's seam pieces.  A faster evaluator
    that brings an input class these miss adds it here.

    The (hi, lo) lanes: each double with the tail 0.0 and +-1e-30; each
    probed knot with its own tail (an exact knot hit) and that tail
    +-1e-30 (dd-above and dd-below the knot); its F_c image, as the F*
    step from a knot hands it on; +0.0 and -0.0 with signed-zero tails;
    and inf, -inf and NaN in either part, beside a corner, a middle knot
    and the hull's midpoint.
    """
    c = params.c
    phi, inv = pl._phi, pl._phi_inv
    x, xh, xl, seams = _table_lanes(phi, c)
    forward = (pl.xs, pl.xs_lo, pl.ys, pl.ys_lo)
    threshold = params.escape_radius * (1.0 + ORBIT_DRIFT_BUDGET)
    ends = reference_eval_double_array(*forward,
                                       np.array([threshold, -threshold]))[2]
    back = np.sqrt(inside(pl.xs, seams) - c)
    landing = reference_eval_double_array(*forward,
                                          np.concatenate([back, -back]))[2]
    y, yh, yl, _ = _table_lanes(inv, c, np.concatenate([
        ends, np.nextafter(ends, np.inf), np.nextafter(ends, -np.inf),
        landing]))
    return ((phi, forward, x, xh, xl),
            (inv, (pl.ys, pl.ys_lo, pl.xs, pl.xs_lo), y, yh, yl))


ORBIT_STEPS = 25


def reference_case(pl, params):
    """One map, its lanes, and the reference chain's answers there.

    directions holds, for phi and then phi^(-1), the record d, its knot
    table, its doubles x with the reference (h, l, r) of _eval_double, and
    its dd lanes (xh, xl) with the reference (h, l) of _eval_array.
    starts are phi^(-1)'s doubles and fstar the reference F* there; batch
    is starts followed by the knot ordinates (the stored endpoints, whose
    orbits merge: every one of a map up to depth 8, 512 of a deeper one),
    and orbit the reference orbits from batch, ORBIT_STEPS long.
    """
    directions = []
    with np.errstate(all="ignore"):
        for d, table, x, xh, xl in reference_lanes(pl, params):
            directions.append(SimpleNamespace(
                d=d, table=table, x=x,
                want=reference_eval_double_array(*table, x), xh=xh, xl=xl,
                want_dd=reference_eval_dd_array(*table, xh, xl)))
    inv = directions[1]
    batch = np.concatenate([inv.x, pl.ys[::max(1, pl.ys.size // 512)]])
    return SimpleNamespace(
        pl=pl, params=params, directions=directions, starts=inv.x,
        fstar=reference_fstar_array(pl, params.c, *inv.want[:2]), batch=batch,
        orbit=reference_iterate_target_array(pl, params, batch, ORBIT_STEPS))


@pytest.fixture(scope="session")
def reference_cases(oracle_cases, phi14, params3, thirds):
    """Each map of the oracle grid, the depth-14 map of three table seams,
    and depth-6 maps made with piece-table blocks of 1, 7 and 64 pieces,
    as a reference_case."""
    maps = [(pl, params) for pl, params, _ in oracle_cases]
    maps.append((phi14, params3))
    for block in (1, 7, 64):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(conjugacy, "_BLOCK", block)
            pl = build_phi(build_model_system(params3, 6),
                           build_target_system(thirds, 6), 6)
        maps.append((pl, params3))
    return [reference_case(pl, params) for pl, params in maps]


def same_lanes(got, want):
    """The same shape and bits, any NaN counting as any NaN (the sign of a
    NaN follows operand order; see cantordyn._dd)."""
    got, want = np.asarray(got, np.float64), np.asarray(want, np.float64)
    nan = np.isnan(want)
    return (got.shape == want.shape and np.array_equal(np.isnan(got), nan)
            and np.array_equal(got[~nan].view(np.int64),
                               want[~nan].view(np.int64)))


# The array form of _dd.sqrt, zero test included, as it was before _dd.root
# replaced its one use in the library, frozen as the oracle of root.

def reference_v_sqrt(xh, xl):
    with np.errstate(divide="ignore", invalid="ignore"):
        q = np.sqrt(xh)
        rh, _ = _dd.add(xh, xl, *_dd.mul(q, 0.0, -q, 0.0))
        out_h, out_l = _dd.quick_sum(q, rh / (2.0 * q))
    zero = xh == 0.0
    if np.any(zero):
        out_h = np.where(zero, 0.0, out_h)
        out_l = np.where(zero, 0.0, out_l)
    return out_h, out_l
