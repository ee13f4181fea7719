"""Identities of the double-double kernels, pinned bit for bit.

lt(x, y) is the strict comparison le(x, y) & ~le(y, x) with 5 ufuncs in
place of 12, and add(x, y) with a float tail yl = +-0.0 replaces
two_sum(xl, yl) by (xl + yl, xl - xl).  interp and quad are the
compositions add(c, mul(div(sub(x, a), w), v)) and add(*sqr(x), c, 0.0)
written out.  Each must agree with the long form on every input: signed
zeros, subnormals, infinities, NaN, equal hi parts with different lo
parts, as Python floats, numpy.float64 and arrays.  interp given a
piece's width sub(b, a) and height sub(d, c) also agrees with knot_long,
the composition on the piece's two knots (a, c) and (b, d), differences
included.  root, sqrt(*add(x, -c, 0.0))
written out, agrees where x - c > 0, and cut, a segment's principal gap,
on the segments and shares the builds split.
"""

import itertools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cantordyn import _dd
from cantordyn.model_cantor import _BLOCK
from conftest import reference_v_sqrt

VALUES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
          1e-20, -2.5e-17, 0.5, 1.0, -1.0, 1.0000000000000002, -3.0,
          1e308, -1.7976931348623157e308, np.inf, -np.inf, np.nan]


def same_bits(a, b):
    """Equal bit for bit, except that any NaN equals any NaN: the sign of
    NaN + NaN follows the operand order of the compiled add, which differs
    between CPython's generic and specialized float add."""
    a, b = np.asarray(a, np.float64), np.asarray(b, np.float64)
    nan = np.isnan(a)
    return (np.array_equal(nan, np.isnan(b))
            and np.array_equal(a[~nan].view(np.int64), b[~nan].view(np.int64)))


def lt_long(xh, xl, yh, yl):
    return _dd.le(xh, xl, yh, yl) & ~_dd.le(yh, yl, xh, xl)


def add_two_sum(xh, xl, yh, yl):
    """add as written before the float-tail shortcut."""
    sh, se = _dd.two_sum(xh, yh)
    th, te = _dd.two_sum(xl, yl)
    vh, vl = _dd.quick_sum(sh, se + th)
    return _dd.quick_sum(vh, vl + te)


def grid(k):
    """Every k-tuple of VALUES, as k float64 arrays."""
    return np.array(list(itertools.product(VALUES, repeat=k))).T.copy()


def test_lt_is_strict_le_on_the_grid():
    xh, xl, yh, yl = grid(4)  # 18^4 = 104 976 cases
    assert np.array_equal(_dd.lt(xh, xl, yh, yl), lt_long(xh, xl, yh, yl))
    # equal hi parts decided by the lo parts, both ways
    assert _dd.lt(1.0, -1e-17, 1.0, 0.0) and not _dd.lt(1.0, 0.0, 1.0, -1e-17)
    assert not _dd.lt(0.0, 0.0, -0.0, 0.0) and not _dd.lt(-0.0, 0.0, 0.0, 0.0)
    assert not _dd.lt(1.0, np.nan, 1.0, 0.0)


def test_lt_on_scalars_and_numpy_scalars():
    for xh, xl, yh, yl in itertools.product(VALUES[::2], repeat=4):
        want = bool(lt_long(xh, xl, yh, yl))
        assert _dd.lt(xh, xl, yh, yl) is want
        got = _dd.lt(*map(np.float64, (xh, xl, yh, yl)))
        assert isinstance(got, np.bool_) and bool(got) is want


def test_two_sum_with_a_zero_tail():
    xl = np.array(VALUES)
    with np.errstate(invalid="ignore"):
        for yl in (0.0, -0.0):
            th, te = _dd.two_sum(xl, yl)
            assert same_bits(th, xl + yl) and same_bits(te, xl - xl)
            for x in VALUES:
                for v in (x, np.float64(x)):
                    th, te = _dd.two_sum(v, yl)
                    assert same_bits(th, v + yl) and same_bits(te, v - v)


def test_add_with_a_zero_float_tail_on_the_grid():
    xh, xl, yh = grid(3)
    with np.errstate(over="ignore", invalid="ignore"):
        for yl in (0.0, -0.0, np.float64(0.0), np.float64(-0.0)):
            want = add_two_sum(xh, xl, yh, np.full_like(xh, yl))
            got = _dd.add(xh, xl, yh, yl)
            assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])
            # the same through the array path of add itself
            got = _dd.add(xh, xl, yh, np.full_like(xh, yl))
            assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])


def test_add_with_a_zero_float_tail_on_scalars():
    with np.errstate(over="ignore", invalid="ignore"):
        for xh, xl, yh in itertools.product(VALUES, repeat=3):
            for yl in (0.0, -0.0):
                want = add_two_sum(xh, xl, yh, yl)
                assert same_bits(_dd.add(xh, xl, yh, yl), want)
                got = _dd.add(np.float64(xh), np.float64(xl), np.float64(yh),
                              np.float64(yl))
                assert same_bits(got, want)


floats = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)


@settings(max_examples=300, deadline=None)
@given(floats, floats, floats, floats, st.sampled_from([0.0, -0.0]))
def test_kernel_identities_random(xh, xl, yh, yl, zero):
    assert _dd.lt(xh, xl, yh, yl) == lt_long(xh, xl, yh, yl)
    assert _dd.lt(xh, xl, xh, yl) == lt_long(xh, xl, xh, yl)
    assert same_bits(_dd.add(xh, xl, yh, zero),
                     add_two_sum(xh, xl, yh, zero))


def interp_long(xh, xl, ah, al, wh, wl, ch, cl, vh, vl):
    """interp as the composition of the kernels."""
    t = _dd.div(*_dd.sub(xh, xl, ah, al), wh, wl)
    return _dd.add(ch, cl, *_dd.mul(*t, vh, vl))


def quad_long(xh, xl, c):
    return _dd.add(*_dd.sqr(xh, xl), c, 0.0)


def same_outcome(f, g, *args):
    """f(*args) and g(*args) give the same bits, or raise the same error
    (a Python float division by zero raises)."""
    try:
        want = g(*args)
    except ZeroDivisionError:
        try:
            f(*args)
        except ZeroDivisionError:
            return True
        return False
    got = f(*args)
    return same_bits(got[0], want[0]) and same_bits(got[1], want[1])


def special_tuples(k, n, seed):
    """n seeded k-tuples of VALUES, with every value in every position."""
    rng = random.Random(seed)
    rows = [[VALUES[(j + i) % len(VALUES)] for i in range(k)]
            for j in range(len(VALUES))]
    rows += [[rng.choice(VALUES) for _ in range(k)] for _ in range(n)]
    return rows


def test_quad_is_its_composition_on_the_grid():
    xh, xl, c = grid(3)  # 18^3 cases
    with np.errstate(all="ignore"):
        got, want = _dd.quad(xh, xl, c), quad_long(xh, xl, c)
        assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])
        for args in zip(xh.tolist(), xl.tolist(), c.tolist()):
            assert same_outcome(_dd.quad, quad_long, *args)
            assert same_outcome(_dd.quad, quad_long, *map(np.float64, args))


def test_interp_is_its_composition_on_the_special_values():
    cols = np.array(special_tuples(10, 60000, 24)).T.copy()
    with np.errstate(all="ignore"):
        got, want = _dd.interp(*cols), interp_long(*cols)
        assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])
        for args in cols.T[:4000].tolist():
            assert same_outcome(_dd.interp, interp_long, *args)
            assert same_outcome(_dd.interp, interp_long,
                                *map(np.float64, args))


def knot_rows(n, seed):
    """n seeded pieces in the shape of a real query, as rows (x, a, b, c,
    d) of dd pairs: a < x < b, c < d, tails far below the heads or +-0.0."""
    rng = random.Random(seed)
    rows = []
    for _ in range(n):
        a = rng.uniform(-3.0, 3.0)
        b = a + rng.uniform(1e-9, 1.0)
        c = rng.uniform(-1.0, 1.0)
        d = c + rng.uniform(1e-9, 1.0)
        x = rng.uniform(a, b)
        rows.append([v for h in (x, a, b, c, d)
                     for v in (h, h * rng.choice([0.0, -0.0, 3e-17, -1e-17]))])
    return rows


def with_steps(xh, xl, ah, al, bh, bl, ch, cl, dh, dl):
    """interp's inputs for the piece from (a, c) to (b, d) at x."""
    return (xh, xl, ah, al, *_dd.sub(bh, bl, ah, al),
            ch, cl, *_dd.sub(dh, dl, ch, cl))


def test_interp_is_its_composition_on_pieces():
    rows = [with_steps(*r) for r in knot_rows(2000, 7)]
    for args in rows:
        assert same_outcome(_dd.interp, interp_long, *args)
    cols = np.array(rows).T.copy()
    got, want = _dd.interp(*cols), interp_long(*cols)
    assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])


def knot_long(xh, xl, ah, al, bh, bl, ch, cl, dh, dl):
    """The piece from (a, c) to (b, d) at x as the composition of the
    kernels, its width and height taken with sub."""
    return interp_long(*with_steps(xh, xl, ah, al, bh, bl, ch, cl, dh, dl))


def same_dd(got, want):
    """Two dd values, hi and lo, equal as int64 bit patterns."""
    return all(np.array_equal(np.float64(g).view(np.int64),
                              np.float64(w).view(np.int64))
               for g, w in zip(got, want))


@pytest.mark.parametrize("seed", [3, 11])
def test_interp_matches_the_knot_kernel_on_pieces(seed):
    """Widths and heights from sub give the bits of the composition on
    the two knots, on Python floats, numpy scalars and arrays."""
    rows = knot_rows(3000, seed)
    for r in rows[:1500]:
        want = knot_long(*r)
        assert isinstance(want[0], float)
        assert same_dd(_dd.interp(*with_steps(*r)), want)
        r = [np.float64(v) for v in r]
        got = _dd.interp(*with_steps(*r))
        assert isinstance(got[0], np.float64) and same_dd(got, want)
    cols = np.array(rows).T.copy()
    got, want = _dd.interp(*with_steps(*cols)), knot_long(*cols)
    assert got[0].shape == (len(rows),) and same_dd(got, want)


def test_interp_matches_the_knot_kernel_on_the_special_values():
    cols = np.array(special_tuples(10, 30000, 25)).T.copy()
    with np.errstate(all="ignore"):
        got = _dd.interp(*with_steps(*cols))
        want = knot_long(*cols)
        assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])
        for args in cols.T[:3000].tolist():
            assert same_outcome(lambda *a: _dd.interp(*with_steps(*a)),
                                knot_long, *args)
            args = [np.float64(v) for v in args]
            assert same_outcome(lambda *a: _dd.interp(*with_steps(*a)),
                                knot_long, *args)


@settings(max_examples=300, deadline=None)
@given(st.lists(floats, min_size=10, max_size=10))
def test_written_out_kernels_random(args):
    assert same_outcome(_dd.interp, interp_long, *args)
    assert same_outcome(_dd.quad, quad_long, *args[:3])
    with np.errstate(all="ignore"):
        cols = [np.array([v]) for v in args]
        assert same_outcome(_dd.interp, interp_long, *cols)
        assert same_outcome(_dd.quad, quad_long, *cols[:3])


def test_interp_peaks_no_higher_than_its_composition():
    rng = np.random.default_rng(5)
    n = 4 * _BLOCK
    a = rng.uniform(-3.0, 3.0, n)
    width = rng.uniform(1e-9, 1.0, n)
    c = rng.uniform(-1.0, 1.0, n)
    height = rng.uniform(1e-9, 1.0, n)
    x = a + width * rng.uniform(0.0, 1.0, n)
    args = [v for h in (x, a, width, c, height) for v in (h, h * 1e-17)]
    peaks = []
    for f in (interp_long, _dd.interp):
        tracemalloc.start()
        try:
            f(*args)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0], peaks


def root_long(xh, xl, c):
    """root as the composition: sqrt on floats, the frozen v_sqrt on
    arrays."""
    if isinstance(xh, np.ndarray):
        return reference_v_sqrt(*_dd.add(xh, xl, -c, 0.0))
    return _dd.sqrt(*_dd.add(xh, xl, -c, 0.0))


def cut_long(U, V, p, q):
    L = _dd.sub(*V, *U)
    return (_dd.add(*U, *_dd.mul(*L, *p)), _dd.sub(*V, *_dd.mul(*L, *q)))


def centred_long(U, V, frac):
    """The centred gap removing the proportion frac, as its split formula
    composed it: children of length L * (1 - frac) / 2."""
    rh, rl = _dd.sub(1.0, 0.0, *frac)
    half = _dd.mul(*_dd.sub(*V, *U), rh / 2.0, rl / 2.0)
    return _dd.add(*U, *half), _dd.sub(*V, *half)


def affine_long(U, V, r1, r2):
    L = _dd.sub(*V, *U)
    return (_dd.add(*U, *_dd.mul(*L, r1, 0.0)),
            _dd.sub(*V, *_dd.mul(*L, r2, 0.0)))


def half_of(frac):
    rh, rl = _dd.sub(1.0, 0.0, *frac)
    return rh / 2.0, rl / 2.0


def same_gaps(got, want):
    return all(same_bits(g, w) for G, W in zip(got, want)
               for g, w in zip(G, W))


def tails(rng, h):
    """Seeded tails for the heads h: +0.0, -0.0 and a few ulps' worth of
    either sign, one kind per lane."""
    pick = rng.integers(0, 4, h.size)
    return np.select([pick == 0, pick == 1, pick == 2],
                     [np.zeros(h.size), np.full(h.size, -0.0), h * 3e-17],
                     h * -1e-17)


def root_inputs(seed, n):
    """n model-like edges x with their tails and a c where x - c > 0:
    x in [-p, p] for p the fixed point, plus the edges -p and p."""
    rng = np.random.default_rng(seed)
    c = -rng.uniform(2.01, 60.0)
    p = (1.0 + np.sqrt(1.0 - 4.0 * c)) / 2.0
    xh = np.concatenate(([-p, p], rng.uniform(-p, p, n - 2)))
    return xh, tails(rng, xh), float(c)


@pytest.mark.parametrize("seed", range(6))
def test_root_is_its_composition(seed):
    xh, xl, c = root_inputs(seed, 2 * _BLOCK + 3)
    got, want = _dd.root(xh, xl, c), root_long(xh, xl, c)
    assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])
    for args in zip(xh[:600].tolist(), xl[:600].tolist()):
        got, want = _dd.root(*args, c), root_long(*args, c)
        assert same_bits(got, want), args
        assert isinstance(got[0], float) and isinstance(got[1], float)
        assert same_bits(_dd.root(*map(np.float64, args), c), want)


def test_root_drops_a_zero_sum():
    """root adds e + 0.0 where mul's tail step adds e + (q * 0.0 + 0.0 * n)
    with n = -q: for every finite q, signed zeros and subnormals included,
    the sum is +0.0, as a float, a numpy scalar and an array."""
    q = [v for v in VALUES if np.isfinite(v)] + [7.5e-155, 3.0e153]
    for v in q + [np.float64(v) for v in q]:
        assert same_bits(v * 0.0 + 0.0 * -v, 0.0)
    q = np.array(q)
    assert same_bits(q * 0.0 + 0.0 * -q, np.zeros_like(q))


def segments(seed, n):
    """n seeded segments [U, V] with tails, over scales from 1e-300 to
    1e290, below those where splitting a length overflows, and both
    signs."""
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-300, 290, n)
    uh = rng.uniform(-1.0, 1.0, n) * scale
    vh = uh + rng.uniform(1e-9, 2.0, n) * scale
    return (uh, tails(rng, uh)), (vh, tails(rng, vh))


@pytest.mark.parametrize("seed", range(4))
def test_cut_is_its_composition(seed):
    U, V = segments(seed, 2 * _BLOCK + 5)
    rng = np.random.default_rng(100 + seed)
    r1, r2 = (float(r) for r in rng.uniform(0.01, 0.5, 2))
    # affine: p is not q, tails 0.0
    p, q = (r1, 0.0), (r2, 0.0)
    want = affine_long(U, V, r1, r2)
    assert same_gaps(_dd.cut(U, V, p, q), want)
    assert same_gaps(cut_long(U, V, p, q), want)
    # centred: p is q, the half of a dd proportion
    frac = _dd.div(1.0, 0.0, 3.0, 0.0) if seed % 2 else (r1, 0.0)
    half = half_of(frac)
    centred = centred_long(U, V, frac)
    assert same_gaps(_dd.cut(U, V, half, half), centred)
    assert same_gaps(_dd.cut(U, V, half, tuple(half)), centred)  # equal, not is
    # one proportion per lane, as the strict search passes FatCantor's
    fh = rng.uniform(0.01, 0.9, U[0].size)
    fracs = (fh, fh * rng.choice([0.0, -0.0, 1e-17], fh.size))
    halves = half_of(fracs)
    per_lane = centred_long(U, V, fracs)
    assert same_gaps(_dd.cut(U, V, halves, halves), per_lane)
    # on floats, lane by lane, every tail kind: a lane's bits
    for k in range(500):
        u, v = (U[0].item(k), U[1].item(k)), (V[0].item(k), V[1].item(k))
        f = (fh.item(k), fracs[1].item(k))
        for got, lanes in ((_dd.cut(u, v, p, q), want),
                           (_dd.cut(u, v, half, half), centred),
                           (_dd.cut(u, v, *(half_of(f),) * 2), per_lane)):
            assert all(type(x) is float for G in got for x in G)
            assert same_gaps(got, [[x[k] for x in G] for G in lanes]), k


def test_cut_on_the_special_values():
    # every tuple position takes every special value; NaN agrees as NaN
    cols = np.array(special_tuples(8, 4000, 29)).T.copy()
    U, V, p, q = (tuple(cols[i:i + 2]) for i in range(0, 8, 2))
    with np.errstate(all="ignore"):
        assert same_gaps(_dd.cut(U, V, p, q), cut_long(U, V, p, q))
        assert same_gaps(_dd.cut(U, V, p, p), cut_long(U, V, p, p))
        for row in cols.T[:2000].tolist():
            u, v, p, q = (tuple(row[i:i + 2]) for i in range(0, 8, 2))
            assert same_gaps(_dd.cut(u, v, p, q), cut_long(u, v, p, q))


@settings(max_examples=300, deadline=None)
@given(st.lists(floats, min_size=8, max_size=8), floats)
def test_root_and_cut_random(args, c):
    u, v, p, q = (tuple(args[i:i + 2]) for i in range(0, 8, 2))
    assert same_gaps(_dd.cut(u, v, p, q), cut_long(u, v, p, q))
    assert same_gaps(_dd.cut(u, v, p, p), cut_long(u, v, p, p))
    if _dd.add(args[0], args[1], -c, 0.0)[0] > 0.0:  # root's x - c > 0
        assert same_bits(_dd.root(args[0], args[1], c),
                         root_long(args[0], args[1], c))
        cols = [np.array([v]) for v in args[:2]]
        with np.errstate(all="ignore"):
            got, want = _dd.root(*cols, c), root_long(*cols, c)
        assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])


def peaks(*calls):
    """The tracemalloc peak of each (f, args) call, in bytes."""
    out = []
    for f, args in calls:
        tracemalloc.start()
        try:
            f(*args)
            out.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return out


def test_root_peaks_no_higher_than_its_composition():
    xh, xl, c = root_inputs(5, 4 * _BLOCK)
    composed, written = peaks((root_long, (xh, xl, c)),
                              (_dd.root, (xh, xl, c)))
    assert written <= composed, (written, composed)


def test_cut_peaks_no_higher_than_its_composition():
    U, V = segments(5, 4 * _BLOCK)
    half = half_of((1 / 3, 0.0))
    for p, q in (((0.3, 0.0), (0.2, 0.0)), (half, half)):
        composed, written = peaks((cut_long, (U, V, p, q)),
                                  (_dd.cut, (U, V, p, q)))
        assert written <= composed, (p, q, written, composed)
