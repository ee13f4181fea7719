"""Double-double helpers: unevaluated sums hi + lo with ~32 significant digits.

The error-free transformations (two_sum, split, two_prod) are the classical
Dekker/Knuth ones; addition uses the accurate variant that stays precise under
cancellation.  A value is a normalized pair (hi, lo) with |lo| <= ulp(hi)/2;
comparisons of normalized pairs are therefore plain lexicographic comparisons.

The kernels take and return (hi, lo) pairs whose parts are floats or numpy
arrays alike: the formulas are plain elementwise arithmetic, so one kernel
serves a single value and the 2^n endpoints of a whole refinement level with
the same bits.  le and lt compare pairs with | and &, so they yield a bool or
a bool array.  Only sqrt is scalar, because of math.sqrt and its zero test.

Four compositions are also written out as straight-line code: interp, one
piece of a piecewise-linear map; quad, the step x^2 + c; root, the
preimage branch sqrt(x - c); and cut, the principal gap of a segment.
interp and quad are the hot path of every scalar F* step, root and cut
the per-level steps of the model and target builds, which take them on
floats for their narrow levels and on arrays for the rest.  On Python
floats a composed form spends most of its time on its ~40 nested calls,
not on the arithmetic; written out, they run in 40-55% of the time.
They do the composition's operations in its order, so their results
have its bits on floats, numpy scalars and arrays alike.  "The same
bits" holds for results that are not NaN: the sign of a NaN can differ
between two equal formulas, since the operand order CPython's float add
hands to the hardware differs between its generic and specialized paths.

quad leaves out two operations of add's float-tail shortcut, neither of
which can change a result that is not NaN.  With E the two_sum error of
hi + c and t the square's tail, it adds E + t for E + (t + 0.0), which
differs only when t and E are both -0.0, and it drops the last step
e + (t - t), which for a finite t changes only e = -0.0.  In round to
nearest a sum is -0.0 only when both its terms are, and the square's hi
part is never -0.0, so E is never -0.0, nor is the e built on it.  An
infinite or NaN t gives NaN either way.
"""

import math

import numpy as np

_SPLITTER = 134217729.0  # 2**27 + 1


def two_sum(a, b):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def quick_sum(a, b):
    # requires |a| >= |b|
    s = a + b
    return s, b - (s - a)


def split(a):
    t = _SPLITTER * a
    hi = t - (t - a)
    return hi, a - hi


def two_prod(a, b):
    p = a * b
    ah, al = split(a)
    bh, bl = split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def add(xh, xl, yh, yl):
    sh, se = two_sum(xh, yh)
    if isinstance(yl, float) and yl == 0.0:
        # two_sum(xl, +-0.0) bit for bit: (xl + yl, +0.0) for a finite xl,
        # NaN in both parts for an infinite or NaN one
        th, te = xl + yl, xl - xl
    else:
        th, te = two_sum(xl, yl)
    vh, vl = quick_sum(sh, se + th)
    return quick_sum(vh, vl + te)


def le(xh, xl, yh, yl):
    # lexicographic (hi, lo) comparison; | and & work on bools and bool arrays
    return (xh < yh) | ((xh == yh) & (xl <= yl))


def lt(xh, xl, yh, yl):
    # le(x, y) & ~le(y, x) on every input, NaN and signed zeros included
    return (xh < yh) | ((xh == yh) & (xl < yl))


def sub(xh, xl, yh, yl):
    return add(xh, xl, -yh, -yl)


def mul(xh, xl, yh, yl):
    p, e = two_prod(xh, yh)
    return quick_sum(p, e + (xh * yl + xl * yh))


def sqr(xh, xl):
    p, e = two_prod(xh, xh)
    return quick_sum(p, e + 2.0 * xh * xl)


def div(xh, xl, yh, yl):
    q1 = xh / yh
    rh, _ = add(xh, xl, *mul(q1, 0.0, -yh, -yl))
    return quick_sum(q1, rh / yh)


def interp(xh, xl, ah, al, bh, bl, ch, cl, dh, dl):
    """add(c, mul(div(sub(x, a), sub(b, a)), sub(d, c))), written out.

    The operations of the composition in its order: a - b stands for
    a + (-b), the same IEEE result, and every two_sum is the long one,
    which the float-tail shortcut of add matches.  Names are reassigned and
    dropped as soon as they are spent, so an array call keeps few
    temporaries alive at once.
    """
    # sub(x, a) -> (uh, ul)
    s = xh - ah
    t = s - xh
    e = (xh - (s - t)) + (-ah - t)
    h = xl - al
    t = h - xl
    g = (xl - (h - t)) + (-al - t)
    t = e + h
    uh = s + t
    e = t - (uh - s)
    t = e + g
    del e, g, h, xh, xl
    s = uh + t
    ul = t - (s - uh)
    uh = s
    # sub(b, a) -> (wh, wl)
    s = bh - ah
    t = s - bh
    e = (bh - (s - t)) + (-ah - t)
    h = bl - al
    t = h - bl
    g = (bl - (h - t)) + (-al - t)
    t = e + h
    wh = s + t
    e = t - (wh - s)
    t = e + g
    del e, g, h, ah, al, bh, bl
    s = wh + t
    wl = t - (s - wh)
    wh = s
    # div: q = uh / wh, m = mul(q, 0.0, -wh, -wl), r = add(u, m).hi
    q = uh / wh
    nh = -wh
    p = q * nh
    t = _SPLITTER * q
    qh = t - (t - q)
    ql = q - qh
    t = _SPLITTER * nh
    s = t - (t - nh)
    t = nh - s
    e = ((qh * s - p) + qh * t + ql * s) + ql * t
    del qh, ql
    t = e + (q * -wl + 0.0 * nh)
    del nh, e
    mh = p + t
    ml = t - (mh - p)
    del p
    s = uh + mh
    t = s - uh
    e = (uh - (s - t)) + (mh - t)
    del mh
    h = ul + ml
    t = h - ul
    g = (ul - (h - t)) + (ml - t)
    del ul, ml
    t = e + h
    uh = s + t
    e = t - (uh - s)
    t = uh + (e + g)  # the hi part of the last quick_sum
    del e, g, h
    s = t / wh
    del wh
    th = q + s
    tl = s - (th - q)
    del q
    # sub(d, c) -> (vh, vl)
    s = dh - ch
    t = s - dh
    e = (dh - (s - t)) + (-ch - t)
    h = dl - cl
    t = h - dl
    g = (dl - (h - t)) + (-cl - t)
    t = e + h
    vh = s + t
    e = t - (vh - s)
    t = e + g
    del e, g, h, dh, dl
    s = vh + t
    vl = t - (s - vh)
    vh = s
    # mul(t, v) -> (ph, pl)
    p = th * vh
    t = _SPLITTER * th
    qh = t - (t - th)
    ql = th - qh
    t = _SPLITTER * vh
    s = t - (t - vh)
    t = vh - s
    e = ((qh * s - p) + qh * t + ql * s) + ql * t
    del qh, ql
    t = e + (th * vl + tl * vh)
    del th, tl, vh, vl, e
    ph = p + t
    pl = t - (ph - p)
    del p
    # add(c, p)
    s = ch + ph
    t = s - ch
    e = (ch - (s - t)) + (ph - t)
    del ph
    h = cl + pl
    t = h - cl
    g = (cl - (h - t)) + (pl - t)
    del pl
    t = e + h
    uh = s + t
    e = t - (uh - s)
    t = e + g
    del e, g, h
    s = uh + t
    return s, t - (s - uh)


def quad(xh, xl, c):
    """add(*sqr(x), c, 0.0), the step x -> x^2 + c, written out in the
    composition's order, less two operations (see the module docstring)."""
    p = xh * xh
    t = _SPLITTER * xh
    h = t - (t - xh)
    t = xh - h
    e = ((h * h - p) + h * t + t * h) + t * t
    t = e + 2.0 * xh * xl
    del e
    h = p + t
    t = t - (h - p)  # sqr(x) = (h, t)
    del p
    s = h + c
    e = s - h
    e = (h - (s - e)) + (c - e)
    e = e + t
    h = s + e
    e = e - (h - s)
    s = h + e
    return s, e - (s - h)


def root(xh, xl, c):
    """sqrt(*add(xh, xl, -c, 0.0)), the branch sqrt(x - c), written out
    for x - c > 0, so without sqrt's zero test: math.sqrt on floats,
    np.sqrt on arrays.  Every two_sum but the one of the tails is long;
    the tails take add's float-tail shortcut, as the composition does.
    """
    # add(x, -c, 0.0) -> (h, l)
    s = xh - c
    t = s - xh
    e = (xh - (s - t)) + (-c - t)
    h = xl + 0.0
    g = xl - xl
    t = e + h
    u = s + t
    e = t - (u - s)
    t = e + g
    del e, g, h, s
    h = u + t
    l = t - (h - u)
    del t, u
    # sqrt: q = sqrt(h), m = mul(q, 0.0, -q, 0.0), r = add(h, l, m).hi
    q = np.sqrt(h) if isinstance(h, np.ndarray) else math.sqrt(h)
    n = -q
    p = q * n
    t = _SPLITTER * q
    a = t - (t - q)
    b = q - a
    t = _SPLITTER * n
    s = t - (t - n)
    t = n - s
    e = ((a * s - p) + a * t + b * s) + b * t
    del a, b, s
    t = e + (q * 0.0 + 0.0 * n)
    del e, n
    m = p + t
    t = t - (m - p)  # mul(...) = (m, t)
    del p
    s = h + m
    u = s - h
    e = (h - (s - u)) + (m - u)
    del h, m
    u = l + t
    g = u - l
    g = (l - (u - g)) + (t - g)
    del l
    t = e + u
    u = s + t
    e = t - (u - s)
    del s
    t = u + (e + g)  # the hi part of the last quick_sum
    del e, g, u
    s = t / (2.0 * q)
    del t
    h = q + s
    return h, s - (h - q)


def cut(U, V, p, q):
    """(add(U, mul(L, p)), sub(V, mul(L, q))) with L = sub(V, U), the gap
    (G, H) that leaves p * L of the segment [U, V] on its left and q * L on
    its right, written out; U, V, p, q and the results are dd pairs.  When
    p is q (a centred gap) the product is taken once.
    """
    uh, ul = U
    vh, vl = V
    # sub(V, U) -> (lh, ll)
    s = vh - uh
    t = s - vh
    e = (vh - (s - t)) + (-uh - t)
    h = vl - ul
    t = h - vl
    g = (vl - (h - t)) + (-ul - t)
    t = e + h
    lh = s + t
    e = t - (lh - s)
    t = e + g
    del e, g, h
    s = lh + t
    ll = t - (s - lh)
    lh = s
    # split(L), shared by both products
    t = _SPLITTER * lh
    ah = t - (t - lh)
    al = lh - ah
    # mul(L, p) -> (mh, ml)
    ph, pl = p
    m = lh * ph
    t = _SPLITTER * ph
    s = t - (t - ph)
    t = ph - s
    e = ((ah * s - m) + ah * t + al * s) + al * t
    t = e + (lh * pl + ll * ph)
    del e
    mh = m + t
    ml = t - (mh - m)
    del m
    # add(U, m) -> G
    s = uh + mh
    t = s - uh
    e = (uh - (s - t)) + (mh - t)
    h = ul + ml
    t = h - ul
    g = (ul - (h - t)) + (ml - t)
    del uh, ul
    t = e + h
    u = s + t
    e = t - (u - s)
    t = e + g
    del e, g, h
    s = u + t
    G = s, t - (s - u)
    del s, t, u
    if q is not p:
        # mul(L, q) -> (mh, ml)
        qh, ql = q
        m = lh * qh
        t = _SPLITTER * qh
        s = t - (t - qh)
        t = qh - s
        e = ((ah * s - m) + ah * t + al * s) + al * t
        t = e + (lh * ql + ll * qh)
        del e
        mh = m + t
        ml = t - (mh - m)
        del m
    del ah, al, lh, ll
    # sub(V, m) -> H
    s = vh - mh
    t = s - vh
    e = (vh - (s - t)) + (-mh - t)
    h = vl - ml
    t = h - vl
    g = (vl - (h - t)) + (-ml - t)
    del mh, ml, vh, vl
    t = e + h
    u = s + t
    e = t - (u - s)
    t = e + g
    del e, g, h
    s = u + t
    return G, (s, t - (s - u))


def sqrt(xh, xl):
    if xh == 0.0 and xl == 0.0:
        return 0.0, 0.0
    q = math.sqrt(xh)
    rh, _ = add(xh, xl, *mul(q, 0.0, -q, 0.0))
    return quick_sum(q, rh / (2.0 * q))
