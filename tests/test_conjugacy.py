"""The finite-depth conjugacy phi_N and the conjugated map F*.

Spot values below follow from the construction directly: phi carries model
endpoints to target endpoints at the same address, is linear in between,
and continues with slope one outside the hull.  So phi(-s) = 1/3,
phi(s) = 2/3, phi(+-p) = 1, 0, and F*(y) = phi(F_c(phi_inv(y))).  The value
F*(1/2) = phi(-3) = 0 + (-3 + p) = -0.6972243622680053 (correctly rounded;
checked in 60-digit Decimal from p = (1 + sqrt(13))/2).
"""

import math
import random
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cantordyn import (
    AffineIFS2,
    CantorDynError,
    DomainError,
    FatCantor,
    IntervalSystem,
    MiddleAlpha,
    build_model_system,
    build_phi,
    build_target_system,
    derive_params,
    eval_fstar,
    eval_phi,
    eval_phi_inverse,
    iterate_target,
    middle_thirds,
    segment_mapping_check,
)
from cantordyn import _dd, conjugacy
from cantordyn.conjugacy import (
    MappingReport,
    _eval_dd,
    _eval_dd_array,
    _eval_double,
    _mapping_samples,
)
from cantordyn.model_cantor import _BLOCK

THIRD = 0.3333333333333333
TWO_THIRDS = 0.6666666666666666


def test_depth1_knots(params3, thirds):
    model = build_model_system(params3, 1)
    target = build_target_system(thirds, 1)
    pl = build_phi(model, target, 1)
    p, s = params3.p, params3.s
    assert pl.xs.tolist() == [-p, -s, s, p]
    assert pl.ys.tolist() == [0.0, THIRD, TWO_THIRDS, 1.0]
    assert pl.depth == 1
    assert pl.breakpoints[0] == (-p, 0.0)


def test_knot_exactness_all_levels(phi12, model12, thirds12):
    for n in range(13):
        for ma, ta in ((model12.level_a[n], thirds12.level_a[n]),
                       (model12.level_b[n], thirds12.level_b[n])):
            for x, y in zip(ma, ta):
                assert eval_phi(phi12, float(x)) == float(y)
                assert eval_phi_inverse(phi12, float(y)) == float(x)


def test_frozen_spot_values(phi12, params3):
    assert eval_phi(phi12, 0.0) == 0.5
    assert eval_phi(phi12, -params3.p) == 0.0
    assert eval_phi(phi12, params3.p) == 1.0
    assert eval_phi(phi12, -3.0) == -0.6972243622680053
    assert eval_phi_inverse(phi12, THIRD) == -0.8349996181244668
    assert eval_phi_inverse(phi12, 0.0) == -params3.p
    assert eval_phi_inverse(phi12, 1.0) == params3.p
    assert abs(eval_phi_inverse(phi12, 0.5)) < 1e-12


def test_slope_one_tails(phi12, params3):
    # the tails anchor at the double-double knot, so values are correctly
    # rounded against the real map and may sit one ulp off naive arithmetic
    p = params3.p
    assert abs(eval_phi(phi12, -p - 1.0) - (-1.0)) <= 5e-16
    assert abs(eval_phi(phi12, p + 2.5) - 3.5) <= 5e-16
    assert abs(eval_phi_inverse(phi12, -1.0) - (-p - 1.0)) <= 5e-16
    assert abs(eval_phi_inverse(phi12, 3.5) - (p + 2.5)) <= 5e-16
    # outside the hull the map keeps translating: unit steps stay unit steps
    for x in (-p - 1.0, -p - 2.0, p + 1.0, p + 7.5):
        lhs = eval_phi(phi12, x + 1.0) - eval_phi(phi12, x)
        assert lhs == pytest.approx(1.0, abs=5e-16)


def test_monotone_on_grid(phi12, params3):
    xs = np.linspace(-params3.p - 0.5, params3.p + 0.5, 10_001)
    ys = np.array([eval_phi(phi12, x) for x in xs])
    assert np.all(np.diff(ys) > 0)


def test_round_trip(phi12, params3):
    xs = np.linspace(-params3.p, params3.p, 10_001)
    for x in xs:
        err = abs(eval_phi_inverse(phi12, eval_phi(phi12, x)) - x)
        assert err <= 1e-12 * max(1.0, abs(x))


def test_depth_stability(phi12, phi13, params3):
    """phi_12 and phi_13 differ by less than one level-12 target segment."""
    cap = 3.0 ** -12
    xs = np.linspace(-params3.p, params3.p, 5_001)
    assert max(abs(eval_phi(phi12, x) - eval_phi(phi13, x)) for x in xs) <= cap
    worst = max(abs(eval_phi(phi12, float(x)) - float(y))
                for x, y in zip(phi13.xs, phi13.ys))
    assert worst <= cap


def test_err_bound_is_level12_length(phi12):
    # widest stored level-12 target segment; 3^-12 up to endpoint rounding
    assert phi12.err_bound == pytest.approx(3.0 ** -12, rel=1e-9)
    assert phi12.err_bound >= 3.0 ** -12


def test_fstar_spot_values(phi12, params3):
    assert eval_fstar(phi12, params3, 1.0) == 1.0
    assert eval_fstar(phi12, params3, 0.0) == 1.0
    assert eval_fstar(phi12, params3, THIRD) == 0.0
    assert eval_fstar(phi12, params3, TWO_THIRDS) == 0.0
    assert eval_fstar(phi12, params3, 0.5) == -0.6972243622680053


def test_fstar_conjugation_identity(phi12, params3):
    """F* really is phi o F o phi_inv, point by point."""
    for y in np.linspace(0.0, 1.0, 101):
        x = eval_phi_inverse(phi12, y)
        direct = eval_phi(phi12, x * x + params3.c)
        assert eval_fstar(phi12, params3, y) == pytest.approx(direct, abs=1e-12)


def test_segment_mapping(phi12, model12, thirds12):
    report = segment_mapping_check(phi12, model12, thirds12, samples=2, seed=7)
    assert report.ok
    assert report.violations == ()
    n_segs = sum(2 ** n for n in range(13))
    n_gaps = sum(2 ** (n - 1) for n in range(1, 13))
    assert report.samples_checked == 2 * (n_segs + n_gaps)


@pytest.mark.parametrize("samples", [-1, -(2**70), 2.5, 2.0, "3", None])
def test_segment_mapping_refuses_bad_samples(phi12, model12, thirds12,
                                             samples):
    with pytest.raises(DomainError, match="^samples must be"):
        segment_mapping_check(phi12, model12, thirds12, samples)


def test_segment_mapping_takes_any_integer_samples(phi12, model12, thirds12):
    want = segment_mapping_check(phi12, model12, thirds12, 2, seed=3)
    assert segment_mapping_check(phi12, model12, thirds12, np.int64(2),
                                 seed=3) == want
    none = segment_mapping_check(phi12, model12, thirds12, 0)
    assert none.samples_checked == 0 and none.ok


def test_build_phi_validation(params3, model12, thirds12, thirds):
    with pytest.raises(DomainError):
        build_phi(model12, thirds12, 13)  # deeper than built
    model1 = build_model_system(params3, 1)
    with pytest.raises(DomainError):
        build_phi(model1, thirds12, 12)


# --- storage: phi_N shares the knot arrays of systems built N deep ---------

def interleaved_level(system, N):
    """Level N's endpoints and tails interleaved into new arrays, a_0, b_0,
    a_1, b_1, ...: the reference for both shared and copied knots."""
    return tuple(np.column_stack(pair).ravel()
                 for pair in ((system.level_a[N], system.level_b[N]),
                              (system.a_lo[N], system.b_lo[N])))


def test_phi_shares_the_knot_arrays(model12, thirds12, phi12):
    for got, system in (((phi12.xs, phi12.xs_lo), model12),
                        ((phi12.ys, phi12.ys_lo), thirds12)):
        assert np.shares_memory(got[0], system.knots)
        assert np.shares_memory(got[1], system.knots_lo)
        assert all(x.flags.c_contiguous for x in got)
        for x, want in zip(got, interleaved_level(system, 12)):
            assert x.tobytes() == want.tobytes()


@pytest.mark.parametrize("N", range(13))
def test_phi_below_the_depth_copies_level_n(params3, thirds, model13,
                                            thirds13, N):
    # the knots of a deeper system are level N interleaved into new arrays,
    # the bits a pairing of two systems built N deep gives
    for model, target in ((model13, thirds13),
                          (model13, build_target_system(thirds, N)),
                          (build_model_system(params3, N), thirds13)):
        pl = build_phi(model, target, N)
        for (x, x_lo), system in (((pl.xs, pl.xs_lo), model),
                                  ((pl.ys, pl.ys_lo), target)):
            assert np.shares_memory(x, system.knots) == (system.depth == N)
            want = interleaved_level(system, N)
            assert (x.tobytes(), x_lo.tobytes()) == tuple(
                w.tobytes() for w in want)
        shallow = build_phi(build_model_system(params3, N),
                            build_target_system(thirds, N), N)
        assert pl.err_bound == shallow.err_bound
        for name in ("xs", "xs_lo", "ys", "ys_lo"):
            assert (getattr(pl, name).tobytes()
                    == getattr(shallow, name).tobytes()), name


@pytest.mark.parametrize("side", ["model", "target"])
@pytest.mark.parametrize("bend", ["swap", "touch", "overlap"])
@pytest.mark.parametrize("N", [12, 11])
def test_hand_made_system_not_increasing_refused(model12, thirds12, side,
                                                 bend, N):
    # systems the builders make always increase (they refuse the others),
    # but a system made by hand is checked when it is paired
    system = model12 if side == "model" else thirds12
    a, b = system.a_N.copy(), system.b_N.copy()
    # level N's segment 1 runs from a[k] to b[2k - 1], after segment 0's
    # right end b[k - 1]
    k = 1 << (12 - N)
    if bend == "swap":
        a[k], b[2 * k - 1] = b[2 * k - 1], a[k]
    elif bend == "touch":
        a[k] = b[k - 1]
    else:
        a[k] = np.nextafter(b[k - 1], -np.inf)
    bent = IntervalSystem(a, b, system.a_lo_N, system.b_lo_N, system.params)
    pair = (bent, thirds12) if side == "model" else (model12, bent)
    with pytest.raises(CantorDynError,
                       match="^endpoint pairing is not strictly increasing$"):
        build_phi(*pair, N)


def test_phi_allocates_no_knots(params3, thirds):
    # memory guard, in bytes numpy reports to tracemalloc: pairing two
    # systems keeps under 1% of their knot bytes and peaks under a tenth
    # of them.  A level-sized temporary takes an eighth (copying the knots
    # took all of them); at depths 14 and 16 level N spans 2 and 8 blocks.
    for depth in (14, 16):
        assert 1 << depth >= 2 * _BLOCK
        model = build_model_system(params3, depth)
        target = build_target_system(thirds, depth, "natural")
        knot_bytes = sum(x.nbytes for s in (model, target)
                         for x in (s.knots, s.knots_lo))
        build_phi(model, target, depth)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            pl = build_phi(model, target, depth)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert pl.xs is model.knots and pl.ys_lo is target.knots_lo
        assert pl.err_bound == float(np.max(target.level_b[depth]
                                            - target.level_a[depth]))
        assert kept - before < 0.01 * knot_bytes
        assert peak - before < 0.1 * knot_bytes, depth


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=-2.302775637731995, max_value=2.302775637731995))
def test_round_trip_random(phi12, x):
    y = eval_phi(phi12, x)
    assert abs(eval_phi_inverse(phi12, y) - x) <= 1e-12 * max(1.0, abs(x))


@settings(max_examples=50, deadline=None)
@given(
    st.floats(min_value=-2.3, max_value=2.3),
    st.floats(min_value=1e-9, max_value=0.5),
)
def test_strictly_increasing_random(phi12, x, h):
    assert eval_phi(phi12, x) < eval_phi(phi12, x + h)


# --- array evaluation: equal to the scalar path bit for bit ---------------


def same_bits(a, b):
    a, b = np.asarray(a, np.float64), np.asarray(b, np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.int64),
                                                 b.view(np.int64))


@pytest.fixture(scope="module")
def phi_cases(phi12, params3):
    """phi12 plus an affine-strict and a fat-natural phi, with their params."""
    p25 = derive_params(-2.5)
    affine = build_phi(build_model_system(p25, 9),
                       build_target_system(AffineIFS2(0.3, 0.2), 9), 9)
    fat = build_phi(build_model_system(params3, 9),
                    build_target_system(FatCantor(0.3, 0.5), 9, mode="natural"),
                    9)
    return [(phi12, params3), (affine, p25), (fat, params3)]


def knot_index(pl):
    """Every knot of a small phi; about 1024 of a larger one, both corners
    included, to keep the scalar reference loops short."""
    n = pl.xs.size
    return np.unique(np.r_[0:n:max(1, n // 1024), n - 1])


def probe_points(knots):
    """Knots, their nextafter neighbours, the hull corners, both tails and a
    spread of interior points."""
    return np.concatenate([
        knots, np.nextafter(knots, np.inf), np.nextafter(knots, -np.inf),
        [knots[0] - 1.0, knots[0] - 1e-9, knots[-1] + 1e-9, knots[-1] + 2.5],
        np.linspace(knots[0] - 0.5, knots[-1] + 0.5, 257),
    ])


def test_array_eval_matches_scalar(phi_cases):
    for pl, params in phi_cases:
        for f, knots in ((eval_phi, pl.xs), (eval_phi_inverse, pl.ys),
                         (lambda pl, v: eval_fstar(pl, params, v), pl.ys)):
            q = probe_points(knots[knot_index(pl)])
            assert same_bits(f(pl, q), [f(pl, float(v)) for v in q])


def test_array_dd_eval_matches_scalar(phi_cases):
    """Exact (hi, lo) knot hits, dd-below and dd-above neighbours, tails."""
    for pl, _ in phi_cases:
        for xs, xs_lo, ys, ys_lo in ((pl.xs, pl.xs_lo, pl.ys, pl.ys_lo),
                                     (pl.ys, pl.ys_lo, pl.xs, pl.xs_lo)):
            sel = knot_index(pl)
            q = probe_points(xs[sel])
            lo = np.zeros_like(q)
            for shift in (0.0, -1e-30, 1e-30):
                lo[:sel.size] = xs_lo[sel] + shift
                h, l = _eval_dd_array(xs, xs_lo, ys, ys_lo, q, lo)
                ref = [_eval_dd(xs, xs_lo, ys, ys_lo, float(a), float(b))
                       for a, b in zip(q, lo)]
                assert same_bits(h, [r[0] for r in ref])
                assert same_bits(l, [r[1] for r in ref])


def test_array_eval_shapes(phi12, params3):
    for f in (lambda v: eval_phi(phi12, v), lambda v: eval_phi_inverse(phi12, v),
              lambda v: eval_fstar(phi12, params3, v)):
        assert f(np.empty(0)).shape == (0,)
        one = f(np.array([0.5]))
        assert one.shape == (1,) and same_bits(one[0], f(0.5))
        grid = np.linspace(0.0, 1.0, 12).reshape(3, 4)
        assert same_bits(f(grid), [[f(float(v)) for v in row] for row in grid])


def test_array_eval_rejects_nonfinite(phi12, params3):
    for bad in (np.inf, -np.inf, np.nan):
        q = np.array([0.5, bad])
        with pytest.raises(DomainError):
            eval_phi(phi12, q)
        with pytest.raises(DomainError):
            eval_phi_inverse(phi12, q)
        with pytest.raises(DomainError):
            eval_fstar(phi12, params3, q)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("f", [
    lambda pl, p, v: eval_phi(pl, v),
    lambda pl, p, v: eval_phi_inverse(pl, v),
    lambda pl, p, v: eval_fstar(pl, p, v),
    lambda pl, p, v: iterate_target(pl, p, v, 10),
], ids=["eval_phi", "eval_phi_inverse", "eval_fstar", "iterate_target"])
def test_scalar_eval_rejects_nonfinite(phi12, params3, f, bad):
    with pytest.raises(DomainError):
        f(phi12, params3, bad)


@pytest.mark.parametrize("y", [1e300, -1e300, 1e200, -1e200])
def test_fstar_overflow_is_inf(phi12, params3, y):
    # phi^(-1)(y) is about y, whose square leaves the double range
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scalar = eval_fstar(phi12, params3, y)
        batch = eval_fstar(phi12, params3, np.array([y, 0.5, y]))
    assert scalar == math.inf
    assert same_bits(batch, [math.inf, eval_fstar(phi12, params3, 0.5), math.inf])


def test_negative_zero_knot_keeps_its_sign(params3):
    # the hull corner -0.0 has tail +0.0, whose dd sum rounds to +0.0
    target = build_target_system(MiddleAlpha(0.5, hull=(-0.0, 1.0)), 4)
    pl = build_phi(build_model_system(params3, 4), target, 4)
    assert same_bits(pl.ys[0], -0.0) and pl.ys_lo[0] == 0.0
    assert same_bits(eval_phi(pl, float(pl.xs[0])), -0.0)
    assert same_bits(eval_phi(pl, pl.xs[:1]), [-0.0])
    assert same_bits(eval_phi_inverse(pl, -0.0), pl.xs[0])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=-4.0, max_value=4.0), max_size=20))
def test_array_eval_random(phi12, params3, values):
    q = np.array(values, dtype=np.float64)
    assert same_bits(eval_phi(phi12, q), [eval_phi(phi12, v) for v in values])
    assert same_bits(eval_phi_inverse(phi12, q),
                     [eval_phi_inverse(phi12, v) for v in values])
    assert same_bits(eval_fstar(phi12, params3, q),
                     [eval_fstar(phi12, params3, v) for v in values])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 8191),
                          st.sampled_from([0.0, -1e-30, 1e-30, -1e-20, 1e-20])),
                max_size=20))
def test_array_dd_eval_random(phi12, picks):
    """Double-double queries on and beside the knots of phi12."""
    xh = np.array([phi12.xs[i] for i, _ in picks], dtype=np.float64)
    xl = np.array([phi12.xs_lo[i] + d for i, d in picks], dtype=np.float64)
    args = (phi12.xs, phi12.xs_lo, phi12.ys, phi12.ys_lo)
    h, l = _eval_dd_array(*args, xh, xl)
    ref = [_eval_dd(*args, float(a), float(b)) for a, b in zip(xh, xl)]
    assert same_bits(h, [r[0] for r in ref])
    assert same_bits(l, [r[1] for r in ref])


def segment_mapping_loop(pl, model, target, samples, seed):
    """segment_mapping_check as a per-point loop, also returning the sampled
    abscissae: the reference the array version must reproduce."""
    rng = random.Random(seed)
    checked = 0
    bad = []
    drawn = []
    for n in range(pl.depth + 1):
        groups = [(model.level_a[n], model.level_b[n],
                   target.level_a[n], target.level_b[n])]
        if n > 0:
            groups.append((model.gap_c[n], model.gap_d[n],
                           target.gap_c[n], target.gap_d[n]))
        for ma, mb, ta, tb in groups:
            for j in range(ma.size):
                for _ in range(samples):
                    x = rng.uniform(ma[j], mb[j])
                    drawn.append(x)
                    y = eval_phi(pl, x)
                    checked += 1
                    if not ta[j] <= y <= tb[j]:
                        bad.append((n, j, x, y))
    return MappingReport(samples_checked=checked, violations=tuple(bad)), drawn


def mapping_abscissae(pl, model, target, samples, seed):
    """Every abscissa _mapping_samples draws, in its order."""
    return np.concatenate([xs.ravel() for _, xs, _, _ in
                           _mapping_samples(pl, model, target, samples, seed)])


def test_segment_mapping_matches_loop(phi12, model12, thirds12):
    report = segment_mapping_check(phi12, model12, thirds12, samples=2, seed=7)
    ref, drawn = segment_mapping_loop(phi12, model12, thirds12, 2, 7)
    assert report == ref
    xs = mapping_abscissae(phi12, model12, thirds12, 2, 7)
    assert same_bits(xs, drawn)


@pytest.mark.parametrize("seed", [0, 1, 12345, 2**40 + 3])
def test_segment_mapping_draws_match_loop_at_depths_0_to_8(params3, thirds,
                                                          seed):
    """Each group's samples, drawn at once, are the per-draw loop's
    random.Random draws bit for bit."""
    for depth in range(9):
        model = build_model_system(params3, depth)
        target = build_target_system(thirds, depth)
        pl = build_phi(model, target, depth)
        ref, drawn = segment_mapping_loop(pl, model, target, 3, seed)
        assert segment_mapping_check(pl, model, target, 3, seed) == ref
        xs = mapping_abscissae(pl, model, target, 3, seed)
        assert same_bits(xs, drawn), depth


def test_segment_mapping_violations_match_loop(model12, thirds12):
    """Checked against the wrong target, every violation is reported in the
    loop's order with the loop's values."""
    pl = build_phi(model12, thirds12, 5)
    other = build_target_system(FatCantor(0.3, 0.5), 5, mode="natural")
    report = segment_mapping_check(pl, model12, other, samples=3, seed=1)
    ref, _ = segment_mapping_loop(pl, model12, other, 3, 1)
    assert report.violations and report == ref
    assert repr(report.violations) == repr(ref.violations)


@pytest.mark.parametrize("block", [1, 7, 64])
def test_sliced_mapping_check_matches_loop(monkeypatch, model12, thirds12,
                                           block):
    """With blocks of a few rows, the slices split groups and levels at odd
    places; the violations keep the loop's order, rows and values."""
    pl = build_phi(model12, thirds12, 5)
    other = build_target_system(FatCantor(0.3, 0.5), 5, mode="natural")
    ref, _ = segment_mapping_loop(pl, model12, other, 3, 1)
    monkeypatch.setattr(conjugacy, "_BLOCK", block)
    report = segment_mapping_check(pl, model12, other, samples=3, seed=1)
    assert report.violations and report == ref
    assert repr(report.violations) == repr(ref.violations)


def test_mapping_check_memory_stays_near_its_draws(params3, thirds):
    # memory guard, in bytes numpy reports to tracemalloc: at depth 16 with
    # 4 samples (786 424 of them) the check peaks at about 9.4 MB, mostly
    # the eval_phi temporaries of one block of _BLOCK rows, the same as at
    # depth 14.  Drawing every sample as one batch peaked at 25.2 MB
    # (32 bytes a sample); evaluating that batch at once at about 266.
    model = build_model_system(params3, 16)
    target = build_target_system(thirds, 16, "natural")
    pl = build_phi(model, target, 16)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        report = segment_mapping_check(pl, model, target, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok and report.samples_checked == 4 * (3 << 16) - 8
    assert peak - before < 320 * 4 * _BLOCK


# _eval_dd_array and the array branch of _eval_double as they were when
# every branch ran on every lane and np.where kept each lane's answer,
# frozen as the oracle of the versions that compute only the lanes that
# need it.

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


def oracle_queries(knots):
    """Named query arrays over one knot table: all knots, no knots, a mix,
    duplicates with 0.0 beside -0.0, a 2-D block and an empty array."""
    rng = np.random.default_rng(knots.size)
    none = np.concatenate([
        np.nextafter(knots, np.inf), np.nextafter(knots, -np.inf),
        [knots[0] - 1.0, knots[-1] + 2.5],
        rng.uniform(knots[0] - 0.5, knots[-1] + 0.5, 97)])
    none = none[~np.isin(none, knots)]
    mix = rng.permutation(np.concatenate([knots, none]))
    dup = np.concatenate([knots[::-1], knots, [0.0, -0.0, 0.0, -0.0],
                          none[:5], none[:5]])
    return {"knots": knots, "none": none, "mix": mix, "dup": dup,
            "2-D": mix[:mix.size // 6 * 6].reshape(-1, 6),
            "empty": np.empty(0)}


def test_eval_double_matches_frozen_oracle(oracle_cases):
    for pl, _, _ in oracle_cases:
        for table in ((pl.xs, pl.xs_lo, pl.ys, pl.ys_lo),
                      (pl.ys, pl.ys_lo, pl.xs, pl.xs_lo)):
            for name, q in oracle_queries(table[0]).items():
                got = _eval_double(*table, q)
                want = reference_eval_double_array(*table, q)
                for g, w in zip(got, want):
                    assert same_bits(g, w), (pl.depth, name)


def test_eval_dd_array_matches_frozen_oracle(oracle_cases):
    """Plain and double-double queries: exact (hi, lo) knot hits, points
    dd-below and dd-above a knot, both tails, and F_c images of knots."""
    for pl, params, _ in oracle_cases:
        for xs, xs_lo, ys, ys_lo in ((pl.xs, pl.xs_lo, pl.ys, pl.ys_lo),
                                     (pl.ys, pl.ys_lo, pl.xs, pl.xs_lo)):
            for name, q in oracle_queries(xs).items():
                for lo in (np.zeros_like(q), np.full_like(q, 1e-30),
                           np.full_like(q, -1e-30)):
                    if name == "knots":
                        lo = xs_lo + lo
                    got = _eval_dd_array(xs, xs_lo, ys, ys_lo, q, lo)
                    want = reference_eval_dd_array(xs, xs_lo, ys, ys_lo, q, lo)
                    assert same_bits(got[0], want[0]), (pl.depth, name)
                    assert same_bits(got[1], want[1]), (pl.depth, name)
            fh, fl = _dd.add(*_dd.sqr(xs, xs_lo), params.c, 0.0)
            got = _eval_dd_array(xs, xs_lo, ys, ys_lo, fh, fl)
            want = reference_eval_dd_array(xs, xs_lo, ys, ys_lo, fh, fl)
            assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])


def test_eval_dd_array_non_finite_lanes_match_frozen_oracle(phi12):
    """inf, -inf and NaN in either part, beside finite lanes, on and off
    the knots: every lane's piece stays in range and each lane gives the
    oracle's value, any NaN counting as NaN."""
    args = (phi12.xs, phi12.xs_lo, phi12.ys, phi12.ys_lo)
    special = [np.inf, -np.inf, np.nan]
    his = np.array(special + [phi12.xs[0], phi12.xs[7], phi12.xs[-1], 0.25])
    xh, xl = (a.ravel() for a in np.meshgrid(his, special + [0.0, 1e-30]))
    with np.errstate(over="ignore", invalid="ignore"):
        got = _eval_dd_array(*args, xh, xl)
        want = reference_eval_dd_array(*args, xh, xl)
    for g, w in zip(got, want):
        nan = np.isnan(w)
        assert np.array_equal(np.isnan(g), nan)
        assert same_bits(g[~nan], w[~nan])


def test_scalar_dd_eval_places_non_finite_points_as_the_array(phi12):
    """_eval_dd places a point as _eval_array places a lane, inf, -inf and
    NaN parts included: each gives the lane's value, any NaN counting as
    NaN.  A NaN hi part, or a NaN lo part on the last knot, lies in the
    right tail, not on a piece past the last knot."""
    args = (phi12.xs, phi12.xs_lo, phi12.ys, phi12.ys_lo)
    special = [np.inf, -np.inf, np.nan]
    his = np.array(special + [phi12.xs[0], phi12.xs[7], phi12.xs[-1], 0.25])
    xh, xl = (a.ravel() for a in np.meshgrid(his, special + [0.0, 1e-30]))
    with np.errstate(over="ignore", invalid="ignore"):
        lanes = np.transpose(_eval_dd_array(*args, xh, xl))
        for a, b, want in zip(xh.tolist(), xl.tolist(), lanes):
            got = np.array(_eval_dd(*args, a, b), dtype=np.float64)
            assert np.array_equal(np.isnan(got), np.isnan(want)), (a, b)
            assert same_bits(got[~np.isnan(got)], want[~np.isnan(want)])


def test_eval_double_all_knots_reads_the_table(phi12):
    # every lane a knot: the interpolation never runs
    q = phi12.xs[::-1].copy()
    h, l, r = _eval_double(phi12.xs, phi12.xs_lo, phi12.ys, phi12.ys_lo, q)
    assert same_bits(h, phi12.ys[::-1]) and same_bits(l, phi12.ys_lo[::-1])
    assert same_bits(r, phi12.ys[::-1])


def test_public_array_evaluators_match_frozen_oracle(oracle_cases):
    for pl, params, _ in oracle_cases:
        q = oracle_queries(pl.ys)["mix"]
        want_inv = reference_eval_double_array(pl.ys, pl.ys_lo, pl.xs,
                                               pl.xs_lo, q)
        assert same_bits(eval_phi_inverse(pl, q), want_inv[2])
        with np.errstate(over="ignore", invalid="ignore"):
            fh, fl = _dd.add(*_dd.sqr(*want_inv[:2]), params.c, 0.0)
        yh, yl = reference_eval_dd_array(pl.xs, pl.xs_lo, pl.ys, pl.ys_lo,
                                         fh, fl)
        assert same_bits(eval_fstar(pl, params, q), yh + yl)
        x = oracle_queries(pl.xs)["mix"]
        assert same_bits(eval_phi(pl, x), reference_eval_double_array(
            pl.xs, pl.xs_lo, pl.ys, pl.ys_lo, x)[2])


# _eval_dd as it was when its arithmetic ran on numpy scalars (the knots
# read by indexing), frozen as the oracle of the version that reads them
# with ndarray.item and computes on Python floats.

def reference_eval_dd(xs, xs_lo, ys, ys_lo, xh, xl):
    if (xh, xl) <= (xs[0], xs_lo[0]):
        if xh == xs[0] and xl == xs_lo[0]:
            return ys[0], ys_lo[0]
        off = _dd.sub(ys[0], ys_lo[0], xs[0], xs_lo[0])
        return _dd.add(xh, xl, *off)
    if (xh, xl) >= (xs[-1], xs_lo[-1]):
        if xh == xs[-1] and xl == xs_lo[-1]:
            return ys[-1], ys_lo[-1]
        off = _dd.sub(ys[-1], ys_lo[-1], xs[-1], xs_lo[-1])
        return _dd.add(xh, xl, *off)
    i = int(np.searchsorted(xs, xh, side="right")) - 1
    if xs[i] == xh:
        if xs_lo[i] == xl:
            return ys[i], ys_lo[i]
        if xl < xs_lo[i]:
            i -= 1
    dx = _dd.sub(xh, xl, xs[i], xs_lo[i])
    t = _dd.div(*dx, *_dd.sub(xs[i + 1], xs_lo[i + 1], xs[i], xs_lo[i]))
    dy = _dd.mul(*t, *_dd.sub(ys[i + 1], ys_lo[i + 1], ys[i], ys_lo[i]))
    return _dd.add(ys[i], ys_lo[i], *dy)


def scalar_dd_queries(xs, xs_lo, c):
    """(hi, lo) queries over one knot table, as Python floats: seeded
    interior points; every probed knot (about 64, both corners included)
    with its own tail, that tail +-1e-30, one ulp either side with tail 0,
    and its dd image under F_c; both slope-one tails, the hull corners as
    plain doubles, and +-0.0."""
    rng = random.Random(xs.size)
    lo, hi = xs.item(0), xs.item(-1)
    queries = [(rng.uniform(lo, hi), 0.0) for _ in range(32)]
    for k in np.unique(np.r_[0:xs.size:max(1, xs.size // 64), xs.size - 1]):
        h, l = xs.item(k), xs_lo.item(k)
        queries += [(h, l), (h, l + 1e-30), (h, l - 1e-30),
                    (math.nextafter(h, -math.inf), 0.0),
                    (math.nextafter(h, math.inf), 0.0),
                    _dd.add(*_dd.sqr(h, l), c, 0.0)]
    queries += [(lo - 1.0, 0.0), (lo - 1e-9, 0.0), (hi + 1e-9, 0.0),
                (hi + 2.5, 0.0), (lo, 0.0), (hi, 0.0),
                (0.0, 0.0), (-0.0, 0.0), (-0.0, -0.0)]
    return queries


def test_eval_dd_matches_frozen_reference(oracle_cases):
    """Bit for bit, hi and lo, with each query passed as Python floats and
    as np.float64: the knot hits of _eval_double feed numpy scalars
    through _fstar_step into _eval_dd."""
    for pl, params, _ in oracle_cases:
        for table in ((pl.xs, pl.xs_lo, pl.ys, pl.ys_lo),
                      (pl.ys, pl.ys_lo, pl.xs, pl.xs_lo)):
            for xh, xl in scalar_dd_queries(table[0], table[1], params.c):
                for cast in (float, np.float64):
                    q = cast(xh), cast(xl)
                    got = _eval_dd(*table, *q)
                    want = reference_eval_dd(*table, *q)
                    assert same_bits(got, want), (pl.depth, params.c, q)


def test_public_scalar_result_types(phi12, params3):
    """np.float64 off the knots, float on a knot, math.inf where F_c
    overflows: the CLI prints these and the benchmark hashes their repr."""
    x, y = phi12.xs.item(1000), phi12.ys.item(1000)
    off_x, off_y = math.nextafter(x, math.inf), math.nextafter(y, math.inf)
    assert type(eval_phi(phi12, x)) is float
    assert type(eval_phi(phi12, off_x)) is np.float64
    assert type(eval_phi_inverse(phi12, y)) is float
    assert type(eval_phi_inverse(phi12, off_y)) is np.float64
    assert type(eval_fstar(phi12, params3, y)) is np.float64
    assert type(eval_fstar(phi12, params3, off_y)) is np.float64
    big = eval_fstar(phi12, params3, 1e300)
    assert type(big) is float and big == math.inf
    for y0 in (y, off_y):
        res = iterate_target(phi12, params3, y0, 50, keep_trajectory=5)
        assert [type(v) for v in res.trajectory] == [float] + [np.float64] * 4
