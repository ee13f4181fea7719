"""The finite-depth conjugacy phi_N and the conjugated map F*.

Spot values below follow from the construction directly: phi carries model
endpoints to target endpoints at the same address, is linear in between,
and continues with slope one outside the hull.  So phi(-s) = 1/3,
phi(s) = 2/3, phi(+-p) = 1, 0, and F*(y) = phi(F_c(phi_inv(y))).  The value
F*(1/2) = phi(-3) = 0 + (-3 + p) = -0.6972243622680053 (correctly rounded;
checked in 60-digit Decimal from p = (1 + sqrt(13))/2).
"""

import bisect
import math
import pickle
import random
import tracemalloc
import warnings
from fractions import Fraction

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
    _eval_array,
    _eval_dd,
    _eval_double,
    _eval_float,
    _mapping_samples,
)
from cantordyn.model_cantor import _BLOCK
from conftest import (inside, reference_eval_dd_array,
                      reference_eval_double_array, same_lanes)

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


# --- array evaluation: shapes, refusals, overflow and signed zeros ---------


def same_bits(a, b):
    a, b = np.asarray(a, np.float64), np.asarray(b, np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.int64),
                                                 b.view(np.int64))


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
    h, l = _eval_array(phi12._phi, xh, xl)[:2]
    ref = [_eval_dd(phi12._phi, float(a), float(b)) for a, b in zip(xh, xl)]
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


def test_eval_double_all_knots_reads_the_table(phi12):
    # every lane a knot: the interpolation never runs
    q = phi12.xs[::-1].copy()
    h, l, r = _eval_double(phi12._phi, q)
    assert same_bits(h, phi12.ys[::-1]) and same_bits(l, phi12.ys_lo[::-1])
    assert same_bits(r, phi12.ys[::-1])


# --- every evaluator surface against the reference chain -------------------
#
# conftest.reference_cases holds the lanes of each map and the reference
# chain's answers there; each test below compares one surface with them.


def test_eval_dd_array_matches_frozen_oracle(reference_cases):
    """_eval_array on the dd lanes, and on the double lanes (xl None) whole,
    as a 2-D block and empty."""
    for case in reference_cases:
        for r in case.directions:
            with np.errstate(over="ignore", invalid="ignore"):
                h, l, _ = _eval_array(r.d, r.xh, r.xl)
            assert same_lanes(h, r.want_dd[0]), case.pl.depth
            assert same_lanes(l, r.want_dd[1]), case.pl.depth
            h, l, _ = _eval_array(r.d, r.x)
            assert same_lanes(h, r.want[0]) and same_lanes(l, r.want[1])
            m = r.x.size // 2 * 2
            h, l, hit = _eval_array(r.d, r.x[:m].reshape(-1, 2))
            assert same_lanes(h, r.want[0][:m].reshape(-1, 2))
            assert same_lanes(l, r.want[1][:m].reshape(-1, 2))
            assert hit.shape == (m // 2, 2)
            assert all(v.shape == (0,) for v in _eval_array(r.d, np.empty(0)))


def test_eval_dd_array_non_finite_lanes_match_frozen_oracle(phi12):
    """inf, -inf and NaN in either part, beside finite lanes, on and off
    the knots: every lane's piece stays in range and each lane gives the
    oracle's value, any NaN counting as NaN."""
    args = (phi12.xs, phi12.xs_lo, phi12.ys, phi12.ys_lo)
    special = [np.inf, -np.inf, np.nan]
    his = np.array(special + [phi12.xs[0], phi12.xs[7], phi12.xs[-1], 0.25])
    xh, xl = (a.ravel() for a in np.meshgrid(his, special + [0.0, 1e-30]))
    with np.errstate(over="ignore", invalid="ignore"):
        got = _eval_array(phi12._phi, xh, xl)[:2]
        want = reference_eval_dd_array(*args, xh, xl)
    for g, w in zip(got, want):
        nan = np.isnan(w)
        assert np.array_equal(np.isnan(g), nan)
        assert same_bits(g[~nan], w[~nan])


def test_eval_double_matches_frozen_oracle(reference_cases):
    """_eval_double's (h, l, r) on the double lanes, as one array and one
    lane at a time."""
    for case in reference_cases:
        for r in case.directions:
            got = _eval_double(r.d, r.x)
            assert all(same_lanes(g, w) for g, w in zip(got, r.want))
            got = np.array([_eval_double(r.d, v) for v in r.x.tolist()])
            assert all(same_lanes(g, w) for g, w in zip(got.T, r.want))


def test_eval_float_matches_frozen_oracle(reference_cases):
    """_eval_float's (h, l) on the double lanes, and i, the knot a lane
    equals (None off the knots)."""
    for case in reference_cases:
        for r in case.directions:
            xs = r.table[0]
            got = [_eval_float(r.d, v) for v in r.x.tolist()]
            h, l, i = zip(*got)
            assert same_lanes(h, r.want[0]) and same_lanes(l, r.want[1])
            assert [k is not None for k in i] == np.isin(r.x, xs).tolist()
            assert all(xs[k] == v for k, v in zip(i, r.x) if k is not None)


def test_eval_dd_matches_frozen_reference(reference_cases):
    """_eval_dd one dd lane at a time, the parts as Python floats; and as
    np.float64 on the lanes past the doubles (the knots with their tails,
    their F_c images, the signed zeros and the non-finite lanes), since
    the knot hits of _eval_float feed numpy scalars through _fstar_scalar
    into _eval_dd."""
    for case in reference_cases:
        for r in case.directions:
            lanes = list(zip(r.xh.tolist(), r.xl.tolist()))
            first = 3 * r.x.size
            with np.errstate(over="ignore", invalid="ignore"):
                for cast, k in ((float, 0), (np.float64, first)):
                    got = np.array([_eval_dd(r.d, cast(a), cast(b))
                                    for a, b in lanes[k:]], dtype=np.float64)
                    assert same_lanes(got[:, 0], r.want_dd[0][k:]), cast
                    assert same_lanes(got[:, 1], r.want_dd[1][k:]), cast


def test_public_scalar_evaluators_match_frozen_oracle(reference_cases):
    """eval_phi and eval_phi_inverse on the double lanes and eval_fstar on
    the starts, one lane at a time, with the public types: float on a
    knot and np.float64 off it; np.float64 from F*, but its +inf a float."""
    for case in reference_cases:
        pl = case.pl
        for f, r in zip((eval_phi, eval_phi_inverse), case.directions):
            got = [f(pl, v) for v in r.x.tolist()]
            assert same_lanes(got, r.want[2])
            knot = np.isin(r.x, r.table[0])
            assert [type(v) for v in got] == [
                float if k else np.float64 for k in knot.tolist()]
        got = [eval_fstar(pl, case.params, v) for v in case.starts.tolist()]
        assert same_lanes(got, case.fstar)
        assert [type(v) for v in got] == [
            float if v == math.inf else np.float64 for v in got]


def test_public_array_evaluators_match_frozen_oracle(reference_cases):
    """eval_phi, eval_phi_inverse and eval_fstar on whole arrays of the
    lanes, and on 2-D blocks of them."""
    for case in reference_cases:
        pl, (phi, inv) = case.pl, case.directions
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert same_lanes(eval_phi(pl, phi.x), phi.want[2])
            assert same_lanes(eval_phi_inverse(pl, inv.x), inv.want[2])
            got = eval_fstar(pl, case.params, case.starts)
        assert same_lanes(got, case.fstar)
        m = case.starts.size // 4 * 4
        got = eval_fstar(pl, case.params, case.starts[:m].reshape(-1, 4))
        assert same_lanes(got, case.fstar[:m].reshape(-1, 4))
        m = phi.x.size // 4 * 4
        got = eval_phi(pl, phi.x[:m].reshape(-1, 4))
        assert same_lanes(got, phi.want[2][:m].reshape(-1, 4))


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


# --- the direction records ------------------------------------------------

# the targets of the standing sweep (tests/test_verification.py), each in
# the modes its sweep rows build
SWEEP_TARGETS = {
    "middle-thirds": (middle_thirds(), "strict"),
    "affine:0.3,0.2": (AffineIFS2(0.3, 0.2), "strict"),
    "middle-alpha:0.5": (MiddleAlpha(0.5), "strict"),
    "fat:0.3,0.5": (FatCantor(0.3, 0.5), "strict"),
    "affine:0.8,0.1": (AffineIFS2(0.8, 0.1), "strict"),
    "affine:0.8,0.1-natural": (AffineIFS2(0.8, 0.1), "natural"),
}


@pytest.mark.parametrize("name", SWEEP_TARGETS)
def test_bisect_places_as_searchsorted(model12, name):
    """The scalar evaluators place a query with bisect on the record's
    memoryview; searchsorted(side="right") is the array evaluator's
    placement.  They agree on every knot of both directions, its
    neighbours an ulp away, +-0.0, the hull corners, +-inf and NaN, as
    Python floats and, where a knot hit feeds F_c, as np.float64."""
    spec, mode = SWEEP_TARGETS[name]
    pl = build_phi(model12, build_target_system(spec, 12, mode), 12)
    for d in (pl._phi, pl._phi_inv):
        knots = d.xs
        special = np.array([0.0, -0.0, knots[0], knots[-1], np.inf, -np.inf,
                            np.nan])
        q = np.concatenate([knots, np.nextafter(knots, np.inf),
                            np.nextafter(knots, -np.inf), special])
        want = (knots.searchsorted(q, side="right") - 1).tolist()
        assert [bisect.bisect_right(d.xv, v) - 1 for v in q.tolist()] == want
        for v in np.concatenate([knots, special]):
            assert (bisect.bisect_right(d.xv, v)
                    == int(knots.searchsorted(v, side="right")))


def test_direction_records_pickle(phi12, params3):
    """The records hold memoryviews, which do not pickle; a map does, and
    the copy evaluates as the original, from an empty piece table."""
    eval_fstar(phi12, params3, 0.1)
    assert filled(phi12)
    copy = pickle.loads(pickle.dumps(phi12))
    assert filled(copy) == []
    y = np.linspace(-0.5, 1.5, 101)
    assert same_bits(eval_fstar(copy, params3, y), eval_fstar(phi12, params3, y))
    assert same_bits([eval_fstar(copy, params3, v) for v in y.tolist()],
                     [eval_fstar(phi12, params3, v) for v in y.tolist()])
    assert same_bits(copy._phi_inv.left, phi12._phi_inv.left)


# --- the exact map: correct rounding, checked in rationals -----------------


class ExactMap:
    """phi_N, phi_N^(-1) and F*_N of a map in exact rationals: the stored
    dd knots (hi + lo each), linear in between, slope-one tails through
    the exact offsets at the hull corners, and the public-knot convention
    (a double equal to a knot's hi part is that knot).  F* composes the
    exact phi^(-1), x^2 + c and phi, with no rounding in between."""

    def __init__(self, pl, c):
        self.c = Fraction(c)
        self.xs, self.ys = ([Fraction(h) + Fraction(l)
                             for h, l in zip(hi.tolist(), lo.tolist())]
                            for hi, lo in ((pl.xs, pl.xs_lo),
                                           (pl.ys, pl.ys_lo)))
        self.x_knots, self.y_knots = ({v: i for i, v in enumerate(hi.tolist())}
                                      for hi in (pl.xs, pl.ys))

    @staticmethod
    def piece(xs, q):
        """The index j of q's piece among the knots xs: -1 and len(xs) - 1
        for the tails."""
        return bisect.bisect_right(xs, q) - 1

    def at(self, xs, ys, q):
        """The exact map from the knots xs onto ys at the rational q."""
        j = self.piece(xs, q)
        if j < 0:
            return q + (ys[0] - xs[0])
        if j == len(xs) - 1:
            return q + (ys[-1] - xs[-1])
        return ys[j] + (q - xs[j]) * (ys[j + 1] - ys[j]) / (xs[j + 1] - xs[j])

    def phi(self, x):
        i = self.x_knots.get(x)
        if i is None:
            return self.at(self.xs, self.ys, Fraction(x))
        return self.ys[i]

    def phi_inverse(self, y):
        i = self.y_knots.get(y)
        if i is None:
            return self.at(self.ys, self.xs, Fraction(y))
        return self.xs[i]

    def fstar(self, y):
        x = self.phi_inverse(y)
        return self.at(self.xs, self.ys, x * x + self.c)


def rounds_correctly(result, exact):
    """Whether the contract asks result to be the correctly rounded exact
    value (|exact| >= 1e-6 and exact not within 2^-100 |exact| of a
    rounding midpoint), and the correctly rounded value.  Fraction's
    float() rounds correctly: it divides two ints."""
    nearest = float(exact)
    if abs(exact) < Fraction(1, 10**6) or Fraction(nearest) == exact:
        return abs(exact) >= Fraction(1, 10**6), nearest
    other = math.nextafter(nearest, math.inf if Fraction(nearest) < exact
                           else -math.inf)
    midpoint = (Fraction(nearest) + Fraction(other)) / 2
    return abs(exact - midpoint) > abs(exact) / 2**100, nearest


# The largest error of each evaluator, beyond half an ulp and 2^-100 of the
# exact value, where the contract does not ask for correct rounding: the
# measured maximum, not a derived bound, over the queries of
# test_public_results_round_correctly_off_the_knots and 328 500 more drawn
# alike (30 seeds, 20 hull points a map).  phi never exceeds those two
# there; phi^(-1) reached 6.01e-33 (an absolute error of 3.07e-32, at
# 0.49999999999999994, c = -4, fat:0.3,0.5, depth 1) and F* 5.66e-27 (at
# 0.5119999999999999, c = -20, affine:0.8,0.1, depth 8, where F* is about
# 8.2e-15).
MEASURED_ERROR = {"phi": 0.0, "phi_inverse": 6.1e-33, "fstar": 5.7e-27}

SWEEP_SPECS = (middle_thirds(), MiddleAlpha(0.5, hull=(-0.0, 1.0)),
               AffineIFS2(0.3, 0.2), AffineIFS2(0.8, 0.1), FatCantor(0.3, 0.5))


def off_knot_queries(rng, knots, n):
    """n seeded points over the hull and 0.5 past it; the points 1 and 2
    ulps either side of the first and last knots and of the inner ends of
    the level-1 gap, where results near a target corner or a gap end lie;
    one ulp either side of two random knots; +-0.0, +-5e-324 and both
    tails.  The knots themselves are left out."""
    a, b = knots[0], knots[-1]
    m = len(knots)
    near = [knots[0], knots[m // 2 - 1], knots[m // 2], knots[-1]]
    near2 = [math.nextafter(v, s * math.inf) for v in near for s in (-1, 1)]
    queries = ([rng.uniform(a - 0.5, b + 0.5) for _ in range(n)] + near2
               + [math.nextafter(v, s * math.inf)
                  for v, s in zip(near2, [-1, 1] * 4)]
               + [math.nextafter(v, s * math.inf)
                  for v in rng.sample(knots, 2) for s in (-1, 1)]
               + [0.0, -0.0, 5e-324, -5e-324, a - 1e-9, b + 1e-9, a - 3.0,
                  b + 3.0])
    known = set(knots)
    return [q for q in queries if q not in known]


def sweep_maps():
    for c in (-3.0, -2.5, -4.0, -8.0, -20.0):
        params = derive_params(c)
        for spec in SWEEP_SPECS:
            for depth in (1, 4, 8):
                yield params, build_phi(build_model_system(params, depth),
                                        build_target_system(spec, depth),
                                        depth)


def off_knot_results(pl, params, exact, rng, n):
    """(evaluator, query, result, exact value) over the off-knot queries of
    one map; phi^(-1) and F* also take phi(0) and its neighbours, where
    phi^(-1) is near 0."""
    ys_queries = off_knot_queries(rng, pl.ys.tolist(), n)
    back = eval_phi(pl, 0.0)
    ys_queries = [q for q in ys_queries + [back, math.nextafter(back, -1.0),
                                           math.nextafter(back, 2.0)]
                  if q not in exact.y_knots]
    runs = (("phi", off_knot_queries(rng, pl.xs.tolist(), n),
             lambda v: eval_phi(pl, v), exact.phi),
            ("phi_inverse", ys_queries, lambda v: eval_phi_inverse(pl, v),
             exact.phi_inverse),
            ("fstar", ys_queries, lambda v: eval_fstar(pl, params, v),
             exact.fstar))
    for name, queries, f, g in runs:
        for q in queries:
            yield name, q, float(f(q)), g(q)


def test_public_results_round_correctly_off_the_knots():
    """eval_phi, eval_phi_inverse and eval_fstar against ExactMap, off
    the knots, over c in {-3, -2.5, -4, -8, -20} x five strict targets x
    depths 1, 4 and 8: the correctly rounded exact value wherever the
    contract asks for it, else within half an ulp of it plus 2^-100 of
    it (a near tie) plus the measured error."""
    rng = random.Random(31)
    asked = spared = 0
    for params, pl in sweep_maps():
        exact = ExactMap(pl, params.c)
        for name, q, got, want in off_knot_results(pl, params, exact, rng, 6):
            ask, nearest = rounds_correctly(got, want)
            if ask:
                asked += 1
                assert got == nearest, (name, params.c, pl.depth, q)
            else:
                spared += 1
                bound = (Fraction(math.ulp(nearest)) / 2 + abs(want) / 2**100
                         + Fraction(MEASURED_ERROR[name]))
                assert abs(Fraction(got) - want) <= bound, (name, q)
    assert asked > spared > 0


@pytest.mark.parametrize("depth", [2, 8, 10])
def test_near_tie_next_to_a_far_knot_rounds_correctly(depth):
    """c = -20, affine:0.3,0.2 strict: F_c of the model knot paired with
    the target knot 0.09, stepped once in dd, lies 2^-102 below the
    model knot of the target knot 0.8.  The exact phi there lies 1.27e-32
    below the midpoint between 0.7999999999999999 and 0.8.  _dd.interp
    errs by about 4e-34, so _eval_dd and _eval_array round it correctly;
    the stored-slope kernel c + (x - a) * s errs by 1.27e-32 and rounds to
    0.8, so this point separates the two."""
    params = derive_params(-20.0)
    pl = build_phi(build_model_system(params, depth),
                   build_target_system(AffineIFS2(0.3, 0.2), depth), depth)
    k = int(np.flatnonzero(pl.ys == 0.09)[0])
    fh, fl = _dd.quad(pl.xs.item(k), pl.xs_lo.item(k), params.c)
    d, exact_map = pl._phi, ExactMap(pl, params.c)
    q = Fraction(fh) + Fraction(fl)
    exact = exact_map.at(exact_map.xs, exact_map.ys, q)
    j = exact_map.piece(exact_map.xs, q)
    below, above = 0.7999999999999999, 0.8
    assert pl.ys[j + 1] == above
    gap = (Fraction(below) + Fraction(above)) / 2 - exact
    assert 1e-32 < gap < 2e-32
    h, l = _eval_dd(d, fh, fl)
    assert abs(Fraction(h) + Fraction(l) - exact) < gap / 10
    assert h + l == below
    ah, al, hit = _eval_array(d, np.array([fh]), np.array([fl]))
    assert not hit[0] and same_bits(ah + al, [below])
    a, b = (d.xs.item(j), d.xs_lo.item(j)), (d.xs.item(j + 1), d.xs_lo.item(j + 1))
    c, e = (d.ys.item(j), d.ys_lo.item(j)), (d.ys.item(j + 1), d.ys_lo.item(j + 1))
    slope = _dd.div(*_dd.sub(*e, *c), *_dd.sub(*b, *a))
    sh, sl = _dd.add(*c, *_dd.mul(*_dd.sub(fh, fl, *a), *slope))
    assert sh + sl == above


# --- the piece table: widths and heights, a block at a time ----------------


def filled(pl):
    """The blocks of pl's piece table that hold differences, the same in
    both directions, which share the table."""
    phi, inv = pl._phi, pl._phi_inv
    assert phi.blocks is inv.mirror and phi.mirror is inv.blocks
    got = [b for b, entry in enumerate(phi.blocks) if entry is not None]
    assert got == [b for b, entry in enumerate(inv.blocks) if entry is not None]
    return got


def seam_pieces(pl):
    """The pieces either side of every seam between two blocks of pl's
    piece table, j = k * block - 1 and k * block, with the first and the
    last piece."""
    d = pl._phi
    seams = [j for k in range(1, len(d.blocks))
             for j in (k * d.block - 1, k * d.block)]
    return np.array([0, *seams, d.last - 1])


def test_block_seams_read_the_knot_kernel(phi14):
    """At depth 14 the table has four blocks.  Either side of each seam,
    in both directions, the scalar piece gives the reference chain's bits,
    which it computes from the piece's two knots, and the table entry
    holds the knots' differences."""
    pl = phi14
    pieces = seam_pieces(pl)
    assert len(pl._phi.blocks) == 4 and pieces.size == 8
    for d in (pl._phi, pl._phi_inv):
        for j in pieces.tolist():
            b, k = divmod(j, d.block)
            x = d.xv[j] + 0.375 * (d.xv[j + 1] - d.xv[j])
            got = conjugacy._piece(d, j, x, 0.0)
            want = reference_eval_double_array(d.xs, d.xs_lo, d.ys, d.ys_lo,
                                               np.array([x]))[:2]
            assert same_lanes(got, np.ravel(want)), (j, x)
            w, w_lo, v, v_lo = d.blocks[b]
            assert same_bits((w[k], w_lo[k]),
                             _dd.sub(d.xv[j + 1], d.xv_lo[j + 1], d.xv[j],
                                     d.xv_lo[j]))
            assert same_bits((v[k], v_lo[k]),
                             _dd.sub(d.yv[j + 1], d.yv_lo[j + 1], d.yv[j],
                                     d.yv_lo[j]))
    assert filled(pl) == [0, 1, 2, 3]


@pytest.mark.parametrize("block", [1, 7, 64])
def test_small_blocks_match_the_array_path(monkeypatch, params3, thirds,
                                           block):
    """With blocks of a few pieces, a depth-6 map (127 pieces) has a seam
    every few pieces and a short last block; inside every piece of both
    directions the scalar evaluators give the bits of the array reference
    chain, which reads no table, and each block is filled once.  (Maps of
    these blocks are among the reference cases too.)"""
    monkeypatch.setattr(conjugacy, "_BLOCK", block)
    pl = build_phi(build_model_system(params3, 6),
                   build_target_system(thirds, 6), 6)
    assert filled(pl) == [] and len(pl._phi.blocks) == -(-127 // block)
    for f, table in ((eval_phi, (pl.xs, pl.xs_lo, pl.ys, pl.ys_lo)),
                     (eval_phi_inverse, (pl.ys, pl.ys_lo, pl.xs, pl.xs_lo))):
        x = inside(table[0], np.arange(127))
        want = reference_eval_double_array(*table, x)[2]
        assert same_lanes([f(pl, v) for v in x.tolist()], want)
    assert filled(pl) == list(range(len(pl._phi.blocks)))
    for b, entry in enumerate(pl._phi.blocks):
        assert {len(m) for m in entry} == {min(block, 127 - b * block)}


def test_piece_table_fills_one_block_per_first_read(params3, thirds):
    # memory guard, in bytes numpy reports to tracemalloc: building a
    # depth-18 map fills no block of its 64; the first scalar query in a
    # block keeps that block's four arrays (32 bytes a piece, 256 KB) and
    # peaks at about 3.5 blocks in _dd.sub's temporaries; a later query
    # in it, from either direction, allocates nothing more.
    model = build_model_system(params3, 18)
    target = build_target_system(thirds, 18, "natural")
    pl = build_phi(model, target, 18)
    assert len(pl._phi.blocks) == 64 and filled(pl) == []
    block_bytes = 4 * 8 * _BLOCK
    j = 3 * _BLOCK + 5
    x = 0.5 * (pl.xs.item(j) + pl.xs.item(j + 1))
    y = 0.5 * (pl.ys.item(j + 9) + pl.ys.item(j + 10))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        eval_phi(pl, x)
        kept, peak = tracemalloc.get_traced_memory()
        eval_phi(pl, x)
        eval_phi_inverse(pl, y)
        again = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert filled(pl) == [3]
    assert block_bytes <= kept - before < 1.05 * block_bytes
    assert peak - before < 4 * block_bytes
    assert again - kept < 1024
    eval_phi(pl, np.array([x, pl.xs.item(40 * _BLOCK) + 1e-9]))
    assert filled(pl) == [3]
