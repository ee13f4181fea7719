"""Orbit classification, cobweb traces, and the escape-time demo.

The bounded/divergent dichotomy is checked through the F* engine, which
carries orbits in double-double and snaps sub-drift-budget deviations; the
plain-double engine demonstrates why: even the fixed point p itself, rounded
to binary64, escapes after a handful of steps once the local slope 2p ~ 4.6
amplifies the half-ulp rounding error past the drift budget.
"""

import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cantordyn import (
    AffineIFS2,
    DomainError,
    FatCantor,
    ORBIT_DRIFT_BUDGET,
    OrbitResult,
    build_model_system,
    build_phi,
    build_target_system,
    derive_params,
    eval_fstar,
    classify_grid,
    cobweb_trace,
    iterate_model,
    iterate_target,
    mandelbrot_escape,
    mandelbrot_grid,
    middle_thirds,
)
from cantordyn import orbit_engine
from cantordyn.conjugacy import _fstar_step
from cantordyn.fileio import PALETTE, export_escape_image
from conftest import ORBIT_STEPS, reference_iterate_target_array, same_lanes


class TestIterateModel:
    def test_gap_escapes_immediately(self, params3):
        result = iterate_model(params3, 0.0, 100)
        assert result.escaped and result.iteration == 1

    def test_outside_hull_escapes_at_zero(self, params3):
        result = iterate_model(params3, 2.5, 100)
        assert result.escaped and result.iteration == 0

    def test_rounded_fixed_point_drifts_out(self, params3):
        # float(p) is half an ulp off the real fixed point; the slope ~4.6
        # turns that into an escape within a handful of steps
        for x0 in (params3.p, -params3.p):
            result = iterate_model(params3, x0, 100)
            assert result.escaped and result.iteration == 5

    def test_level1_endpoint_drifts_out(self, params3):
        result = iterate_model(params3, params3.s, 100)
        assert result.escaped and result.iteration == 8

    def test_deep_member_stays_awhile(self, params3):
        result = iterate_model(params3, 2.0, 100)
        assert not result.escaped and result.iteration == 100

    def test_trajectory(self, params3):
        result = iterate_model(params3, 0.0, 100, keep_trajectory=10)
        assert result.trajectory[0] == 0.0
        assert result.trajectory[1] == -3.0
        assert len(result.trajectory) <= 10

    def test_bare_c_above_quarter(self):
        # no fixed point, but cobweb-style iteration still classifies
        result = iterate_model(0.5, 0.0, 100)
        assert result.escaped and result.iteration == 3

    def test_max_iter_validation(self, params3):
        with pytest.raises(DomainError):
            iterate_model(params3, 0.0, 0)

    @pytest.mark.parametrize("c, x0", [(1e200, 0.0), (1e200, 1.0),
                                       (1e300, -1.0), (1.7e308, 0.0)])
    def test_overflowing_square_escapes(self, c, x0):
        # x_1 is within the radius max(1, |c|), but x_2 = x_1^2 + c leaves
        # the double range: the dd square is nan, which formerly read as
        # "bounded" because nan > threshold is false
        result = iterate_model(c, x0, 100, keep_trajectory=4)
        assert result.escaped and result.iteration == 2
        assert math.isnan(result.trajectory[2])

    def test_overflow_verdicts_in_a_grid(self):
        rows = classify_grid(lambda x0, n: iterate_model(1e200, x0, n),
                             0.0, 1.0, 2, 100)
        assert [(r.escaped, r.iteration) for _, r in rows] == [(True, 2)] * 2

    @pytest.mark.parametrize("x0", [math.nan, math.inf, -math.inf])
    def test_nonfinite_start_rejected(self, params3, x0):
        with pytest.raises(DomainError):
            iterate_model(params3, x0, 100)
        with pytest.raises(DomainError):
            iterate_model(-3.0, x0, 100)

    @pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf, -1e308])
    def test_bad_bare_c_rejected(self, c):
        # formerly "bounded" for every start: the radius came out nan
        with pytest.raises(DomainError):
            iterate_model(c, 0.0, 100)
        with pytest.raises(DomainError):
            classify_grid(lambda x0, n: iterate_model(c, x0, n), 0.0, 1.0,
                          2, 100)


class TestIterateModelArray:
    @pytest.mark.parametrize("c", [-3.0, -2.5, -20.0, 0.5, 1e200])
    def test_lanes_equal_the_scalar_calls(self, c):
        # seeded grids over [-p - 0.5, p + 0.5] (the radius max(1, |c|) for
        # c > 1/4), with the hull corners, the gap edges and both zeros; at
        # c = 1e200 the second square of every lane overflows
        r = orbit_engine._resolve_model(c)[1]
        xs = np.random.default_rng(7).uniform(-r - 0.5, r + 0.5, 1500)
        xs = np.concatenate([xs, [r, -r, 0.0, -0.0, r + 0.5, -r - 0.5]])
        if c < -2:
            s = derive_params(c).s
            xs = np.concatenate([xs, [s, -s, np.nextafter(s, 0)]])
        res = iterate_model(c, xs.reshape(-1, 3), 60)
        assert res.escaped.shape == res.iteration.shape == (xs.size // 3, 3)
        assert res.escaped.dtype == bool and res.iteration.dtype == np.int64
        assert res.trajectory is None
        want = [iterate_model(c, float(x), 60) for x in xs]
        assert res.escaped.ravel().tolist() == [w.escaped for w in want]
        assert res.iteration.ravel().tolist() == [w.iteration for w in want]
        if c == 1e200:
            # |x| near 1e200 squares past the range at once, 0 at step 2
            assert res.escaped.all()
            assert set(res.iteration.ravel().tolist()) == {1, 2}

    def test_params_and_empty_arrays(self, params3):
        res = iterate_model(params3, np.array([2.0, 0.0, 2.5]), 100)
        assert res.escaped.tolist() == [False, True, True]
        assert res.iteration.tolist() == [100, 1, 0]
        res = iterate_model(params3, np.empty(0), 100)
        assert res.escaped.shape == res.iteration.shape == (0,)

    def test_trajectory_needs_a_scalar(self, params3):
        with pytest.raises(DomainError, match="keep_trajectory"):
            iterate_model(params3, np.array([0.0, 1.0]), 10,
                          keep_trajectory=4)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_lane_rejected(self, params3, bad):
        with pytest.raises(DomainError):
            iterate_model(params3, np.array([0.0, bad, 1.0]), 10)


class TestIterateTarget:
    def test_endpoints_stay_bounded(self, phi12, params3):
        for y0 in (0.0, 1.0, 1 / 3, 2 / 3, 1 / 9, 8 / 9):
            result = iterate_target(phi12, params3, y0, 100)
            assert not result.escaped, y0
            assert result.iteration == 100

    def test_gap_midpoint_escapes(self, phi12, params3):
        result = iterate_target(phi12, params3, 0.5, 200)
        assert result.escaped and result.iteration == 1

    def test_outside_hull(self, phi12, params3):
        result = iterate_target(phi12, params3, 2.0, 100)
        assert result.escaped and result.iteration == 0

    def test_matches_conjugated_model(self, phi12, params3, thirds12):
        """Endpoint orbits agree with the model orbit pushed through phi."""
        from cantordyn import eval_phi, eval_phi_inverse

        for y0 in (1 / 3, 2 / 3, 1 / 9):
            r = iterate_target(phi12, params3, y0, 8, keep_trajectory=9)
            x = eval_phi_inverse(phi12, y0)
            for k, y in enumerate(r.trajectory):
                assert eval_phi(phi12, float(x)) == pytest.approx(y, abs=1e-9)
                x = x * x + params3.c

    def test_all_level8_endpoints_bounded(self, phi12, params3, thirds12):
        ys = set()
        for n in range(9):
            ys.update(thirds12.level_a[n].tolist())
            ys.update(thirds12.level_b[n].tolist())
        for y0 in sorted(ys):
            result = iterate_target(phi12, params3, y0, 25)
            assert not result.escaped, y0


class TestIterateTargetBatched:
    """An ndarray y0 iterates every lane at once."""

    def test_mixed_verdicts(self, phi12, params3):
        res = iterate_target(phi12, params3, np.array([0.5, 1 / 3, 2.0]), 100)
        assert res.escaped.tolist() == [True, False, True]
        assert res.iteration.tolist() == [1, 100, 0]

    def test_empty_and_shape(self, phi12, params3):
        res = iterate_target(phi12, params3, np.empty(0), 10)
        assert res.escaped.shape == res.iteration.shape == (0,)
        grid = np.array([[0.0, 0.5], [1.0, 2.0]])
        res = iterate_target(phi12, params3, grid, 10)
        assert res.escaped.tolist() == [[False, True], [False, True]]
        assert res.iteration.tolist() == [[10, 1], [10, 0]]

    def test_validation(self, phi12, params3):
        y0 = np.array([0.5, 1.0])
        with pytest.raises(DomainError):
            iterate_target(phi12, params3, y0, 0)
        with pytest.raises(DomainError):
            iterate_target(phi12, params3, y0, 10, keep_trajectory=5)
        with pytest.raises(DomainError):
            iterate_target(phi12, params3, np.array([0.5, np.nan]), 10)


def test_batched_iterate_matches_frozen_oracle(reference_cases):
    """The batch lanes (every start and every knot) beside the same lanes
    in reverse order (each state twice, so lanes merge at once), as one
    array at 2 and ORBIT_STEPS steps and as a 2-D block at 2, and an
    empty array: the verdicts are the reference orbits' cut at that
    step."""
    for case in reference_cases:
        pl, params = case.pl, case.params
        y0 = np.concatenate([case.batch, case.batch[::-1]])
        escaped, iteration = (np.concatenate([v, v[::-1]])
                              for v in case.orbit[:2])
        block = y0[:y0.size // 4 * 4].reshape(-1, 4)
        for q, max_iter in ((y0, 2), (block, 2), (y0, ORBIT_STEPS)):
            want = escaped[:q.size] & (iteration[:q.size] <= max_iter)
            steps = np.where(want, iteration[:q.size], max_iter)
            got = iterate_target(pl, params, q, max_iter)
            assert got.escaped.dtype == bool
            assert got.iteration.dtype == np.int64
            assert got.trajectory is None
            assert got.escaped.shape == got.iteration.shape == q.shape
            assert np.array_equal(got.escaped.ravel(), want), max_iter
            assert np.array_equal(got.iteration.ravel(), steps), max_iter
        got = iterate_target(pl, params, np.empty(0), 25)
        assert got.escaped.shape == got.iteration.shape == (0,)


def test_endpoint_orbits_merge_and_match_oracle(params3, model12, thirds12):
    # the level <= 8 endpoints of the dichotomy suite: 1022 lanes holding
    # 512 distinct values that halve every step
    ends = level_endpoints(thirds12, 8)
    pl = build_phi(model12, thirds12, 8)
    assert np.unique(ends).size == 512
    images = eval_fstar(pl, params3, np.unique(ends))
    assert np.unique(images).size == 256
    for max_iter in (5, 25, 200):
        got = assert_matches_oracle(pl, params3, ends, max_iter)
        assert not got.escaped.any()


def assert_matches_oracle(pl, params, y0, max_iter):
    escaped, iteration, _ = reference_iterate_target_array(pl, params, y0,
                                                           max_iter)
    got = iterate_target(pl, params, y0, max_iter)
    assert np.array_equal(got.escaped, escaped), max_iter
    assert np.array_equal(got.iteration, iteration), max_iter
    return got


def level_endpoints(target, depth):
    return np.concatenate([np.concatenate([target.level_a[n],
                                           target.level_b[n]])
                           for n in range(depth + 1)])


def test_early_exit_matches_oracle_at_one_and_200_steps(reference_cases):
    # the loop stops once its live states close under F*; a single step on
    # every case, and a long horizon on every seventh and on the depth-14
    # map, whose starts next to its table seams stay near knot orbits for
    # tens of steps, must still agree lane by lane
    for k, case in enumerate(reference_cases):
        assert_matches_oracle(case.pl, case.params, case.batch, 1)
        if k % 7 == 0 or case.pl.depth == 14:
            assert_matches_oracle(case.pl, case.params, case.batch, 200)


@pytest.mark.parametrize("c, spec", [(-4.0, AffineIFS2(0.3, 0.2)),
                                     (-2.4, FatCantor(0.3, 0.5))],
                         ids=["c-4-affine", "c-2.4-fat"])
def test_escaping_endpoints_escape_at_the_same_step(c, spec):
    # stored endpoints whose F* orbits leave the hull (the dichotomy FAILs
    # of these pairs): they escape before the survivors close, at the same
    # n as when every lane ran every step
    params = derive_params(c)
    target = build_target_system(spec, 8)
    pl = build_phi(build_model_system(params, 8), target, 8)
    ends = level_endpoints(target, 8)
    for max_iter in (25, 200):
        got = assert_matches_oracle(pl, params, ends, max_iter)
        assert got.escaped.any() and not got.escaped.all()


def count_fstar_steps(monkeypatch, limit=math.inf):
    """Count the engine's F* steps, failing fast past `limit`."""
    calls = []

    def counted(*args):
        calls.append(1)
        if len(calls) > limit:
            raise AssertionError(f"more than {limit} F* steps")
        return _fstar_step(*args)

    monkeypatch.setattr(orbit_engine, "_fstar_step", counted)
    return calls


def test_late_escape_delays_the_exit(monkeypatch, params3, model12,
                                     thirds12):
    # endpoints that close at once, beside a lane 1e-12 off a level-8
    # endpoint that escapes many steps later and a lane three F* steps
    # ahead of it on the same orbit.  Once the lane ahead has escaped, the
    # late lane only visits states the lane ahead passed through, so the
    # loop must not stop on "every image was live at some earlier step":
    # it may only stop once the late lane is gone
    pl = build_phi(model12, thirds12, 8)
    late = thirds12.level_a[8][5] + 1e-12
    ahead = eval_fstar(pl, params3, eval_fstar(
        pl, params3, eval_fstar(pl, params3, late)))
    y0 = np.append(level_endpoints(thirds12, 8), [late, ahead])
    calls = count_fstar_steps(monkeypatch)
    got = assert_matches_oracle(pl, params3, y0, 200)
    assert got.escaped.tolist() == [False] * (y0.size - 2) + [True, True]
    assert got.iteration[-2] == got.iteration[-1] + 3
    assert got.iteration[-2] < len(calls) < 200


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_knot_subsets_match_oracle(oracle_cases, data):
    pl, params, _ = data.draw(st.sampled_from(oracle_cases))
    knots = data.draw(st.lists(st.sampled_from(pl.ys.tolist()), min_size=1,
                               max_size=40))
    nudges = data.draw(st.lists(st.sampled_from(
        [0.0, 1e-15, -1e-15, 1e-12, -1e-12, 1e-9, -1e-9, 1e-6]),
        min_size=len(knots), max_size=len(knots)))
    ulps = data.draw(st.lists(st.integers(-2, 2), min_size=len(knots),
                              max_size=len(knots)))
    y0 = np.array(knots) + np.array(nudges)
    for k, u in enumerate(ulps):
        for _ in range(abs(u)):
            y0[k] = np.nextafter(y0[k], math.copysign(math.inf, u))
    assert_matches_oracle(pl, params, y0,
                          data.draw(st.integers(1, 40), label="max_iter"))


@pytest.mark.parametrize("c, most", [(-3.0, 2), (-2.5, 3)])
def test_dichotomy_endpoints_close_within_a_few_steps(monkeypatch, c, most):
    # the dichotomy suite's 1022 level <= 8 endpoints come back bounded
    # for a million steps after at most `most` evaluations of F*
    params = derive_params(c)
    target = build_target_system(middle_thirds(), 8)
    pl = build_phi(build_model_system(params, 8), target, 8)
    ends = level_endpoints(target, 8)
    assert ends.size == 1022
    calls = count_fstar_steps(monkeypatch, limit=most)
    got = iterate_target(pl, params, ends, 10**6)
    assert not got.escaped.any()
    assert (got.iteration == 10**6).all()
    assert calls


def test_scalar_iterate_matches_frozen_loop(reference_cases):
    """Scalar iterate_target from every start lane, 12 steps (past every
    gap midpoint's escape, level <= 8) keeping 8 states: the reference
    orbit's verdict, step and states, bit for bit; and, on every eighth
    lane, the same verdict without a trajectory."""
    for case in reference_cases:
        pl, params = case.pl, case.params
        m = case.starts.size
        escaped, iteration, states = case.orbit
        want = escaped[:m] & (iteration[:m] <= 12)
        steps = np.where(want, iteration[:m], 12)
        got = [iterate_target(pl, params, y, 12, keep_trajectory=8)
               for y in case.starts.tolist()]
        assert [r.escaped for r in got] == want.tolist()
        assert [r.iteration for r in got] == steps.tolist()
        for k, (r, n) in enumerate(zip(got, steps.tolist())):
            assert same_lanes(r.trajectory, states[:min(8, n + 1), k]), k
        for y, e, n in zip(case.starts[::8].tolist(), want[::8].tolist(),
                           steps[::8].tolist()):
            assert iterate_target(pl, params, y, 12) == OrbitResult(e, n)


def test_scalar_target_loop_enters_no_errstate(monkeypatch, phi12, params3):
    # the scalar loop squares only points within the escape radius, so its
    # F* steps need no np.errstate (a context costs about a microsecond);
    # eval_fstar, whose points may overflow, enters one per call
    entered = []
    errstate = np.errstate

    def counted(**kwargs):
        entered.append(kwargs)
        return errstate(**kwargs)

    monkeypatch.setattr(np, "errstate", counted)
    for y0 in (0.25, 0.4, 1 / 3):
        iterate_target(phi12, params3, y0, 50)
    assert entered == []
    assert eval_fstar(phi12, params3, 1e300) == math.inf
    assert len(entered) == 1


def test_drift_budget_documented():
    assert ORBIT_DRIFT_BUDGET == 1e-13


class TestCobweb:
    def test_frozen_trace(self):
        trace = cobweb_trace(lambda x: x * x + 0.5, 0.0, 5)
        assert len(trace) == 9  # 2*steps - 1 segments
        assert trace[0] == ((0.0, 0.5), (0.5, 0.5))
        ordinates = [seg[1][1] for seg in trace[0::2]]
        assert ordinates == [0.5, 0.75, 1.0625, 1.62890625, 3.1533355712890625]

    def test_alternates_horizontal_vertical(self, params3):
        # starts on the graph at (x0, f(x0)), walks to the diagonal, repeats
        trace = cobweb_trace(lambda x: x * x - 3.0, 0.1, 6)
        for k, ((x0, y0), (x1, y1)) in enumerate(trace):
            if k % 2 == 0:
                assert y0 == y1  # horizontal: to the diagonal
            else:
                assert x0 == x1  # vertical: to the graph
        segments = iter(trace)
        assert next(segments)[0] == (0.1, 0.1 * 0.1 - 3.0)

    def test_fixed_point_degenerates(self):
        trace = cobweb_trace(lambda x: x * x + 0.25, 0.5, 3)
        for seg in trace:
            assert seg == ((0.5, 0.5), (0.5, 0.5))

    def test_fstar_pins_at_one(self, phi12, params3):
        from cantordyn import eval_fstar

        trace = cobweb_trace(lambda y: eval_fstar(phi12, params3, y), 1.0, 3)
        for seg in trace:
            assert seg == ((1.0, 1.0), (1.0, 1.0))

    def test_steps_validation(self):
        with pytest.raises(DomainError):
            cobweb_trace(lambda x: x, 0.0, 0)

    @pytest.mark.parametrize("x0", [math.nan, math.inf, -math.inf])
    def test_nonfinite_start_rejected(self, x0):
        with pytest.raises(DomainError):
            cobweb_trace(lambda x: x * x + 0.5, x0, 3)


class TestClassifyGrid:
    def test_shape_and_determinism(self, params3):
        f = lambda x0, max_iter: iterate_model(params3, x0, max_iter)
        rows = classify_grid(f, -2.5, 2.5, 11, 100)
        assert len(rows) == 11
        assert rows[0][0] == -2.5 and rows[-1][0] == 2.5
        assert rows == classify_grid(f, -2.5, 2.5, 11, 100)

    def test_known_verdicts(self, params3):
        f = lambda x0, max_iter: iterate_model(params3, x0, max_iter)
        rows = dict(classify_grid(f, -2.5, 2.5, 11, 100))
        assert rows[-2.5].escaped and rows[-2.5].iteration == 0
        assert rows[0.0].escaped and rows[0.0].iteration == 1

    def test_validation(self, params3):
        f = lambda x0, max_iter: iterate_model(params3, x0, max_iter)
        with pytest.raises(DomainError):
            classify_grid(f, 0.0, 1.0, 1, 100)

    @staticmethod
    def per_point(classifier, lo, hi, n_points, max_iter):
        """classify_grid as it was when it called its classifier once per
        point, frozen as the reference for the batched call."""
        xs = np.linspace(float(lo), float(hi), int(n_points))
        return [(float(x), classifier(float(x), max_iter)) for x in xs]

    @pytest.mark.parametrize("c", [-3.0, -2.5, 0.25, 2.0])
    def test_equals_the_per_point_reference(self, c):
        f = lambda x0, max_iter: iterate_model(c, x0, max_iter)
        rows = classify_grid(f, -3.0, 3.0, 601, 80)
        assert rows == self.per_point(f, -3.0, 3.0, 601, 80)
        assert all(type(x) is float and type(r.escaped) is bool
                   and type(r.iteration) is int and r.trajectory is None
                   for x, r in rows)

    def test_target_classifier(self, phi12, params3):
        f = lambda y0, max_iter: iterate_target(phi12, params3, y0, max_iter)
        rows = classify_grid(f, -0.25, 1.25, 301, 60)
        assert rows == self.per_point(f, -0.25, 1.25, 301, 60)

    def test_classifier_called_once_on_the_grid(self, params3):
        calls = []

        def f(xs, max_iter):
            calls.append(xs.copy())
            return iterate_model(params3, xs, max_iter)

        classify_grid(f, -2.5, 2.5, 11, 100)
        assert len(calls) == 1
        assert np.array_equal(calls[0], np.linspace(-2.5, 2.5, 11))


def escape_loop(c_re, c_im, max_iter, bailout):
    """mandelbrot_escape's loop as it was before it stopped on a repeated
    state, frozen as its oracle (inputs already valid)."""
    b2 = float(bailout) * float(bailout)
    zr = zi = 0.0
    for n in range(1, max_iter + 1):
        zr, zi = zr * zr - zi * zi + c_re, 2.0 * zr * zi + c_im
        if zr * zr + zi * zi > b2:
            return n
    return None


def escape_probes():
    """Seeded c as (re, im) floats: the cardioid c = w/2 - w^2/4 and the
    period-2 disk c = -1 + w/4 for |w| well inside 1, within 1e-12 to 1e-2
    of 1 on either side, uniform over [-2.5, 1] x [-1.5, 1.5] and on the
    diagonals im = +-re, where z_2 has the real part of z_1; plus the
    fixed and period-2 points c = 0 and c = -1 and the cusps."""
    rng = np.random.default_rng(37)
    m = 150
    t = rng.uniform(0.0, 2.0 * math.pi, 3 * m)
    near = 10.0 ** rng.uniform(-12.0, -2.0, m)
    w = np.concatenate([rng.uniform(0.0, 0.95, m), 1.0 - near,
                        1.0 + near]) * np.exp(1j * t)
    d = rng.uniform(-1.5, 1.0, m)
    c = np.concatenate([w / 2 - w * w / 4, -1.0 + w / 4,
                        rng.uniform(-2.5, 1.0, m)
                        + 1j * rng.uniform(-1.5, 1.5, m), d + 1j * d,
                        d - 1j * d, [0.0, -1.0, 0.25, -0.75, -1.25, -2.0]])
    return list(zip(c.real.tolist(), c.imag.tolist()))


class TestMandelbrot:
    def test_interior_points(self):
        assert mandelbrot_escape(0.0, 0.0, 1000) is None
        assert mandelbrot_escape(-1.0, 0.0, 1000) is None

    def test_escape_counts(self):
        assert mandelbrot_escape(1.0, 0.0, 100) == 3
        assert mandelbrot_escape(2.5, 0.0, 100) == 1
        assert mandelbrot_escape(0.0, -2.25, 100) == 1

    def test_grid_matches_scalar(self):
        region = (-2.0, 1.0, -1.5, 1.5)
        w = h = 31
        grid = mandelbrot_grid(region, w, h, 50)
        assert grid.dtype == np.int32
        re_min, re_max, im_min, im_max = region
        for i in range(0, h, 5):
            for j in range(0, w, 5):
                cr = re_min + (j + 0.5) * (re_max - re_min) / w
                ci = im_max - (i + 0.5) * (im_max - im_min) / h
                n = mandelbrot_escape(cr, ci, 50)
                assert grid[i, j] == (-1 if n is None else n)

    def test_grid_interior_marked(self):
        grid = mandelbrot_grid((-0.5, 0.5, -0.5, 0.5), 1, 1, 500)
        assert grid.shape == (1, 1) and grid[0, 0] == -1

    def test_validation(self):
        with pytest.raises(DomainError):
            mandelbrot_escape(0.0, 0.0, 0)
        with pytest.raises(DomainError):
            mandelbrot_grid((-2, 1, -1, 1), 0, 10, 10)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(-10, 10), st.floats(-10, 10))
    def test_outside_radius_two_escapes_first_step(self, re, im):
        if re * re + im * im <= 4.000001:
            return
        assert mandelbrot_escape(re, im, 10) == 1


    @pytest.mark.parametrize("bailout", [2.0, 1.0, 0.5, 0.0])
    def test_escape_matches_frozen_loop(self, bailout):
        # stopping on a repeated state changes no answer: seeded c in the
        # cardioid, in the period-2 disk, near both edges and escaping
        for cr, ci in escape_probes():
            for max_iter in (1, 2, 3, 200):
                assert (mandelbrot_escape(cr, ci, max_iter, bailout)
                        == escape_loop(cr, ci, max_iter, bailout)), (cr, ci)

    def test_escape_stops_on_a_cycle(self):
        # c = 0 repeats its state at step 1 and c = -1 the state two steps
        # back at step 2; running 10^7 steps would take seconds
        start = time.perf_counter()
        assert mandelbrot_escape(0.0, 0.0, 10 ** 7) is None
        assert mandelbrot_escape(-1.0, 0.0, 10 ** 7) is None
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize("bailout", [2.0, 0.5])
    def test_escape_matches_grid_pixel_by_pixel(self, bailout):
        region = (-1.6, 0.5, -1.0, 1.0)
        w, h = 48, 40
        grid = mandelbrot_grid(region, w, h, 300, bailout)
        re_min, re_max, im_min, im_max = region
        for i in range(h):
            ci = im_max - (i + 0.5) * (im_max - im_min) / h
            for j in range(w):
                cr = re_min + (j + 0.5) * (re_max - re_min) / w
                n = mandelbrot_escape(cr, ci, 300, bailout)
                assert grid[i, j] == (-1 if n is None else n), (i, j)

    @pytest.mark.parametrize("call", [
        lambda: mandelbrot_grid((math.nan, 1, -1, 1), 3, 2, 10),
        lambda: mandelbrot_grid((-2, 1, -1, math.inf), 3, 2, 10),
        lambda: mandelbrot_grid((-2, 1, -math.inf, 1), 3, 2, 10),
        lambda: mandelbrot_grid((-2, 1, -1, 1), 3, 2, 10, bailout=math.nan),
        lambda: mandelbrot_grid((-2, 1, -1, 1), 3, 2, 10, bailout=math.inf),
        lambda: mandelbrot_grid((-2, 1, -1, 1), 3, 2, 10, bailout=1e200),
        lambda: mandelbrot_grid((-1e308, 1e308, -1, 1), 3, 2, 10),
        lambda: mandelbrot_grid((-2, 1, -1e308, 1e308), 3, 2, 10),
        lambda: mandelbrot_grid((0.0, 1.5e308, -1, 1), 2, 2, 10),
        lambda: mandelbrot_escape(math.nan, 0, 10),
        lambda: mandelbrot_escape(0, -math.inf, 10),
        lambda: mandelbrot_escape(0, 0, 10, bailout=math.nan),
        lambda: mandelbrot_escape(0, 0, 10, bailout=math.inf),
    ], ids=["region-nan", "region-inf", "region-minus-inf", "bailout-nan",
            "bailout-inf", "bailout-square-overflows", "re-span-overflows",
            "im-span-overflows", "centres-overflow", "c-nan", "c-inf",
            "escape-bailout-nan", "escape-bailout-inf"])
    def test_non_finite_input_refused(self, call):
        # a non-finite c or bailout makes every comparison false, which
        # would read as "inside"
        with pytest.raises(DomainError):
            call()


# The masked full-grid loop that mandelbrot_grid replaced, frozen verbatim
# (validation included) as the reference for its counts.
def reference_mandelbrot_grid(region, width, height, max_iter, bailout=2.0):
    width, height = int(width), int(height)
    if width < 1 or height < 1:
        raise DomainError(f"image dimensions must be >= 1, got {width}x{height}")
    max_iter = int(max_iter)
    if max_iter < 1:
        raise DomainError(f"max_iter must be >= 1, got {max_iter}")
    re_min, re_max, im_min, im_max = (float(v) for v in region)
    b2 = float(bailout) * float(bailout)
    re = re_min + (np.arange(width) + 0.5) * (re_max - re_min) / width
    im = im_max - (np.arange(height) + 0.5) * (im_max - im_min) / height
    cr = np.broadcast_to(re, (height, width)).copy()
    ci = np.broadcast_to(im[:, None], (height, width)).copy()
    out = np.full((height, width), -1, dtype=np.int32)
    zr = np.zeros_like(cr)
    zi = np.zeros_like(ci)
    alive = np.ones((height, width), dtype=bool)
    for n in range(1, max_iter + 1):
        zr_a, zi_a = zr[alive], zi[alive]
        cr_a, ci_a = cr[alive], ci[alive]
        nzr = zr_a * zr_a - zi_a * zi_a + cr_a
        nzi = 2.0 * zr_a * zi_a + ci_a
        zr[alive], zi[alive] = nzr, nzi
        esc = nzr * nzr + nzi * nzi > b2
        if np.any(esc):
            idx = np.flatnonzero(alive)[esc]
            out.flat[idx] = n
            alive.flat[idx] = False
        if not alive.any():
            break
    return out


GRID_REGIONS = {
    "plane": ((-2.5, 1.0, -1.75, 1.75), 2.0),
    "seahorse": ((-0.7512, -0.7412, 0.0951, 0.1051), 2.0),
    "all-escape": ((2.5, 4.0, 2.5, 4.0), 2.0),
    "flipped": ((1.0, -2.5, 1.75, -1.75), 2.0),
    "bailout-10": ((-2.0, 0.5, -1.25, 1.25), 10.0),
    "bailout-half": ((-2.0, 0.5, -1.25, 1.25), 0.5),
    # bailouts on both sides of b2 = 1, where the trapping-disk certificate
    # turns on
    "bailout-0.3": ((-2.0, 0.5, -1.25, 1.25), 0.3),
    "bailout-0.51": ((-2.0, 0.5, -1.25, 1.25), 0.51),
    "bailout-1": ((-2.0, 0.5, -1.25, 1.25), 1.0),
    "bailout-1e3": ((-2.0, 0.5, -1.25, 1.25), 1e3),
    # fixed points just past the bailout 0.3, which orbits approach from
    # inside it and pass only after about 14 steps: a certificate at b2 < 1
    # would call them inside
    "fixed-point-past-bailout": ((0.2095, 0.2105, -0.001, 0.001), 0.3),
    # inside the main cardioid, where most lanes are certified; the cusp at
    # 1/4, where the fixed point is neutral; the joint with the period-2
    # bulb at -3/4, where the fixed point turns from attracting to repelling
    "cardioid": ((-0.5, 0.2, -0.4, 0.4), 2.0),
    "cusp": ((0.24, 0.26, -0.01, 0.01), 2.0),
    "bulb-edge": ((-0.77, -0.73, -0.02, 0.02), 2.0),
}


@pytest.mark.parametrize("max_iter", [1, 50, 1000])
@pytest.mark.parametrize("size", [(1, 1), (2, 3), (1, 40), (40, 1),
                                  (17, 5), (31, 31), (97, 61)])
@pytest.mark.parametrize("region, bailout", GRID_REGIONS.values(),
                         ids=GRID_REGIONS.keys())
def test_grid_matches_reference(region, bailout, size, max_iter):
    width, height = size
    got = mandelbrot_grid(region, width, height, max_iter, bailout=bailout)
    want = reference_mandelbrot_grid(region, width, height, max_iter,
                                     bailout=bailout)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


@pytest.mark.parametrize("max_iter", [7, 8, 9, 16, 17])
@pytest.mark.parametrize("region, bailout", GRID_REGIONS.values(),
                         ids=GRID_REGIONS.keys())
def test_grid_matches_reference_around_checkpoints(region, bailout, max_iter):
    # the certificate runs every 8 steps: budgets that end just before, on
    # and just after a checkpoint
    got = mandelbrot_grid(region, 23, 19, max_iter, bailout=bailout)
    want = reference_mandelbrot_grid(region, 23, 19, max_iter, bailout=bailout)
    assert np.array_equal(got, want)


@settings(max_examples=40, deadline=None)
@given(st.floats(-0.9, 0.9), st.floats(-0.9, 0.9), st.floats(1e-6, 0.1),
       st.floats(1e-6, 0.1), st.integers(1, 400),
       st.sampled_from([1.0, 2.0, 1e3]))
def test_grid_inside_unit_disk_matches_reference(re0, im0, dre, dim, max_iter,
                                                 bailout):
    # regions inside |c| < 1, where the certificate retires lanes
    if math.hypot(abs(re0) + dre, abs(im0) + dim) >= 1.0:
        return
    region = (re0, re0 + dre, im0, im0 + dim)
    got = mandelbrot_grid(region, 9, 7, max_iter, bailout=bailout)
    assert np.array_equal(got, reference_mandelbrot_grid(region, 9, 7, max_iter,
                                                         bailout=bailout))


@pytest.mark.parametrize("band", [10, 50, 77])
@pytest.mark.parametrize("max_iter", [7, 8, 9, 16, 17, 300])
@pytest.mark.parametrize("region, bailout", GRID_REGIONS.values(),
                         ids=GRID_REGIONS.keys())
def test_grid_in_bands_matches_reference(monkeypatch, region, bailout,
                                         max_iter, band):
    # bands of a few pixels split the 23 x 19 grid at odd places: a band of
    # 10 is narrower than a row (one row a band), 50 holds two rows and 77
    # three, the last band one; budgets end around the 8-step checkpoint
    monkeypatch.setattr(orbit_engine, "_BAND", band)
    got = mandelbrot_grid(region, 23, 19, max_iter, bailout=bailout)
    want = reference_mandelbrot_grid(region, 23, 19, max_iter, bailout=bailout)
    assert got.dtype == want.dtype and np.array_equal(got, want)


def test_band_size():
    # the certificate test's 160 x 160 grid is one band; the benchmark's
    # 400 x 400 render spans several
    assert 160 * 160 <= orbit_engine._BAND < 400 * 400 // 2


def test_grid_memory_grows_by_its_counts():
    # memory guard, in bytes numpy reports to tracemalloc: a 400 x 1600
    # grid peaks at most 8 bytes a pixel above a 400 x 400 one.  The int32
    # counts take 4; the bands' arrays are the same size for both.  The
    # loop over the whole grid at once grew by 62 bytes a pixel.
    region = (-2.0, 0.5, -1.25, 1.25)

    def peak(height):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            mandelbrot_grid(region, 400, height, 64)
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    assert peak(1600) - peak(400) <= 8 * 400 * 1200


def test_certificate_retires_lanes_inside(monkeypatch):
    """On the benchmark region the certificate retires lanes as inside: the
    lanes it tests at its last checkpoint are fewer than the inside pixels,
    which without it would all stay live to the end."""
    sizes = []

    def trapped(wr, *rest):
        sizes.append(wr.size)
        return orbit_engine_trapped(wr, *rest)

    orbit_engine_trapped = orbit_engine._trapped
    monkeypatch.setattr(orbit_engine, "_trapped", trapped)
    region = (-2.0, 0.5, -1.25, 1.25)
    grid = mandelbrot_grid(region, 160, 160, 256)
    assert np.array_equal(grid, reference_mandelbrot_grid(region, 160, 160, 256))
    assert len(sizes) == 256 // 8
    assert sizes[-1] < (grid == -1).sum() // 2


def test_certificate_off_below_bailout_one(monkeypatch):
    def refuse(*args):
        raise AssertionError("certificate ran with b2 < 1")

    monkeypatch.setattr(orbit_engine, "_trapped", refuse)
    for bailout in (0.0, 0.5, 0.9999999999999999):
        mandelbrot_grid((-0.5, 0.2, -0.4, 0.4), 9, 9, 64, bailout=bailout)


def _certified_exactly(wr, wi, zr, zi):
    """The certificate's real condition in exact rationals: s > 0 and
    |z - w| <= s^2/16 - 2E with s = 1 - 4|w|^2."""
    wr, wi, zr, zi = map(Fraction, (wr, wi, zr, zi))
    s = 1 - 4 * (wr * wr + wi * wi)
    r = s * s / 16 - 2 * Fraction(orbit_engine._STEP_ERROR)
    return s > 0 and r >= 0 and (zr - wr) ** 2 + (zi - wi) ** 2 <= r * r


def test_certificate_boundary_at_the_origin():
    # at w = 0 every rounding of the test is exact (s = 1), so it passes
    # exactly up to |z| = 1/16 - 2E - M
    edge = 1 / 16 - 2 * orbit_engine._STEP_ERROR - orbit_engine._TRAP_MARGIN
    zero = np.zeros(1)
    for x, want in ((edge, True), (np.nextafter(edge, 1.0), False),
                    (1 / 16 - 2.0 ** -53, False), (1 / 16, False)):
        got = orbit_engine._trapped(zero, zero, np.array([x]), zero)
        assert got.tolist() == [want], x
        if want:
            assert _certified_exactly(0.0, 0.0, x, 0.0)


@settings(max_examples=300, deadline=None)
@given(st.floats(0.0, 0.4999), st.floats(0.0, 2 * math.pi),
       st.floats(0.0, 2 * math.pi), st.integers(-64, 64))
def test_certificate_implies_the_real_condition(radius, arg, direction, ulps):
    """Steps just either side of the test's edge: whatever it certifies
    satisfies the real condition, checked in rationals."""
    wr, wi = radius * math.cos(arg), radius * math.sin(arg)
    s = 1.0 - 4.0 * (wr * wr + wi * wi)
    d = s * s / 16 - 2 * orbit_engine._STEP_ERROR
    d *= 1.0 + ulps * 2.0 ** -52
    zr, zi = wr + d * math.cos(direction), wi + d * math.sin(direction)
    if orbit_engine._trapped(*(np.array([v]) for v in (wr, wi, zr, zi)))[0]:
        assert _certified_exactly(wr, wi, zr, zi)


def test_grid_escape_test_is_strict():
    # pixel centres c = -2, -1, 0, 1, 2 exactly; c = 2 and c = -2 reach
    # |z|^2 = 4, which is not past the bailout
    region = (-2.5, 2.5, -0.5, 0.5)
    grid = mandelbrot_grid(region, 5, 1, 50)
    assert grid.tolist() == [[-1, -1, -1, 3, 2]]
    assert np.array_equal(grid, reference_mandelbrot_grid(region, 5, 1, 50))


def test_all_escape_region_has_no_inside():
    grid = mandelbrot_grid(GRID_REGIONS["all-escape"][0], 9, 7, 1000)
    assert (grid == 1).all()


def test_benchmark_region_matches_reference():
    # the benchmark's render: pixels escape on most of the 256 steps, so the
    # lanes are compacted many times along the way
    region = (-2.0, 0.5, -1.25, 1.25)
    got = mandelbrot_grid(region, 160, 160, 256)
    assert np.array_equal(got, reference_mandelbrot_grid(region, 160, 160, 256))


def test_bailout_zero_keeps_c_zero_inside():
    # pixel centres at the integers -4..4 on both axes: with bailout 0 every
    # c != 0 escapes at step 1, and c = 0 stays at z = 0, the fixed point
    # that escaped lanes are retired to
    region = (-4.5, 4.5, -4.5, 4.5)
    grid = mandelbrot_grid(region, 9, 9, 300, bailout=0.0)
    want = np.ones((9, 9), dtype=np.int32)
    want[4, 4] = -1
    assert np.array_equal(grid, want)
    assert np.array_equal(grid, reference_mandelbrot_grid(region, 9, 9, 300,
                                                          bailout=0.0))


def test_escape_image_is_the_reference_grid(tmp_path):
    region, width, height, max_iter = (-2.0, 0.5, -1.25, 1.25), 48, 40, 256
    counts = reference_mandelbrot_grid(region, width, height, max_iter)
    pixels = bytes(v for n in counts.flat
                   for v in (PALETTE[(n - 1) % 16] if n > 0 else (0, 0, 0)))
    path = tmp_path / "m.ppm"
    export_escape_image(region, width, height, max_iter, path)
    assert path.read_bytes() == (f"P6\n{width} {height}\n255\n".encode("ascii")
                                 + pixels)


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=-2.302775637731995, max_value=2.302775637731995))
def test_dichotomy_is_total(phi12, params3, x0):
    """Every plain-double orbit either escapes or runs out the budget."""
    result = iterate_model(params3, x0, 50)
    assert result.escaped or result.iteration == 50
    if result.escaped:
        assert 0 <= result.iteration <= 50
