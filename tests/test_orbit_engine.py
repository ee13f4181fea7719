"""Orbit classification, cobweb traces, and the escape-time demo.

The bounded/divergent dichotomy is checked through the F* engine, which
carries orbits in double-double and snaps sub-drift-budget deviations; the
plain-double engine demonstrates why: even the fixed point p itself, rounded
to binary64, escapes after a handful of steps once the local slope 2p ~ 4.6
amplifies the half-ulp rounding error past the drift budget.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cantordyn import (
    DomainError,
    ORBIT_DRIFT_BUDGET,
    classify_grid,
    cobweb_trace,
    iterate_model,
    iterate_target,
    mandelbrot_escape,
    mandelbrot_grid,
)


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

    @pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf, -1e308])
    def test_bad_bare_c_rejected(self, c):
        # formerly "bounded" for every start: the radius came out nan
        with pytest.raises(DomainError):
            iterate_model(c, 0.0, 100)
        with pytest.raises(DomainError):
            classify_grid(lambda x0, n: iterate_model(c, x0, n), 0.0, 1.0,
                          2, 100)


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
    """An ndarray y0 gives, lane by lane, the scalar call's verdict."""

    def starts(self, thirds12):
        mids = np.concatenate([0.5 * (thirds12.gap_c[n] + thirds12.gap_d[n])
                               for n in range(1, 6)])
        ends = np.concatenate([np.concatenate([thirds12.level_a[n],
                                               thirds12.level_b[n]])
                               for n in range(6)])
        outside = np.array([-3.0, -0.5, -1e-9, 1.0 + 1e-9, 1.5, 2.0])
        return np.concatenate([mids, ends, outside])

    def test_lanes_match_scalar(self, phi12, params3, thirds12):
        y0 = self.starts(thirds12)
        for max_iter in (1, 3, 25, 200):
            res = iterate_target(phi12, params3, y0, max_iter)
            assert res.escaped.dtype == bool
            assert res.iteration.dtype == np.int64
            assert res.trajectory is None
            for k, y in enumerate(y0):
                ref = iterate_target(phi12, params3, float(y), max_iter)
                assert (bool(res.escaped[k]), int(res.iteration[k])) == \
                    (ref.escaped, ref.iteration), (y, max_iter)

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


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=-2.302775637731995, max_value=2.302775637731995))
def test_dichotomy_is_total(phi12, params3, x0):
    """Every plain-double orbit either escapes or runs out the budget."""
    result = iterate_model(params3, x0, 50)
    assert result.escaped or result.iteration == 50
    if result.escaped:
        assert 0 <= result.iteration <= 50
