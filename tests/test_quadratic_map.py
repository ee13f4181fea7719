"""Fixed points, the escape gap A0, and the expansion bound.

Frozen constants below were derived independently: fixed points by 300-step
bisection of x^2 - x + c and cross-checked against 60-digit Decimal
evaluation of (1 + sqrt(1-4c))/2 started from the exact binary64 value of c.
All library values matched the correctly rounded Decimal results.
"""

import math

import pytest
from hypothesis import given, strategies as st

from cantordyn import (
    DomainError,
    NoRealFixedPoint,
    derive_params,
    eval_map,
    expansion_bound,
    fixed_points,
    gap_A0,
)


def bisect_root(f, lo, hi, iterations=200):
    """Sign-change bisection; the test oracle for fixed points."""
    flo = f(lo)
    for _ in range(iterations):
        mid = (lo + hi) / 2
        if mid in (lo, hi):
            break
        fm = f(mid)
        if (fm < 0) == (flo < 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return (lo + hi) / 2


# (c, p, s, lambda); s = lambda = 0 marks an empty gap
FROZEN = [
    (-3.0, 2.302775637731995, 0.8349996181244668, 1.6699992362489335),
    (-2.05, 2.0165750888103102, 0.1828248101043449, 0.3656496202086898),
    (-9.0, 3.5413812651491097, 2.336368706957635, 4.67273741391527),
    (-1.0, 1.618033988749895, 0.0, 0.0),
]


@pytest.mark.parametrize("c,p,s,lam", FROZEN)
def test_derived_params_frozen(c, p, s, lam):
    params = derive_params(c)
    assert params.p == p
    assert params.s == s
    assert params.lambda_ == lam
    assert params.escape_radius == p


@pytest.mark.parametrize("c", [-3.0, -2.05, -9.0, -1.0, -0.5, 0.25])
def test_fixed_points_against_bisection(c):
    q, p = fixed_points(c)
    assert q <= p
    if c == 0.25:
        assert (q, p) == (0.5, 0.5)
        return
    f = lambda x: x * x - x + c
    assert abs(p - bisect_root(f, 0.5, 10.0)) <= 1e-10
    assert abs(q - bisect_root(f, -10.0, 0.5)) <= 1e-10


def test_fixed_point_residuals():
    for c, p, _, _ in FROZEN:
        assert abs(p * p + c - p) <= 1e-12 * max(1.0, p * p)


def test_golden_ratio_pair():
    # c = -1: the roots are -1/phi and phi
    q, p = fixed_points(-1.0)
    assert p == 1.618033988749895
    assert q == -0.6180339887498949


def test_no_real_fixed_point_above_quarter():
    with pytest.raises(NoRealFixedPoint):
        fixed_points(0.26)
    with pytest.raises(NoRealFixedPoint):
        derive_params(0.5)


@pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
def test_non_finite_c_rejected(c):
    for fn in (derive_params, fixed_points):
        with pytest.raises(DomainError, match="c must be finite"):
            fn(c)


@pytest.mark.parametrize("c", [-1e308, -4.5e307, -1e301, -1.4e300])
def test_overflowing_p_rejected(c):
    # 1 - 4c overflows the double-double arithmetic: p would be nan
    for fn in (derive_params, fixed_points):
        with pytest.raises(DomainError, match="p overflows"):
            fn(c)


def test_largest_finite_p():
    params = derive_params(-1.3e300)
    assert math.isfinite(params.p) and math.isfinite(params.p_lo)
    assert params.p == pytest.approx(math.sqrt(1.3e300), rel=1e-15)


def test_gap_frozen_and_empty():
    params = derive_params(-3.0)
    assert gap_A0(params) == (-0.8349996181244668, 0.8349996181244668)
    assert gap_A0(derive_params(-2.0)) is None
    assert gap_A0(derive_params(-1.0)) is None


def test_expansion_certificate():
    lam, certified = expansion_bound(derive_params(-3.0))
    assert certified and lam == 1.6699992362489335
    lam, certified = expansion_bound(derive_params(-2.05))
    assert not certified and lam == 0.3656496202086898


def test_eval_map():
    params = derive_params(-3.0)
    assert eval_map(params, 2.0) == 1.0
    assert eval_map(params, 0.0) == -3.0


def test_q_equals_c_over_p():
    # the smaller root in its cancellation-free form
    q, p = fixed_points(-3.0)
    assert q == -1.3027756377319946
    assert abs(q - (-3.0) / p) <= 1e-15


@given(st.floats(min_value=-50.0, max_value=0.25))
def test_params_invariants(c):
    params = derive_params(c)
    p = params.p
    assert abs(p * p + c - p) <= 1e-12 * max(1.0, p * p)
    assert params.lambda_ == 2.0 * params.s
    assert params.escape_radius == p
    if c < -2.0:
        # s^2 = -p - c up to the dd rounding of s
        assert params.s > 0.0
        assert abs(params.s**2 + p + c) <= 1e-13 * max(1.0, abs(p + c))
    else:
        assert params.s == 0.0


@given(st.floats(min_value=-50.0, max_value=0.25), st.floats(-10, 10))
def test_gap_really_escapes(c, t):
    """Points of A0 leave [-p, p] in one step: F(x) < -p inside the gap."""
    params = derive_params(c)
    gap = gap_A0(params)
    if gap is None:
        return
    x = gap[0] + (gap[1] - gap[0]) * (0.25 + 0.5 * (t % 1.0))
    # interior sample; allow the one-ulp fuzz of the gap endpoints themselves
    if gap[0] < x < gap[1]:
        assert eval_map(params, x) < -params.p * (1 - 1e-12)


def test_bad_interval_rejected():
    from cantordyn import preimage_interval

    params = derive_params(-3.0)
    with pytest.raises(DomainError):
        preimage_interval(params, (1.0, 0.0))
    with pytest.raises(DomainError):
        preimage_interval(params, (-5.0, 0.0))
