"""The `verify` suites report the first violation a point-by-point scan
would meet, though they evaluate and iterate whole arrays at once."""

import numpy as np
import pytest

from cantordyn import (
    AffineIFS2,
    MonotonePLMap,
    build_model_system,
    build_phi,
    build_target_system,
    derive_params,
    iterate_target,
    middle_thirds,
)
from cantordyn.verification import (
    _suite_conjugacy_map,
    _suite_dichotomy,
    _suite_target_construction,
    run_verification,
)


def dichotomy_loop(pl, params, target):
    """_suite_dichotomy as a per-point loop: the reference scan order."""
    for n in range(1, min(target.depth, 5) + 1):
        for gc, gd in zip(target.gap_c[n], target.gap_d[n]):
            mid = 0.5 * (float(gc) + float(gd))
            if not iterate_target(pl, params, mid, 200).escaped:
                return False, f"gap midpoint {mid!r} failed to escape in 200"
    for n in range(min(target.depth, 8) + 1):
        for y in np.concatenate([target.level_a[n], target.level_b[n]]):
            res = iterate_target(pl, params, float(y), 25)
            if res.escaped:
                return False, (
                    f"level-{n} endpoint {float(y)!r} escaped at "
                    f"iteration {res.iteration}"
                )
    return True, (
        "gap midpoints (levels <= 5) escape within 200 iterations, "
        "endpoints (levels <= 8) stay bounded for 25"
    )


def build(c, depth):
    params = derive_params(c)
    model = build_model_system(params, depth)
    target = build_target_system(middle_thirds(), depth)
    return params, model, target, build_phi(model, target, depth)


def test_dichotomy_reports_first_violation():
    _, _, target, pl = build(-3.0, 6)
    # a phi paired with the wrong quadratic map breaks the dichotomy:
    # endpoints escape under c = -4 and -3.01, midpoints stay under c = -1
    for c in (-3.0, -4.0, -3.01, -1.0):
        params = derive_params(c)
        got = _suite_dichotomy(pl, params, target)
        assert got == dichotomy_loop(pl, params, target), c
        assert got[0] == (c == -3.0)


def test_conjugacy_map_reports_perturbed_knot():
    _, model, target, pl = build(-3.0, 6)
    assert _suite_conjugacy_map(pl, model, target)[0]
    # level_a[2][1] first appears at level 2; bump its image by one ulp
    x = float(model.level_a[2][1])
    k = int(np.searchsorted(pl.xs, x))
    ys = pl.ys.copy()
    y = float(ys[k])
    ys[k] = np.nextafter(y, np.inf)
    bent = MonotonePLMap(xs=pl.xs, ys=ys, err_bound=pl.err_bound,
                         depth=pl.depth, xs_lo=pl.xs_lo, ys_lo=pl.ys_lo)
    ok, detail = _suite_conjugacy_map(bent, model, target)
    assert not ok
    assert detail == f"knot not exact: phi({x!r}) = {float(ys[k])!r} != {y!r}"


def test_depth0_passes():
    # no gaps at depth 0: membership runs one level deep, spot values skip
    # the first gap edge
    results = run_verification(-3.0, 0)
    assert [r.name for r in results if not r.ok] == []
    spot = {r.name: r.detail for r in results}["conjugacy-spot-values"]
    assert spot.endswith("(no gaps)")


@pytest.mark.parametrize("depth", [1, 2, 8, 10])
@pytest.mark.parametrize("r1, r2", [(0.8, 0.1), (0.1, 0.8)])
def test_lopsided_affine_target_construction(r1, r2, depth):
    # strict gaps of lopsided affine specs are natural gaps deeper than
    # level `depth`, so membership stopped at that level accepts their
    # midpoints
    ok, detail = _suite_target_construction(AffineIFS2(r1, r2), depth)
    assert ok, detail
    assert all(r.ok for r in run_verification(-3.0, depth, AffineIFS2(r1, r2)))


@pytest.mark.parametrize("r1, r2", [(0.05, 0.9), (0.9, 0.05), (0.01, 0.97),
                                    (0.01, 0.985)])
def test_deep_strict_gaps_verify(r1, r2):
    # strict gaps deep in the natural tree: for 0.01, 0.985 the level-3 and
    # level-4 ones lie at levels 84 and 112, so the gap midpoint check must
    # descend to the derived limit to reject them
    results = run_verification(-3.0, 8, AffineIFS2(r1, r2))
    assert [r.name for r in results if not r.ok] == []
    assert len(results) == 9
