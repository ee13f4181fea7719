"""The `verify` suites report the first violation a point-by-point scan
would meet, though they evaluate and iterate whole arrays at once, and a
run that builds its systems once reports what rebuilding per suite did."""

import numpy as np
import pytest

from cantordyn import (
    AffineIFS2,
    CantorDynError,
    ExplicitGapTree,
    FatCantor,
    IntervalSystem,
    MiddleAlpha,
    MonotonePLMap,
    build_model_system,
    build_phi,
    build_target_system,
    conjugacy,
    derive_params,
    iterate_target,
    middle_thirds,
    model_cantor,
    quadratic_map,
    verification,
)
from cantordyn.errors import NoRealFixedPoint
from cantordyn.target_cantor import _descent_limit, membership
from cantordyn.verification import (
    CheckResult,
    _structure_errors,
    _suite_conjugacy_map,
    _suite_conjugacy_spot_values,
    _suite_dichotomy,
    _suite_endpoint_orbits,
    _suite_escape_gap,
    _suite_fixed_points,
    _suite_mandelbrot,
    _suite_target_construction,
    run_verification,
)


# run_verification as it was when each construction suite rebuilt its own
# system from (params | spec, depth), frozen as the oracle of the build-once
# run: the three rebuilding suites and run_verification itself are kept,
# with each suite's scan split out so a test can hand it a system; the
# suites that always took the built systems are shared.

def endpoint_orbits_loop(system, params):
    """The rebuilding endpoint-orbits suite's scalar scan of `system`."""
    worst = 0.0
    depth = system.depth
    for n in range(min(depth, 10) + 1):
        for x in np.concatenate([system.level_a[n], system.level_b[n]]):
            y = float(x)
            for _ in range(n):
                y = quadratic_map.eval_map(params, y)
            err = min(abs(y - params.p), abs(y + params.p))
            worst = max(worst, err)
            if err > 1e-6:
                return False, (
                    f"level-{n} endpoint {float(x)!r}: F^{n} lands {err!r} "
                    f"from +-p"
                )
    return True, f"level <= {min(depth, 10)} endpoints reach +-p within {worst:.3e}"


def rebuilt_model_structure(params, depth):
    system = model_cantor.build_model_system(params, depth)
    bound = lambda n: 2.0 * params.p * params.lambda_ ** (-n) * (1.0 + 1e-9)
    err = _structure_errors(system, bound)
    if err:
        return False, err
    top = model_cantor.max_segment_length(system, depth)
    return True, (
        f"depth {depth}: {1 << depth} segments nested, "
        f"max level-{depth} length {top!r}"
    )


def rebuilt_endpoint_orbits(params, depth):
    return endpoint_orbits_loop(
        model_cantor.build_model_system(params, depth), params)


def target_construction_loop(system, spec, depth):
    """The rebuilding target-construction suite's checks of `system`, with
    its own (2/3)^n loop and that loop's failure detail."""
    err = _structure_errors(system, lambda n: np.inf)
    if err:
        return False, err
    a, b = system.hull
    width = b - a
    for n in range(depth + 1):
        top = float(np.max(system.level_b[n] - system.level_a[n]))
        if top > width * (2.0 / 3.0) ** n * (1.0 + 1e-9):
            return False, f"level {n}: length {top!r} above (2/3)^n certificate"
    probe = min(depth, 6)
    for x in system.level_a[probe]:
        if not membership(spec, float(x), max(depth, 1)):
            return False, f"stored endpoint {float(x)!r} rejected by membership"
    limit = _descent_limit(spec)
    for n in range(1, min(depth, 4) + 1):
        for gc, gd in zip(system.gap_c[n], system.gap_d[n]):
            mid = 0.5 * (float(gc) + float(gd))
            if membership(spec, mid, limit):
                return False, f"gap midpoint {mid!r} accepted by membership"
    return True, f"depth {depth}: strict refinement consistent with membership"


def rebuilt_target_construction(spec, depth):
    system = build_target_system(spec, depth, mode="strict")
    return target_construction_loop(system, spec, depth)


def rebuilt_run_verification(c=-3.0, depth=10, spec=None):
    if spec is None:
        spec = middle_thirds()
    results = []

    def run(name, fn, *args):
        try:
            ok, detail = fn(*args)
        except Exception as exc:
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CheckResult(name, ok, detail))
        return ok

    run("fixed-points", _suite_fixed_points, c)
    run("escape-gap", _suite_escape_gap, c)
    try:
        params = quadratic_map.derive_params(c)
        certified = params.lambda_ > 1.0
    except NoRealFixedPoint:
        params, certified = None, False
    if not certified:
        results.append(CheckResult(
            "model-structure", False,
            f"c={c!r} is not a certified expanding parameter"))
        return results

    run("model-structure", rebuilt_model_structure, params, depth)
    run("endpoint-orbits", rebuilt_endpoint_orbits, params, depth)
    run("target-construction", rebuilt_target_construction, spec, depth)

    model = model_cantor.build_model_system(params, depth)
    target = build_target_system(spec, depth, mode="strict")
    pl = conjugacy.build_phi(model, target, depth)
    run("conjugacy-map", _suite_conjugacy_map, pl, model, target)
    run("conjugacy-spot-values", _suite_conjugacy_spot_values, pl, params,
        target)
    run("dichotomy", _suite_dichotomy, pl, params, target)
    run("mandelbrot", _suite_mandelbrot)
    return results


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
    target = build_target_system(AffineIFS2(r1, r2), depth, mode="strict")
    ok, detail = _suite_target_construction(target)
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


SWEEP_SPECS = {
    "middle-thirds": middle_thirds(),
    "affine:0.3,0.2": AffineIFS2(0.3, 0.2),
    "middle-alpha:0.5": MiddleAlpha(0.5),
    "fat:0.3,0.5": FatCantor(0.3, 0.5),
    "affine:0.8,0.1": AffineIFS2(0.8, 0.1),
}


@pytest.mark.parametrize("c", [-3.0, -2.5, -4.0, -2.4, -10.0])
def test_build_once_matches_rebuilding_run(c):
    # every family and depth of the sweep, the known failing dichotomy
    # pairs (c = -2.4 with fat, c = -4 with affine:0.3,0.2) included
    failed = []
    for name, spec in SWEEP_SPECS.items():
        for depth in (0, 1, 2, 8):
            got = run_verification(c, depth, spec)
            assert got == rebuilt_run_verification(c, depth, spec), (name, depth)
            failed += [(name, depth, r.name) for r in got if not r.ok]
    known = {-2.4: "fat:0.3,0.5", -4.0: "affine:0.3,0.2"}
    want = [(known[c], d, "dichotomy") for d in (2, 8)] if c in known else []
    assert failed == want


@pytest.mark.parametrize("c", [-2.05, 1.0])
def test_build_once_matches_rebuilding_run_outside_regime(c):
    # uncertified and fixed-point-free c skip every build
    assert run_verification(c, 3) == rebuilt_run_verification(c, 3)


@pytest.mark.parametrize("spec, depth", [
    (middle_thirds(), 49),  # the model build refuses the depth
    (ExplicitGapTree((0.0, 1.0), (((0.4, 0.6),),)), 3),  # no level-2 data
])
def test_build_error_propagates_as_before(spec, depth):
    with pytest.raises(CantorDynError) as got:
        run_verification(-3.0, depth, spec)
    with pytest.raises(CantorDynError) as want:
        rebuilt_run_verification(-3.0, depth, spec)
    assert (type(got.value), str(got.value)) == (type(want.value),
                                                 str(want.value))


def test_run_builds_each_system_once(monkeypatch):
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(model_cantor, "build_model_system",
                        counted("model", model_cantor.build_model_system))
    monkeypatch.setattr(verification, "build_target_system",
                        counted("target", verification.build_target_system))
    monkeypatch.setattr(conjugacy, "build_phi",
                        counted("phi", conjugacy.build_phi))
    assert all(r.ok for r in run_verification(-3.0, 6))
    assert calls == ["model", "target", "phi"]


@pytest.mark.parametrize("c", [-3.0, -3.0 - 1e-12, -3.0 - 1e-9, -3.0 + 1e-8,
                               -3.01, -4.0, -1e6])
def test_endpoint_orbits_reports_first_violation(c):
    # the endpoints of c = -3 checked against another c's map: the first
    # violation and the reported worst miss are those of the scalar scan
    model = build_model_system(derive_params(-3.0), 10)
    params = derive_params(c)
    bent = IntervalSystem(model.a_N, model.b_N, model.a_lo_N, model.b_lo_N,
                          params=params)
    got = _suite_endpoint_orbits(bent)
    assert got == endpoint_orbits_loop(model, params)
    assert got[0] == (c == -3.0)


@pytest.mark.parametrize("side, n, i, delta, fails_at", [
    ("a", 3, 5, 1e-7, 3), ("b", 4, 8, 1e-10, 8), ("a", 9, 301, 1e-9, 9),
    ("b", 10, 700, 1e-9, 10), ("b", 10, 700, 1e-11, None),
])
def test_endpoint_orbits_reports_perturbed_endpoint(side, n, i, delta,
                                                     fails_at):
    # one endpoint first stored at level n moved off the set: its orbit
    # misses +-p at that level or, by less, at a deeper one where it is
    # iterated longer; the scan meets it after every earlier lane
    model = build_model_system(derive_params(-3.0), 10)
    a, b = model.a_N.copy(), model.b_N.copy()
    if side == "a":
        ends, k = a, i << (10 - n)
    else:
        ends, k = b, ((i + 1) << (10 - n)) - 1
    ends[k] += delta
    bent = IntervalSystem(a, b, model.a_lo_N, model.b_lo_N,
                          params=model.params)
    got = _suite_endpoint_orbits(bent)
    assert got == endpoint_orbits_loop(bent, model.params)
    assert got[0] == (fails_at is None)
    if fails_at is not None:
        assert got[1].startswith(
            f"level-{fails_at} endpoint {float(ends[k])!r}:")


def test_target_construction_certificate_detail():
    # a natural lopsided affine target breaks the (2/3)^n certificate at
    # level 1; the detail is the shared max-length one, and only the
    # detail differs from the suite's former loop
    target = build_target_system(AffineIFS2(0.8, 0.1), 2, mode="natural")
    ok, detail = _suite_target_construction(target)
    bound = 1.0 * (2.0 / 3.0) * (1.0 + 1e-9)
    assert not ok
    assert detail == (f"level 1: max length {0.8!r} exceeds bound "
                      f"{bound!r}")
    assert target_construction_loop(target, target.spec, 2) == (
        False, f"level 1: length {0.8!r} above (2/3)^n certificate")
