"""The `verify` suites report the first violation a point-by-point scan
would meet, though their large checks evaluate and iterate whole arrays
at once, and a run that builds its systems once reports what rebuilding
per suite did."""

import re
import tracemalloc

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
from cantordyn.cli import main
from cantordyn.errors import NoRealFixedPoint
from cantordyn.target_cantor import TargetSystem, _descent_limit, membership
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

def float_endpoint_scan(system, params):
    """The float64 endpoint check that the address-shift suite replaced:
    F^n of each level-n endpoint (n <= 10) within 1e-6 of +-p, scanned
    point by point.  Kept to show which perturbations it let through."""
    for n in range(min(system.depth, 10) + 1):
        for x in np.concatenate([system.level_a[n], system.level_b[n]]):
            y = float(x)
            for _ in range(n):
                y = quadratic_map.eval_map(params, y)
            if min(abs(y - params.p), abs(y + params.p)) > 1e-6:
                return n
    return None


def first_knot_off_its_image(system, images, mp_images):
    """Index of the first knot, in knot order, whose 50-digit F_c(knot)
    (mp_images) does not round to the knot `images` names, or None."""
    _, value = mp_images(system)
    bad = value != system.knots[images]
    return int(np.argmax(bad)) if bad.any() else None


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
    return _suite_endpoint_orbits(
        model_cantor.build_model_system(params, depth))


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
            res = iterate_target(pl, params, mid, 5)
            if not (res.escaped and res.iteration == n):
                verdict = "escaped_at" if res.escaped else "bounded"
                return False, (f"level-{n} gap midpoint {mid!r}: {verdict} "
                               f"{res.iteration}")
    for n in range(min(target.depth, 8) + 1):
        for y in np.concatenate([target.level_a[n], target.level_b[n]]):
            res = iterate_target(pl, params, float(y), 25)
            if res.escaped:
                return False, (
                    f"level-{n} endpoint {float(y)!r} escaped at "
                    f"iteration {res.iteration}"
                )
    return True, (
        "gap midpoints (levels <= 5) escape at their level, "
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
    # a level-3 midpoint leaves a step early under c = -4, and the level-1
    # midpoint never leaves under c = -1
    assert _suite_dichotomy(pl, derive_params(-4.0), target)[1] == (
        "level-3 gap midpoint 0.05555555555555555: escaped_at 2")
    assert _suite_dichotomy(pl, derive_params(-1.0), target)[1] == (
        "level-1 gap midpoint 0.5: bounded 5")


def verify_fail_lines(capsys, argv):
    """The FAIL lines `cantordyn verify` prints for argv (exit code 2)."""
    assert main(["verify", *argv]) == 2
    return [line for line in capsys.readouterr().out.splitlines()
            if line.startswith("FAIL")]


# The rerouted checks (the dichotomy's gap midpoints through scalar
# iterate_target, target-construction's through scalar membership) print
# the first violation of a scan level by level, left to right, midpoints
# before endpoints: each expected line is the one the array checks printed.

def test_verify_reports_a_bounded_level3_midpoint(monkeypatch, capsys):
    # the left end of the third level-3 gap moved onto its midpoint: that
    # midpoint is then a knot, and its orbit runs on knots
    build_phi = conjugacy.build_phi

    def bent(model, target, depth):
        pl = build_phi(model, target, depth)
        k = int(np.searchsorted(pl.ys, target.gap_c[3][2]))
        ys, ys_lo = pl.ys.copy(), pl.ys_lo.copy()
        ys[k] = 0.5 * (target.gap_c[3][2] + target.gap_d[3][2])
        ys_lo[k] = 0.0
        return MonotonePLMap(xs=pl.xs, ys=ys, err_bound=pl.err_bound,
                             depth=depth, xs_lo=pl.xs_lo, ys_lo=ys_lo)

    monkeypatch.setattr(conjugacy, "build_phi", bent)
    assert verify_fail_lines(capsys, ["--c", "-3", "--depth", "8"]) == [
        "FAIL conjugacy-map: knot not exact: phi(1.0206294600609995) = "
        "0.7222222222222222 != 0.7037037037037037",
        "FAIL dichotomy: level-3 gap midpoint 0.7222222222222222: bounded 5"]


def test_verify_reports_a_level3_midpoint_escaping_early(monkeypatch,
                                                         capsys):
    # phi paired with the model of c = -3 while F_c is that of c = -4
    build_phi = conjugacy.build_phi
    monkeypatch.setattr(conjugacy, "build_phi", lambda model, target, depth:
                        build_phi(build_model_system(derive_params(-3.0),
                                                     depth), target, depth))
    assert verify_fail_lines(capsys, ["--c", "-4", "--depth", "8",
                                      "--target", "middle-alpha:0.5"]) == [
        "FAIL conjugacy-map: knot not exact: phi(-2.5615528128088303) = "
        "-0.2587771750768356 != 0.0",
        "FAIL conjugacy-spot-values: F*(1.0) = np.float64(0.7999988203756248),"
        " expected the fixed endpoint",
        "FAIL dichotomy: level-3 gap midpoint 0.03125: escaped_at 2"]


def test_verify_reports_an_accepted_level2_midpoint(monkeypatch, capsys):
    # middle-thirds levels checked against a two-level gap tree: the
    # level-1 midpoint and the first level-2 one fall into its gaps, the
    # second level-2 midpoint (5/6) misses the gap (0.78, 0.8)
    tree = ExplicitGapTree((0.0, 1.0), (((1 / 3, 2 / 3),),
                                        ((1 / 9, 2 / 9), (0.78, 0.8))))
    build = verification.build_target_system

    def relabelled(spec, depth, mode):
        t = build(spec, depth, mode)
        return TargetSystem(tree, mode, t.a_N, t.b_N, t.a_lo_N, t.b_lo_N)

    monkeypatch.setattr(verification, "build_target_system", relabelled)
    assert verify_fail_lines(capsys, ["--c", "-3", "--depth", "8"]) == [
        "FAIL target-construction: gap midpoint 0.8333333333333333 accepted "
        "by membership"]


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


def test_conjugacy_map_reports_the_first_bad_knot_in_knot_order():
    # knot 32 (level_a[2][1]) and knot 5 (a right end first stored at
    # level 6) both bent: a scan level by level would meet knot 32 first,
    # the scan in knot order meets knot 5
    _, model, target, pl = build(-3.0, 6)
    ys = pl.ys.copy()
    for k in (32, 5):
        ys[k] = np.nextafter(ys[k], np.inf)
    bent = MonotonePLMap(xs=pl.xs, ys=ys, err_bound=pl.err_bound,
                         depth=pl.depth, xs_lo=pl.xs_lo, ys_lo=pl.ys_lo)
    assert model.knots[32] == model.level_a[2][1]
    assert model.knots[5] not in np.concatenate([model.level_a[5],
                                                 model.level_b[5]])
    assert _suite_conjugacy_map(bent, model, target) == (False, (
        f"knot not exact: phi({float(pl.xs[5])!r}) = {float(ys[5])!r} "
        f"!= {float(pl.ys[5])!r}"))


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
def test_endpoint_orbits_reports_first_violation(c, mp_images):
    # the knots of c = -3 checked against another c's map: every other c
    # moves F_c off the knots, and the suite names the first knot, in knot
    # order, whose 50-digit image misses the knot it must land on
    model = build_model_system(derive_params(-3.0), 10)
    bent = IntervalSystem(model.a_N, model.b_N, model.a_lo_N, model.b_lo_N,
                          params=derive_params(c))
    ok, detail = _suite_endpoint_orbits(bent)
    assert ok == (c == -3.0)
    if ok:
        assert detail == "F_c shifts all 2048 level-10 knots"
    else:
        first = first_knot_off_its_image(bent, mp_images(model)[0], mp_images)
        assert detail.startswith(f"knot {first}: F_c rounds it to ")


@pytest.mark.parametrize("side, n, i, delta, fails_at", [
    ("a", 3, 5, 1e-7, 3), ("b", 4, 8, 1e-10, 8), ("a", 9, 301, 1e-9, 9),
    ("b", 10, 700, 1e-9, 10), ("b", 10, 700, 1e-11, None),
])
def test_endpoint_orbits_reports_perturbed_endpoint(side, n, i, delta,
                                                     fails_at, mp_images):
    # one endpoint first stored at level n moved off the set: F_c sends it
    # off the knot its address shifts to, and sends its preimage knots
    # onto its old value, so the suite fails at the first of those in knot
    # order.  The float64 scan it replaced saw the miss at level fails_at,
    # and not at all for the smallest delta
    model = build_model_system(derive_params(-3.0), 10)
    a, b = model.a_N.copy(), model.b_N.copy()
    if side == "a":
        ends, k = a, i << (10 - n)
    else:
        ends, k = b, ((i + 1) << (10 - n)) - 1
    ends[k] += delta
    bent = IntervalSystem(a, b, model.a_lo_N, model.b_lo_N,
                          params=model.params)
    assert float_endpoint_scan(bent, model.params) == fails_at
    first = first_knot_off_its_image(bent, mp_images(model)[0], mp_images)
    ok, detail = _suite_endpoint_orbits(bent)
    assert not ok
    assert first <= 2 * k + (side == "b")
    assert detail.startswith(f"knot {first}: F_c rounds it to ")


def test_endpoint_orbits_detail():
    # the knot, the double F_c rounds it to, and the knot it should reach:
    # with p = (1 + sqrt 13)/2 the fixed point of c = -3, F_-4(-p) is
    # p^2 - 4 = p - 1, not p
    model = build_model_system(derive_params(-3.0), 2)
    bent = IntervalSystem(model.a_N, model.b_N, model.a_lo_N, model.b_lo_N,
                          params=derive_params(-4.0))
    assert _suite_endpoint_orbits(bent) == (False, (
        "knot 0: F_c rounds it to 1.3027756377319946, not to knot 7 = "
        "2.302775637731995"))


def test_endpoint_orbits_in_bounded_memory():
    # blocks of _BLOCK knots: at depth 20 (2^21 knots, 16 MB a knot array)
    # the suite holds a few block-sized temporaries, and F_c shifts all
    model = build_model_system(derive_params(-3.0), 20)
    tracemalloc.start()
    try:
        ok, detail = _suite_endpoint_orbits(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ok, detail
    assert peak < 4 << 20


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


CROSS_SPECS = [middle_thirds(), MiddleAlpha(0.5), AffineIFS2(0.3, 0.2),
               FatCantor(0.3, 0.5),
               ExplicitGapTree((0.0, 1.0), (((1 / 3, 2 / 3),),)),
               ExplicitGapTree((0.0, 1.0), (((0.4, 0.6),),
                                            ((0.1, 0.2), (0.7, 0.9))))]


@pytest.mark.parametrize("depth", [0, 1, 2, 5, 8])
def test_target_construction_matches_scan_across_specs(depth):
    # the strict levels of one family checked against another family's
    # membership: endpoints rejected and gap midpoints accepted, each
    # reported at the lane the point-by-point scan meets first
    outcomes = set()
    for source in CROSS_SPECS[:4]:
        target = build_target_system(source, depth, mode="strict")
        for spec in CROSS_SPECS:
            bent = TargetSystem(spec, "strict", target.a_N, target.b_N,
                                target.a_lo_N, target.b_lo_N)
            got = _suite_target_construction(bent)
            assert got == target_construction_loop(bent, spec, depth), (
                source, spec)
            outcomes.add(got[1].split(" ")[0] if not got[0] else "pass")
    if depth >= 2:
        assert outcomes == {"pass", "stored", "gap"}


@pytest.mark.parametrize("k, delta", [(4, -1e-9), (40, -1e-12), (252, -1e-7),
                                      (8, 1e-9)])
def test_target_construction_reports_perturbed_endpoint(k, delta):
    # a probed level-6 left endpoint (every 4th of level 8) pushed into the
    # gap on its left is rejected; pushed right it stays inside its segment
    target = build_target_system(middle_thirds(), 8)
    a = target.a_N.copy()
    a[k] += delta
    bent = TargetSystem(target.spec, "strict", a, target.b_N, target.a_lo_N,
                        target.b_lo_N)
    got = _suite_target_construction(bent)
    assert got == target_construction_loop(bent, bent.spec, 8)
    assert got[0] == (delta > 0)
    if delta < 0:
        assert got[1] == f"stored endpoint {float(a[k])!r} rejected by membership"


# --- the standing sweep: 15 values of c x 6 target rows x 5 depths -------

SWEEP_C = (-2.37, -2.38, -2.4, -2.45, -2.5, -2.7, -3.0, -3.5, -4.0, -5.0,
           -6.0, -8.0, -10.0, -20.0, -50.0)
SWEEP_DEPTHS = (0, 1, 2, 8, 10)

# Depth-8 pairs held back: a stored level-2 endpoint of the target
# (0.20125 of fat:0.3,0.5, 0.96 of affine:0.3,0.2) leaves the hull under
# F*, because the dd F_c at a knot misses the next knot by about 1e-31 and
# the double F* rounds past it (ROADMAP item 1).  Only the dichotomy's
# endpoint half fails; they pass once F* is exact on knots.
HELD_BACK = {(c, "fat:0.3,0.5") for c in (-2.37, -2.38, -2.4, -6.0, -8.0,
                                          -50.0)} | {
    (c, "affine:0.3,0.2") for c in (-4.0, -8.0, -20.0)}


# every target strict, and in natural mode the one whose natural build
# differs from its strict one
SWEEP_ROWS = [(name, "strict") for name in SWEEP_SPECS] + [
    ("affine:0.8,0.1", "natural")]


@pytest.fixture(scope="module")
def sweep_targets():
    return {(name, mode, depth): build_target_system(SWEEP_SPECS[name], depth,
                                                     mode=mode)
            for name, mode in SWEEP_ROWS for depth in SWEEP_DEPTHS}


def gap_midpoints(target):
    """The midpoints of every gap of `target`, and the level of each."""
    mids = [0.5 * (target.gap_c[n] + target.gap_d[n])
            for n in range(1, target.depth + 1)]
    level = np.repeat(np.arange(1, target.depth + 1), [m.size for m in mids])
    return np.concatenate([np.empty(0)] + mids), level


@pytest.mark.parametrize("c", SWEEP_C)
def test_sweep_rows(c, sweep_targets):
    # every depth: F_c shifts the model's knots, phi sends knots onto
    # knots, and every gap midpoint of every level leaves at its level;
    # at depth 8 the whole run passes but for the held-back pairs
    params = derive_params(c)
    for depth in SWEEP_DEPTHS:
        model = build_model_system(params, depth)
        ok, detail = _suite_endpoint_orbits(model)
        assert ok, (depth, detail)
        for name, mode in SWEEP_ROWS:
            target = sweep_targets[name, mode, depth]
            pl = build_phi(model, target, depth)
            ok, detail = _suite_conjugacy_map(pl, model, target)
            assert ok, (name, mode, depth, detail)
            mids, level = gap_midpoints(target)
            res = iterate_target(pl, params, mids, max(depth, 1))
            assert res.escaped.all() and np.array_equal(
                res.iteration, level), (name, mode, depth)
    for name, spec in SWEEP_SPECS.items():
        failed = [r for r in run_verification(c, 8, spec) if not r.ok]
        if (c, name) in HELD_BACK:
            assert [r.name for r in failed] == ["dichotomy"], name
            assert re.fullmatch(r"level-2 endpoint \S+ escaped at "
                                r"iteration \d+", failed[0].detail), name
        else:
            assert failed == [], name


def test_sweep_holds_back_nine_pairs():
    assert len(HELD_BACK) == 9
    assert {c for c, _ in HELD_BACK} <= set(SWEEP_C)
