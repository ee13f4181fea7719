"""Self-check suites behind the `verify` command.

A run builds once and then checks: after the scalar suites it builds the
model system, the strict target system and phi a single time, and every
construction suite checks those objects.  Each suite re-derives a property
of the library from scratch (bisection oracles, enumeration, brute-force
iteration) and compares it with what the library computes.  Tolerances
mirror the documented guarantees; a failed suite reports the first
violation it saw.  The suites evaluate and iterate whole arrays, then
report the first violation in the order of a point-by-point scan.
"""

from dataclasses import dataclass

import numpy as np

from . import conjugacy, model_cantor, orbit_engine, quadratic_map
from .errors import DomainError, NoRealFixedPoint
from .target_cantor import (_descent_limit, build_target_system, membership,
                            middle_thirds)


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


def _bisect_root(f, lo, hi):
    """Root of f in [lo, hi] (sign change assumed) to full double precision."""
    flo = f(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if (f(mid) < 0.0) == (flo < 0.0):
            lo, flo = mid, f(mid)
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _suite_fixed_points(c):
    for cc in sorted({0.25, -1.0, float(c)}):
        if cc > 0.25:
            try:
                quadratic_map.fixed_points(cc)
            except NoRealFixedPoint:
                continue
            return False, f"c={cc!r}: expected NoRealFixedPoint"
        q, p = quadratic_map.fixed_points(cc)
        if not q <= p:
            return False, f"c={cc!r}: roots out of order ({q!r}, {p!r})"
        bound = 1.0 + max(1.0, abs(cc))

        def res(x, cc=cc):
            return x * x - x + cc

        p_ref = 0.5 if cc == 0.25 else _bisect_root(res, 0.5, bound)
        q_ref = 0.5 if cc == 0.25 else _bisect_root(res, -bound, 0.5)
        if abs(p - p_ref) > 1e-10 or abs(q - q_ref) > 1e-10:
            return False, (
                f"c={cc!r}: roots ({q!r}, {p!r}) vs bisection "
                f"({q_ref!r}, {p_ref!r})"
            )
        for x in (q, p):
            if abs(res(x)) > 1e-12 * max(1.0, x * x):
                return False, f"c={cc!r}: residual {res(x)!r} at x={x!r}"
    return True, f"roots at c in {{1/4, -1, {float(c)!r}}} match bisection"


def _suite_escape_gap(c):
    params = quadratic_map.derive_params(c)
    lam, certified = quadratic_map.expansion_bound(params)
    gap = quadratic_map.gap_A0(params)
    if certified:
        if gap is None:
            return False, f"c={c!r}: certified but gap reported empty"
        ms, s = gap
        if ms != -s:
            return False, f"c={c!r}: gap {gap!r} not symmetric"
        # s^2 = -p - c defines the gap; check the stored endpoint satisfies it
        if abs(s * s + params.p + params.c) > 1e-12 * max(1.0, params.p):
            return False, f"c={c!r}: s={s!r} does not satisfy s^2 = -p - c"
        mid_img = quadratic_map.eval_map(params, 0.0)
        if not mid_img < -params.p:
            return False, f"c={c!r}: F(0) = {mid_img!r} does not leave [-p, p]"
        if abs(lam - 2.0 * s) > 0.0:
            return False, f"c={c!r}: lambda {lam!r} != 2s {2.0 * s!r}"
    for flat in (-2.0, -1.0):
        if quadratic_map.gap_A0(quadratic_map.derive_params(flat)) is not None:
            return False, f"c={flat!r}: gap should be empty"
    word = "certified" if certified else "uncertified"
    return True, f"c={c!r}: lambda={lam!r} ({word}), gap consistent"


def _structure_errors(system, shrink):
    """Checks of the deepest level, whose views are every shallower level
    and gap; shrink(n) is the max-length bound of level n."""
    a, b, N = system.a_N, system.b_N, system.depth
    if not np.all(a < b):
        return f"level {N}: empty segment"
    if np.any(b[:-1] >= a[1:]):
        return f"level {N}: segments overlap or touch"
    for n in range(N + 1):
        top = float(np.max(system.level_b[n] - system.level_a[n]))
        if top > shrink(n):
            return f"level {n}: max length {top!r} exceeds bound {shrink(n)!r}"
    return None


def _suite_model_structure(model):
    params, depth = model.params, model.depth
    bound = lambda n: 2.0 * params.p * params.lambda_ ** (-n) * (1.0 + 1e-9)
    err = _structure_errors(model, bound)
    if err:
        return False, err
    top = model_cantor.max_segment_length(model, depth)
    return True, (
        f"depth {depth}: {1 << depth} segments nested, "
        f"max level-{depth} length {top!r}"
    )


def _suite_endpoint_orbits(model):
    params, top = model.params, min(model.depth, 10)
    worst = 0.0
    for n in range(top + 1):
        x = np.concatenate([model.level_a[n], model.level_b[n]])
        y = x
        with np.errstate(over="ignore"):  # an escaping orbit may reach inf
            for _ in range(n):
                y = quadratic_map.eval_map(params, y)
        err = np.minimum(np.abs(y - params.p), np.abs(y + params.p))
        k = _first(err > 1e-6)
        if k is not None:
            return False, (
                f"level-{n} endpoint {float(x[k])!r}: F^{n} lands "
                f"{float(err[k])!r} from +-p"
            )
        worst = max(worst, float(err.max()))
    return True, f"level <= {top} endpoints reach +-p within {worst:.3e}"


def _suite_target_construction(target):
    spec, depth = target.spec, target.depth
    a, b = target.hull
    width = b - a
    err = _structure_errors(
        target, lambda n: width * (2.0 / 3.0) ** n * (1.0 + 1e-9))
    if err:
        return False, err
    probe = min(depth, 6)
    for x in target.level_a[probe]:
        if not membership(spec, float(x), max(depth, 1)):
            return False, f"stored endpoint {float(x)!r} rejected by membership"
    # a strict gap is a natural gap of the spec's tree, possibly deeper than
    # level `depth`: test its midpoint as deep as the strict descents go
    limit = _descent_limit(spec)
    for n in range(1, min(depth, 4) + 1):
        for gc, gd in zip(target.gap_c[n], target.gap_d[n]):
            mid = 0.5 * (float(gc) + float(gd))
            if membership(spec, mid, limit):
                return False, f"gap midpoint {mid!r} accepted by membership"
    return True, f"depth {depth}: strict refinement consistent with membership"


def _first(bad):
    """Index of the first True in a bool array, or None."""
    return int(np.argmax(bad)) if bad.any() else None


def _suite_conjugacy_map(pl, model, target):
    xs, ys = pl.xs, pl.ys
    if not (np.all(np.diff(xs) > 0.0) and np.all(np.diff(ys) > 0.0)):
        return False, "knot coordinates are not strictly increasing"
    # knots level by level, level_a before level_b, as one batch
    pairs = [(m[n], t[n]) for n in range(pl.depth + 1)
             for m, t in ((model.level_a, target.level_a),
                          (model.level_b, target.level_b))]
    kx = np.concatenate([mx for mx, _ in pairs])
    ky = np.concatenate([tx for _, tx in pairs])
    got = conjugacy.eval_phi(pl, kx)
    k = _first(got != ky)
    if k is not None:
        return False, (
            f"knot not exact: phi({float(kx[k])!r}) = {float(got[k])!r} "
            f"!= {float(ky[k])!r}"
        )
    lo, hi = model.hull
    grid = np.linspace(lo - 0.5, hi + 0.5, 4001)
    y = conjugacy.eval_phi(pl, grid)
    back = conjugacy.eval_phi_inverse(pl, y)
    # at each point monotonicity is checked before the round trip
    not_up = y <= np.concatenate([[-np.inf], y[:-1]])
    off = np.abs(back - grid) > 1e-12 * np.maximum(1.0, np.abs(grid))
    k = _first(not_up | off)
    if k is not None:
        if not_up[k]:
            return False, f"phi not increasing near x={float(grid[k])!r}"
        return False, (
            f"round trip off at x={float(grid[k])!r}: {float(back[k])!r}"
        )
    report = conjugacy.segment_mapping_check(pl, model, target, samples=4)
    if not report.ok:
        return False, f"segment mapping check: {report.violations} violations"
    return True, (
        f"monotone on {grid.size}-point grid, knots exact, "
        f"round trip within 1e-12, {report.samples_checked} mapping samples"
    )


def _suite_conjugacy_spot_values(pl, params, target):
    a_t, b_t = target.hull
    got = conjugacy.eval_fstar(pl, params, b_t)
    if abs(got - b_t) > 1e-9:
        return False, f"F*({b_t!r}) = {got!r}, expected the fixed endpoint"
    got = conjugacy.eval_fstar(pl, params, a_t)
    if abs(got - b_t) > 1e-9:
        return False, f"F*({a_t!r}) = {got!r}, expected {b_t!r}"
    if target.depth == 0:
        return True, f"F* fixes {b_t!r} and sends {a_t!r} there (no gaps)"
    c1 = float(target.gap_c[1][0])
    got = conjugacy.eval_fstar(pl, params, c1)
    if abs(got - a_t) > 1e-6:
        return False, f"F*({c1!r}) = {got!r}, expected about {a_t!r}"
    return True, (
        f"F* fixes {b_t!r}, sends {a_t!r} there and the first gap edge "
        f"back to {a_t!r}"
    )


def _suite_dichotomy(pl, params, target):
    # np.empty(0) keeps a depth-0 target, which has no gaps, working
    mids = np.concatenate([np.empty(0)] + [
        0.5 * (target.gap_c[n] + target.gap_d[n])
        for n in range(1, min(target.depth, 5) + 1)])
    res = orbit_engine.iterate_target(pl, params, mids, 200)
    k = _first(~res.escaped)
    if k is not None:
        return False, f"gap midpoint {float(mids[k])!r} failed to escape in 200"
    per_level = [np.concatenate([target.level_a[n], target.level_b[n]])
                 for n in range(min(target.depth, 8) + 1)]
    ends = np.concatenate(per_level)
    level = np.repeat(np.arange(len(per_level)), [e.size for e in per_level])
    res = orbit_engine.iterate_target(pl, params, ends, 25)
    k = _first(res.escaped)
    if k is not None:
        return False, (
            f"level-{level[k]} endpoint {float(ends[k])!r} escaped at "
            f"iteration {res.iteration[k]}"
        )
    return True, (
        "gap midpoints (levels <= 5) escape within 200 iterations, "
        "endpoints (levels <= 8) stay bounded for 25"
    )


def _suite_mandelbrot():
    if orbit_engine.mandelbrot_escape(0.0, 0.0, 1000) is not None:
        return False, "c = 0 escaped"
    got = orbit_engine.mandelbrot_escape(1.0, 0.0, 50)
    if got != 3:
        return False, f"c = 1 escaped at {got!r}, expected 3"
    if orbit_engine.mandelbrot_escape(-1.0, 0.0, 1000) is not None:
        return False, "c = -1 escaped"
    for cr, ci in ((2.5, 0.0), (0.0, -2.25), (-2.1, 0.9)):
        got = orbit_engine.mandelbrot_escape(cr, ci, 50)
        if got is None or got > 2:
            return False, f"|c| > 2 at ({cr}, {ci}) escaped at {got!r}"
    return True, "interior and escape spot values as expected"


def run_verification(c=-3.0, depth=10, spec=None):
    """Run every suite and return the list of CheckResult records.

    When c is not a certified expanding parameter the construction suites
    cannot run; a single failing record explains why and the rest is skipped.
    Otherwise the model, the strict target and phi are built once, and an
    exception from those builds propagates.
    """
    if spec is None:
        spec = middle_thirds()
    results = []

    def run(name, fn, *args):
        try:
            ok, detail = fn(*args)
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CheckResult(name, ok, detail))
        return ok

    run("fixed-points", _suite_fixed_points, c)
    run("escape-gap", _suite_escape_gap, c)
    try:
        params = quadratic_map.derive_params(c)
        certified = params.lambda_ > 1.0
    except (NoRealFixedPoint, DomainError):
        params, certified = None, False
    if not certified:
        results.append(CheckResult(
            "model-structure", False,
            f"c={c!r} is not a certified expanding parameter"))
        return results

    model = model_cantor.build_model_system(params, depth)
    target = build_target_system(spec, depth, mode="strict")
    pl = conjugacy.build_phi(model, target, depth)
    run("model-structure", _suite_model_structure, model)
    run("endpoint-orbits", _suite_endpoint_orbits, model)
    run("target-construction", _suite_target_construction, target)
    run("conjugacy-map", _suite_conjugacy_map, pl, model, target)
    run("conjugacy-spot-values", _suite_conjugacy_spot_values, pl, params,
        target)
    run("dichotomy", _suite_dichotomy, pl, params, target)
    run("mandelbrot", _suite_mandelbrot)
    return results
