"""Nested interval systems for the bounded set of x^2 + c, c < -2.

Level-2 endpoint constants were derived with 60-digit Decimal arithmetic:
with p = (1 + sqrt(13))/2 and s = sqrt(3 - p), the level-2 cut points are
sqrt(3 - s) = 1.4713940267227992 and sqrt(3 + s) = 1.9583155052555925
(correctly rounded).  Max segment lengths are measured between stored
endpoint doubles, hence the 1e-15 relative tolerance against the Decimal
values.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cantordyn import (
    DomainError,
    FatCantor,
    IntervalAddress,
    MAX_DEPTH,
    AffineIFS2,
    MiddleAlpha,
    RegimeError,
    build_model_system,
    build_target_system,
    derive_params,
    eval_map,
    max_segment_length,
    middle_thirds,
    preimage_interval,
)
from cantordyn import model_cantor, target_cantor
from cantordyn.fileio import load_system, save_system
from conftest import reference_v_sqrt


def assert_nested_structure(system):
    """Counts, ordering, disjointness, nesting, and gap placement."""
    for n in range(system.depth + 1):
        a, b = system.level_a[n], system.level_b[n]
        assert a.size == b.size == 1 << n
        assert np.all(a < b)
        assert np.all(b[:-1] < a[1:])  # disjoint, increasing
        if n == 0:
            continue
        pa, pb = system.level_a[n - 1], system.level_b[n - 1]
        # outer endpoints are inherited from the parent exactly
        assert np.array_equal(a[0::2], pa)
        assert np.array_equal(b[1::2], pb)
        g, h = system.gap_c[n], system.gap_d[n]
        assert g.size == h.size == 1 << (n - 1)
        assert np.all(pa < g) and np.all(h < pb)
        assert np.array_equal(b[0::2], g) and np.array_equal(a[1::2], h)


def test_structure_depth_12(model12):
    assert model12.depth == 12
    assert_nested_structure(model12)


def test_hull_is_fixed_point_interval(params3, model12):
    assert model12.hull == (-params3.p, params3.p)


def test_level2_frozen_endpoints(model12):
    p = 2.302775637731995
    assert model12.level_a[2].tolist() == [
        -p, -1.4713940267227992, 0.8349996181244668, 1.9583155052555925]
    assert model12.level_b[2].tolist() == [
        -1.9583155052555925, -0.8349996181244668, 1.4713940267227992, p]


def test_first_gap_is_A0(params3, model12):
    assert model12.gap_c[1][0] == -params3.s
    assert model12.gap_d[1][0] == params3.s


def test_max_lengths_frozen(model12):
    for n, want in [(0, 4.60555127546399),
                    (1, 1.467776019607528),
                    (2, 0.6363944085983324)]:
        assert max_segment_length(model12, n) == pytest.approx(want, rel=1e-15)


def test_lengths_contract_geometrically(params3, model12):
    lam = params3.lambda_
    bound = 2 * params3.p
    for n in range(model12.depth + 1):
        assert max_segment_length(model12, n) <= bound * lam**-n * (1 + 1e-9)


def test_symmetry(model12):
    # F_c is even, so every level is symmetric about 0
    for n in range(model12.depth + 1):
        a, b = model12.level_a[n], model12.level_b[n]
        assert np.array_equal(a, -b[::-1])


def test_endpoints_reach_fixed_points(params3, model12):
    """A level-n endpoint returns to {-p, p} after n plain-double steps."""
    p = params3.p
    for n in range(min(model12.depth, 8) + 1):
        for x0 in np.concatenate([model12.level_a[n], model12.level_b[n]]):
            x = float(x0)
            for _ in range(n):
                x = eval_map(params3, x)
            assert min(abs(x - p), abs(x + p)) <= 1e-9


def test_segments_map_onto_parents(params3, model12):
    """F_c sends each level-n segment onto a level-(n-1) segment."""
    for n in range(1, 6):
        a, b = model12.level_a[n], model12.level_b[n]
        pa, pb = model12.level_a[n - 1], model12.level_b[n - 1]
        for j in range(a.size):
            u, v = sorted([eval_map(params3, a[j]), eval_map(params3, b[j])])
            k = int(np.searchsorted(pa, u + 1e-9) - 1)
            assert pa[k] - 1e-9 <= u and v <= pb[k] + 1e-9


def test_preimage_interval_of_c_itself():
    # for c > -2 the point c lies in the hull; its preimage is 0, as the
    # zero test of the composed sqrt gave it
    params = derive_params(-1.0)
    left, right = preimage_interval(params, (-1.0, 0.0))
    assert left == (-1.0, -0.0) and right == (0.0, 1.0)
    assert str(left) == "(-1.0, -0.0)"
    assert preimage_interval(params, (-1.0, -1.0)) == ((-0.0, -0.0),
                                                        (0.0, 0.0))


def test_preimage_interval(params3):
    left, right = preimage_interval(params3, (-params3.p, params3.p))
    assert left == (-right[1], -right[0])
    assert right[1] == params3.p
    # preimage of the plain float -p, one ulp below the dd-derived s
    assert abs(right[0] - params3.s) <= 2e-16
    # both branches really map back onto the input interval
    for x in (*left, *right):
        assert abs(eval_map(params3, x)) <= params3.p * (1 + 1e-15)


def test_accessors(model12):
    segs = model12.segments(2)
    assert segs.shape == (4, 2)
    gaps = model12.gaps(1)
    assert gaps.shape == (1, 2)
    assert model12.segment(IntervalAddress(2, 3)) == (
        0.8349996181244668, 1.4713940267227992)
    with pytest.raises(DomainError):
        model12.gaps(0)
    with pytest.raises(DomainError):
        model12.segments(13)


def test_depth_validation(params3):
    with pytest.raises(DomainError):
        build_model_system(params3, -1)
    with pytest.raises(DomainError):
        build_model_system(params3, MAX_DEPTH + 1)
    assert build_model_system(params3, 0).depth == 0


def test_uncertified_regimes_refused():
    with pytest.raises(RegimeError):
        build_model_system(derive_params(-2.05), 4)  # gap exists, lambda < 1
    with pytest.raises(RegimeError):
        build_model_system(derive_params(-1.0), 4)  # no gap at all


class TestIntervalAddress:
    def test_words(self):
        assert IntervalAddress(0, 1).word == ""
        assert IntervalAddress(2, 3).word == "10"
        assert IntervalAddress.from_word("10") == IntervalAddress(2, 3)
        assert IntervalAddress.from_word("") == IntervalAddress(0, 1)

    def test_word_is_the_reflected_binary_itinerary(self):
        # c = -3, level 2, from closed forms: q = (1 - sqrt(13))/2 and p are
        # the fixed points, and -2 and 1 swap (F(-2) = 1, F(1) = -2)
        params = derive_params(-3.0)
        model = build_model_system(params, 2)
        q = (1 - 13 ** 0.5) / 2
        cases = [(q, "00", "01"), (-2.0, "01", "00"), (1.0, "10", "10"),
                 (params.p, "11", "11")]
        for x, itinerary, word in cases:
            assert "".join("1" if v > 0 else "0"
                           for v in (x, x * x - 3.0)) == itinerary
            a, b = model.segment(IntervalAddress.from_word(word))
            assert a <= x <= b, (x, word)
            flips = "".join(str(int(i) ^ itinerary[:k].count("0") % 2)
                            for k, i in enumerate(itinerary))
            assert flips == word

    def test_parent_child(self):
        a = IntervalAddress(3, 5)
        assert a.parent() == IntervalAddress(2, 3)
        assert a.parent().child(0) == a
        assert a.parent().child(1) == IntervalAddress(3, 6)

    def test_validation(self):
        with pytest.raises(DomainError):
            IntervalAddress(2, 5)
        with pytest.raises(DomainError):
            IntervalAddress(2, 0)
        with pytest.raises(DomainError):
            IntervalAddress(-1, 1)
        with pytest.raises(DomainError):
            IntervalAddress(0, 1).parent()
        with pytest.raises(DomainError):
            IntervalAddress.from_word("102")
        with pytest.raises(DomainError):
            IntervalAddress(1, 1).child(2)


@settings(max_examples=25, deadline=None)
@given(c=st.floats(min_value=-20.0, max_value=-2.4), depth=st.integers(0, 6))
def test_structure_invariants_random_c(c, depth):
    params = derive_params(c)
    system = build_model_system(params, depth)
    assert_nested_structure(system)
    for n in range(depth + 1):
        assert (max_segment_length(system, n)
                <= 2 * params.p * params.lambda_**-n * (1 + 1e-9))


# --- storage: every level and gap is a strided view of level N ------------

# attribute -> (deepest array, view of level n with k = 2^(N-n))
VIEWS = {
    "level_a": ("a_N", lambda x, k: x[::k]),
    "a_lo": ("a_lo_N", lambda x, k: x[::k]),
    "level_b": ("b_N", lambda x, k: x[k - 1::k]),
    "b_lo": ("b_lo_N", lambda x, k: x[k - 1::k]),
    "gap_c": ("b_N", lambda x, k: x[k - 1::2 * k]),
    "c_lo": ("b_lo_N", lambda x, k: x[k - 1::2 * k]),
    "gap_d": ("a_N", lambda x, k: x[k::2 * k]),
    "d_lo": ("a_lo_N", lambda x, k: x[k::2 * k]),
}


# deepest array -> (knot array, offset): the ends alternate in the knots
KNOTS = {"a_N": ("knots", 0), "b_N": ("knots", 1),
         "a_lo_N": ("knots_lo", 0), "b_lo_N": ("knots_lo", 1)}


def assert_views_of_deepest(system):
    N = system.depth
    for name, (knots, first) in KNOTS.items():
        x, k = getattr(system, name), getattr(system, knots)
        assert k.size == 2 << N and k.flags.c_contiguous
        assert np.shares_memory(x, k), name
        assert x.tobytes() == k[first::2].tobytes(), name
    for name, (deep, view) in VIEWS.items():
        levels, x = getattr(system, name), getattr(system, deep)
        assert x.size == 1 << N and len(levels) == N + 1
        for n, got in enumerate(levels):
            if n == 0 and name in ("gap_c", "c_lo", "gap_d", "d_lo"):
                # the hull has no gap above it
                assert got.size == 0
                continue
            want = view(x, 1 << (N - n))
            assert np.shares_memory(got, x), (name, n)
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), (name, n)


@pytest.mark.parametrize("loaded", [False, True], ids=["fresh", "loaded"])
@pytest.mark.parametrize("make", [
    lambda: build_model_system(derive_params(-3.0), 9),
    lambda: build_model_system(derive_params(-10.0), 0),
    lambda: build_target_system(middle_thirds(), 9),
    lambda: build_target_system(FatCantor(0.3, 0.5), 7, mode="natural"),
], ids=["model", "model-depth0", "target-strict", "target-natural"])
def test_levels_and_gaps_are_views(make, loaded, tmp_path):
    system = make()
    if loaded:
        save_system(system, tmp_path / "s.json")
        system = load_system(tmp_path / "s.json")
        fresh = make()
        for name in ("a_N", "b_N", "a_lo_N", "b_lo_N"):
            assert np.array_equal(getattr(system, name).view(np.int64),
                                  getattr(fresh, name).view(np.int64)), name
    assert_views_of_deepest(system)


def test_constructor_interleaves_its_arrays_once():
    # a_N = 0, 4, 8, 12, b_N = 1, 5, 9, 13, tails 2, 6, ... and 3, 7, ...
    a, b, a_lo, b_lo = (np.arange(4.0) * 4 + i for i in range(4))
    system = model_cantor.IntervalSystem(a, b, a_lo, b_lo)
    assert system.depth == 2
    assert system.knots.tolist() == [0, 1, 4, 5, 8, 9, 12, 13]
    assert system.knots_lo.tolist() == [2, 3, 6, 7, 10, 11, 14, 15]
    assert not any(np.shares_memory(k, x) for k in (system.knots,
                                                     system.knots_lo)
                   for x in (a, b, a_lo, b_lo))
    assert_views_of_deepest(system)
    with pytest.raises(DomainError, match="2\\^N endpoints, got 3"):
        model_cantor.IntervalSystem(*(np.zeros(3) for _ in range(4)))


def test_constructor_refuses_empty_arrays():
    # the depth came out of 0's bit length: "negative shift count"
    with pytest.raises(DomainError, match="2\\^N endpoints, got 0"):
        model_cantor.IntervalSystem(*(np.empty(0) for _ in range(4)))
    with pytest.raises(DomainError, match="2\\^N endpoints, got 0"):
        target_cantor.TargetSystem(middle_thirds(), "strict",
                                   *(np.empty(0) for _ in range(4)))


@pytest.mark.parametrize("sizes", [(2, 1, 2, 2), (2, 2, 4, 2), (1, 2, 2, 2),
                                   (4, 4, 4, 2)])
def test_constructor_refuses_arrays_of_different_sizes(sizes):
    # a size-1 b_N was broadcast: a_N = [0, 1] and b_N = [0.5] made the
    # knots [0, 0.5, 1, 0.5]
    arrays = [np.arange(float(n)) for n in sizes]
    with pytest.raises(DomainError, match="four 1-D arrays of one size"):
        model_cantor.IntervalSystem(*arrays)
    with pytest.raises(DomainError, match="four 1-D arrays of one size"):
        target_cantor.TargetSystem(middle_thirds(), "strict", *arrays)


def test_constructor_refuses_arrays_that_are_not_1d():
    for shape in ((2, 2), (1, 4), ()):
        with pytest.raises(DomainError, match="four 1-D arrays of one size"):
            model_cantor.IntervalSystem(*(np.zeros(shape) for _ in range(4)))


def test_writes_through_views_alias_the_stored_level():
    # the pattern the builders and two_pass_model fill a system with: every
    # view writes into the one stored level, where every other view reads
    system = model_cantor.IntervalSystem(*(np.zeros(4) for _ in range(4)))
    system.level_a[0][:], system.a_lo[0][:] = -2.0, -0.5
    system.level_b[0][:], system.b_lo[0][:] = 2.0, 0.5
    system.gap_c[1][:], system.gap_d[1][:] = -1.0, 1.0
    system.gap_c[2][:], system.gap_d[2][:] = [-1.75, 1.25], [-1.25, 1.75]
    system.c_lo[2][:] = [1e-20, 2e-20]
    assert system.knots.tolist() == [-2.0, -1.75, -1.25, -1.0,
                                     1.0, 1.25, 1.75, 2.0]
    assert system.knots_lo.tolist() == [-0.5, 1e-20, 0, 0, 0, 2e-20, 0, 0.5]
    assert system.level_b[1].tolist() == [-1.0, 2.0]
    assert system.gap_d[2].tolist() == [-1.25, 1.75]
    assert system.segment(model_cantor.IntervalAddress(2, 3)) == (1.0, 1.25)


@pytest.mark.parametrize("c", [-3.0, -2.5, -10.0])
def test_gap_endpoints_correctly_rounded(c):
    # 60-digit mpmath run of the same backward construction: the level-1 gap
    # is (-s, s), and each gap (u, v) pulls back to (sqrt(u-c), sqrt(v-c))
    # and its mirror image, negative branch first
    import mpmath

    depth = 14
    system = build_model_system(derive_params(c), depth)
    with mpmath.workdps(60):
        mc = mpmath.mpf(c)
        p = (1 + mpmath.sqrt(1 - 4 * mc)) / 2
        s = mpmath.sqrt(-p - mc)
        assert system.level_a[0].tolist() == [float(-p)]
        assert system.level_b[0].tolist() == [float(p)]
        gaps = [(-s, s)]
        for n in range(1, depth + 1):
            assert system.gap_c[n].tolist() == [float(u) for u, _ in gaps], n
            assert system.gap_d[n].tolist() == [float(v) for _, v in gaps], n
            right = [(mpmath.sqrt(u - mc), mpmath.sqrt(v - mc)) for u, v in gaps]
            gaps = [(-v, -u) for u, v in reversed(right)] + right


@pytest.mark.parametrize("c", [-2.37, -3.0, -20.0, -50.0])
@pytest.mark.parametrize("depth", [0, 1, 2, 5, 8])
def test_shift_names_the_knot_nearest_f(c, depth, mp_images):
    # F_c is the shift on addresses: the knot _shift names is the stored
    # knot nearest the 50-digit F_c(knot + tail), and F_c(knot) rounds
    # onto that knot's public double
    system = build_model_system(derive_params(c), depth)
    near, value = mp_images(system)
    k = np.arange(system.knots.size)
    assert model_cantor._shift(depth, k).tolist() == near.tolist()
    assert value.tolist() == system.knots[near].tolist()


def test_shift_closed_forms():
    # level 0: both ends of the hull go to p; level 1 (knots -p, -s, s, p):
    # -p and p go to p, the gap edges to -p; level 2: the left half maps
    # onto level 1's segments reversed, ends swapped, the right half in
    # order, where level 1's segments are level 2's knots 0, 3 and 4, 7
    assert model_cantor._shift(0, np.arange(2)).tolist() == [1, 1]
    assert model_cantor._shift(1, np.arange(4)).tolist() == [3, 0, 0, 3]
    assert model_cantor._shift(2, np.arange(8)).tolist() == [
        7, 4, 3, 0, 0, 3, 4, 7]


# --- the level loop against the two-pass loop it replaced -----------------

def two_pass_model(params, depth):
    """build_model_system as it was before both gap edges shared one pass:
    a dd add and a dd square root per edge and level, frozen as the
    oracle.  Returns a_N, b_N, a_lo_N, b_lo_N."""
    from cantordyn import _dd
    from cantordyn.model_cantor import IntervalSystem
    from cantordyn.quadratic_map import _params_dd

    (ph, pl), (sh, sl) = _params_dd(params)
    c = params.c
    system = IntervalSystem(*(np.empty(1 << depth) for _ in range(4)))
    system.level_a[0][:], system.a_lo[0][:] = -ph, -pl
    system.level_b[0][:], system.b_lo[0][:] = ph, pl
    gch, gcl = np.array([-sh]), np.array([-sl])
    gdh, gdl = np.array([sh]), np.array([sl])
    for n in range(1, depth + 1):
        system.gap_c[n][:], system.c_lo[n][:] = gch, gcl
        system.gap_d[n][:], system.d_lo[n][:] = gdh, gdl
        if n == depth:
            break
        puh, pul = reference_v_sqrt(*_dd.add(gch, gcl, -c, 0.0))
        pvh, pvl = reference_v_sqrt(*_dd.add(gdh, gdl, -c, 0.0))
        gch = np.concatenate([-pvh[::-1], puh])
        gcl = np.concatenate([-pvl[::-1], pul])
        gdh = np.concatenate([-puh[::-1], pvh])
        gdl = np.concatenate([-pul[::-1], pvl])
    return system.a_N, system.b_N, system.a_lo_N, system.b_lo_N


@pytest.mark.parametrize("c", [-2.37, -2.5, -3.0, -20.0, -1e3])
def test_one_pass_levels_match_two_pass_reference(c, monkeypatch):
    # the kernel's bits are compared past the depth the doubles resolve
    # (from depth 9 at c = -1e3 the build refuses them, which
    # test_colliding_endpoints_refused checks)
    monkeypatch.setattr(model_cantor, "_check_resolved",
                        lambda system, what: system)
    params = derive_params(c)
    # depth 16 runs its deepest square roots in more than one block
    for depth in [*range(15), 16]:
        system = build_model_system(params, depth)
        got = (system.a_N, system.b_N, system.a_lo_N, system.b_lo_N)
        want = two_pass_model(params, depth)
        assert [x.tobytes() for x in got] == [x.tobytes() for x in want], depth
        # the set is symmetric about 0: level N mirrors itself bit for bit
        assert np.array_equal(system.a_N.view(np.int64),
                              (-system.b_N[::-1]).view(np.int64)), depth


@pytest.mark.parametrize("narrow", [1, model_cantor._NARROW, 1 << 13])
@pytest.mark.parametrize("c", [-2.37, -3.0, -1e3])
def test_levels_on_floats_match_levels_on_arrays(c, narrow, monkeypatch):
    # levels of fewer than `narrow` edges take root lane by lane on floats:
    # none of them (1), the default, or every level to depth 12 (2^13)
    monkeypatch.setattr(model_cantor, "_check_resolved",
                        lambda system, what: system)
    monkeypatch.setattr(model_cantor, "_NARROW", narrow)
    params = derive_params(c)
    for depth in range(13):
        system = build_model_system(params, depth)
        got = (system.a_N, system.b_N, system.a_lo_N, system.b_lo_N)
        want = two_pass_model(params, depth)
        assert [x.tobytes() for x in got] == [x.tobytes() for x in want], depth


def test_model_build_peaks_no_higher():
    # memory guard, in bytes numpy reports to tracemalloc: the written-out
    # root drops each temporary once spent, so a depth-16 build peaks
    # under the 3 231 760 bytes the composed sqrt(*add(...)) reached
    import tracemalloc

    params = derive_params(-3.0)
    build_model_system(params, 4)
    tracemalloc.start()
    try:
        build_model_system(params, 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3231760


# Systems whose deepest level collides in doubles: (build, depth, the deepest
# level that resolves).  c = -1000 at depth 12 overlaps neighbouring model
# segments; the targets build segments of zero width.
UNRESOLVED = {
    "model-c-1000": (lambda d: build_model_system(derive_params(-1000.0), d),
                     12, 8),
    "model-c-100": (lambda d: build_model_system(derive_params(-100.0), d),
                    13, 12),
    "model-c-50": (lambda d: build_model_system(derive_params(-50.0), d),
                   14, 13),
    **{f"middle-alpha-0.999-{mode}":
       (lambda d, mode=mode: build_target_system(MiddleAlpha(0.999), d, mode),
        9, 4) for mode in ("strict", "natural")},
    "affine-0.01,0.97-natural":
        (lambda d: build_target_system(AffineIFS2(0.01, 0.97), d, "natural"),
         12, 9),
}


def resolves(system, n):
    a, b = system.level_a[n], system.level_b[n]
    return bool(np.all(a < b) and np.all(b[:-1] < a[1:]))


@pytest.mark.parametrize("build, depth, deepest", UNRESOLVED.values(),
                         ids=UNRESOLVED.keys())
def test_colliding_endpoints_refused(build, depth, deepest, monkeypatch):
    with pytest.raises(DomainError, match=f"at depth {depth}: .* collide .* "
                       f"the deepest level that resolves is {deepest}$"):
        build(depth)
    with pytest.raises(DomainError, match=f"resolves is {deepest}$"):
        build(deepest + 1)
    assert_nested_structure(build(deepest))
    # the same build without the check: level `deepest` is the last whose
    # public endpoints are strictly increasing
    for module in (model_cantor, target_cantor):
        monkeypatch.setattr(module, "_check_resolved",
                            lambda system, what: system)
    unchecked = build(depth)
    assert [resolves(unchecked, n) for n in range(depth + 1)] == \
        [n <= deepest for n in range(depth + 1)]
