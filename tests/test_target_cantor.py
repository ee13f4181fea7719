"""Target Cantor set specs: gap finding, tightening, refinement, membership.

The exact-arithmetic oracle for the middle-thirds set runs the removal in
Fractions and compares stored doubles against the correctly rounded exact
endpoints.  Gap/tighten constants were cross-checked the same way (1/3, 2/9,
7/9, ... are exact ternary rationals; the affine gap (0.8^3, 0.8^2*0.9) was
recomputed in 60-digit Decimal from the binary64 ratios).
"""

import tracemalloc
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cantordyn import (
    AffineIFS2,
    CantorDynError,
    DomainError,
    ExplicitGapTree,
    FatCantor,
    MiddleAlpha,
    RegimeError,
    SpecError,
    build_target_system,
    find_gap_in_middle_third,
    membership,
    middle_thirds,
    tighten_gap,
)
from cantordyn import _dd, target_cantor
from cantordyn.model_cantor import _BLOCK, _interleave
from cantordyn.target_cantor import (_check_splits, _descent_error,
                                     _descent_limit, _find_gaps, _hull_lane,
                                     _lane, _NodeSplitter, _splits_naturally,
                                     _strict_gaps, _tighten)


def exact_thirds_level(n):
    """Level-n segments of the middle-thirds set, in exact arithmetic."""
    segs = [(Fraction(0), Fraction(1))]
    for _ in range(n):
        nxt = []
        for u, v in segs:
            w = (v - u) / 3
            nxt.append((u, u + w))
            nxt.append((v - w, v))
        segs = nxt
    return segs


def in_thirds_exact(x, depth):
    """Ternary membership oracle on exact rationals (endpoints count in)."""
    lo, hi = Fraction(0), Fraction(1)
    if not lo <= x <= hi:
        return False
    for _ in range(depth):
        w = (hi - lo) / 3
        if x <= lo + w:
            hi = lo + w
        elif x >= hi - w:
            lo = hi - w
        else:
            return False
    return True


def test_stored_endpoints_exact_to_depth_6(thirds12):
    for n in range(7):
        exact = exact_thirds_level(n)
        a = thirds12.level_a[n]
        b = thirds12.level_b[n]
        for j, (u, v) in enumerate(exact):
            assert a[j] == float(u)
            assert b[j] == float(v)


def test_depth2_values(thirds12):
    assert thirds12.level_a[2].tolist() == [
        0.0, 0.2222222222222222, 0.6666666666666666, 0.8888888888888888]
    assert thirds12.level_b[2].tolist() == [
        0.1111111111111111, 0.3333333333333333, 0.7777777777777778, 1.0]


class TestFindGap:
    def test_unit_interval(self, thirds):
        assert find_gap_in_middle_third(thirds, (0.0, 1.0)) == (
            0.3333333333333333, 0.6666666666666666)

    def test_left_child_window_rounds_down(self, thirds):
        # fl(1/3) < 1/3 shifts the exact middle-third window sub-ulp below
        # the self-similar one; the slack must still find (1/9, 2/9)
        assert find_gap_in_middle_third(thirds, (0.0, 1 / 3)) == (
            0.1111111111111111, 0.2222222222222222)

    def test_right_child(self, thirds):
        assert find_gap_in_middle_third(thirds, (2 / 3, 1.0)) == (
            0.7777777777777778, 0.8888888888888888)

    def test_affine_descends_left(self, affine):
        # natural gap (0.8, 0.9) misses the middle third; descent lands on
        # the level-3 gap (0.8^3, 0.8^2 * 0.9)
        e, f = find_gap_in_middle_third(affine, (0.0, 1.0))
        assert (e, f) == (0.5120000000000001, 0.5760000000000001)
        assert 1 / 3 < e < f < 2 / 3

    def test_contract(self, affine, thirds):
        for spec in (affine, thirds, MiddleAlpha(0.8), FatCantor(0.3, 0.5)):
            e, f = find_gap_in_middle_third(spec, (0.0, 1.0))
            assert e < f
            assert e < 2 / 3 and 1 - f < 2 / 3
            assert not membership(spec, (e + f) / 2, 16)

    def test_rejects_bad_segments(self, thirds):
        with pytest.raises(DomainError):
            find_gap_in_middle_third(thirds, (0.6, 0.4))
        with pytest.raises(DomainError):
            find_gap_in_middle_third(thirds, (0.4, 0.6))  # gap interior


class TestTightenGap:
    def test_expands_to_thirds_gap(self, thirds):
        assert tighten_gap(thirds, (0.4, 0.6)) == (
            0.3333333333333333, 0.6666666666666666)
        assert tighten_gap(thirds, (0.12, 0.2)) == (
            0.1111111111111111, 0.2222222222222222)

    def test_already_maximal(self, thirds):
        gap = (0.3333333333333333, 0.6666666666666666)
        assert tighten_gap(thirds, gap) == gap

    def test_affine(self, affine):
        assert tighten_gap(affine, (0.82, 0.88)) == (0.8, 0.9)

    def test_rejects_member_interiors(self, thirds):
        with pytest.raises(DomainError):
            tighten_gap(thirds, (0.3, 0.4))  # contains 1/3
        with pytest.raises(DomainError):
            tighten_gap(thirds, (0.6, 0.4))
        with pytest.raises(DomainError):
            tighten_gap(thirds, (-0.1, 0.5))
        with pytest.raises(DomainError):
            tighten_gap(thirds, (0.4, 0.6), tol=-1.0)


class TestMembership:
    def test_endpoints_are_members(self, thirds, thirds12):
        for n in (0, 3, 6):
            for x in thirds12.level_a[n]:
                assert membership(thirds, float(x), 12)
            for x in thirds12.level_b[n]:
                assert membership(thirds, float(x), 12)

    def test_gap_midpoints_are_not(self, thirds, thirds12):
        for n in range(1, 6):
            mids = (thirds12.gap_c[n] + thirds12.gap_d[n]) / 2
            for x in mids:
                assert not membership(thirds, float(x), 12)

    def test_outside_hull(self, thirds):
        assert not membership(thirds, -0.1, 4)
        assert not membership(thirds, 1.1, 4)

    def test_depth_validation(self, thirds):
        with pytest.raises(DomainError):
            membership(thirds, 0.5, 0)

    def test_agrees_with_exact_oracle(self, thirds):
        for k in range(28):
            x = Fraction(k, 27)
            assert membership(thirds, float(x), 3) == in_thirds_exact(x, 3)


def test_middle_alpha_half():
    system = build_target_system(MiddleAlpha(0.5), 1)
    assert system.segments(1).tolist() == [[0.0, 0.25], [0.75, 1.0]]


def test_middle_alpha_strict_equals_natural():
    # centred families: the middle-third certificate picks the natural gap
    specs = [MiddleAlpha(alpha) for alpha in (0.2, 1 / 3, 0.5, 0.8)]
    specs += [middle_thirds(), FatCantor(0.3, 0.5), FatCantor(0.25, 0.5)]
    for spec in specs:
        strict = build_target_system(spec, 10, mode="strict")
        natural = build_target_system(spec, 10, mode="natural")
        assert_same_levels(strict, natural)


def test_strict_certificate_bound(affine):
    for spec in (affine, MiddleAlpha(0.15), FatCantor(0.25, 0.5)):
        system = build_target_system(spec, 8)
        for n in range(9):
            lengths = system.level_b[n] - system.level_a[n]
            assert np.all(lengths <= (2 / 3) ** n * (1 + 1e-9))


def test_affine_natural_levels(affine):
    system = build_target_system(affine, 2, mode="natural")
    assert system.segments(1).tolist() == [[0.0, 0.8], [0.9, 1.0]]
    want = [[0.0, 0.64], [0.72, 0.8], [0.9, 0.98], [0.99, 1.0]]
    assert np.allclose(system.segments(2), want, rtol=1e-15, atol=0)


def test_fat_cantor_keeps_measure():
    spec = FatCantor(0.25, 0.5)
    system = build_target_system(spec, 8, mode="natural")
    # removed proportions follow the geometric schedule
    for n in range(1, 9):
        rel = (system.gap_d[n] - system.gap_c[n]) / (
            system.level_b[n - 1] - system.level_a[n - 1])
        assert np.allclose(rel, 0.25 * 0.5 ** (n - 1), rtol=1e-12, atol=0)
    # the schedule sums to 1/2, so at least half the hull survives
    assert np.sum(system.level_b[8] - system.level_a[8]) > 0.5


def test_fat_cantor_schedule_validation():
    with pytest.raises(DomainError):
        FatCantor(0.6, 0.5)  # sums to 1.2
    with pytest.raises(DomainError):
        FatCantor(0.0, 0.5)
    with pytest.raises(DomainError):
        MiddleAlpha(1.0)
    with pytest.raises(DomainError):
        AffineIFS2(0.6, 0.5)  # overlapping contractions
    with pytest.raises(DomainError):
        AffineIFS2(0.0, 0.5)
    with pytest.raises(DomainError):
        MiddleAlpha(0.5, hull=(1.0, 0.0))


@pytest.mark.parametrize("hull", [(0.0, float("inf")), (float("-inf"), 1.0),
                                  (float("nan"), 1.0), (0.0, float("nan"))])
def test_nonfinite_hull_rejected(hull):
    makers = (
        lambda: MiddleAlpha(0.5, hull=hull),
        lambda: middle_thirds(hull),
        lambda: AffineIFS2(0.3, 0.2, hull=hull),
        lambda: FatCantor(0.3, 0.5, hull=hull),
        lambda: ExplicitGapTree(hull=hull, levels=()),
    )
    for make in makers:
        with pytest.raises(DomainError, match="hull must be finite"):
            make()


@pytest.mark.parametrize("hull", [(-1e308, 1e308), (-1.7e308, 1.7e308),
                                  (-1e300, 1e300), (0.0, 1.5e300)])
def test_overflowing_hull_width_rejected(hull):
    # each end is finite but b - a, or the dd split of it (b - a times
    # 2^27 + 1), is not: refused at construction, not deferred to a build
    # that fails with an unrelated message
    makers = (
        lambda: MiddleAlpha(0.5, hull=hull),
        lambda: middle_thirds(hull),
        lambda: AffineIFS2(0.3, 0.2, hull=hull),
        lambda: FatCantor(0.3, 0.5, hull=hull),
        lambda: ExplicitGapTree(hull=hull, levels=()),
    )
    for make in makers:
        with pytest.raises(DomainError, match="hull width"):
            make()


def test_widest_splittable_hull_builds():
    # 1.3e300 times 2^27 + 1 is still finite
    hull = (0.0, 1.3e300)
    for spec in (MiddleAlpha(0.5, hull=hull), AffineIFS2(0.3, 0.2, hull=hull),
                 ExplicitGapTree(hull=hull, levels=(((5e299, 8e299),),))):
        for mode in ("strict", "natural"):
            system = build_target_system(spec, 1, mode)
            assert system.hull == hull
        assert membership(spec, np.array(hull), 1).all()
        assert all(membership(spec, x, 1) for x in hull)


class TestExplicitGapTree:
    def tree(self):
        return ExplicitGapTree(
            hull=(0.0, 1.0),
            levels=(((0.4, 0.6),), ((0.1, 0.2), (0.7, 0.9))),
        )

    def test_natural_build(self):
        system = build_target_system(self.tree(), 2, mode="natural")
        assert system.segments(1).tolist() == [[0.0, 0.4], [0.6, 1.0]]
        assert system.segments(2).tolist() == [
            [0.0, 0.1], [0.2, 0.4], [0.6, 0.7], [0.9, 1.0]]

    def test_natural_beyond_stored_depth(self):
        with pytest.raises(SpecError):
            build_target_system(self.tree(), 3, mode="natural")

    def centred_tree(self):
        # every gap meets the middle third of its segment
        return ExplicitGapTree(
            hull=(0.0, 1.0),
            levels=(((0.4, 0.6),), ((0.15, 0.25), (0.75, 0.85))),
        )

    def test_strict_build(self):
        tree = self.centred_tree()
        system = build_target_system(tree, 2, mode="strict")
        assert system.segments(2).tolist() == [
            [0.0, 0.15], [0.25, 0.4], [0.6, 0.75], [0.85, 1.0]]
        assert_same_levels(system, build_target_system(tree, 2, mode="natural"))

    def test_strict_beyond_stored_depth(self):
        with pytest.raises(SpecError, match="no data below level 2"):
            build_target_system(self.centred_tree(), 3, mode="strict")
        # (0.1, 0.2) straddles the middle third of [0, 0.4], so the descent
        # already leaves the stored levels at depth 2
        assert build_target_system(self.tree(), 1, mode="strict").depth == 1
        with pytest.raises(SpecError, match=r"cannot refine \[0.0, 0.4\]"):
            build_target_system(self.tree(), 2, mode="strict")

    def test_membership_clamps(self):
        tree = self.tree()
        assert membership(tree, 0.05, 10)
        assert not membership(tree, 0.5, 10)
        assert not membership(tree, 0.15, 10)

    def test_validation(self):
        with pytest.raises(SpecError):
            ExplicitGapTree(hull=(0.0, 1.0), levels=(((0.4, 0.6), (0.7, 0.8)),))
        with pytest.raises(SpecError):
            ExplicitGapTree(hull=(0.0, 1.0), levels=(((0.6, 0.4),),))
        with pytest.raises(SpecError):
            ExplicitGapTree(hull=(0.0, 1.0), levels=(((0.4, 1.5),),))
        with pytest.raises(SpecError):
            ExplicitGapTree(
                hull=(0.0, 1.0),
                levels=(((0.4, 0.6),), ((0.1, 0.2), (0.05, 0.5))),
            )


def test_mode_validation(thirds):
    with pytest.raises(DomainError):
        build_target_system(thirds, 3, mode="loose")


def test_natural_mode_certification():
    # schedule fine for shallow builds but the bound must still be < 1
    spec = FatCantor(0.1, 0.2)
    system = build_target_system(spec, 3, mode="natural")
    assert system.depth == 3
    assert system.mode == "natural"


def assert_nested(system):
    for n in range(system.depth + 1):
        a, b = system.level_a[n], system.level_b[n]
        assert a.size == 1 << n and np.all(a < b) and np.all(b[:-1] < a[1:])
        if n:
            assert np.array_equal(a[0::2], system.level_a[n - 1])
            assert np.array_equal(b[1::2], system.level_b[n - 1])


@settings(max_examples=25, deadline=None)
@given(alpha=st.floats(min_value=0.05, max_value=0.9), depth=st.integers(0, 5))
def test_middle_alpha_invariants(alpha, depth):
    system = build_target_system(MiddleAlpha(alpha), depth)
    assert_nested(system)
    for n in range(depth + 1):
        lengths = system.level_b[n] - system.level_a[n]
        assert np.all(lengths <= (2 / 3) ** n * (1 + 1e-9))
        assert np.allclose(lengths, ((1 - alpha) / 2) ** n, rtol=1e-9)


@settings(max_examples=25, deadline=None)
@given(
    r1=st.floats(min_value=0.05, max_value=0.9),
    r2=st.floats(min_value=0.05, max_value=0.9),
    depth=st.integers(0, 5),
)
def test_affine_invariants(r1, r2, depth):
    if not r1 + r2 < 0.95:
        return
    system = build_target_system(AffineIFS2(r1, r2), depth)
    assert_nested(system)
    for n in range(depth + 1):
        lengths = system.level_b[n] - system.level_a[n]
        assert np.all(lengths <= (2 / 3) ** n * (1 + 1e-9))
    # stored cut points are members of the underlying set
    for x in np.concatenate([system.level_a[depth], system.level_b[depth]]):
        assert membership(AffineIFS2(r1, r2), float(x), 16)


# Frozen reference: the per-segment scalar walks the library once ran
# (middle-third search, tightening, split), kept as they were except that
# the level cap is an argument.  The array descents must reproduce them.


def _fractions(spec, count):
    """Removed proportions of the centred splits at tree levels 0..count-1,
    as double-double pairs."""
    if isinstance(spec, MiddleAlpha):
        return [(spec.alpha, spec.alpha_lo)] * count
    fracs = [(spec.gap0, 0.0)]
    while len(fracs) < count:
        fracs.append(_dd.mul(*fracs[-1], spec.ratio, 0.0))
    return fracs


def _cut(spec, U, V, frac):
    """Principal gap (G, H) of [U, V] for the formula families, composed
    from the dd kernels as the splitter once computed it, frozen as the
    oracle of _dd.cut; frac is the centred proportion (unused for
    AffineIFS2).  Parts may be arrays."""
    L = _dd.sub(*V, *U)
    if isinstance(spec, AffineIFS2):
        G = _dd.add(*U, *_dd.mul(*L, spec.r1, 0.0))
        H = _dd.sub(*V, *_dd.mul(*L, spec.r2, 0.0))
        return G, H
    rh, rl = _dd.sub(1.0, 0.0, *frac)
    half = _dd.mul(*L, rh / 2.0, rl / 2.0)
    return _dd.add(*U, *half), _dd.sub(*V, *half)


def _split(spec, U, V, n, j):
    """Principal gap (G, H) of segment (U, V) at level n, index j, as
    double-double pairs; None when an explicit tree has no deeper data."""
    if isinstance(spec, ExplicitGapTree):
        if n >= len(spec.levels):
            return None
        g, h = spec.levels[n][j]
        return (float(g), 0.0), (float(h), 0.0)
    if isinstance(spec, AffineIFS2):
        return _cut(spec, U, V, None)
    if isinstance(spec, (MiddleAlpha, FatCantor)):
        return _cut(spec, U, V, _fractions(spec, n + 1)[n])
    raise DomainError(f"unsupported spec type {type(spec).__name__}")


def _hull_dd(spec):
    a, b = spec.hull
    return (float(a), 0.0), (float(b), 0.0)


def _find_gap_dd(spec, c, d, limit):
    """Gap meeting the middle third of [c, d] (double-double pairs in/out).

    Walks the gap tree keeping a window that starts as the closed middle
    third and shrinks past any gap that substantially straddles its edge;
    returns either a tree gap inside the window or the window's overlap with
    a gap that swallows it (the caller's tightening recovers the full gap).
    The window edges carry a 1e-12 relative slack: segment endpoints arrive
    rounded to doubles, and without the slack a sub-ulp shift of the window
    could push the genuine middle-third gap just past an edge and send the
    descent into ever-smaller gaps hugging that edge.
    """
    w = _dd.sub(*d, *c)
    third = _dd.div(*w, 3.0, 0.0)
    lo = _dd.add(*c, *third)
    hi = _dd.sub(*d, *third)
    slack = (1e-12 * w[0], 0.0)
    U, V = _hull_dd(spec)
    n = j = 0
    for _ in range(limit):
        gap = _split(spec, U, V, n, j)
        if gap is None:
            raise SpecError(
                f"gap tree has no data below level {n}; cannot refine "
                f"[{c[0]!r}, {d[0]!r}]"
            )
        G, H = gap
        if _dd.le(*_dd.sub(*lo, *G), *slack) and _dd.le(*_dd.sub(*H, *hi), *slack):
            return G, H  # gap (essentially) inside the window
        if _dd.le(*_dd.sub(*G, *lo), *slack) and _dd.le(*_dd.sub(*hi, *H), *slack):
            # gap swallows the window; report the overlap
            return (lo if _dd.le(*G, *lo) else G), (hi if _dd.le(*hi, *H) else H)
        if _dd.le(*H, *lo):  # gap left of the window
            U, n, j = H, n + 1, 2 * j + 1
        elif _dd.le(*hi, *G):  # gap right of the window
            V, n, j = G, n + 1, 2 * j
        elif _dd.le(*G, *lo):  # gap straddles the left edge; keep (H, hi)
            U, n, j = H, n + 1, 2 * j + 1
            lo = H
        else:  # gap straddles the right edge; keep (lo, G)
            V, n, j = G, n + 1, 2 * j
            hi = G
    raise SpecError(
        f"no gap found in the middle third of [{c[0]!r}, {d[0]!r}] within {limit} "
        "levels; the specification may describe degenerate segments"
    )


def _tighten_dd(spec, e, f, limit, slack=(0.0, 0.0)):
    """Widen the member-free interval (e, f) to the maximal natural gap
    containing it (double-double pairs in/out).

    slack absorbs endpoint rounding: a natural gap counts as containing
    (e, f) when it does so up to slack per side.  Internal callers hand in
    exact tree values and use zero slack; the public wrapper passes its tol.
    """
    U, V = _hull_dd(spec)
    n = j = 0
    for _ in range(limit):
        gap = _split(spec, U, V, n, j)
        if gap is None:
            raise SpecError(
                f"gap tree has no data below level {n}; cannot tighten "
                f"({e[0]!r}, {f[0]!r})"
            )
        G, H = gap
        if _dd.le(*_dd.sub(*G, *e), *slack) and _dd.le(*_dd.sub(*f, *H), *slack):
            return G, H
        if _dd.le(*f, *G):
            V, j = G, 2 * j
        elif _dd.le(*H, *e):
            U, j = H, 2 * j + 1
        else:
            raise DomainError(
                f"({e[0]!r}, {f[0]!r}) contains members of the target set"
            )
        n += 1
    raise SpecError(
        f"no natural gap contains ({e[0]!r}, {f[0]!r}) within {limit} levels"
    )


def walk_limit(spec):
    """Level cap for the frozen walks: the derived descent limit.  An
    explicit tree's walk must pass its stored depth to reach the missing
    data and raise for it, so it gets one level more."""
    return _descent_limit(spec) + isinstance(spec, ExplicitGapTree)


LEVEL_ARRAYS = ("level_a", "a_lo", "level_b", "b_lo", "gap_c", "c_lo", "gap_d", "d_lo")


def assert_same_levels(x, y):
    assert x.depth == y.depth
    for name in LEVEL_ARRAYS:
        for n in range(x.depth + 1):
            assert np.array_equal(getattr(x, name)[n], getattr(y, name)[n]), (name, n)


def reference_build(spec, depth, mode):
    """Per-segment build from the scalar helpers, holding the level arrays
    of a TargetSystem."""
    a, b = spec.hull
    limit = walk_limit(spec)
    segs, gaps = [((float(a), 0.0), (float(b), 0.0))], []
    ref = SimpleNamespace(depth=depth, **{name: [] for name in LEVEL_ARRAYS})
    for n in range(depth + 1):
        columns = zip(LEVEL_ARRAYS[::2], LEVEL_ARRAYS[1::2],
                      ([s[0] for s in segs], [s[1] for s in segs],
                       [g[0] for g in gaps], [g[1] for g in gaps]))
        for hi, lo, pairs in columns:
            getattr(ref, hi).append(np.array([x[0] for x in pairs]))
            getattr(ref, lo).append(np.array([x[1] for x in pairs]))
        if n == depth:
            return ref
        gaps, nxt = [], []
        for j, (U, V) in enumerate(segs):
            if mode == "strict":
                G, H = _tighten_dd(spec, *_find_gap_dd(spec, U, V, limit), limit)
            else:
                G, H = _split(spec, U, V, n, j)
            gaps.append((G, H))
            nxt += [(U, G), (H, V)]
        segs = nxt


def assert_matches_reference(spec, depth, mode):
    try:
        reference = reference_build(spec, depth, mode)
    except SpecError as exc:
        # e.g. a strict descent past the stored levels: same error, same text
        with pytest.raises(SpecError) as got:
            build_target_system(spec, depth, mode)
        assert str(got.value) == str(exc)
        return
    assert_same_levels(build_target_system(spec, depth, mode), reference)


ORACLE_SPECS = [
    middle_thirds(),
    MiddleAlpha(0.2),
    MiddleAlpha(0.5),
    MiddleAlpha(0.8),
    FatCantor(0.3, 0.5),
    AffineIFS2(0.3, 0.2),
    AffineIFS2(0.2, 0.5),
    AffineIFS2(0.5, 0.1),
    AffineIFS2(0.8, 0.1),
    # off-centre gaps, each inside the middle third of its segment
    ExplicitGapTree(
        hull=(-1.0, 2.0),
        levels=(
            ((0.2, 0.9),),
            ((-0.5, -0.3), (1.3, 1.6)),
            ((-0.8, -0.7), (-0.1, 0.0), (1.05, 1.1), (1.75, 1.85)),
        ),
    ),
]


@pytest.mark.parametrize("mode", ["strict", "natural"])
@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=repr)
def test_build_matches_scalar_reference(spec, mode):
    # the level-at-a-time build stores the bits of the per-segment loop
    depth = spec.depth if isinstance(spec, ExplicitGapTree) else 9
    assert_matches_reference(spec, depth, mode)


@settings(max_examples=20, deadline=None)
@given(
    r1=st.floats(min_value=0.02, max_value=0.95),
    r2=st.floats(min_value=0.02, max_value=0.95),
    depth=st.integers(0, 6),
    mode=st.sampled_from(["strict", "natural"]),
)
def test_affine_build_matches_scalar_reference(r1, r2, depth, mode):
    if not r1 + r2 < 0.97:
        return
    assert_matches_reference(AffineIFS2(r1, r2), depth, mode)


def test_strict_middle_thirds_depth_16_exact(thirds):
    # every stored endpoint is the correctly rounded k / 3^16
    system = build_target_system(thirds, 16)
    lefts = np.array([0], dtype=np.int64)  # level-n left ends in units of 3^-n
    for _ in range(16):
        lefts = np.stack([3 * lefts, 3 * lefts + 2], axis=1).ravel()
    scale = 3 ** 16
    assert np.array_equal(system.level_a[16],
                          [float(Fraction(int(k), scale)) for k in lefts])
    assert np.array_equal(system.level_b[16],
                          [float(Fraction(int(k) + 1, scale)) for k in lefts])


@pytest.mark.parametrize("spec, depth", [
    (AffineIFS2(0.05, 0.9), 8),
    (AffineIFS2(0.9, 0.05), 8),
    (AffineIFS2(0.01, 0.97), 12),
], ids=repr)
def test_lopsided_affine_strict(spec, depth):
    # near the slowly contracting end the gap meeting a middle third lies
    # far down the tree (about 167 levels for 0.01, 0.97), well past a
    # fixed cap of 64 but inside the derived descent limit
    system = build_target_system(spec, depth)
    assert_nested(system)
    for n in range(depth + 1):
        lengths = system.level_b[n] - system.level_a[n]
        assert np.all(lengths <= (2 / 3) ** n * (1 + 1e-9))
    for x in np.concatenate([system.level_a[depth], system.level_b[depth]]):
        assert membership(spec, float(x), 16)


def test_descent_limit_values():
    # first level whose nodes fall below 2^-106 of the hull
    cases = [(middle_thirds(), 67), (FatCantor(0.3, 0.5), 106),
             (AffineIFS2(0.3, 0.2), 62), (AffineIFS2(0.05, 0.9), 698),
             (AffineIFS2(0.01, 0.97), 2413),
             (TestExplicitGapTree().tree(), 2)]
    for spec, limit in cases:
        assert _descent_limit(spec) == limit


def outcome(fn, *args):
    """fn(*args) as floats, or the type and text of the error it raised."""
    try:
        E, F = fn(*args)
    except CantorDynError as exc:
        return type(exc), str(exc)
    return tuple(float(x[0]) if isinstance(x, tuple) else x for x in (E, F))


def one_lane_find(spec, c, d):
    """find_gap_in_middle_third past its argument checks."""
    E, F, *_, missed = _find_gaps(_NodeSplitter(spec), _lane(c, 0.0),
                                  _lane(d, 0.0), _hull_lane(spec))
    if missed[0] >= 0:
        raise _descent_error(spec, "refine", missed[0], c, d)
    return float(E[0][0]), float(F[0][0])


def one_lane_tighten(spec, e, f, tol):
    """tighten_gap past its argument checks."""
    return _tighten(_NodeSplitter(spec), (e, 0.0), (f, 0.0), tol)


# AffineIFS2(0.05, 0.9) descends up to 698 levels
HELPER_SPECS = [middle_thirds(), MiddleAlpha(0.5), AffineIFS2(0.3, 0.2),
                AffineIFS2(0.8, 0.1), FatCantor(0.3, 0.5),
                AffineIFS2(0.05, 0.9), MiddleAlpha(0.2, hull=(-2.0, 3.0))]


@pytest.mark.parametrize("spec", HELPER_SPECS, ids=repr)
def test_helpers_match_frozen_walks(spec):
    limit = walk_limit(spec)
    a, b = spec.hull
    system = build_target_system(spec, 6)
    for n in range(7):
        for c, d in zip(system.level_a[n].tolist(), system.level_b[n].tolist()):
            found = outcome(_find_gap_dd, spec, (c, 0.0), (d, 0.0), limit)
            assert outcome(find_gap_in_middle_third, spec, (c, d)) == found
            e, f = found
            for tol in (None, 1e-6):
                slack = (1e-12 * (b - a) if tol is None else tol, 0.0)
                assert outcome(tighten_gap, spec, (e, f), tol) == outcome(
                    _tighten_dd, spec, (e, 0.0), (f, 0.0), limit, slack)
            # the open segment holds members
            members = outcome(tighten_gap, spec, (c, d))
            assert members == outcome(_tighten_dd, spec, (c, 0.0), (d, 0.0),
                                      limit, (1e-12 * (b - a), 0.0))
            assert members[0] is DomainError
    # outside the hull both descents run out of tree at the derived limit
    w = b - a
    for x, y in ((a - w / 2, a - w / 4), (b + w / 4, b + w / 2)):
        for got, want in (
                (outcome(one_lane_find, spec, x, y),
                 outcome(_find_gap_dd, spec, (x, 0.0), (y, 0.0), limit)),
                (outcome(one_lane_tighten, spec, x, y, 1e-12),
                 outcome(_tighten_dd, spec, (x, 0.0), (y, 0.0), limit,
                         (1e-12, 0.0)))):
            assert got == want
            assert got[0] is SpecError and f"within {limit} levels" in got[1]


def test_helpers_past_stored_data_match_frozen_walks():
    tree = TestExplicitGapTree().tree()
    limit = walk_limit(tree)
    got = outcome(find_gap_in_middle_third, tree, (0.0, 0.4))
    assert got == outcome(_find_gap_dd, tree, (0.0, 0.0), (0.4, 0.0), limit)
    assert got == (SpecError, "gap tree has no data below level 2; cannot "
                              "refine [0.0, 0.4]")
    got = outcome(tighten_gap, tree, (0.05, 0.06))
    assert got == outcome(_tighten_dd, tree, (0.05, 0.0), (0.06, 0.0), limit,
                          (1e-12, 0.0))
    assert got == (SpecError, "gap tree has no data below level 2; cannot "
                              "tighten (0.05, 0.06)")


@pytest.mark.parametrize("spec", ORACLE_SPECS + [AffineIFS2(0.05, 0.9)],
                         ids=repr)
def test_search_stops_at_the_gap_a_tightening_finds(spec):
    # the strict build splits at the tree gap its search stops at and runs
    # no tightening: on every strict level, the search from the build's
    # start nodes and from the hull reports the same gap and node, the node
    # splits to that gap, and a zero-slack tightening of the search's
    # (E, F) from the hull returns that gap
    depth = spec.depth if isinstance(spec, ExplicitGapTree) else 8
    split = _NodeSplitter(spec)
    start = _hull_lane(spec)
    A, B = start[0:2], start[2:4]
    for _ in range(depth):
        m = A[0].size
        hull = tuple(np.repeat(x, m) for x in _hull_lane(spec))
        *found, missed = _find_gaps(split, A, B, start)
        *from_hull, hull_missed = _find_gaps(split, A, B, hull)
        assert np.all(missed == -1) and np.all(hull_missed == -1)
        for got, want in zip(from_hull, found):
            assert all(map(np.array_equal, got, want))
        E, F, G, H, node = found
        U0, U1, V0, V1, n, j = node
        assert all(map(np.array_equal, split((U0, U1), (V0, V1), n, j), (G, H)))
        for lane in zip(*(x.tolist() for x in (*E, *F, *G, *H))):
            e, f, g, h = lane[0:2], lane[2:4], lane[4:6], lane[6:8]
            assert _tighten(split, e, f, 0.0) == (g, h)
        G, H, start, _ = _strict_gaps(split, A, B, start)
        A = tuple(_interleave(u, g) for u, g in zip(A, H))
        B = tuple(_interleave(g, v) for g, v in zip(G, B))
    # the loop above is the build's
    system = build_target_system(spec, depth)
    for got, want in zip((*A, *B), ("level_a", "a_lo", "level_b", "b_lo")):
        assert np.array_equal(got, getattr(system, want)[depth])


def searched_levels(spec, depth):
    """The strict build with the middle-third search on every level, the
    way every spec was built before centred ones split directly: per depth
    0..depth, the level's endpoints (A, B) as dd pairs, or the type and
    text of the error a build to that depth raises."""
    split = _NodeSplitter(spec)
    start = _hull_lane(spec)
    A, B = start[0:2], start[2:4]
    out = [(A, B)]
    for n in range(depth):
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                G, H, start, missed = _strict_gaps(split, A, B, start)
                _check_splits(spec, n, A, B, G, H, missed)
        except CantorDynError as exc:
            return out + [(type(exc), str(exc))] * (depth - n)
        A = tuple(_interleave(u, g) for u, g in zip(A, H))
        B = tuple(_interleave(g, v) for g, v in zip(G, B))
        out.append((A, B))
    return out


def level_bits(level):
    """A searched_levels entry with its arrays as bytes (-0.0 != 0.0)."""
    if isinstance(level[0], type):
        return level
    return tuple(x.tobytes() for pair in level for x in pair)


def strict_build_bits(spec, depth):
    """The strict build's endpoints as bytes, or the type and text of its
    error.  The build refuses a depth whose public endpoints collide in
    doubles; the bits of such a depth are read from the same build without
    that check, after checking that they do collide."""
    try:
        system = build_target_system(spec, depth, "strict")
    except CantorDynError as exc:
        if "collide in doubles" not in str(exc):
            return type(exc), str(exc)
        with mock.patch.object(target_cantor, "_check_resolved",
                               lambda system, what: system):
            system = build_target_system(spec, depth, "strict")
        a, b = system.a_N, system.b_N
        assert not (np.all(a < b) and np.all(b[:-1] < a[1:]))
    assert system.mode == "strict"
    return tuple(x.tobytes() for x in (system.a_N, system.a_lo_N,
                                       system.b_N, system.b_lo_N))


CENTRED_HULLS = [(0.0, 1.0), (-0.0, 1.0), (1e6, 1e6 + 3), (1e15, 1e15 + 1),
                 (1e20, 1e20 + 16384), (-1e-300, 1e-300)]
CENTRED_SPECS = {
    "middle-thirds": middle_thirds,  # alpha = 1/3 in double-double
    # the doubles on either side of 1/3
    "alpha-below-third": lambda hull: MiddleAlpha(0.3333333333333333, hull),
    "alpha-above-third": lambda hull: MiddleAlpha(0.33333333333333337, hull),
    "alpha-0.5": lambda hull: MiddleAlpha(0.5, hull),
    "alpha-0.001": lambda hull: MiddleAlpha(0.001, hull),
    "alpha-0.999": lambda hull: MiddleAlpha(0.999, hull),
    "fat-0.5-third": lambda hull: FatCantor(0.5, 1 / 3, hull),
}


def assert_strict_build_matches_the_search(spec):
    # bit for bit, errors included, to the descent limit; past it
    # test_strict_build_is_the_natural_build covers the error
    depth = min(_descent_limit(spec), 14)
    for d, level in enumerate(searched_levels(spec, depth)):
        assert strict_build_bits(spec, d) == level_bits(level), d


@pytest.mark.parametrize("hull", CENTRED_HULLS, ids=repr)
@pytest.mark.parametrize("name", CENTRED_SPECS)
def test_centred_strict_build_matches_the_search(name, hull):
    assert_strict_build_matches_the_search(CENTRED_SPECS[name](hull))


# both ratios on one side of 1/3 (the doubles on either side of 1/3 included,
# alone and mixed) split naturally; opposite sides always search
AFFINE_SPECS = {
    "below-third-and-0.2": (0.3333333333333333, 0.2),
    "0.2-and-below-third": (0.2, 0.3333333333333333),
    "above-third-and-0.5": (0.33333333333333337, 0.5),
    "0.5-and-above-third": (0.5, 0.33333333333333337),
    "below-third-and-0.5": (0.3333333333333333, 0.5),
    "0.2-and-above-third": (0.2, 0.33333333333333337),
    "both-below-third": (0.3333333333333333, 0.3333333333333333),
    "both-above-third": (0.33333333333333337, 0.33333333333333337),
    "below-and-above-third": (0.3333333333333333, 0.33333333333333337),
    "above-and-below-third": (0.33333333333333337, 0.3333333333333333),
    "0.3-0.2": (0.3, 0.2),
    "0.4-0.5": (0.4, 0.5),
    "0.8-0.1": (0.8, 0.1),
    "0.05-0.9": (0.05, 0.9),
    "0.01-0.97": (0.01, 0.97),
}


@pytest.mark.parametrize("hull", CENTRED_HULLS, ids=repr)
@pytest.mark.parametrize("name", AFFINE_SPECS)
def test_affine_strict_build_matches_the_search(name, hull):
    assert_strict_build_matches_the_search(AffineIFS2(*AFFINE_SPECS[name], hull))


def test_natural_build_peaks_near_its_output():
    # memory guard, in bytes numpy reports to tracemalloc: the build writes
    # each level's gaps into the knot arrays it returns and splits in
    # blocks of _BLOCK lanes, so at depth 18 it peaks at about 1.23 times
    # its output, the excess being about 30 arrays of one block whatever
    # the depth (holding whole levels, as the build once did, peaked at
    # 3.3 times)
    build_target_system(middle_thirds(), 4, "natural")
    tracemalloc.start()
    try:
        system = build_target_system(middle_thirds(), 18, "natural")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out = system.knots.nbytes + system.knots_lo.nbytes
    assert out == 2 * 8 * (2 << 18)
    assert peak < 1.5 * out
    assert peak - out < 40 * 8 * _BLOCK


@pytest.mark.parametrize("depth, parent_peak", [(14, 2216496),
                                                (16, 3955120)])
def test_natural_build_peaks_no_higher(depth, parent_peak):
    # memory guard, in bytes numpy reports to tracemalloc: the written-out
    # _dd.cut drops each temporary once spent, so a block's split keeps
    # fewer arrays alive than the composed split, whose peaks these are
    build_target_system(middle_thirds(), 4, "natural")
    tracemalloc.start()
    try:
        build_target_system(middle_thirds(), depth, "natural")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < parent_peak


SAME_SIDE = [name for name, r in AFFINE_SPECS.items()
             if (r[0] <= 1 / 3) == (r[1] <= 1 / 3)]


def test_splits_naturally_reads_the_spec():
    # centred gaps, and affine ratios on one side of 1/3, meet the middle
    # third of their own segment; opposite sides and explicit trees search
    assert SAME_SIDE == ["below-third-and-0.2", "0.2-and-below-third",
                         "above-third-and-0.5", "0.5-and-above-third",
                         "both-below-third", "both-above-third", "0.3-0.2",
                         "0.4-0.5"]
    for name in CENTRED_SPECS:
        for hull in ((0.0, 1.0), (0.0, 2.0 ** -1020)):
            assert _splits_naturally(CENTRED_SPECS[name](hull)), name
    for name, ratios in AFFINE_SPECS.items():
        assert _splits_naturally(AffineIFS2(*ratios)) == (name in SAME_SIDE)
    assert not _splits_naturally(TestExplicitGapTree().centred_tree())


def build_outcome(spec, depth, mode):
    """A build's knots as bytes, or the type and text of its error with
    the mode word removed."""
    try:
        system = build_target_system(spec, depth, mode)
    except CantorDynError as exc:
        return type(exc), str(exc).replace(f"{mode} target", "target")
    return system.knots.tobytes(), system.knots_lo.tobytes()


NATURAL_SPECS = {
    **CENTRED_SPECS,
    **{name: lambda hull, r=AFFINE_SPECS[name]: AffineIFS2(*r, hull)
       for name in SAME_SIDE},
}
# the segments of the last four go subnormal before the descent limit
NATURAL_HULLS = CENTRED_HULLS + [(0.0, 2.0 ** -969), (0.0, 2.0 ** -958.8),
                                 (0.0, 1e-310), (0.0, 2.0 ** -1020)]


@pytest.mark.parametrize("hull", NATURAL_HULLS, ids=repr)
@pytest.mark.parametrize("name", NATURAL_SPECS)
def test_strict_build_is_the_natural_build(name, hull):
    # to two levels past the descent limit: the same knots, or the same error
    spec = NATURAL_SPECS[name](hull)
    for d in range(min(_descent_limit(spec) + 2, 14) + 1):
        want = build_outcome(spec, d, "natural")
        assert build_outcome(spec, d, "strict") == want, d


def test_subnormal_affine_builds_split_naturally():
    # with a ratio one ulp from 1/3 on a subnormal hull, the middle-third
    # search's 1e-12 relative slack underflows and its window test is
    # rounding noise; strict builds split naturally there too, and so
    # resolve depths a search refused ("level 6 split degenerated")
    spec = AffineIFS2(0.3333333333333333, 0.2, hull=(0.0, 1e-310))
    kind, text = searched_levels(spec, 6)[6]
    assert kind is SpecError and text.startswith("level 6 split degenerated")
    assert build_target_system(spec, 10).mode == "strict"
    for d in (5, 6, 10):
        assert build_outcome(spec, d, "strict") == build_outcome(
            spec, d, "natural")
    # on (0, 2^-1020) the search's endpoints collide at depth 10
    spec = AffineIFS2(0.3333333333333333, 0.2, hull=(0.0, 2.0 ** -1020))
    with pytest.raises(DomainError, match="collide in doubles"):
        with mock.patch.object(target_cantor, "_splits_naturally",
                               lambda spec: False):
            build_target_system(spec, 10)
    system = build_target_system(spec, 10)
    assert np.all(system.a_N < system.b_N)
    assert np.all(system.b_N[:-1] < system.a_N[1:])


def test_strict_descent_error_past_the_limit_keeps_its_text():
    # strict mode splits naturally past the descent limit (5) too, and the
    # split of a segment that rounds to one double degenerates
    spec = MiddleAlpha(0.999, hull=(1e16, 1e16 + 2))
    assert _descent_limit(spec) == 5
    for mode in ("strict", "natural"):
        with pytest.raises(SpecError) as got:
            build_target_system(spec, 6, mode)
        assert str(got.value) == (
            "level 6 split degenerated: segment [1e+16, 1e+16] with gap "
            "(1e+16, 1e+16)")


MEMBERSHIP_SPECS = ORACLE_SPECS + [
    MiddleAlpha(0.5, hull=(-0.0, 1.0)),
    AffineIFS2(0.05, 0.9),
    ExplicitGapTree(hull=(0.0, 1.0),
                    levels=(((0.4, 0.6),), ((0.1, 0.2), (0.7, 0.9)))),
    ExplicitGapTree(hull=(0.0, 1.0), levels=()),
]


def membership_probes(spec):
    """Stored endpoints of a natural build (exact members), their
    neighbours, gap midpoints and gap edges, points outside the hull, the
    hull corners, 0.0 beside -0.0, nan and a uniform spread."""
    depth = min(6, _descent_limit(spec))
    system = build_target_system(spec, depth, mode="natural")
    ends = np.concatenate([system.a_N, system.b_N])
    gaps = np.concatenate([np.empty(0)] + [
        np.concatenate([system.gap_c[n], system.gap_d[n],
                        0.5 * (system.gap_c[n] + system.gap_d[n])])
        for n in range(1, depth + 1)])
    a, b = (float(v) for v in spec.hull)
    return np.concatenate([
        ends, np.nextafter(ends, np.inf), np.nextafter(ends, -np.inf), gaps,
        [a, b, np.nextafter(a, -np.inf), np.nextafter(b, np.inf), a - 1.0,
         b + 1.0, 0.0, -0.0, np.nan, np.inf, -np.inf],
        np.linspace(a - 0.25, b + 0.25, 301)])


@pytest.mark.parametrize("spec", MEMBERSHIP_SPECS, ids=repr)
def test_array_membership_matches_scalar(spec):
    # depths past an explicit tree's stored levels clamp on both paths
    x = membership_probes(spec)
    for depth in (1, 2, 3, 6, 9, 40):
        got = membership(spec, x, depth)
        assert got.dtype == bool and got.shape == x.shape
        want = [membership(spec, float(v), depth) for v in x]
        assert got.tolist() == want, depth


def test_array_membership_shapes_and_validation(thirds, thirds12):
    block = thirds12.level_a[4].reshape(4, 4)
    got = membership(thirds, block, 12)
    assert got.shape == (4, 4) and got.all()
    assert membership(thirds, np.empty(0), 12).shape == (0,)
    assert membership(thirds, np.array(0.5), 3).shape == ()
    assert not membership(thirds, np.array(0.5), 3)
    with pytest.raises(DomainError):
        membership(thirds, np.array([0.5]), 0)


def test_array_membership_clamps_explicit_depth():
    tree = ExplicitGapTree(hull=(0.0, 1.0),
                           levels=(((0.4, 0.6),), ((0.1, 0.2), (0.7, 0.9))))
    x = np.array([0.05, 0.15, 0.3, 0.5, 0.65, 0.8, 0.95, 1.0])
    want = [True, False, True, False, True, False, True, True]
    for depth in (2, 3, 10, 1000):
        assert membership(tree, x, depth).tolist() == want
    assert membership(tree, x, 1).tolist() == [True, True, True, False,
                                               True, True, True, True]


def explicit_tree(depth):
    """An explicit gap tree holding the gaps of a natural MiddleAlpha(0.4)
    build, `depth` levels deep."""
    system = build_target_system(MiddleAlpha(0.4, hull=(-1.0, 2.0)), depth,
                                 mode="natural")
    return ExplicitGapTree(hull=(-1.0, 2.0), levels=tuple(
        tuple(zip(system.gap_c[k].tolist(), system.gap_d[k].tolist()))
        for k in range(1, depth + 1)))


@pytest.mark.parametrize("spec", [
    middle_thirds(), MiddleAlpha(0.5, hull=(-0.0, 1.0)), AffineIFS2(0.3, 0.2),
    AffineIFS2(0.05, 0.9), FatCantor(0.3, 0.5), FatCantor(0.05, 0.9),
    explicit_tree(6)], ids=repr)
def test_int_level_splitter_matches_per_lane_levels(spec):
    # one int level over lane arrays gives, bit for bit, the gaps of the
    # call with one level per lane (on the same splitter and on a fresh
    # one) and of the float call on a lane; the splitter meets each level
    # first as an int, FatCantor's past its cached proportions
    rng = np.random.default_rng(5)
    a, b = spec.hull
    explicit = isinstance(spec, ExplicitGapTree)
    split = _NodeSplitter(spec)
    for n in (0, 1, 2, 5) if explicit else (0, 3, 2, 30, 31, 90):
        if explicit:
            j = rng.permutation(1 << n)  # every node of the level
        else:
            j = rng.integers(0, 1 << min(n, 62), 64)
        m = j.size
        u = np.sort(rng.uniform(a, b, (2, m)), axis=0)
        U, V = (u[0], rng.uniform(-1e-18, 1e-18, m)), (u[1], np.zeros(m))
        got = split(U, V, n, j)
        for s in (split, _NodeSplitter(spec)):
            assert level_bits(got) == level_bits(s(U, V, np.full(m, n), j))
        k = m - 1
        G, H = _NodeSplitter(spec)((U[0].item(k), U[1].item(k)),
                                   (V[0].item(k), V[1].item(k)), n,
                                   int(j[k]))
        lane = [part[k] for gap in got for part in gap]
        assert np.array(lane).tobytes() == np.array([*G, *H]).tobytes()


# --- narrow levels on floats against the composed array build -------------

class ComposedSplitter(_NodeSplitter):
    """The splitter with the formula families' gaps taken by the composed
    _cut above, frozen as the oracle of _dd.cut and the narrow levels."""

    def __call__(self, U, V, n, j):
        if isinstance(self.spec, ExplicitGapTree) or isinstance(n, np.ndarray):
            return super().__call__(U, V, n, j)
        return _split(self.spec, U, V, n, j)


def short_id(value):
    """A test id: the repr, save the stored gaps of an explicit tree."""
    if isinstance(value, ExplicitGapTree):
        return f"ExplicitGapTree(depth={value.depth})"
    return repr(value)


BOUNDARY_SPECS = [
    (spec, mode) for spec in (
        middle_thirds(), MiddleAlpha(0.5, hull=(-0.0, 1.0)),
        AffineIFS2(0.3, 0.2), AffineIFS2(0.8, 0.1),
        FatCantor(0.3, 0.5, hull=(-2.0, 3.0)))
    for mode in ("strict", "natural")] + [(explicit_tree(12), "natural")]


@pytest.mark.parametrize("spec, mode", BOUNDARY_SPECS, ids=short_id)
def test_narrow_levels_match_the_composed_build(spec, mode, monkeypatch):
    # blocks of fewer than _NARROW segments split lane by lane on floats:
    # none (1), the default, or every level to depth 12 (2^13); each build
    # has the bits of the composed splits run on whole-level arrays
    got = {}
    for narrow in (1, target_cantor._NARROW, 1 << 13):
        monkeypatch.setattr(target_cantor, "_NARROW", narrow)
        got[narrow] = [build_outcome(spec, d, mode) for d in range(13)]
    monkeypatch.setattr(target_cantor, "_NARROW", 0)
    monkeypatch.setattr(target_cantor, "_NodeSplitter", ComposedSplitter)
    want = [build_outcome(spec, d, mode) for d in range(13)]
    for narrow, outcomes in got.items():
        assert outcomes == want, narrow


class DegenerateSplitter(_NodeSplitter):
    """The splitter, except that node 5 of level 3 keeps its whole segment
    as its left child: an empty left gap edge, G = U."""

    def __call__(self, U, V, n, j):
        G, H = super().__call__(U, V, n, j)
        if n != 3:
            return G, H
        if isinstance(j, np.ndarray):
            return tuple(np.where(j == 5, u, g) for u, g in zip(U, G)), H
        return (U if j == 5 else G), H


@pytest.mark.parametrize("spec", [middle_thirds(), AffineIFS2(0.3, 0.2),
                                  FatCantor(0.3, 0.5), explicit_tree(6)],
                         ids=short_id)
def test_degenerate_narrow_split_keeps_its_text(spec, monkeypatch):
    # the same SpecError, whether level 3 (8 segments) splits lane by lane
    # on floats or as one block
    u = build_target_system(spec, 3, "natural").level_a[3].item(5)
    monkeypatch.setattr(target_cantor, "_NodeSplitter", DegenerateSplitter)
    texts = []
    for narrow in (1, target_cantor._NARROW):
        monkeypatch.setattr(target_cantor, "_NARROW", narrow)
        with pytest.raises(SpecError) as got:
            build_target_system(spec, 6, "natural")
        texts.append(str(got.value))
    assert texts[0] == texts[1]
    assert texts[0].startswith(
        f"level 4 split degenerated: segment [{u!r}, ")
    assert f"with gap ({u!r}, " in texts[0]


def test_rounded_away_segment_degenerates_alike_on_floats(monkeypatch):
    # a segment that rounds to one double degenerates at level 6 (32
    # segments), whether that level splits on arrays or on floats
    spec = MiddleAlpha(0.999, hull=(1e16, 1e16 + 2))
    for narrow in (1, 1 << 13):
        monkeypatch.setattr(target_cantor, "_NARROW", narrow)
        with pytest.raises(SpecError) as got:
            build_target_system(spec, 6, "natural")
        assert str(got.value) == (
            "level 6 split degenerated: segment [1e+16, 1e+16] with gap "
            "(1e+16, 1e+16)")
