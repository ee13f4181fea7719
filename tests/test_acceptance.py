"""End-to-end checks of the library's headline guarantees, with runtime caps.

Each test pins one guarantee: fixed points, the escape gap, refinement
structure and contraction, endpoint orbits, exact middle-thirds arithmetic,
conjugacy properties, spot values of F*, the bounded/divergent dichotomy,
the escape-time demo, and serialization.  Exact constants use Fraction or
Decimal oracles computed in the test itself; float tolerances are stated
inline at each assertion.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from cantordyn import (
    build_model_system,
    build_phi,
    build_target_system,
    cli,
    derive_params,
    eval_fstar,
    eval_phi,
    eval_phi_inverse,
    fixed_points,
    gap_A0,
    iterate_target,
    mandelbrot_escape,
    max_segment_length,
    membership,
)
from cantordyn.fileio import export_escape_image, load_system, save_system


def bisect_root(f, lo, hi):
    flo = f(lo)
    for _ in range(200):
        mid = (lo + hi) / 2
        if mid in (lo, hi):
            break
        fm = f(mid)
        if (fm < 0) == (flo < 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return (lo + hi) / 2


def test_01_fixed_points():
    start = time.perf_counter()
    for c in (0.25, -1.0, -3.0):
        q, p = fixed_points(c)
        assert abs((p * p + c) - p) <= 1e-12
        assert abs((q * q + c) - q) <= 1e-12
        if c == 0.25:
            assert p == 0.5 and q == 0.5
        else:
            f = lambda x: x * x - x + c
            assert abs(p - bisect_root(f, 0.5, 10.0)) <= 1e-10
            assert abs(q - bisect_root(f, -10.0, 0.5)) <= 1e-10
    assert time.perf_counter() - start < 1.0


def test_02_escape_gap():
    start = time.perf_counter()
    gap = gap_A0(derive_params(-3.0))
    assert gap is not None
    assert gap[0] == -gap[1]
    assert abs(gap[1] - 0.8349996181244668) <= 1e-9
    assert gap_A0(derive_params(-2.0)) is None
    assert gap_A0(derive_params(-1.0)) is None
    assert time.perf_counter() - start < 1.0


def test_03_structure_to_depth_20(params3):
    start = time.perf_counter()
    system = build_model_system(params3, 20)
    for n in range(21):
        a, b = system.level_a[n], system.level_b[n]
        assert a.size == b.size == 2 ** n
        assert np.all(a < b)
        assert np.all(b[:-1] < a[1:])
        if n:
            assert np.array_equal(a[0::2], system.level_a[n - 1])
            assert np.array_equal(b[1::2], system.level_b[n - 1])
        bound = 2 * params3.p * 1.6699 ** -n * (1 + 1e-9)
        assert max_segment_length(system, n) <= bound
    assert time.perf_counter() - start < 5.0


def test_04_endpoint_orbits_return(params3, model12):
    start = time.perf_counter()
    p = params3.p
    for n in range(13):
        x = np.concatenate([model12.level_a[n], model12.level_b[n]])
        for _ in range(n):
            x = x * x + params3.c
        assert np.all(np.minimum(np.abs(x - p), np.abs(x + p)) <= 1e-6)
    assert time.perf_counter() - start < 5.0


def test_05_middle_thirds_exact(thirds, thirds12):
    start = time.perf_counter()
    third = Fraction(1, 3)
    segs = [(Fraction(0), Fraction(1))]
    for n in range(1, 13):
        segs = [piece
                for u, v in segs
                for piece in ((u, u + (v - u) * third),
                              (v - (v - u) * third, v))]
        a, b = thirds12.level_a[n], thirds12.level_b[n]
        for j, (u, v) in enumerate(segs):
            # lengths are exactly 3^-n in exact arithmetic, and the stored
            # doubles are the correctly rounded exact endpoints
            assert v - u == Fraction(1, 3**n)
            assert a[j] == float(u) and b[j] == float(v)
            assert membership(thirds, float(u), 12)
            assert membership(thirds, float(v), 12)
        mids = (thirds12.gap_c[n] + thirds12.gap_d[n]) / 2
        for m in mids:
            assert not membership(thirds, float(m), 12)
    assert time.perf_counter() - start < 5.0


def test_06_phi_properties(params3, phi12, phi13, model12, thirds12):
    start = time.perf_counter()
    xs = np.linspace(-params3.p, params3.p, 100_001)
    ys12 = np.array([eval_phi(phi12, x) for x in xs])
    assert np.all(np.diff(ys12) > 0)  # strictly monotone on the grid
    for n in range(13):
        for ma, ta in ((model12.level_a[n], thirds12.level_a[n]),
                       (model12.level_b[n], thirds12.level_b[n])):
            for x, y in zip(ma, ta):
                assert eval_phi(phi12, float(x)) == float(y)
    back = np.array([eval_phi_inverse(phi12, y) for y in ys12])
    assert np.all(np.abs(back - xs) <= 1e-12 * np.maximum(1.0, np.abs(xs)))
    ys13 = np.array([eval_phi(phi13, x) for x in xs])
    sup = float(np.max(np.abs(ys12 - ys13)))
    sup = max(sup, max(abs(eval_phi(phi12, float(x)) - float(y))
                       for x, y in zip(phi13.xs, phi13.ys)))
    assert sup <= 3.0 ** -12  # one level-12 target segment
    assert time.perf_counter() - start < 10.0


def test_07_fstar_spot_values(params3, phi12):
    start = time.perf_counter()
    assert abs(eval_fstar(phi12, params3, 1.0) - 1.0) <= 1e-9
    assert abs(eval_fstar(phi12, params3, 0.5) - (-0.6972244)) <= 1e-6
    assert abs(eval_fstar(phi12, params3, 1 / 3)) <= 1e-6
    assert time.perf_counter() - start < 1.0


def test_08_dichotomy(params3, phi12, thirds12):
    start = time.perf_counter()
    for n in range(1, 6):
        mids = (thirds12.gap_c[n] + thirds12.gap_d[n]) / 2
        for y0 in mids:
            result = iterate_target(phi12, params3, float(y0), 200)
            assert result.escaped, f"gap midpoint {y0} did not escape"
    for n in range(9):
        ends = np.concatenate([thirds12.level_a[n], thirds12.level_b[n]])
        for y0 in ends:
            result = iterate_target(phi12, params3, float(y0), 25)
            assert not result.escaped, f"endpoint {y0} escaped"
    assert time.perf_counter() - start < 10.0


def test_08_dichotomy_through_saved_files(params3, thirds, tmp_path):
    # phi built from a saved and reloaded pair is the fresh phi, tails
    # included, so stored endpoints stay locked onto their cycles
    model = build_model_system(params3, 10)
    target = build_target_system(thirds, 10)
    save_system(model, tmp_path / "m.json")
    save_system(target, tmp_path / "t.json")
    model2, target2 = load_system(tmp_path / "m.json"), load_system(tmp_path / "t.json")
    fresh, pl = build_phi(model, target, 10), build_phi(model2, target2, 10)
    for name in ("xs", "xs_lo", "ys", "ys_lo"):
        assert np.array_equal(getattr(pl, name).view(np.int64),
                              getattr(fresh, name).view(np.int64)), name
    ends = np.concatenate([x for n in range(9)
                           for x in (target2.level_a[n], target2.level_b[n])])
    assert ends.size == 1022
    result = iterate_target(pl, model2.params, ends, 1000)
    assert not result.escaped.any(), ends[result.escaped][:5]


def test_09_mandelbrot_demo(tmp_path):
    start = time.perf_counter()
    assert mandelbrot_escape(0.0, 0.0, 1000) is None
    assert mandelbrot_escape(1.0, 0.0, 100) == 3
    assert mandelbrot_escape(-1.0, 0.0, 1000) is None
    p1, p2 = tmp_path / "a.ppm", tmp_path / "b.ppm"
    region = (-2.5, 1.0, -1.75, 1.75)
    export_escape_image(region, 200, 200, 256, p1)
    assert time.perf_counter() - start < 2.0
    export_escape_image(region, 200, 200, 256, p2)
    data = p1.read_bytes()
    assert data.startswith(b"P6\n200 200\n255\n")
    assert len(data) == len(b"P6\n200 200\n255\n") + 200 * 200 * 3
    assert data == p2.read_bytes()


def test_10_serialization_and_verify(model12, thirds12, tmp_path, capsys):
    for system, name in ((model12, "model"), (thirds12, "target")):
        p1 = tmp_path / f"{name}1.json"
        p2 = tmp_path / f"{name}2.json"
        save_system(system, p1)
        save_system(load_system(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()
    assert cli.main(["verify"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 9
