"""Shared fixtures: the c = -3 / middle-thirds pair used throughout.

Builds are deterministic, so everything heavy is session-scoped.  The
frozen references of the array evaluators are kept here too, shared by
the conjugacy and orbit tests.
"""

import numpy as np
import pytest

from cantordyn import (
    AffineIFS2,
    FatCantor,
    MiddleAlpha,
    build_model_system,
    build_phi,
    build_target_system,
    derive_params,
    middle_thirds,
)
from cantordyn import _dd


@pytest.fixture(scope="session")
def params3():
    return derive_params(-3.0)


@pytest.fixture(scope="session")
def model12(params3):
    return build_model_system(params3, 12)


@pytest.fixture(scope="session")
def model13(params3):
    return build_model_system(params3, 13)


@pytest.fixture(scope="session")
def thirds():
    return middle_thirds()


@pytest.fixture(scope="session")
def thirds12(thirds):
    return build_target_system(thirds, 12)


@pytest.fixture(scope="session")
def thirds13(thirds):
    return build_target_system(thirds, 13)


@pytest.fixture(scope="session")
def phi12(model12, thirds12):
    return build_phi(model12, thirds12, 12)


@pytest.fixture(scope="session")
def phi13(model13, thirds13):
    return build_phi(model13, thirds13, 13)


@pytest.fixture(scope="session")
def affine():
    return AffineIFS2(0.8, 0.1)


@pytest.fixture(scope="session")
def oracle_cases():
    """(phi, params, target) over c x family x depth x mode, the grid the
    array paths are compared on against their frozen predecessors."""
    specs = [middle_thirds(), MiddleAlpha(0.5, hull=(-0.0, 1.0)),
             AffineIFS2(0.3, 0.2), AffineIFS2(0.8, 0.1), FatCantor(0.3, 0.5)]
    cases = []
    for c in (-3.0, -2.5, -4.0):
        params = derive_params(c)
        for spec in specs:
            for depth in (0, 1, 4, 8):
                model = build_model_system(params, depth)
                for mode in ("strict", "natural"):
                    target = build_target_system(spec, depth, mode)
                    cases.append((build_phi(model, target, depth), params,
                                  target))
    return cases


def _mp_images(system):
    """For each knot x of a model system (its dd value, tail included), the
    index of the stored knot nearest the 50-digit mpmath F_c(x), and the
    double that F_c(x) rounds to: an oracle of the address shift that
    shares no code with the library's dd kernels."""
    import mpmath

    knots = system.knots.tolist()
    with mpmath.workdps(50):
        c = mpmath.mpf(system.params.c)
        exact = [mpmath.mpf(h) + mpmath.mpf(l)
                 for h, l in zip(knots, system.knots_lo.tolist())]
        near, value = [], []
        for x in exact:
            f = x * x + c
            i = int(np.searchsorted(system.knots, float(f)))
            near.append(min((j for j in (i - 1, i, i + 1)
                             if 0 <= j < len(knots)),
                            key=lambda j: abs(exact[j] - f)))
            value.append(float(f))
    return np.array(near), np.array(value)


@pytest.fixture(scope="session")
def mp_images():
    return _mp_images


# _eval_array on dd points and on doubles (the array branch of
# _eval_double) as they were when every branch ran on every lane and
# np.where kept each lane's answer, frozen as the oracle of the versions
# that compute only the lanes that need it.

def reference_eval_dd_array(xs, xs_lo, ys, ys_lo, xh, xl):
    last = xs.size - 1
    i = np.clip(np.searchsorted(xs, xh, side="right") - 1, 0, last)
    on_knot = xs[i] == xh
    hit = on_knot & (xs_lo[i] == xl)
    left = _dd.le(xh, xl, xs[0], xs_lo[0])
    tail = left | _dd.le(xs[-1], xs_lo[-1], xh, xl)
    j = np.clip(i - (on_knot & (xl < xs_lo[i])), 0, last - 1)
    off_l = _dd.sub(ys[0], ys_lo[0], xs[0], xs_lo[0])
    off_r = _dd.sub(ys[-1], ys_lo[-1], xs[-1], xs_lo[-1])
    with np.errstate(over="ignore", invalid="ignore"):
        th, tl = _dd.add(xh, xl, np.where(left, off_l[0], off_r[0]),
                         np.where(left, off_l[1], off_r[1]))
        dx = _dd.sub(xh, xl, xs[j], xs_lo[j])
        t = _dd.div(*dx, *_dd.sub(xs[j + 1], xs_lo[j + 1], xs[j], xs_lo[j]))
        dy = _dd.mul(*t, *_dd.sub(ys[j + 1], ys_lo[j + 1], ys[j], ys_lo[j]))
        ih, il = _dd.add(ys[j], ys_lo[j], *dy)
    h = np.where(hit, ys[i], np.where(tail, th, ih))
    l = np.where(hit, ys_lo[i], np.where(tail, tl, il))
    return h, l


def reference_eval_double_array(xs, xs_lo, ys, ys_lo, x):
    i = np.minimum(np.searchsorted(xs, x), xs.size - 1)
    knot = xs[i] == x
    h, l = reference_eval_dd_array(xs, xs_lo, ys, ys_lo, x, np.zeros_like(x))
    return (np.where(knot, ys[i], h), np.where(knot, ys_lo[i], l),
            np.where(knot, ys[i], h + l))
