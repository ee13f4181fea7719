"""Shared fixtures: the c = -3 / middle-thirds pair used throughout.

Builds are deterministic, so everything heavy is session-scoped.
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
