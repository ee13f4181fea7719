"""Derived constants of the real quadratic family F_c(x) = x^2 + c.

For c < -2 the bounded orbits of F_c form a Cantor set inside I = [-p, p],
where p is the larger fixed point.  The interval of points leaving I after a
single step is the symmetric gap A0 = (-s, s) with s = sqrt(-p - c), and the
derivative bound lambda = 2s > 1 certifies that the construction is uniformly
expanding.  Everything here is computed with double-double arithmetic so that
downstream consumers (interval systems, conjugacies, orbit classification)
inherit endpoints that are correctly rounded doubles with known tails.
"""

import math
from dataclasses import dataclass, field

from . import _dd
from .errors import DomainError, NoRealFixedPoint


@dataclass(frozen=True)
class QuadraticParams:
    """Map parameter c with its derived constants.

    p is the larger fixed point, s the half-width of the escape gap A0
    (zero when the gap is empty), lambda_ = 2*s the expansion lower bound on
    I minus A0, and escape_radius = p the threshold past which orbits grow
    monotonically.  p_lo and s_lo carry the double-double tails of p and s;
    they are implementation detail used to keep deeper constructions accurate
    and take no part in equality or display.
    """

    c: float
    p: float
    s: float
    lambda_: float
    escape_radius: float
    p_lo: float = field(default=0.0, repr=False, compare=False)
    s_lo: float = field(default=0.0, repr=False, compare=False)


def _roots_dd(c):
    """Both fixed points of x^2 + c as double-double pairs, (smaller, larger).

    DomainError for a c that is not finite, or so large in magnitude that
    1 - 4c overflows the double-double arithmetic and p is not finite.
    """
    if not math.isfinite(c):
        raise DomainError(f"c must be finite, got {c!r}")
    if not c <= 0.25:
        raise NoRealFixedPoint(f"x^2 + {c!r} = x has no real solution (c > 1/4)")
    # 1 - 4c is exact in double-double form, its square root is not.
    disc = _dd.add(1.0, 0.0, *_dd.two_prod(-4.0, c))
    rt = _dd.sqrt(*disc)
    ph, pl = _dd.add(1.0, 0.0, *rt)
    if not (math.isfinite(ph) and math.isfinite(pl)):
        raise DomainError(f"c = {c!r} is too large in magnitude: the fixed "
                          f"point p overflows")
    p = (ph / 2.0, pl / 2.0)  # p >= 1/2, halving is exact
    q = _dd.div(c, 0.0, *p)  # smaller root via the stable form c / p
    return q, p


def derive_params(c):
    """Build QuadraticParams for a parameter c <= 1/4.

    Raises NoRealFixedPoint for c > 1/4, DomainError for a c that is not
    finite or whose fixed point p overflows (c below about -1.3e300).
    """
    c = float(c)
    _, p = _roots_dd(c)
    m = _dd.add(-p[0], -p[1], -c, 0.0)  # -p - c
    if m[0] > 0.0:
        s = _dd.sqrt(*m)
    else:
        s = (0.0, 0.0)
    lam = 2.0 * s[0]
    return QuadraticParams(
        c=c, p=p[0], s=s[0], lambda_=lam, escape_radius=p[0],
        p_lo=p[1], s_lo=s[1],
    )


def _params_dd(params):
    """Internal accessor: (p, s) as double-double pairs."""
    return (params.p, params.p_lo), (params.s, params.s_lo)


def fixed_points(c):
    """Both solutions of x^2 + c = x in increasing order.

    For c = 1/4 the roots coincide and (0.5, 0.5) is returned exactly.
    Raises NoRealFixedPoint for c > 1/4, DomainError as derive_params does.
    """
    q, p = _roots_dd(float(c))
    return q[0], p[0]


def eval_map(params, x):
    """One application of the map: x^2 + c."""
    return x * x + params.c


def gap_A0(params):
    """The open escape gap (-s, s), or None when it is empty (c >= -2)."""
    if params.s > 0.0:
        return (-params.s, params.s)
    return None


def expansion_bound(params):
    """(lambda, certified): lambda = 2s = min |F'| on I \\ A0; certified iff > 1."""
    return params.lambda_, params.lambda_ > 1.0


def _check_interval(params, u, v):
    if not u <= v:
        raise DomainError(f"invalid interval [{u!r}, {v!r}]")
    if u < -params.p or v > params.p:
        raise DomainError(
            f"[{u!r}, {v!r}] not contained in the hull [-p, p] = "
            f"[{-params.p!r}, {params.p!r}]"
        )
    if u - params.c < 0.0:
        raise DomainError(f"u - c = {u - params.c!r} < 0: no real preimage")
