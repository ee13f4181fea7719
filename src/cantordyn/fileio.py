"""Bit-exact file formats: system documents, gap trees, CSV/SVG traces, PPM.

All real numbers are serialized as shortest round-trip decimals (Python repr),
so save -> load -> save reproduces files byte for byte and loaded endpoints
equal the stored doubles bit for bit.  Double-double tails are not persisted:
a loaded system carries plain doubles (zero tails), which is exactly what the
public endpoint arrays contain anyway.

A system document lists every level and gap, though all of them are views
of the deepest level (see IntervalSystem): the writer emits those views, and
the loader builds the system from the deepest level alone and refuses a
file whose other levels or gaps differ from their views.
"""

import csv
import json

import numpy as np

from .errors import DomainError, SpecError
from .model_cantor import IntervalSystem
from .orbit_engine import mandelbrot_grid
from .quadratic_map import derive_params
from .target_cantor import (AffineIFS2, ExplicitGapTree, FatCantor,
                            MiddleAlpha, TargetSystem)

SYSTEM_FORMAT = "cantor-system/1"
GAPS_FORMAT = "cantor-gaps/1"

# Fixed 16-color escape palette (RGB).  An escape at iteration n is drawn
# with PALETTE[(n - 1) % 16]; interior points are black (0, 0, 0).  Every
# entry is non-black by construction.
PALETTE = (
    (66, 30, 15), (25, 7, 26), (9, 1, 47), (4, 4, 73),
    (0, 7, 100), (12, 44, 138), (24, 82, 177), (57, 125, 209),
    (134, 181, 229), (211, 236, 248), (241, 233, 191), (248, 201, 95),
    (255, 170, 0), (204, 128, 0), (153, 87, 0), (106, 52, 3),
)


def _pairs(a, b):
    return [[float(x), float(y)] for x, y in zip(a, b)]


def _spec_doc(spec):
    if isinstance(spec, MiddleAlpha):
        return {"family": "middle-alpha", "alpha": spec.alpha,
                "alpha_lo": spec.alpha_lo, "hull": list(spec.hull)}
    if isinstance(spec, AffineIFS2):
        return {"family": "affine-ifs2", "r1": spec.r1, "r2": spec.r2,
                "hull": list(spec.hull)}
    if isinstance(spec, FatCantor):
        return {"family": "fat-cantor", "gap0": spec.gap0, "ratio": spec.ratio,
                "hull": list(spec.hull)}
    if isinstance(spec, ExplicitGapTree):
        return {"family": "gap-tree", "hull": list(spec.hull),
                "levels": [[[g, h] for g, h in level] for level in spec.levels]}
    raise DomainError(f"cannot serialize spec of type {type(spec).__name__}")


def _spec_from_doc(doc, where):
    fam = doc.get("family")
    try:
        if fam == "middle-alpha":
            return MiddleAlpha(alpha=float(doc["alpha"]),
                               hull=tuple(doc["hull"]),
                               alpha_lo=float(doc.get("alpha_lo", 0.0)))
        if fam == "affine-ifs2":
            return AffineIFS2(r1=float(doc["r1"]), r2=float(doc["r2"]),
                              hull=tuple(doc["hull"]))
        if fam == "fat-cantor":
            return FatCantor(gap0=float(doc["gap0"]), ratio=float(doc["ratio"]),
                             hull=tuple(doc["hull"]))
        if fam == "gap-tree":
            return ExplicitGapTree(
                hull=tuple(doc["hull"]),
                levels=tuple(tuple((float(g), float(h)) for g, h in level)
                             for level in doc["levels"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecError(f"{where}: malformed spec parameters: {exc}") from exc
    raise SpecError(f"{where}: unknown spec family {fam!r}")


def save_system(system, path):
    """Write a cantor-system/1 document for a model or target system."""
    if isinstance(system, TargetSystem):
        parameters = {"spec": _spec_doc(system.spec), "mode": system.mode,
                      "depth": system.depth}
        kind = "target"
    else:
        if system.params is None:
            raise DomainError("model system carries no parameters to serialize")
        parameters = {"c": system.params.c, "depth": system.depth}
        kind = "model"
    doc = {
        "format": SYSTEM_FORMAT,
        "kind": kind,
        "parameters": parameters,
        "levels": [_pairs(system.level_a[n], system.level_b[n])
                   for n in range(system.depth + 1)],
        "gaps": [_pairs(system.gap_c[n], system.gap_d[n])
                 for n in range(system.depth + 1)],
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, separators=(",", ":"))
        f.write("\n")


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except json.JSONDecodeError as exc:
        raise SpecError(f"{path}: line {exc.lineno}: {exc.msg}") from exc


def _validate_pairs(doc_levels, depth, path, what):
    out = []
    if not isinstance(doc_levels, list) or len(doc_levels) != depth + 1:
        raise SpecError(f"{path}: expected {depth + 1} {what} arrays")
    for n, level in enumerate(doc_levels):
        want = (1 << n) if what == "segment" else (0 if n == 0 else 1 << (n - 1))
        if not isinstance(level, list) or len(level) != want:
            raise SpecError(
                f"{path}: {what} level {n} has {len(level)} entries, expected {want}"
            )
        lo = np.empty(want)
        hi = np.empty(want)
        for j, pair in enumerate(level):
            if not (isinstance(pair, list) and len(pair) == 2
                    and all(isinstance(v, (int, float)) for v in pair)):
                raise SpecError(f"{path}: {what} level {n} entry {j} is not a pair")
            lo[j], hi[j] = float(pair[0]), float(pair[1])
            if not lo[j] < hi[j]:
                raise SpecError(
                    f"{path}: {what} level {n} entry {j} is empty: {pair!r}"
                )
        out.append((lo, hi))
    return out


def load_system(path):
    """Read a cantor-system/1 document back into an IntervalSystem/TargetSystem.

    The deepest level must hold sorted, disjoint, non-empty segments, and
    every shallower level and every gap must equal its view of the deepest
    level bit for bit (see IntervalSystem).  Structural problems raise
    SpecError naming the file and the offending level.
    """
    doc = _load_json(path)
    if not isinstance(doc, dict) or doc.get("format") != SYSTEM_FORMAT:
        raise SpecError(
            f"{path}: not a {SYSTEM_FORMAT} document "
            f"(format = {doc.get('format') if isinstance(doc, dict) else None!r})"
        )
    kind = doc.get("kind")
    if kind not in ("model", "target"):
        raise SpecError(f"{path}: unknown kind {kind!r}")
    params_doc = doc.get("parameters")
    if not isinstance(params_doc, dict) or "depth" not in params_doc:
        raise SpecError(f"{path}: missing parameters.depth")
    depth = int(params_doc["depth"])
    segs = _validate_pairs(doc.get("levels"), depth, path, "segment")
    gaps = _validate_pairs(doc.get("gaps"), depth, path, "gap")

    a, b = segs[depth]
    if np.any(b[:-1] >= a[1:]):
        raise SpecError(f"{path}: segment level {depth} is not sorted and disjoint")
    zeros = np.zeros_like(a)
    if kind == "model":
        if "c" not in params_doc:
            raise SpecError(f"{path}: model document lacks parameters.c")
        params = derive_params(float(params_doc["c"]))
        system = IntervalSystem(a, b, zeros, zeros, params=params)
    else:
        spec = _spec_from_doc(params_doc.get("spec", {}), path)
        mode = params_doc.get("mode")
        if mode not in ("strict", "natural"):
            raise SpecError(f"{path}: unknown build mode {mode!r}")
        system = TargetSystem(spec, mode, a, b, zeros, zeros)

    views = (("segment", segs, system.level_a, system.level_b),
             ("gap", gaps, system.gap_c, system.gap_d))
    for what, stored, lo, hi in views:
        for n, (x, y) in enumerate(stored):
            if not (_same_bits(x, lo[n]) and _same_bits(y, hi[n])):
                raise SpecError(
                    f"{path}: {what} level {n} does not match its view of "
                    f"level {depth}"
                )
    return system


def _same_bits(x, y):
    return np.array_equal(x.view(np.int64), y.view(np.int64))


def save_gap_tree(tree, path):
    """Write a cantor-gaps/1 document for an explicit gap tree."""
    doc = {
        "format": GAPS_FORMAT,
        "hull": [float(tree.hull[0]), float(tree.hull[1])],
        "levels": [[[g, h] for g, h in level] for level in tree.levels],
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, separators=(",", ":"))
        f.write("\n")


def load_gap_tree(path):
    """Read a cantor-gaps/1 document into a validated ExplicitGapTree.

    Gaps out of order, outside or touching their parent segment, or with the
    wrong per-level counts raise SpecError.
    """
    doc = _load_json(path)
    if not isinstance(doc, dict) or doc.get("format") != GAPS_FORMAT:
        raise SpecError(
            f"{path}: not a {GAPS_FORMAT} document "
            f"(format = {doc.get('format') if isinstance(doc, dict) else None!r})"
        )
    hull = doc.get("hull")
    levels = doc.get("levels")
    if not (isinstance(hull, list) and len(hull) == 2):
        raise SpecError(f"{path}: hull must be a pair")
    if not isinstance(levels, list):
        raise SpecError(f"{path}: levels must be an array")
    try:
        return ExplicitGapTree(
            hull=(float(hull[0]), float(hull[1])),
            levels=tuple(tuple((float(g), float(h)) for g, h in level)
                         for level in levels))
    except SpecError as exc:
        raise SpecError(f"{path}: {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise SpecError(f"{path}: malformed gap tree: {exc}") from exc


def export_cobweb(trace, path, fmt="csv", curve=None, curve_samples=512):
    """Write a cobweb trace as CSV segments or a standalone SVG figure.

    CSV columns are x0,y0,x1,y1, one row per segment.  The SVG contains the
    diagonal, the graph of the map sampled at curve_samples points (the map
    callable is required for SVG), the trace polyline, and a marker on the
    starting point.
    """
    if not trace:
        raise DomainError("cannot export an empty trace")
    if fmt == "csv":
        with open(path, "w", newline="", encoding="utf-8") as f:
            w = csv.writer(f)
            w.writerow(["x0", "y0", "x1", "y1"])
            for (x0, y0), (x1, y1) in trace:
                w.writerow([repr(float(x0)), repr(float(y0)),
                            repr(float(x1)), repr(float(y1))])
        return
    if fmt != "svg":
        raise DomainError(f"unknown export format {fmt!r}")
    if curve is None:
        raise DomainError("svg export needs the map callable to draw its graph")

    pts = [p for seg in trace for p in seg]
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    lo = min(min(xs), min(ys))
    hi = max(max(xs), max(ys))
    if hi == lo:
        lo, hi = lo - 1.0, hi + 1.0
    pad = 0.08 * (hi - lo)
    lo -= pad
    hi += pad
    size = 640.0
    scale = size / (hi - lo)

    def sx(v):
        return (v - lo) * scale

    def sy(v):
        return size - (v - lo) * scale

    def pline(coords):
        return " ".join(f"{sx(x):.3f},{sy(y):.3f}" for x, y in coords)

    n = max(int(curve_samples), 512)
    grid = np.linspace(lo, hi, n)
    curve_pts = [(float(x), float(curve(float(x)))) for x in grid]
    trace_pts = [trace[0][0]] + [seg[1] for seg in trace]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{size:.0f}" height="{size:.0f}" '
        f'viewBox="0 0 {size:.0f} {size:.0f}">',
        f'<rect width="{size:.0f}" height="{size:.0f}" fill="white"/>',
        f'<line x1="{sx(lo):.3f}" y1="{sy(lo):.3f}" x2="{sx(hi):.3f}" '
        f'y2="{sy(hi):.3f}" stroke="#888" stroke-width="1"/>',
        f'<polyline points="{pline(curve_pts)}" fill="none" stroke="#1f77b4" '
        f'stroke-width="1.5"/>',
        f'<polyline points="{pline(trace_pts)}" fill="none" stroke="#d62728" '
        f'stroke-width="1"/>',
        f'<circle cx="{sx(trace[0][0][0]):.3f}" cy="{sy(trace[0][0][1]):.3f}" '
        f'r="3" fill="#d62728"/>',
        "</svg>",
    ]
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(parts) + "\n")


def export_escape_image(region, width, height, max_iter, path, bailout=2.0):
    """Render the escape-time image of z -> z^2 + c over a parameter-plane
    rectangle to a binary PPM (P6) file.

    region = (re_min, re_max, im_min, im_max); pixels sample cell centers,
    rows top to bottom.  Interior points are black, escapes are colored by
    PALETTE[(iteration - 1) % 16].
    """
    counts = mandelbrot_grid(region, width, height, max_iter, bailout=bailout)
    rgb = np.zeros(counts.shape + (3,), dtype=np.uint8)
    escaped = counts > 0
    if np.any(escaped):
        pal = np.array(PALETTE, dtype=np.uint8)
        rgb[escaped] = pal[(counts[escaped] - 1) % 16]
    header = f"P6\n{counts.shape[1]} {counts.shape[0]}\n255\n".encode("ascii")
    with open(path, "wb") as f:
        f.write(header)
        f.write(rgb.tobytes())
