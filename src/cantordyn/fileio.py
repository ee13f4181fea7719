"""Bit-exact file formats: system documents, gap trees, CSV/SVG traces, PPM.

All real numbers are serialized as shortest round-trip decimals (Python repr),
so save -> load -> save reproduces files byte for byte.

A system document is a checked cache of a build.  It lists every level and
gap, though all of them are views of the deepest level (see
IntervalSystem), so the writer renders the deepest level's ends once and
slices every level and gap out of those strings.  A system symmetric about
0 bit for bit (every model, and any target whose ends happen to mirror)
has its left ends rendered alone: each right end is a left end negated, so
its string is that one's with a leading "-" toggled.  Those strings are
rendered once per system: a table private to this module, holding each
system weakly, keeps them joined (a mirrored system's left ends alone)
beside a copy of the knots they came from, and a later save of the same
system splits them instead of calling repr while its knots still equal
that copy bit for bit (a system whose knots were written into since is
rendered again).  The entry lives as long as its system: about 0.3 times
the file's size for a model, up to half for a system that does not
mirror.  The writer makes the document as a sequence of pieces, the
header and then each level and gap array in pieces of at most _BLOCK
pairs, and save_system writes each piece as it is made, so the document's
text is never held whole.  The loader
reads the header (kind, parameters, depth), checks the level and gap
counts, rebuilds the system with build_model_system or
build_target_system, and refuses the file unless every stored level and
gap reads exactly as the writer renders the rebuild.  A loaded system is
therefore the builder's own, double-double tails included.

The loader first tries the bytes.  When the file starts as the writer
starts one, it parses only the parameters object, rebuilds, and returns
the rebuild if the writer's text for it equals the file's text, compared
piece by piece at each piece's offset in the file's text, with no copy of
either.  Anything else (another layout, an error on the way, a mismatch)
goes to the full parse and the level-by-level comparison, fed the same
text.  The two agree: a file equal to the writer's text of a rebuild is
one the full comparison accepts, returning that same rebuild, since save
-> load -> save is the identity; so the files accepted, the systems
returned and every error stay those of the full comparison.  When the
builders refuse the parameters, the full parse still checks the counts
first, and then raises the refusal already caught, if its own header
reads the same, instead of building again.  The byte comparison renders
the rebuild through the table, so a system it returns carries its
strings, and saving that system calls repr no more.
"""

import csv
import json
import math
import weakref

import numpy as np

from .errors import CantorDynError, DomainError, SpecError
from .model_cantor import _BLOCK, build_model_system
from .orbit_engine import mandelbrot_grid
from .quadratic_map import derive_params
from .target_cantor import (AffineIFS2, ExplicitGapTree, FatCantor,
                            MiddleAlpha, TargetSystem, build_target_system)

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


# formula families: document name -> (spec class, its real fields in order)
_FAMILIES = {
    "middle-alpha": (MiddleAlpha, ("alpha", "alpha_lo")),
    "affine-ifs2": (AffineIFS2, ("r1", "r2")),
    "fat-cantor": (FatCantor, ("gap0", "ratio")),
}


def _spec_doc(spec):
    if isinstance(spec, ExplicitGapTree):
        return {"family": "gap-tree", "hull": [float(h) for h in spec.hull],
                "levels": [[[float(g), float(h)] for g, h in level]
                           for level in spec.levels]}
    for fam, (cls, fields) in _FAMILIES.items():
        if isinstance(spec, cls):
            return {"family": fam, **{k: getattr(spec, k) for k in fields},
                    "hull": [float(h) for h in spec.hull]}
    raise DomainError(f"cannot serialize spec of type {type(spec).__name__}")


def _real(value, where, name):
    """value if it is a finite JSON real (not an int, bool or NaN/Infinity
    token), else SpecError."""
    if type(value) is not float or not math.isfinite(value):
        raise SpecError(f"{where}: {name} must be a finite real, got {value!r}")
    return value


def _real_pair(value, where, name):
    if not (isinstance(value, list) and len(value) == 2):
        raise SpecError(f"{where}: {name} must be a pair, got {value!r}")
    return _real(value[0], where, name), _real(value[1], where, name)


def _spec_from_doc(doc, where):
    fam = doc.get("family") if isinstance(doc, dict) else None
    if fam == "gap-tree":
        levels = doc.get("levels")
        if not (isinstance(levels, list)
                and all(isinstance(level, list) for level in levels)):
            raise SpecError(f"{where}: spec.levels must be an array of arrays")
        hull = _real_pair(doc.get("hull"), where, "spec.hull")
        levels = tuple(tuple(_real_pair(gap, where, "spec gap")
                             for gap in level) for level in levels)
        try:
            return ExplicitGapTree(hull=hull, levels=levels)
        except SpecError as exc:
            raise SpecError(f"{where}: {exc}") from exc
    for name, (cls, fields) in _FAMILIES.items():
        if fam == name:
            return cls(hull=_real_pair(doc.get("hull"), where, "spec.hull"),
                       **{k: _real(doc.get(k), where, f"spec.{k}")
                          for k in fields})
    raise SpecError(f"{where}: unknown spec family {fam!r}")


def _system_header(system):
    """The format, kind and parameters of a system's cantor-system/1
    document."""
    if isinstance(system, TargetSystem):
        parameters = {"spec": _spec_doc(system.spec), "mode": system.mode,
                      "depth": system.depth}
        kind = "target"
    else:
        if system.params is None:
            raise DomainError("model system carries no parameters to serialize")
        parameters = {"c": system.params.c, "depth": system.depth}
        kind = "model"
    return {"format": SYSTEM_FORMAT, "kind": kind, "parameters": parameters}


def _pair_pieces(xs, ys, end):
    """The compact JSON array of the pairs [x, y] that zip(xs, ys) makes,
    from rendered reals, and then end: in pieces of at most _BLOCK pairs,
    end closing the last.

    A piece of m pairs is one "".join over the template [x, ",", y, "],["]
    repeated m times, its x strings slice-assigned into slots 0::4 and its
    y strings into 2::4, and its last "],[" replaced by "]]" + end on the
    last piece and by "" on any other: no call, tuple or string per pair.
    """
    size = min(len(xs), len(ys))
    if not size:
        yield "[]" + end
    for k in range(0, size, _BLOCK):
        stop = min(k + _BLOCK, size)
        parts = [None, ",", None, "],["] * (stop - k)
        parts[0::4] = xs[k:stop]
        parts[2::4] = ys[k:stop]
        parts[-1] = "]]" + end if stop == size else ""
        yield ("],[" if k else "[[") + "".join(parts)


def _write_json(doc, path):
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps(doc, separators=(",", ":")) + "\n")


# system -> (its knots as last rendered, the ","-joined strings of their a
# ends, those of their b ends or None where the knots mirror about 0); an
# entry dies with its system
_RENDERED = weakref.WeakKeyDictionary()


def _system_pieces(system):
    """The cantor-system/1 text of a model or target system, in pieces.

    The first piece is the header, rendered by json.dumps, up to the
    opening of the levels.  The level arrays follow, then the gap arrays,
    each in pieces of at most _BLOCK pairs, and the last piece closes the
    document.  Joined, the pieces are the compact json.dumps of the whole
    document, byte for byte, and a newline.  The header is built when the
    first piece is asked for, so a system that cannot be serialized raises
    there.

    The levels and gaps are strided views of the deepest level (see
    IntervalSystem), so its a and b ends are rendered once, with repr (the
    float.__repr__ that json.dumps uses for finite reals), and every level
    and gap is sliced out of those strings with the views' strides.

    When b_N is -a_N reversed as bit patterns (the system mirrors about 0,
    as every model does), only a_N goes through repr: b's strings are a's
    in reverse order with a leading "-" toggled, since repr(-x) is
    "-" + repr(x) for every x with its sign bit clear, 0.0 and inf
    included.  NaN, whose repr carries no sign, takes the repr of both.

    Once the last piece is taken, the strings go into _RENDERED, joined by
    "," (a list of strings takes about four times the room), beside a copy
    of the knots they were rendered from; a mirrored system keeps a's
    alone.  The next call for the same system splits them instead of
    rendering while its knots still equal that copy bit for bit; a system
    whose knots changed is rendered again, and its entry replaced.
    """
    head = json.dumps(_system_header(system), separators=(",", ":"))
    yield f'{head[:-1]},"levels":['
    knots = system.knots
    kept = _RENDERED.get(system)
    if kept is not None and np.array_equal(kept[0].view(np.int64),
                                           knots.view(np.int64)):
        fresh, a = None, kept[1].split(",")
        b = None if kept[2] is None else kept[2].split(",")
    else:
        fresh, a_N, b_N = knots.copy(), knots[0::2], knots[1::2]
        a, b = list(map(repr, a_N.tolist())), None
        if (not np.array_equal(a_N.view(np.int64), (-b_N[::-1]).view(np.int64))
                or np.isnan(a_N).any()):
            b = list(map(repr, b_N.tolist()))
    b_ends = b if b is not None else [s[1:] if s[0] == "-" else "-" + s
                                      for s in reversed(a)]
    depth = system.depth
    for n in range(depth + 1):
        k = 1 << (depth - n)
        yield from _pair_pieces(a[::k], b_ends[k - 1::k],
                                "," if n < depth else '],"gaps":[')
    for n in range(depth + 1):
        # gap j of level n runs from segment 2j's b end to segment 2j+1's a
        k = 1 << (depth - n)
        yield from _pair_pieces(b_ends[k - 1::2 * k], a[k::2 * k],
                                "," if n < depth else "]}\n")
    if fresh is not None:
        # each list goes once joined (a mirrored b's at once), so the joins
        # add at most one joined array to the render's two lists
        del b_ends
        a = ",".join(a)
        _RENDERED[system] = fresh, a, None if b is None else ",".join(b)


def save_system(system, path):
    """Write a cantor-system/1 document for a model or target system.

    The file holds the compact json.dumps of the document, written piece by
    piece as _system_pieces renders it, so the whole text is never held;
    load_system compares a file's text with the same pieces before parsing.
    A system saved before, or loaded from a file as this writer writes it,
    keeps the strings of its ends from then, and while its knots stay
    unchanged its next save calls no repr.  They stay allocated while the
    system lives, with a copy of its knots: 0.29 times the file's size for
    a depth-16 model (2.3 of 7.9 MB), and up to half for a system whose
    ends do not mirror (0.45 and 0.49 for the depth-12 middle-thirds and
    affine:0.3,0.2 targets).  The header is built before the file is
    opened: a system that cannot be serialized (a model without parameters,
    a spec of no known family) raises DomainError and leaves no file.
    """
    pieces = _system_pieces(system)
    head = next(pieces)
    with open(path, "w", encoding="utf-8") as f:
        f.write(head)
        f.writelines(pieces)


def _read_text(path):
    with open(path, "r", encoding="utf-8") as f:
        return f.read()


def _parse_json(text, path):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(f"{path}: line {exc.lineno}: {exc.msg}") from exc


def _rebuild(kind, params_doc, depth, path):
    """The system a header names, built from its parameters."""
    if kind == "model":
        c = _real(params_doc.get("c"), path, "parameters.c")
        return build_model_system(derive_params(c), depth)
    spec = _spec_from_doc(params_doc.get("spec"), path)
    return build_target_system(spec, depth, params_doc.get("mode"))


def _load_as_written(text, path):
    """(system, None) with the system rebuilt from the header of text when
    text is exactly what save_system writes for it, else (None, refusal).

    Only the parameters object is parsed, at its fixed offset after the
    writer's prefix, and checked as load_system checks it.  A writer-made
    depth-N file lists 3 * 2^N - 2 pairs (2^(N+1) - 1 segments and 2^N - 1
    gaps), each at least as long as "[0.0,0.0],", so a depth that needs
    more text than there is is not built.  The rebuild's text is compared
    with the file's piece by piece as _system_pieces renders it, each piece
    in place at its offset in text, so neither is ever copied whole; the
    first piece that differs ends the comparison.  A rebuild whose pieces
    all match keeps its strings in _system_pieces' table, so saving the
    system returned calls repr no more.  Any other text leaves the
    file to load_system's full parse to refuse or accept.  When the checks or
    the builders refuse the parameters, refusal is (kind, parameters as
    json.dumps renders them, the error), so that the full parse raises that
    error instead of building the same parameters again; otherwise it is
    None.
    """
    for kind in ("model", "target"):
        prefix = f'{{"format":"{SYSTEM_FORMAT}","kind":"{kind}","parameters":'
        if text.startswith(prefix):
            break
    else:
        return None, None
    try:
        params_doc, _ = json.JSONDecoder().raw_decode(text, len(prefix))
    except json.JSONDecodeError:
        return None, None
    depth = params_doc.get("depth") if isinstance(params_doc, dict) else None
    if (type(depth) is not int or not 0 <= depth < len(text).bit_length()
            or len("[0.0,0.0],") * (3 * (1 << depth) - 2) > len(text)):
        return None, None
    try:
        system = _rebuild(kind, params_doc, depth, path)
    except CantorDynError as exc:
        return None, (kind, json.dumps(params_doc), exc)
    pos = 0
    for piece in _system_pieces(system):
        if not text.startswith(piece, pos):
            return None, None
        pos += len(piece)
    return (system if pos == len(text) else None), None


def load_system(path):
    """Read a cantor-system/1 document back into an IntervalSystem/TargetSystem.

    The header must name the kind, the parameters (c, or spec and mode) and
    the depth, and the document must hold depth + 1 level and gap arrays of
    2^n and 2^(n-1) entries; the system is then rebuilt from the header,
    and every stored level and gap must read exactly as save_system renders
    the rebuild.  A wrong JSON type, count or stored value raises SpecError
    naming the file (and the first differing level); parameters the
    builders refuse raise their DomainError or RegimeError.  The rebuilt
    system is returned, double-double tails included.

    A file whose text is exactly save_system's text for the system its
    header names is returned without parsing the levels and gaps (see
    _load_as_written): the writer's pieces for the rebuild are compared
    with the file's text in place, one at a time, so the rebuild's text is
    never held whole.  Every other file, the first differing piece on, is
    parsed and compared in full.  Both give the same system, and only the
    full comparison refuses.  A system the byte comparison returns keeps
    the strings it was compared with, as a saved one does (see
    save_system, and its cost in memory there).
    """
    text = _read_text(path)
    system, refusal = _load_as_written(text, path)
    if system is not None:
        return system
    doc = _parse_json(text, path)
    if not isinstance(doc, dict) or doc.get("format") != SYSTEM_FORMAT:
        raise SpecError(
            f"{path}: not a {SYSTEM_FORMAT} document "
            f"(format = {doc.get('format') if isinstance(doc, dict) else None!r})"
        )
    kind = doc.get("kind")
    if kind not in ("model", "target"):
        raise SpecError(f"{path}: unknown kind {kind!r}")
    params_doc = doc.get("parameters")
    if not isinstance(params_doc, dict):
        raise SpecError(f"{path}: parameters must be an object")
    depth = params_doc.get("depth")
    if type(depth) is not int:
        raise SpecError(f"{path}: parameters.depth must be an integer, "
                        f"got {depth!r}")
    # counts first: a header claiming a deep system over a short file must
    # not get as far as building it
    for key, what in (("levels", "segment"), ("gaps", "gap")):
        arrays = doc.get(key)
        if not isinstance(arrays, list) or len(arrays) != depth + 1:
            raise SpecError(f"{path}: expected {depth + 1} {what} arrays")
        for n, level in enumerate(arrays):
            want = (1 << n) if key == "levels" else (1 << n) >> 1
            if not isinstance(level, list) or len(level) != want:
                raise SpecError(f"{path}: {what} level {n} is not an array "
                                f"of {want} entries")

    # json.dumps tells apart every value that the builders might treat
    # differently (-0.0 and 0.0, 1 and 1.0), so equal text rebuilds alike
    if refusal is not None and refusal[:2] == (kind, json.dumps(params_doc)):
        raise refusal[2]
    system = _rebuild(kind, params_doc, depth, path)
    views = (("levels", "segment", system.level_a, system.level_b),
             ("gaps", "gap", system.gap_c, system.gap_d))
    for key, what, lo, hi in views:
        for n, stored in enumerate(doc[key]):
            if not _reads_as(stored, lo[n], hi[n]):
                raise SpecError(f"{path}: {what} level {n} does not match "
                                f"the system rebuilt from its parameters")
    return system


def _reads_as(stored, a, b):
    """Whether a stored level is the pairs [a[i], b[i]], entry for entry.  List
    equality settles every entry but the integral ones, where it would also
    accept a bool, an int or a zero of the other sign; those few are
    compared as the writer renders them."""
    ab = np.column_stack([a, b])
    want = ab.tolist()
    if stored != want:
        return False
    rows, cols = np.nonzero(ab == np.trunc(ab))
    return all(json.dumps(stored[i][j]) == json.dumps(want[i][j])
               for i, j in zip(rows, cols))


def save_gap_tree(tree, path):
    """Write a cantor-gaps/1 document for an explicit gap tree."""
    doc = _spec_doc(tree)
    _write_json({"format": GAPS_FORMAT, "hull": doc["hull"],
                 "levels": doc["levels"]}, path)


def load_gap_tree(path):
    """Read a cantor-gaps/1 document into a validated ExplicitGapTree.

    The hull and gaps must be finite JSON reals, as in a system document's
    gap-tree spec.  Wrong types, gaps out of order, outside or touching
    their parent segment, or the wrong per-level counts raise SpecError
    naming the file.
    """
    doc = _parse_json(_read_text(path), path)
    if not isinstance(doc, dict) or doc.get("format") != GAPS_FORMAT:
        raise SpecError(
            f"{path}: not a {GAPS_FORMAT} document "
            f"(format = {doc.get('format') if isinstance(doc, dict) else None!r})"
        )
    return _spec_from_doc({**doc, "family": "gap-tree"}, path)


def export_cobweb(trace, path, fmt="csv", curve=None, curve_samples=512):
    """Write a cobweb trace as CSV segments or a standalone SVG figure.

    CSV columns are x0,y0,x1,y1, one row per segment.  The SVG contains the
    diagonal, the graph of the map sampled at max(curve_samples, 512)
    points (the map callable is required for SVG), the trace polyline, and
    a marker on the starting point.  The map is called once, on the whole
    grid of samples as a float64 ndarray, and must return one value per
    sample.  A trace with a coordinate that is not finite (an escaping
    orbit's overflow) has no figure: the SVG export refuses it with
    DomainError, naming the first such segment, and writes no file.
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

    for k, seg in enumerate(trace):
        if not all(math.isfinite(v) for pt in seg for v in pt):
            raise DomainError(f"svg export needs a finite trace: trace[{k}] "
                              f"is {seg!r}")
    coords = [v for seg in trace for pt in seg for v in pt]
    lo, hi = min(coords), max(coords)
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
    # as plain float arithmetic does, an overflowing sample is inf, quietly
    with np.errstate(over="ignore", invalid="ignore"):
        ys = np.asarray(curve(grid), dtype=np.float64)
    k = int(np.argmax(~np.isfinite(ys)))
    if not np.isfinite(ys[k]):
        raise DomainError(f"svg export needs a finite graph: curve sample {k} "
                          f"at x = {float(grid[k])!r} is {float(ys[k])!r}")
    curve_pts = list(zip(grid.tolist(), ys.tolist(), strict=True))
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

    The pixels are one gather from a table of colours by count, written
    from the gathered array itself.  The table runs to the largest count
    in the image, at most max_iter, plus a black last row that the count
    -1 of interior points reads.
    """
    counts = mandelbrot_grid(region, width, height, max_iter, bailout=bailout)
    top = max(int(counts.max()), 0)
    lut = np.zeros((top + 2, 3), dtype=np.uint8)
    lut[1:top + 1] = np.resize(np.array(PALETTE, dtype=np.uint8), (top, 3))
    header = f"P6\n{counts.shape[1]} {counts.shape[0]}\n255\n".encode("ascii")
    with open(path, "wb") as f:
        f.write(header)
        f.write(lut[counts])
