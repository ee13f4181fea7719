"""Command line front end.

main parses argv (with any --config file's key=value lines inserted as
flags), checks the shared limits on the parsed namespace, and hands that
namespace to the subcommand's handler, which reads the flags it declares.
A token that reads as a negative number, such as -3e0 or -inf, is an
option's value, as with --flag=VALUE.

Exit codes: 0 success, 1 usage error (bad flags, unreadable input, write
failure), 2 for errors the library raises about the mathematics (uncertified
regime, malformed documents, values out of domain).  Every number printed
carries 17 significant digits so output round-trips to the exact double.
"""

import argparse
import csv
import re
import sys

from . import fileio, orbit_engine, quadratic_map, verification
from .conjugacy import build_phi, eval_fstar, eval_phi, eval_phi_inverse
from .errors import CantorDynError
from .model_cantor import MAX_DEPTH, build_model_system
from .target_cantor import (AffineIFS2, FatCantor, MiddleAlpha,
                            build_target_system, middle_thirds)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own matcher takes -3 and -0.5 for values but reads
        # -3e0 or -inf as an unknown option; no option here starts with a
        # digit, inf or nan, so every such token is a value
        self._negative_number_matcher = re.compile(
            r"-(\.?\d|(inf|infinity|nan)$)", re.IGNORECASE)

    def error(self, message):
        raise _UsageError(message)


def _fmt(x):
    return "%.17g" % float(x)


def _parse_floats(text, n, what):
    parts = [p.strip() for p in str(text).split(",")]
    if len(parts) != n:
        raise _UsageError(f"{what} needs {n} comma-separated numbers, got {text!r}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise _UsageError(f"{what}: could not parse {text!r}") from None


def _parse_target(args):
    """Turn the --target/--hull text into a spec object.

    Grammar: middle-thirds | middle-alpha:A | affine:R1,R2 | fat:G0,RHO |
    gaps:FILE.  Unknown names are usage errors; out-of-range parameters are
    left to the spec constructors (domain errors, exit 2).
    """
    hull = (0.0, 1.0)
    if args.hull is not None:
        a, b = _parse_floats(args.hull, 2, "--hull")
        if not a < b:
            raise _UsageError(f"--hull needs a < b, got {args.hull!r}")
        hull = (a, b)
    text = args.target
    if text == "middle-thirds":
        return middle_thirds(hull)
    name, sep, rest = text.partition(":")
    if sep and rest:
        if name == "middle-alpha":
            return MiddleAlpha(alpha=_parse_floats(rest, 1, text)[0], hull=hull)
        if name == "affine":
            r1, r2 = _parse_floats(rest, 2, text)
            return AffineIFS2(r1=r1, r2=r2, hull=hull)
        if name == "fat":
            g0, rho = _parse_floats(rest, 2, text)
            return FatCantor(gap0=g0, ratio=rho, hull=hull)
        if name == "gaps":
            return fileio.load_gap_tree(rest)
    raise _UsageError(
        f"unknown target {text!r}; expected middle-thirds, middle-alpha:A, "
        f"affine:R1,R2, fat:G0,RHO, or gaps:FILE"
    )


def _make_phi(args):
    params = quadratic_map.derive_params(args.c)
    model = build_model_system(params, args.depth)
    target = build_target_system(_parse_target(args), args.depth, args.mode)
    pl = build_phi(model, target, args.depth)
    return pl, params, model, target


def _print_system(system, kind, args):
    a, b = system.hull
    print(f"kind {kind}")
    print(f"depth {system.depth}")
    print(f"hull {_fmt(a)} {_fmt(b)}")
    print(f"segments {1 << system.depth}")
    if args.out:
        fileio.save_system(system, args.out)
        print(f"saved {args.out}")


def _cmd_build_model(args):
    params = quadratic_map.derive_params(args.c)
    system = build_model_system(params, args.depth)
    print(f"c {_fmt(params.c)}")
    print(f"lambda {_fmt(params.lambda_)}")
    _print_system(system, "model", args)
    return 0


def _cmd_build_target(args):
    system = build_target_system(_parse_target(args), args.depth, args.mode)
    print(f"target {args.target}")
    print(f"mode {args.mode}")
    _print_system(system, "target", args)
    return 0


def _cmd_phi(args):
    if args.eval is None and args.inverse is None and not args.knots_out:
        raise _UsageError("phi needs --eval, --inverse, or --knots-out")
    pl, _, _, _ = _make_phi(args)
    if args.eval is not None:
        print(_fmt(eval_phi(pl, args.eval)))
    if args.inverse is not None:
        print(_fmt(eval_phi_inverse(pl, args.inverse)))
    if args.knots_out:
        with open(args.knots_out, "w", newline="", encoding="utf-8") as f:
            w = csv.writer(f)
            w.writerow(["x", "y"])
            for x, y in zip(pl.xs, pl.ys):
                w.writerow([repr(float(x)), repr(float(y))])
    return 0


def _cmd_fstar(args):
    pl, params, _, _ = _make_phi(args)
    print(_fmt(eval_fstar(pl, params, args.eval)))
    return 0


def _cmd_iterate(args):
    if (args.x0 is None) == (args.y0 is None):
        raise _UsageError("give exactly one of --x0 (model orbit) or --y0 "
                          "(target orbit)")
    if args.x0 is not None:
        res = orbit_engine.iterate_model(args.c, args.x0, args.max_iter)
    else:
        pl, params, _, _ = _make_phi(args)
        res = orbit_engine.iterate_target(pl, params, args.y0, args.max_iter)
    verdict = "escaped_at" if res.escaped else "bounded"
    print(f"{verdict} {res.iteration}")
    return 0


def _cmd_classify(args):
    def classify(x0, max_iter):
        return orbit_engine.iterate_model(args.c, x0, max_iter)

    rows = orbit_engine.classify_grid(classify, args.lo, args.hi,
                                      args.n_points, args.max_iter)
    if args.out:
        with open(args.out, "w", newline="", encoding="utf-8") as f:
            w = csv.writer(f)
            w.writerow(["x", "escaped", "iteration"])
            for x, res in rows:
                w.writerow([repr(x), int(res.escaped), res.iteration])
    else:
        for x, res in rows:
            verdict = "escaped_at" if res.escaped else "bounded"
            print(f"{_fmt(x)} {verdict} {res.iteration}")
    return 0


def _cmd_cobweb(args):
    c = args.c

    def f(x):
        return x * x + c

    trace = orbit_engine.cobweb_trace(f, args.x0, args.steps)
    fileio.export_cobweb(trace, args.out, fmt=args.format, curve=f)
    return 0


def _cmd_mandelbrot(args):
    region = (args.re_min, args.re_max, args.im_min, args.im_max)
    fileio.export_escape_image(region, args.width, args.height,
                               args.max_iter, args.out)
    return 0


def _cmd_verify(args):
    results = verification.run_verification(args.c, args.depth,
                                            _parse_target(args))
    ok = True
    for r in results:
        print(f"{'PASS' if r.ok else 'FAIL'} {r.name}: {r.detail}")
        ok = ok and r.ok
    return 0 if ok else 2


_COMMANDS = {
    "build-model": _cmd_build_model,
    "build-target": _cmd_build_target,
    "phi": _cmd_phi,
    "fstar": _cmd_fstar,
    "iterate": _cmd_iterate,
    "classify": _cmd_classify,
    "cobweb": _cmd_cobweb,
    "mandelbrot": _cmd_mandelbrot,
    "verify": _cmd_verify,
}


def _build_parser():
    parser = _Parser(
        prog="cantordyn",
        description="Cantor sets of the real quadratic family, their "
                    "refinements, the conjugating map, and orbit tools.",
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND",
                                required=True)

    def add(name, help_):
        p = sub.add_parser(name, help=help_, description=help_)
        p.add_argument("--config", metavar="FILE",
                       help="read key=value defaults; explicit flags win")
        return p

    def add_c(p):
        p.add_argument("--c", type=float, default=-3.0, metavar="C",
                       help="map parameter (default -3)")

    def add_depth(p, default=12):
        p.add_argument("--depth", type=int, default=default, metavar="N",
                       help=f"refinement depth (default {default})")

    def add_target(p):
        p.add_argument("--target", default="middle-thirds", metavar="SPEC",
                       help="middle-thirds | middle-alpha:A | affine:R1,R2 | "
                            "fat:G0,RHO | gaps:FILE")
        p.add_argument("--hull", metavar="A,B",
                       help="target hull (default 0,1; not with gaps:)")
        p.add_argument("--mode", choices=("strict", "natural"),
                       default="strict", help="gap selection per refinement")

    p = add("build-model", "build the nested segments of bounded orbits of "
                           "x^2 + c and optionally save them")
    add_c(p)
    add_depth(p)
    p.add_argument("--out", metavar="FILE", help="write a cantor-system/1 file")

    p = add("build-target", "refine a target Cantor set and optionally save "
                            "the system")
    add_target(p)
    add_depth(p)
    p.add_argument("--out", metavar="FILE", help="write a cantor-system/1 file")

    p = add("phi", "evaluate the piecewise-linear conjugacy or dump its knots")
    add_c(p)
    add_depth(p)
    add_target(p)
    p.add_argument("--eval", type=float, metavar="X", help="print phi(X)")
    p.add_argument("--inverse", type=float, metavar="Y",
                   help="print phi^-1(Y)")
    p.add_argument("--knots-out", metavar="FILE", help="write knots as CSV")

    p = add("fstar", "evaluate the conjugated map F* = phi o F_c o phi^-1")
    add_c(p)
    add_depth(p)
    add_target(p)
    p.add_argument("--eval", type=float, required=True, metavar="Y",
                   help="print F*(Y)")

    p = add("iterate", "iterate one starting point and report "
                       "escaped_at/bounded")
    add_c(p)
    add_depth(p)
    add_target(p)
    p.add_argument("--x0", type=float, metavar="X", help="model-space start")
    p.add_argument("--y0", type=float, metavar="Y", help="target-space start")
    p.add_argument("--max-iter", type=int, default=100, metavar="N")

    p = add("classify", "classify a grid of model-space starting points")
    add_c(p)
    p.add_argument("--lo", type=float, required=True, metavar="A")
    p.add_argument("--hi", type=float, required=True, metavar="B")
    p.add_argument("--n-points", type=int, default=101, metavar="N")
    p.add_argument("--max-iter", type=int, default=100, metavar="N")
    p.add_argument("--out", metavar="FILE", help="write CSV instead of stdout")

    p = add("cobweb", "trace graphical analysis of x^2 + c and export it")
    add_c(p)
    p.add_argument("--x0", type=float, required=True, metavar="X")
    p.add_argument("--steps", type=int, default=10, metavar="N")
    p.add_argument("--format", choices=("csv", "svg"), default="csv")
    p.add_argument("--out", required=True, metavar="FILE")

    p = add("mandelbrot", "render an escape-time image of the parameter plane")
    p.add_argument("--re-min", type=float, default=-2.5, metavar="X")
    p.add_argument("--re-max", type=float, default=1.0, metavar="X")
    p.add_argument("--im-min", type=float, default=-1.75, metavar="Y")
    p.add_argument("--im-max", type=float, default=1.75, metavar="Y")
    p.add_argument("--width", type=int, default=200, metavar="W")
    p.add_argument("--height", type=int, default=200, metavar="H")
    p.add_argument("--max-iter", type=int, default=256, metavar="N")
    p.add_argument("--out", required=True, metavar="FILE")

    p = add("verify", "run the self-check suites and print PASS/FAIL lines")
    add_c(p)
    add_depth(p, default=10)
    add_target(p)

    return parser


def _config_tokens(path):
    """The key=value lines of `path` as --key=value argv tokens."""
    with open(path, "r", encoding="utf-8") as f:
        lines = f.read().splitlines()
    tokens = []
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key:
            raise _UsageError(f"{path}: line {lineno}: expected key=value")
        tokens.append(f"--{key.replace('_', '-')}={value}")
    return tokens


def _validate_config(args):
    """The limits shared by the subcommands, on whichever of the flags the
    parsed subcommand declares."""
    depth = getattr(args, "depth", 0)
    if not 0 <= depth <= MAX_DEPTH:
        raise _UsageError(f"--depth must be in 0..{MAX_DEPTH}, got {depth}")
    for key, floor in (("width", 1), ("height", 1), ("max_iter", 1),
                       ("steps", 1), ("n_points", 2)):
        value = getattr(args, key, None)
        if value is not None and value < floor:
            flag = "--" + key.replace("_", "-")
            raise _UsageError(f"{flag} must be >= {floor}, got {value}")
    if (getattr(args, "hull", None) is not None
            and args.target.startswith("gaps:")):
        raise _UsageError("--hull cannot be combined with gaps: "
                          "(the file stores its hull)")


def _with_config(argv):
    """argv with the --config file's tokens inserted right after the
    subcommand, ahead of every explicit flag, so those flags win."""
    i = next((i for i, a in enumerate(argv) if not a.startswith("-")), None)
    path = None
    for j, a in enumerate(argv):
        if a == "--config" and j + 1 < len(argv):
            path = argv[j + 1]
        elif a.startswith("--config="):
            path = a.split("=", 1)[1]
    if i is None or path is None:
        return argv
    return argv[:i + 1] + _config_tokens(path) + argv[i + 1:]


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    try:
        try:
            args = _build_parser().parse_args(_with_config(list(argv)))
        except SystemExit as exc:  # --help
            return int(exc.code or 0)
        _validate_config(args)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CantorDynError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main_entry():
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
