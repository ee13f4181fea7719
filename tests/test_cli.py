"""Command-line behavior: outputs, exit codes, files, config handling.

Everything runs in-process through cli.main so exit codes and streams are
asserted directly.  Exit convention: 0 success, 1 usage/IO trouble,
2 domain/regime/format errors from the library.
"""

import json

import pytest

from cantordyn import cli, orbit_engine
from cantordyn.fileio import load_system


def run(capsys, *args):
    rc = cli.main(list(args))
    out, err = capsys.readouterr()
    return rc, out, err


def test_fstar_prints_17_digits(capsys):
    rc, out, _ = run(capsys, "fstar", "--eval", "0.5")
    assert rc == 0
    assert out.strip() == "-0.69722436226800533"


def test_fstar_fixes_right_endpoint(capsys):
    rc, out, _ = run(capsys, "fstar", "--eval", "1")
    assert rc == 0 and out.strip() == "1"


def test_phi_eval_and_inverse(capsys):
    rc, out, _ = run(capsys, "phi", "--eval", "0")
    assert rc == 0 and out.strip() == "0.5"
    rc, out, _ = run(capsys, "phi", "--inverse", "0.3333333333333333")
    assert rc == 0 and out.strip() == "-0.83499961812446677"


def test_phi_requires_an_action(capsys):
    rc, _, err = run(capsys, "phi")
    assert rc == 1 and "usage error" in err


def test_phi_knots_csv(capsys, tmp_path):
    path = tmp_path / "knots.csv"
    rc, _, _ = run(capsys, "phi", "--depth", "2", "--knots-out", str(path))
    assert rc == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "x,y"
    assert len(lines) == 1 + 8  # 2^(N+1) knots at N = 2
    assert lines[1] == "-2.302775637731995,0.0"


def test_iterate_model_orbit(capsys):
    rc, out, _ = run(capsys, "iterate", "--x0", "2.302775637731995")
    assert rc == 0 and out.strip() == "escaped_at 5"
    rc, out, _ = run(capsys, "iterate", "--x0", "0")
    assert rc == 0 and out.strip() == "escaped_at 1"


def test_iterate_target_orbit(capsys):
    rc, out, _ = run(capsys, "iterate", "--y0", "0.3333333333333333")
    assert rc == 0 and out.strip() == "bounded 100"
    rc, out, _ = run(capsys, "iterate", "--y0", "0.5", "--max-iter", "200")
    assert rc == 0 and out.strip() == "escaped_at 1"


def test_iterate_needs_exactly_one_start(capsys):
    rc, _, err = run(capsys, "iterate")
    assert rc == 1 and "usage error" in err
    rc, _, err = run(capsys, "iterate", "--x0", "0", "--y0", "0")
    assert rc == 1 and "usage error" in err


def test_build_model_save_and_reload(capsys, tmp_path):
    path = tmp_path / "model.json"
    rc, out, _ = run(capsys, "build-model", "--depth", "6", "--out", str(path))
    assert rc == 0
    assert "lambda 1.6699992362489335" in out
    assert "segments 64" in out
    assert f"saved {path}" in out
    system = load_system(path)
    assert system.depth == 6 and system.params.c == -3.0


def test_build_model_twice_identical(capsys, tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run(capsys, "build-model", "--depth", "5", "--out", str(p1))[0] == 0
    assert run(capsys, "build-model", "--depth", "5", "--out", str(p2))[0] == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_build_model_uncertified_c(capsys):
    rc, _, err = run(capsys, "build-model", "--c", "-2.05")
    assert rc == 2 and "error" in err


def test_build_target_variants(capsys, tmp_path):
    rc, out, _ = run(capsys, "build-target", "--target", "middle-alpha:0.5",
                     "--depth", "3")
    assert rc == 0 and "segments 8" in out
    rc, out, _ = run(capsys, "build-target", "--target", "affine:0.8,0.1",
                     "--depth", "3", "--mode", "natural")
    assert rc == 0
    rc, out, _ = run(capsys, "build-target", "--target", "fat:0.25,0.5",
                     "--depth", "3")
    assert rc == 0
    path = tmp_path / "t0.json"
    rc, _, _ = run(capsys, "build-target", "--depth", "0", "--out", str(path))
    assert rc == 0
    assert json.loads(path.read_text())["levels"] == [[[0.0, 1.0]]]


def test_build_target_custom_hull(capsys):
    for hull in (("--hull=-1,3",), ("--hull", "-1,3")):
        rc, out, _ = run(capsys, "build-target", "--target",
                         "middle-alpha:0.5", *hull, "--depth", "1")
        assert rc == 0 and "hull -1 3" in out


def test_target_grammar_errors(capsys):
    rc, _, err = run(capsys, "build-target", "--target", "sierpinski")
    assert rc == 1 and "usage error" in err
    rc, _, err = run(capsys, "build-target", "--target", "affine:0.8")
    assert rc == 1
    rc, _, err = run(capsys, "build-target", "--target", "middle-alpha:2")
    assert rc == 2  # grammar fine, alpha out of range


def test_gap_file_target(capsys, tmp_path):
    gaps = tmp_path / "gaps.json"
    gaps.write_text('{"format":"cantor-gaps/1","hull":[0.0,1.0],'
                    '"levels":[[[0.4,0.6]]]}\n')
    rc, out, _ = run(capsys, "build-target", "--target", f"gaps:{gaps}",
                     "--depth", "1", "--mode", "natural")
    assert rc == 0 and "segments 2" in out
    rc, _, err = run(capsys, "build-target", "--target", f"gaps:{gaps}",
                     "--hull", "0,2")
    assert rc == 1 and "usage error" in err  # hull comes from the file


def test_gap_file_validation_fails_loudly(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"format":"cantor-gaps/1","hull":[0.0,1.0],'
                   '"levels":[[[0.4,1.5]]]}\n')
    rc, _, err = run(capsys, "build-target", "--target", f"gaps:{bad}")
    assert rc == 2 and "bad.json" in err
    for hull in ("[false,true]", "[0,1]", "[NaN,1.0]"):
        bad.write_text(f'{{"format":"cantor-gaps/1","hull":{hull},'
                       '"levels":[[[0.4,0.6]]]}\n')
        rc, _, err = run(capsys, "build-target", "--target", f"gaps:{bad}")
        assert rc == 2 and "bad.json" in err, hull


def test_classify_stdout_and_csv(capsys, tmp_path):
    rc, out, _ = run(capsys, "classify", "--lo", "-2.5", "--hi", "2.5",
                     "--n-points", "5")
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5
    assert lines[0] == "-2.5 escaped_at 0"
    assert lines[2] == "0 escaped_at 1"
    path = tmp_path / "grid.csv"
    rc, _, _ = run(capsys, "classify", "--lo", "-2.5", "--hi", "2.5",
                   "--n-points", "5", "--out", str(path))
    assert rc == 0
    rows = path.read_text().splitlines()
    assert rows[0] == "x,escaped,iteration"
    assert rows[1] == "-2.5,1,0"


@pytest.mark.parametrize("c", ["-3", "-2.5", "0.25", "0.3", "2"])
def test_classify_matches_iterate_model_per_point(capsys, tmp_path, c):
    # stdout and CSV bytes of the per-point public call, on both sides of
    # the c > 1/4 radius rule
    grid = ("--lo", "-3", "--hi", "3", "--n-points", "61", "--max-iter", "40")
    rows = orbit_engine.classify_grid(
        lambda x0, n: orbit_engine.iterate_model(float(c), x0, n),
        -3.0, 3.0, 61, 40)
    rc, out, _ = run(capsys, "classify", f"--c={c}", *grid)
    assert rc == 0
    assert out == "".join(
        f"{x:.17g} {'escaped_at' if r.escaped else 'bounded'} {r.iteration}\n"
        for x, r in rows)
    path = tmp_path / "grid.csv"
    rc, _, _ = run(capsys, "classify", f"--c={c}", *grid, "--out", str(path))
    assert rc == 0
    assert path.read_bytes() == ("x,escaped,iteration\r\n" + "".join(
        f"{x!r},{int(r.escaped)},{r.iteration}\r\n" for x, r in rows)).encode()


def test_classify_derives_the_parameters_once(capsys, monkeypatch):
    calls = []
    derive = orbit_engine.derive_params

    def counted(c):
        calls.append(c)
        return derive(c)

    monkeypatch.setattr(orbit_engine, "derive_params", counted)
    rc, _, _ = run(capsys, "classify", "--lo", "-3", "--hi", "3",
                   "--n-points", "101")
    assert (rc, calls) == (0, [-3.0])


@pytest.mark.parametrize("argv, rc, err", [
    (["--n-points", "1"], 1, "usage error: --n-points must be >= 2, got 1"),
    (["--max-iter", "0"], 1, "usage error: --max-iter must be >= 1, got 0"),
    (["--lo", "1", "--hi", "0"], 2, "error: invalid grid range [1.0, 0.0]"),
    (["--lo", "nan"], 2, "error: invalid grid range [nan, 1.0]"),
    ([], 2, "error: c must be finite, got nan"),
])
def test_classify_grid_errors_win_over_a_bad_c(capsys, argv, rc, err):
    got = run(capsys, "classify", "--c=nan", "--lo", "0", "--hi", "1", *argv)
    assert got == (rc, "", err + "\n")


def test_cobweb_csv(capsys, tmp_path):
    path = tmp_path / "trace.csv"
    rc, _, _ = run(capsys, "cobweb", "--c", "0.5", "--x0", "0", "--steps", "3",
                   "--out", str(path))
    assert rc == 0
    rows = path.read_text().splitlines()
    assert rows[0] == "x0,y0,x1,y1"
    assert rows[1] == "0.0,0.5,0.5,0.5"
    assert len(rows) == 1 + 5


def test_cobweb_svg(capsys, tmp_path):
    path = tmp_path / "trace.svg"
    rc, _, _ = run(capsys, "cobweb", "--c", "0.5", "--x0", "0",
                   "--format", "svg", "--out", str(path))
    assert rc == 0
    assert "<svg" in path.read_text()


def test_cobweb_svg_of_an_escaping_orbit_exits_2(capsys, tmp_path):
    # the trace overflows to inf; its CSV keeps the inf rows, but an SVG
    # of it would be all nan, so none is written
    esc = ("--c", "-3", "--x0", "0.3", "--steps", "40")
    path = tmp_path / "esc.svg"
    rc, out, err = run(capsys, "cobweb", *esc, "--format", "svg",
                       "--out", str(path))
    assert (rc, out) == (2, "")
    assert err.startswith("error: svg export needs a finite trace: trace[19] ")
    assert not path.exists()
    path = tmp_path / "esc.csv"
    rc, _, _ = run(capsys, "cobweb", *esc, "--out", str(path))
    assert rc == 0
    assert path.read_text().splitlines()[-1] == "inf,inf,inf,inf"


def test_cobweb_svg_of_an_overflowing_graph_exits_2(capsys, tmp_path):
    # the trace 0 -> 1e154 -> 1e308 is finite, but the graph of x^2 + 1e154
    # overflows over the padded view: no figure, no file
    path = tmp_path / "big.svg"
    rc, out, err = run(capsys, "cobweb", "--c", "1e154", "--x0", "0",
                       "--steps", "2", "--format", "svg", "--out", str(path))
    assert (rc, out) == (2, "")
    assert err == ("error: svg export needs a finite graph: curve sample 0 "
                   "at x = -8e+306 is inf\n")
    assert not path.exists()


@pytest.mark.parametrize("flags", [("--c=nan", "--x0", "0"),
                                   ("--c=inf", "--x0", "0"),
                                   ("--c=-1e308", "--x0", "0"),
                                   ("--c", "0.5", "--x0", "nan"),
                                   ("--c", "-3", "--x0=-inf")],
                         ids=["c-nan", "c-inf", "c-overflows", "x0-nan",
                              "x0-minus-inf"])
@pytest.mark.parametrize("fmt", ["csv", "svg"])
def test_cobweb_bad_input_exits_2(capsys, tmp_path, flags, fmt):
    # formerly an all-nan trace written with exit 0
    path = tmp_path / f"t.{fmt}"
    rc, out, err = run(capsys, "cobweb", *flags, "--steps", "2", "--format",
                       fmt, "--out", str(path))
    assert (rc, out) == (2, "") and err.startswith("error: ")
    assert not path.exists()


def test_cobweb_c_between_minus_2_and_quarter(capsys, tmp_path):
    path = tmp_path / "trace.csv"
    rc, _, _ = run(capsys, "cobweb", "--c", "-1", "--x0", "0.5", "--steps",
                   "2", "--out", str(path))
    assert rc == 0
    assert path.read_text().splitlines()[1:] == [
        "0.5,-0.75,-0.75,-0.75", "-0.75,-0.75,-0.75,-0.4375",
        "-0.75,-0.4375,-0.4375,-0.4375"]


@pytest.mark.parametrize("x0", ["0", "1", "-1"])
def test_iterate_overflow_escapes(capsys, x0):
    # x_2 = x_1^2 + c overflows: formerly "bounded 100"
    rc, out, _ = run(capsys, "iterate", "--c=1e200", "--x0", x0)
    assert (rc, out) == (0, "escaped_at 2\n")


def test_classify_overflow_escapes(capsys):
    rc, out, _ = run(capsys, "classify", "--c=1e200", "--lo", "0", "--hi",
                     "1", "--n-points", "2")
    assert (rc, out) == (0, "0 escaped_at 2\n1 escaped_at 2\n")


@pytest.mark.parametrize("x0", ["nan", "inf", "-inf"])
def test_iterate_nonfinite_x0_exits_2(capsys, x0):
    rc, out, err = run(capsys, "iterate", "--c=-3", f"--x0={x0}")
    assert (rc, out) == (2, "")
    assert err.startswith("error: query must be finite")


def test_cobweb_zero_steps(capsys, tmp_path):
    rc, _, err = run(capsys, "cobweb", "--x0", "0", "--steps", "0",
                     "--out", str(tmp_path / "t.csv"))
    assert rc == 1 and "usage error" in err


def test_mandelbrot_render(capsys, tmp_path):
    path = tmp_path / "m.ppm"
    rc, _, _ = run(capsys, "mandelbrot", "--width", "16", "--height", "8",
                   "--max-iter", "30", "--out", str(path))
    assert rc == 0
    assert path.read_bytes().startswith(b"P6\n16 8\n255\n")


@pytest.mark.parametrize("flags", [
    ("--re-min", "nan"), ("--im-max", "inf"), ("--re-max=-inf",),
    ("--re-min=-1e308", "--re-max", "1e308"),
], ids=["re-min-nan", "im-max-inf", "re-max-minus-inf", "span-overflows"])
def test_mandelbrot_non_finite_region(capsys, tmp_path, flags):
    # refused with exit 2 and no image, not rendered all black
    path = tmp_path / "m.ppm"
    rc, _, err = run(capsys, "mandelbrot", "--width", "16", "--height", "8",
                     *flags, "--out", str(path))
    assert rc == 2 and "region" in err
    assert not path.exists()


@pytest.mark.parametrize("argv", [
    ["build-model", "--c", "-1000", "--depth", "12"],
    ["build-model", "--c", "-100", "--depth", "13"],
    ["build-model", "--c", "-50", "--depth", "14"],
    ["build-target", "--target", "middle-alpha:0.999", "--depth", "9"],
    ["build-target", "--target", "middle-alpha:0.999", "--depth", "9",
     "--mode", "natural"],
    ["build-target", "--target", "affine:0.01,0.97", "--mode", "natural",
     "--depth", "12"],
], ids=["model-c-1000", "model-c-100", "model-c-50", "middle-alpha-strict",
        "middle-alpha-natural", "affine-natural"])
def test_colliding_endpoints_exit_2_without_a_file(capsys, tmp_path, argv):
    path = tmp_path / "F.json"
    rc, out, err = run(capsys, *argv, "--out", str(path))
    assert rc == 2 and "collide in doubles" in err and "resolves is" in err
    assert not path.exists()


def test_depth_out_of_range(capsys):
    rc, _, err = run(capsys, "build-model", "--depth", "49")
    assert rc == 1 and "usage error" in err
    rc, _, err = run(capsys, "build-model", "--depth", "-1")
    assert rc == 1


def test_unwritable_output(capsys, tmp_path):
    rc, _, err = run(capsys, "build-model", "--depth", "2",
                     "--out", str(tmp_path / "no" / "dir" / "out.json"))
    assert rc == 1 and "error" in err


class TestConfigFile:
    def test_supplies_required_flag(self, capsys, tmp_path):
        out = tmp_path / "m.ppm"
        cfg = tmp_path / "render.cfg"
        cfg.write_text(f"out={out}\nwidth=16\nheight=8\nmax-iter=30\n")
        rc, _, _ = run(capsys, "mandelbrot", "--config", str(cfg))
        assert rc == 0
        assert out.read_bytes().startswith(b"P6\n16 8\n255\n")

    def test_flags_override_config(self, capsys, tmp_path):
        out = tmp_path / "m.ppm"
        cfg = tmp_path / "render.cfg"
        cfg.write_text(f"out={out}\nwidth=16\nheight=8\nmax-iter=30\n")
        rc, _, _ = run(capsys, "mandelbrot", "--config", str(cfg),
                       "--width", "4")
        assert rc == 0
        assert out.read_bytes().startswith(b"P6\n4 8\n255\n")

    def test_config_with_comments(self, capsys, tmp_path):
        cfg = tmp_path / "iter.cfg"
        cfg.write_text("# starting point\nx0 = 0\nmax-iter=50\n")
        rc, out, _ = run(capsys, "iterate", "--config", str(cfg))
        assert rc == 0 and out.strip() == "escaped_at 1"

    def test_unknown_key(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nonsense=1\n")
        rc, _, err = run(capsys, "build-model", "--config", str(cfg))
        assert rc == 1 and "usage error" in err

    def test_missing_file(self, capsys):
        rc, _, err = run(capsys, "build-model", "--config", "missing.cfg")
        assert rc == 1


def test_config_negative_value(capsys, tmp_path):
    # c = -1 keeps 0 on the 2-cycle 0, -1; a config line with an
    # underscore key and a negative value must reach the parser as a flag
    cfg = tmp_path / "cycle.cfg"
    cfg.write_text("c=-1\nx0=0\nmax_iter=50\n")
    rc, out, _ = run(capsys, "iterate", "--config", str(cfg))
    assert rc == 0 and out.strip() == "bounded 50"
    rc, out, _ = run(capsys, "iterate", "--config", str(cfg), "--c", "-3")
    assert rc == 0 and out.strip() == "escaped_at 1"


def test_verify_passes(capsys):
    rc, out, _ = run(capsys, "verify", "--depth", "8")
    assert rc == 0
    lines = [l for l in out.splitlines() if l]
    assert sum(1 for l in lines if l.startswith("PASS")) == 9
    assert not any(l.startswith("FAIL") for l in lines)


def test_verify_fails_uncertified(capsys):
    rc, out, _ = run(capsys, "verify", "--c", "-2.05", "--depth", "4")
    assert rc == 2
    assert any(l.startswith("FAIL") for l in out.splitlines())


def test_help_and_no_args(capsys):
    rc, out, _ = run(capsys, "--help")
    assert rc == 0 and "cantordyn" in out
    rc, _, err = run(capsys, *[])
    assert rc == 1


# (argv, rc, stdout, stderr) of each usage path, recorded from the CLI that
# copied the parsed flags into a config record before dispatch; the handlers
# now read the parsed namespace and must answer byte for byte the same.
# {tmp} stands for the test's directory, which holds it.cfg
# (c=-3, y0=1/3, max-iter=50, depth=49), bad.cfg and g.json (one gap).
USAGE_PATHS = [
    (['mandelbrot', '--width', '0', '--out', '{tmp}/m.ppm'],
     1, '', 'usage error: --width must be >= 1, got 0\n'),
    (['mandelbrot', '--height', '0', '--out', '{tmp}/m.ppm'],
     1, '', 'usage error: --height must be >= 1, got 0\n'),
    (['mandelbrot', '--max-iter', '0', '--out', '{tmp}/m.ppm'],
     1, '', 'usage error: --max-iter must be >= 1, got 0\n'),
    (['iterate', '--x0', '0', '--max-iter', '0'],
     1, '', 'usage error: --max-iter must be >= 1, got 0\n'),
    (['cobweb', '--x0', '0', '--steps', '0', '--out', '{tmp}/c.csv'],
     1, '', 'usage error: --steps must be >= 1, got 0\n'),
    (['classify', '--lo', '0', '--hi', '1', '--n-points', '1'],
     1, '', 'usage error: --n-points must be >= 2, got 1\n'),
    (['classify', '--lo', '0', '--hi', '1', '--max-iter', '0'],
     1, '', 'usage error: --max-iter must be >= 1, got 0\n'),
    (['verify', '--depth', '49'],
     1, '', 'usage error: --depth must be in 0..48, got 49\n'),
    (['build-model', '--depth', '49'],
     1, '', 'usage error: --depth must be in 0..48, got 49\n'),
    (['build-target', '--depth', '-1'],
     1, '', 'usage error: --depth must be in 0..48, got -1\n'),
    (['phi', '--depth', '49', '--eval', '0'],
     1, '', 'usage error: --depth must be in 0..48, got 49\n'),
    (['build-target', '--target', 'gaps:{tmp}/g.json', '--hull', '0,2', '--depth', '1'],
     1, '', 'usage error: --hull cannot be combined with gaps: (the file stores its hull)\n'),
    (['verify', '--target', 'gaps:{tmp}/g.json', '--hull', '0,2', '--depth', '1'],
     1, '', 'usage error: --hull cannot be combined with gaps: (the file stores its hull)\n'),
    (['phi'],
     1, '', 'usage error: phi needs --eval, --inverse, or --knots-out\n'),
    (['phi', '--depth', '2'],
     1, '', 'usage error: phi needs --eval, --inverse, or --knots-out\n'),
    (['iterate', '--x0', '0', '--y0', '0'],
     1, '', 'usage error: give exactly one of --x0 (model orbit) or --y0 (target orbit)\n'),
    (['iterate'],
     1, '', 'usage error: give exactly one of --x0 (model orbit) or --y0 (target orbit)\n'),
    (['iterate', '--config', '{tmp}/it.cfg', '--depth', '3', '--max-iter', '7'],
     0, 'bounded 7\n', ''),
    (['iterate', '--max-iter', '7', '--depth', '3', '--config={tmp}/it.cfg'],
     0, 'bounded 7\n', ''),
    (['iterate', '--config', '{tmp}/it.cfg'],
     1, '', 'usage error: --depth must be in 0..48, got 49\n'),
    (['iterate', '--config', '{tmp}/bad.cfg', '--x0', '0'],
     1, '', 'usage error: {tmp}/bad.cfg: line 2: expected key=value\n'),
    (['build-target', '--hull', '1,0'],
     1, '', "usage error: --hull needs a < b, got '1,0'\n"),
    (['build-target', '--target', 'bogus'],
     1, '', "usage error: unknown target 'bogus'; expected middle-thirds, middle-alpha:A, affine:R1,R2, fat:G0,RHO, or gaps:FILE\n"),
    (['fstar'],
     1, '', 'usage error: the following arguments are required: --eval\n'),
    (['verify', '--mode', 'bogus'],
     1, '', "usage error: argument --mode: invalid choice: 'bogus' (choose from 'strict', 'natural')\n"),
]


@pytest.mark.parametrize("argv, rc, out, err", USAGE_PATHS,
                         ids=[" ".join(p[0]) for p in USAGE_PATHS])
def test_usage_paths_unchanged(capsys, tmp_path, argv, rc, out, err):
    (tmp_path / "it.cfg").write_text(
        "c=-3\ny0=0.3333333333333333\nmax-iter=50\ndepth=49\n")
    (tmp_path / "bad.cfg").write_text("c=-3\nnonsense\n")
    (tmp_path / "g.json").write_text(
        '{"format":"cantor-gaps/1","hull":[0.0,1.0],"levels":[[[0.4,0.6]]]}\n')
    tmp = str(tmp_path)
    got = run(capsys, *[a.replace("{tmp}", tmp) for a in argv])
    assert got == (rc, out.replace("{tmp}", tmp), err.replace("{tmp}", tmp))


NEGATIVE_SPELLINGS = ["-3", "-0.5", "-3e0", "-3E0", "-1e-3", "-1e+3", "-.5",
                      "-5.", "-1_000", "-inf", "-Inf", "-infinity",
                      "-INFINITY", "-nan", "-NaN", "-1e308"]


@pytest.mark.parametrize("value", NEGATIVE_SPELLINGS)
@pytest.mark.parametrize("cmd", [
    ("iterate", "--max-iter", "5", "--x0", "0", "--c"),
    ("iterate", "--max-iter", "5", "--x0"),
    ("classify", "--lo", "-3", "--hi", "3", "--n-points", "3", "--c"),
    ("fstar", "--depth", "2", "--eval"),
    ("mandelbrot", "--width", "4", "--height", "3", "--max-iter", "5",
     "--re-min"),
], ids=["iterate-c", "iterate-x0", "classify-c", "fstar-eval",
        "mandelbrot-re-min"])
def test_negative_value_after_space(capsys, tmp_path, cmd, value):
    # --flag V answers exactly as --flag=V, however float() spells V
    *head, flag = cmd
    out = []
    for i, tail in enumerate(([flag, value], [f"{flag}={value}"])):
        path = tmp_path / f"m{i}.ppm"
        extra = ["--out", str(path)] if head[0] == "mandelbrot" else []
        got = run(capsys, *head, *tail, *extra)
        out.append((got, path.read_bytes() if path.exists() else None))
    assert out[0] == out[1]
    assert "expected one argument" not in out[0][0][2]


@pytest.mark.parametrize("c", ["nan", "inf", "-inf", "-1e308", "-1.4e300"])
@pytest.mark.parametrize("cmd", [
    ("iterate", "--x0", "0"),
    ("classify", "--lo", "0", "--hi", "1", "--n-points", "2"),
    ("build-model", "--depth", "2"),
    ("fstar", "--depth", "2", "--eval", "0.5"),
], ids=["iterate", "classify", "build-model", "fstar"])
def test_bad_c_exits_2(capsys, cmd, c):
    # not "bounded 100" with exit 0: a c that is not finite, or whose
    # fixed point overflows, is refused
    rc, out, err = run(capsys, *cmd, f"--c={c}")
    assert (rc, out) == (2, "")
    assert err.startswith("error: c ")


@pytest.mark.parametrize("c", ["nan", "-inf", "-1e308"])
def test_verify_bad_c_fails(capsys, c):
    rc, out, _ = run(capsys, "verify", f"--c={c}", "--depth", "2")
    assert rc == 2
    assert out.splitlines()[-1] == (
        f"FAIL model-structure: c={float(c)!r} is not a certified expanding "
        f"parameter")


def test_repeated_main_answers_as_separate_calls(capsys, tmp_path):
    # main reuses one parser per process; each call must still answer as a
    # call with a freshly built parser, with no value carried over from an
    # earlier call.  At x0 = 0 both c = -2.5 and c = -3 escape at step 1,
    # so x0 = 1 (a 2-cycle at c = -3 only) shows a leaked c.
    cfg = tmp_path / "it.cfg"
    cfg.write_text("c=-2.5\nx0=1\n")
    calls = [["verify", "--depth", "2"], ["verify", "--depth", "x"],
             ["--help"], ["iterate", "--config", str(cfg)],
             ["iterate", "--x0", "1"],
             ["iterate", "--c", "-2.5", "--x0", "0"], ["iterate", "--x0", "0"],
             ["iterate", "--c", "-2.5", "--x0", "1"], ["iterate", "--x0", "1"]]
    fresh = []
    for argv in calls:
        cli._build_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    cli._build_parser.cache_clear()
    again = [run(capsys, *argv) for argv in calls]
    assert again == fresh
    assert cli._build_parser.cache_info().misses == 1
    assert [rc for rc, _, _ in again] == [0, 1, 0, 0, 0, 0, 0, 0, 0]
    assert again[3][1] == again[7][1] == "escaped_at 3\n"
    assert again[4][1] == again[8][1] == "bounded 100\n"
