"""On-disk formats: system/gap-tree JSON, cobweb CSV/SVG, escape-time PPM.

Round-trips must be byte-identical: floats are serialized with their
shortest round-tripping representation and re-saved files must not change.
Corruption tests edit valid documents in place so only the corrupted field
differs.
"""

import csv
import functools
import gc
import hashlib
import json
import math
import pathlib
import tempfile
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cantordyn import (
    AffineIFS2,
    CantorDynError,
    DomainError,
    ExplicitGapTree,
    FatCantor,
    IntervalSystem,
    MiddleAlpha,
    RegimeError,
    SpecError,
    TargetSystem,
    build_model_system,
    build_target_system,
    cobweb_trace,
    derive_params,
    mandelbrot_escape,
    mandelbrot_grid,
    middle_thirds,
)
from cantordyn import fileio, model_cantor, target_cantor
from cantordyn.fileio import (
    PALETTE,
    export_cobweb,
    export_escape_image,
    load_gap_tree,
    load_system,
    save_gap_tree,
    save_system,
)


def corrupt(path, edit):
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


def compact(doc):
    """A document laid out as the writer lays it out (compact separators and
    a final newline), so that load_system reaches its byte comparison."""
    return json.dumps(doc, separators=(",", ":")) + "\n"


class TestSystemRoundTrip:
    def test_model_bytes(self, model12, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_system(model12, p1)
        loaded = load_system(p1)
        save_system(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_model_contents(self, model12, params3, tmp_path):
        path = tmp_path / "m.json"
        save_system(model12, path)
        loaded = load_system(path)
        assert loaded.depth == 12
        assert loaded.params == params3
        for n in range(13):
            assert np.array_equal(loaded.level_a[n], model12.level_a[n])
            assert np.array_equal(loaded.level_b[n], model12.level_b[n])
            if n:
                assert np.array_equal(loaded.gap_c[n], model12.gap_c[n])
                assert np.array_equal(loaded.gap_d[n], model12.gap_d[n])

    def test_target_bytes_and_spec(self, thirds12, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_system(thirds12, p1)
        loaded = load_system(p1)
        save_system(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert loaded.mode == "strict"
        assert loaded.spec.alpha == 0.3333333333333333
        assert loaded.spec.alpha_lo != 0.0  # exact-third tail survives

    @pytest.mark.parametrize("spec", [
        FatCantor(0.3, 0.5),
        # a strict build on a hull this small still splits naturally (on
        # the hull (1e15, 1e15 + 1) its endpoints collide from level 3,
        # which EDGE_SYSTEMS covers)
        middle_thirds((0.0, 2.0 ** -969)),
    ], ids=repr)
    def test_centred_strict_file_stays_strict(self, spec, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        system = build_target_system(spec, 10)
        save_system(system, p1)
        assert '"mode":"strict"' in p1.read_text()
        loaded = load_system(p1)
        assert loaded.mode == "strict"
        save_system(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_depth0_target_single_segment(self, thirds, tmp_path):
        path = tmp_path / "t0.json"
        save_system(build_target_system(thirds, 0), path)
        doc = json.loads(path.read_text())
        assert doc["levels"] == [[[0.0, 1.0]]]
        assert doc["gaps"] == [[]]


GOLDEN_MODEL = (
    '{"format":"cantor-system/1","kind":"model","parameters":{"c":-3.0,'
    '"depth":1},"levels":[[[-2.302775637731995,2.302775637731995]],'
    '[[-2.302775637731995,-0.8349996181244668],'
    '[0.8349996181244668,2.302775637731995]]],'
    '"gaps":[[],[[-0.8349996181244668,0.8349996181244668]]]}\n')
GOLDEN_TARGET = (
    '{"format":"cantor-system/1","kind":"target","parameters":{"spec":'
    '{"family":"middle-alpha","alpha":0.3333333333333333,'
    '"alpha_lo":1.850371707708594e-17,"hull":[0.0,1.0]},"mode":"strict",'
    '"depth":1},"levels":[[[0.0,1.0]],[[0.0,0.3333333333333333],'
    '[0.6666666666666666,1.0]]],'
    '"gaps":[[],[[0.3333333333333333,0.6666666666666666]]]}\n')


def test_golden_bytes(tmp_path):
    save_system(build_model_system(derive_params(-3.0), 1), tmp_path / "m.json")
    save_system(build_target_system(middle_thirds(), 1), tmp_path / "t.json")
    assert (tmp_path / "m.json").read_text() == GOLDEN_MODEL
    assert (tmp_path / "t.json").read_text() == GOLDEN_TARGET


@functools.lru_cache(maxsize=None)
def affine_gap_tree():
    """A 12-level explicit tree: the gaps of a natural affine build."""
    src = build_target_system(AffineIFS2(0.3, 0.2), 12, "natural")
    return ExplicitGapTree(hull=(0.0, 1.0), levels=tuple(
        tuple(zip(src.gap_c[n].tolist(), src.gap_d[n].tolist()))
        for n in range(1, 13)))


def _model(c):
    return lambda depth: build_model_system(derive_params(c), depth)


def _target(spec, mode):
    return lambda depth: build_target_system(spec(), depth, mode)


SYSTEMS = {f"model{c}": _model(c) for c in (-3.0, -2.5, -10.0)}
for _name, _spec in (("middle-thirds", middle_thirds),
                     ("affine", lambda: AffineIFS2(0.3, 0.2)),
                     ("fat", lambda: FatCantor(0.3, 0.5)),
                     ("gap-tree", affine_gap_tree)):
    for _mode in ("strict", "natural"):
        SYSTEMS[f"{_name}-{_mode}"] = _target(_spec, _mode)


def same_system(x, y):
    return all(np.array_equal(getattr(x, k).view(np.int64),
                              getattr(y, k).view(np.int64))
               for k in ("a_N", "b_N", "a_lo_N", "b_lo_N"))


@pytest.mark.parametrize("make", SYSTEMS.values(), ids=SYSTEMS.keys())
def test_round_trip_depths_0_to_12(make, tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    for depth in range(13):
        system = make(depth)
        save_system(system, p1)
        loaded = load_system(p1)
        save_system(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes(), depth
        # the loaded system is the builder's own, tails included
        assert same_system(loaded, system), depth


# The dict + json.dumps writer that save_system replaced, frozen verbatim
# as the reference for its bytes (only the file write is dropped).
def reference_pairs(a, b):
    return np.column_stack([a, b]).tolist()


def reference_system_doc(system):
    """The cantor-system/1 document of a model or target system."""
    if isinstance(system, TargetSystem):
        parameters = {"spec": fileio._spec_doc(system.spec), "mode": system.mode,
                      "depth": system.depth}
        kind = "target"
    else:
        if system.params is None:
            raise DomainError("model system carries no parameters to serialize")
        parameters = {"c": system.params.c, "depth": system.depth}
        kind = "model"
    return {
        "format": fileio.SYSTEM_FORMAT,
        "kind": kind,
        "parameters": parameters,
        "levels": [reference_pairs(system.level_a[n], system.level_b[n])
                   for n in range(system.depth + 1)],
        "gaps": [reference_pairs(system.gap_c[n], system.gap_d[n])
                 for n in range(system.depth + 1)],
    }


def reference_save_text(system):
    return json.dumps(reference_system_doc(system), separators=(",", ":")) + "\n"


def nudged_model(depth):
    """A c = -3 model with its last left end one ulp up: params and all, but
    no longer symmetric about 0."""
    model = build_model_system(derive_params(-3.0), depth)
    a_N = model.a_N.copy()
    a_N[-1] = np.nextafter(a_N[-1], np.inf)
    return IntervalSystem(a_N, model.b_N, model.a_lo_N, model.b_lo_N,
                          model.params)


def signed_zeros_model(depth):
    """A c = -3 model with its middle ends replaced by 0.0 and -0.0, still
    symmetric about 0 bit for bit."""
    model = build_model_system(derive_params(-3.0), depth)
    a_N, b_N = model.a_N.copy(), model.b_N.copy()
    m = a_N.size
    a_N[m // 2], b_N[m - 1 - m // 2] = 0.0, -0.0
    if m > 1:
        a_N[m // 2 - 1], b_N[m // 2] = -0.0, 0.0
    return IntervalSystem(a_N, b_N, model.a_lo_N, model.b_lo_N, model.params)


ORACLE_SYSTEMS = {
    **SYSTEMS,
    **{f"middle-alpha-{mode}": _target(lambda: MiddleAlpha(0.5), mode)
       for mode in ("strict", "natural")},
    **{f"negative-zero-hull-{mode}":
       _target(lambda: MiddleAlpha(0.5, hull=(-0.0, 1.0)), mode)
       for mode in ("strict", "natural")},
    **{f"centred-hull-{mode}":
       _target(lambda: MiddleAlpha(0.5, hull=(-1.0, 1.0)), mode)
       for mode in ("strict", "natural")},
    "hand-nudged": nudged_model,
    "hand-signed-zeros": signed_zeros_model,
}

# the systems symmetric about 0 bit for bit, whose right ends the writer
# renders from their left ends
MIRRORED = {name for name in ORACLE_SYSTEMS if name.startswith("model")} | {
    "centred-hull-strict", "centred-hull-natural", "hand-signed-zeros"}


@pytest.mark.parametrize("name", ORACLE_SYSTEMS)
def test_save_bytes_match_reference_writer(name, tmp_path):
    # models to depth 14; the explicit tree stores 12 levels, so targets
    # stop there
    path = tmp_path / "s.json"
    for depth in range(15 if name.startswith("model") else 13):
        system = ORACLE_SYSTEMS[name](depth)
        save_system(system, path)
        assert path.read_text(encoding="utf-8") == reference_save_text(system), depth


@pytest.fixture
def repr_calls(monkeypatch):
    """The floats the writer passes to repr, from now on."""
    calls = []

    def counting_repr(x):
        calls.append(x)
        return repr(x)

    monkeypatch.setattr(fileio, "repr", counting_repr, raising=False)
    return calls


@pytest.mark.parametrize("name", ORACLE_SYSTEMS)
def test_writer_renders_mirror_pairs_once(name, tmp_path, monkeypatch,
                                          repr_calls):
    """A mirrored system's ends go through repr once per mirror pair, any
    other's once per end, and the file loads back through the byte
    comparison alone.  The hand-made systems are their own rebuild."""
    system = ORACLE_SYSTEMS[name](10)
    path = tmp_path / "s.json"
    save_system(system, path)
    assert len(repr_calls) == (1 if name in MIRRORED else 2) << 10
    assert path.read_text(encoding="utf-8") == reference_save_text(system)

    def refuse(*args):
        raise AssertionError("parsed the whole document")

    monkeypatch.setattr(fileio, "_parse_json", refuse)
    if name.startswith("hand"):
        monkeypatch.setattr(fileio, "build_model_system",
                            lambda params, depth: system)
    assert same_system(load_system(path), system)


# a mirrored model and an unmirrored target
RENDERED_ONCE = ["model-3.0", "affine-strict"]


@pytest.mark.parametrize("name", RENDERED_ONCE)
def test_second_save_renders_nothing(name, tmp_path, repr_calls):
    system = ORACLE_SYSTEMS[name](10)
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    save_system(system, first)
    assert len(repr_calls) == (1 if name in MIRRORED else 2) << 10
    repr_calls.clear()
    save_system(system, second)
    assert repr_calls == []
    assert second.read_bytes() == first.read_bytes()
    assert first.read_text(encoding="utf-8") == reference_save_text(system)


def test_written_knots_render_again(tmp_path, repr_calls):
    """A save after the knots were written into renders the new knots: the
    last left end one ulp up (as in nudged_model) unmirrors the model, so
    both ends go through repr, and one ulp back mirrors it again."""
    system = build_model_system(derive_params(-3.0), 10)
    path = tmp_path / "s.json"
    save_system(system, path)
    end = system.knots[-2]
    for value, calls in ((np.nextafter(end, np.inf), 2 << 10), (end, 1 << 10)):
        system.knots[-2] = value
        repr_calls.clear()
        save_system(system, path)
        assert len(repr_calls) == calls
        assert path.read_text(encoding="utf-8") == reference_save_text(system)
    repr_calls.clear()
    save_system(system, path)
    assert repr_calls == []


@pytest.mark.parametrize("name", RENDERED_ONCE)
def test_saving_a_loaded_system_renders_nothing(name, tmp_path, repr_calls):
    """load_system renders the rebuild once, to compare it with the file;
    the system it returns keeps those strings."""
    path, again = tmp_path / "s.json", tmp_path / "again.json"
    save_system(ORACLE_SYSTEMS[name](10), path)
    loaded = load_system(path)
    repr_calls.clear()
    save_system(loaded, again)
    assert repr_calls == []
    assert again.read_bytes() == path.read_bytes()


def test_saved_systems_are_held_weakly(tmp_path):
    path = tmp_path / "s.json"
    system = build_model_system(derive_params(-3.0), 8)
    save_system(system, path)
    loaded = load_system(path)
    refs = [weakref.ref(system), weakref.ref(loaded)]
    assert system in fileio._RENDERED and loaded in fileio._RENDERED
    del system, loaded
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


def test_saved_strings_take_under_a_third_of_the_file(tmp_path):
    # memory guard, in bytes tracemalloc sees: what a save leaves allocated
    # is the table's entry, the knots' copy and the joined strings of the
    # left ends, a's alone since a model mirrors.  For a depth-16 model
    # (7.9 MB of text, 1 MB of knots) that measured 0.29 times the file's
    # size (0.45 times with b's strings kept too); the lists of strings
    # that a save works from take 1.25 times.
    system = build_model_system(derive_params(-3.0), 16)
    path = tmp_path / "s.json"
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        save_system(system, path)
        left = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert left < path.stat().st_size / 3


def test_nan_ends_render_as_repr(tmp_path):
    """NaN's repr has no sign, so a NaN end is rendered by repr even where
    its sign bit mirrors the other end's."""
    nan = np.array([np.nan])
    system = IntervalSystem(nan, -nan, np.zeros(1), np.zeros(1),
                            derive_params(-3.0))
    path = tmp_path / "s.json"
    save_system(system, path)
    assert path.read_text().endswith(',"levels":[[[nan,nan]]],"gaps":[[]]}\n')


@pytest.mark.parametrize("block", [1, 3, 4])
@pytest.mark.parametrize("name", ["model-3.0", "affine-natural"])
def test_pieces_of_any_size_keep_the_bytes(name, block, tmp_path,
                                           monkeypatch):
    """With pieces of a few pairs, levels and gaps split at odd places and
    on their edges.  Each array comes in ceil(pairs / block) pieces (an
    empty one in one), the file keeps the reference writer's bytes, and it
    loads back through the piece-by-piece comparison alone."""
    monkeypatch.setattr(fileio, "_BLOCK", block)

    def refuse(*args):
        raise AssertionError("parsed the whole document")

    monkeypatch.setattr(fileio, "_parse_json", refuse)
    path = tmp_path / "s.json"
    for depth in range(7):
        system = ORACLE_SYSTEMS[name](depth)
        pieces = list(fileio._system_pieces(system))
        sizes = [1 << n for n in range(depth + 1)] + [
            (1 << n) >> 1 for n in range(depth + 1)]
        assert len(pieces) == 1 + sum(max(1, -(-m // block)) for m in sizes)
        save_system(system, path)
        assert path.read_text(encoding="utf-8") == reference_save_text(system)
        assert "".join(pieces) == reference_save_text(system)
        assert same_system(load_system(path), system), depth


def test_refused_save_leaves_no_file(tmp_path):
    """The header is built before the file is opened: a system that cannot
    be serialized leaves no file, and an existing one as it was."""
    model = build_model_system(derive_params(-3.0), 4)
    target = build_target_system(middle_thirds(), 4)
    bare = IntervalSystem(model.a_N, model.b_N, model.a_lo_N, model.b_lo_N)
    odd = TargetSystem(object(), "strict", target.a_N, target.b_N,
                       target.a_lo_N, target.b_lo_N)
    path = tmp_path / "s.json"
    for system, match in ((bare, "carries no parameters"),
                          (odd, "cannot serialize spec of type object")):
        with pytest.raises(DomainError, match=match):
            save_system(system, path)
        assert not path.exists()
        path.write_bytes(b"kept")
        with pytest.raises(DomainError, match=match):
            save_system(system, path)
        assert path.read_bytes() == b"kept"
        path.unlink()


def test_change_in_the_last_piece_gets_the_full_parse_error(tmp_path,
                                                            monkeypatch):
    """A writer-made depth-14 model with its last gap end one ulp up differs
    from the rebuild's text in the last piece alone; the comparison hands
    it to the full parse, which names the level."""
    system = build_model_system(derive_params(-3.0), 14)
    path = tmp_path / "m.json"
    save_system(system, path)
    text = path.read_text()
    last = list(fileio._system_pieces(system))[-1]
    end = float(system.gap_d[14][-1])
    tail = f"{end!r}]]]}}\n"
    assert text.endswith(tail) and len(tail) < len(last) < len(text) // 4
    path.write_text(text[:-len(tail)]
                    + f"{float(np.nextafter(end, 0.0))!r}]]]}}\n")
    parses = []

    def counting(text, path):
        parses.append(path)
        return json.loads(text)

    monkeypatch.setattr(fileio, "_parse_json", counting)
    with pytest.raises(SpecError) as refused:
        load_system(path)
    assert parses == [path]
    assert str(refused.value) == (f"{path}: gap level 14 does not match the "
                                  f"system rebuilt from its parameters")


def test_text_past_the_last_piece_goes_to_the_full_parse(tmp_path):
    """Text after a writer-made document is not the writer's: the full parse
    takes the file, accepting trailing whitespace and refusing anything
    else."""
    system = build_model_system(derive_params(-3.0), 6)
    path = tmp_path / "m.json"
    save_system(system, path)
    text = path.read_text()
    path.write_text(text + " \n")
    assert same_system(load_system(path), system)
    path.write_text(text + "[]")
    with pytest.raises(SpecError, match="Extra data"):
        load_system(path)


def _traced_peak(call, *args):
    """The peak of the bytes tracemalloc sees allocated during call(*args),
    above those held before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call(*args)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("make", [
    lambda: build_model_system(derive_params(-3.0), 16),
    lambda: build_target_system(middle_thirds(), 16, "natural")],
    ids=["model", "middle-thirds"])
def test_save_and_load_peak_near_the_file_size(make, tmp_path):
    # memory guard, in bytes tracemalloc sees: at depth 16 (about 8 MB of
    # text) save peaks under 2 times the file's size and load, which also
    # rebuilds the system, under 3.5 times.  Holding the whole text took 4.4
    # and 5.6 times.  A repeat save, which splits the strings the first one
    # kept, is held to the same bound.
    system = make()
    path = tmp_path / "s.json"
    assert _traced_peak(save_system, system, path) < 2 * path.stat().st_size
    assert _traced_peak(save_system, system, path) < 2 * path.stat().st_size
    del system
    assert _traced_peak(load_system, path) < 3.5 * path.stat().st_size


# header and entry edits, with the error load_system must raise for each
MALFORMED = [
    ("model", lambda d: d["parameters"].update(depth="x"), SpecError),
    ("model", lambda d: d["parameters"].update(depth=None), SpecError),
    ("target", lambda d: d["parameters"].update(depth=2.7), SpecError),
    ("target", lambda d: d["parameters"].update(depth=True), SpecError),
    ("model", lambda d: d["parameters"].update(c="abc"), SpecError),
    ("model", lambda d: d["parameters"].update(c=None), SpecError),
    ("model", lambda d: d["parameters"].update(c=-3), SpecError),
    ("model", lambda d: d["parameters"].update(c=math.inf), SpecError),
    ("target", lambda d: d["parameters"].update(spec=[0.5]), SpecError),
    ("target", lambda d: d["parameters"]["spec"].update(hull=[0, 1]),
     SpecError),
    ("target", lambda d: d["parameters"]["spec"].update(alpha=math.nan),
     SpecError),
    ("target", lambda d: d["levels"][0].__setitem__(0, [False, True]),
     SpecError),
    ("target", lambda d: d["levels"][1][0].__setitem__(0, -0.0),
     SpecError),
    ("target", lambda d: d["parameters"].update(mode="loose"),
     DomainError),
    ("model", lambda d: d["parameters"].update(c=-2.1), RegimeError),
]
MALFORMED_IDS = ["depth-str", "depth-null", "depth-float", "depth-bool",
                 "c-str", "c-null", "c-int", "c-inf", "spec-list", "hull-ints",
                 "alpha-nan", "segment-bools", "negative-zero", "mode",
                 "c-uncertified"]


class TestSystemValidation:
    @pytest.fixture
    def target_file(self, thirds, tmp_path):
        path = tmp_path / "t.json"
        save_system(build_target_system(thirds, 2), path)
        return path

    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{\n "format": nonsense\n}\n')
        with pytest.raises(SpecError, match=r"line 2"):
            load_system(path)

    def test_format_version_checked(self, target_file):
        corrupt(target_file, lambda d: d.update(format="cantor-system/2"))
        with pytest.raises(SpecError, match="cantor-system/1"):
            load_system(target_file)

    def test_kind_checked(self, target_file):
        corrupt(target_file, lambda d: d.update(kind="mystery"))
        with pytest.raises(SpecError):
            load_system(target_file)

    def test_gap_outside_parent(self, target_file):
        def edit(doc):
            doc["gaps"][1][0] = [0.2, 1.4]

        corrupt(target_file, edit)
        with pytest.raises(SpecError):
            load_system(target_file)

    def test_broken_nesting(self, target_file):
        def edit(doc):
            doc["levels"][1][0] = [0.01, 0.3333333333333333]

        corrupt(target_file, edit)
        with pytest.raises(SpecError):
            load_system(target_file)

    @pytest.mark.parametrize("field, n, entry", [
        ("levels", 1, [0.0, 0.34]),  # still contains its children
        ("gaps", 2, [0.12, 0.2]),  # still inside its parent segment
    ])
    def test_level_off_its_view(self, target_file, field, n, entry):
        # nested and placed as before, but no longer a view of level 2
        def edit(doc):
            doc[field][n][0] = entry

        corrupt(target_file, edit)
        kind = "segment" if field == "levels" else "gap"
        with pytest.raises(SpecError, match=rf"t\.json: {kind} level {n} "):
            load_system(target_file)

    def test_wrong_segment_count(self, target_file):
        corrupt(target_file, lambda d: d["levels"][2].pop())
        with pytest.raises(SpecError):
            load_system(target_file)

    def test_unordered_segments(self, target_file):
        def edit(doc):
            doc["levels"][2][0], doc["levels"][2][1] = (
                doc["levels"][2][1], doc["levels"][2][0])

        corrupt(target_file, edit)
        with pytest.raises(SpecError):
            load_system(target_file)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_system(tmp_path / "nope.json")

    @pytest.mark.parametrize("builder", ["build_model_system",
                                         "build_target_system"])
    def test_deep_header_fails_before_build(self, tmp_path, monkeypatch,
                                            builder):
        path = tmp_path / "deep.json"
        system = (build_model_system(derive_params(-3.0), 2)
                  if builder == "build_model_system"
                  else build_target_system(middle_thirds(), 2))
        save_system(system, path)
        corrupt(path, lambda d: d["parameters"].update(depth=40))

        def refuse(*args):
            raise AssertionError("built a system for a short file")

        monkeypatch.setattr(fileio, builder, refuse)
        with pytest.raises(SpecError, match="deep.json"):
            load_system(path)

    @pytest.mark.parametrize("kind, edit, error", MALFORMED, ids=MALFORMED_IDS)
    def test_malformed_header_or_entry(self, tmp_path, kind, edit, error):
        path = tmp_path / "bad.json"
        save_system(SYSTEMS["model-3.0" if kind == "model"
                            else "middle-thirds-strict"](2), path)
        corrupt(path, edit)
        with pytest.raises(error) as info:
            load_system(path)
        if error is SpecError:
            assert "bad.json" in str(info.value)


    @pytest.mark.parametrize("kind, edit, error", MALFORMED, ids=MALFORMED_IDS)
    def test_malformed_compact_file_fails_alike(self, tmp_path, kind, edit,
                                                error):
        path = tmp_path / "bad.json"
        save_system(SYSTEMS["model-3.0" if kind == "model"
                            else "middle-thirds-strict"](2), path)
        doc = json.loads(path.read_text())
        edit(doc)
        raised = []
        for text in (json.dumps(doc), compact(doc)):
            path.write_text(text)
            with pytest.raises(error) as info:
                load_system(path)
            raised.append((type(info.value), str(info.value)))
        assert raised[0] == raised[1]

    @pytest.mark.parametrize("depth", [40, 10**9])
    @pytest.mark.parametrize("kind", ["model", "target"])
    def test_deep_compact_header_fails_before_build(self, tmp_path,
                                                    monkeypatch, kind, depth):
        path = tmp_path / "deep.json"
        save_system(SYSTEMS["model-3.0" if kind == "model"
                            else "middle-thirds-strict"](2), path)
        doc = json.loads(path.read_text())
        doc["parameters"]["depth"] = depth
        path.write_text(compact(doc))

        def refuse(*args):
            raise AssertionError("built a system for a short file")

        monkeypatch.setattr(fileio, "build_model_system", refuse)
        monkeypatch.setattr(fileio, "build_target_system", refuse)
        with pytest.raises(SpecError, match="deep.json"):
            load_system(path)

    @pytest.mark.parametrize("depth", [9, 10, 11, 12])
    @pytest.mark.parametrize("kind", ["model", "target"])
    def test_short_compact_header_fails_before_build(self, tmp_path,
                                                     monkeypatch, kind,
                                                     depth):
        """A depth-6 file is too short to list the pairs of depth 9 and up,
        though it is long enough for 2^depth characters."""
        path = tmp_path / "deep.json"
        save_system(SYSTEMS["model-3.0" if kind == "model"
                            else "middle-thirds-strict"](6), path)
        doc = json.loads(path.read_text())
        doc["parameters"]["depth"] = depth
        text = compact(doc)
        assert 1 << depth <= len(text)
        path.write_text(text)

        def refuse(*args):
            raise AssertionError("built a system for a short file")

        monkeypatch.setattr(fileio, "build_model_system", refuse)
        monkeypatch.setattr(fileio, "build_target_system", refuse)
        with pytest.raises(SpecError, match="deep.json"):
            load_system(path)


# every family of writer-made file: models at two values of c, each target
# family in both modes, the explicit gap tree
WRITER_SYSTEMS = [name for name in SYSTEMS if name != "model-2.5"]


@pytest.mark.parametrize("name", WRITER_SYSTEMS)
def test_writer_file_loads_without_full_parse(name, tmp_path, monkeypatch):
    system = SYSTEMS[name](8)
    path = tmp_path / "s.json"
    save_system(system, path)

    def refuse(*args):
        raise AssertionError("parsed the whole document")

    monkeypatch.setattr(fileio, "_parse_json", refuse)
    assert same_system(load_system(path), system)


@pytest.mark.parametrize("name", WRITER_SYSTEMS)
def test_relaid_file_loads_the_same_system(name, tmp_path):
    system = SYSTEMS[name](8)
    path = tmp_path / "s.json"
    save_system(system, path)
    text = path.read_text()
    doc = json.loads(text)
    pretty = json.dumps(doc, indent=1)
    for layout in (json.dumps(doc), pretty, pretty.replace("\n", "\r\n"),
                   text.replace("\n", "\r\n"), text[:-1]):
        path.write_bytes(layout.encode("utf-8"))
        assert same_system(load_system(path), system)


# (build, the deepest level that resolves) for systems whose endpoints
# collide in doubles one level deeper
EDGE_SYSTEMS = {
    "model-c-1000": (_model(-1000.0), 8),
    "model-c-100": (_model(-100.0), 12),
    "model-c-50": (_model(-50.0), 13),
    **{f"middle-alpha-0.999-{mode}": (_target(lambda: MiddleAlpha(0.999), mode),
                                      4) for mode in ("strict", "natural")},
    "affine-0.01,0.97-natural": (_target(lambda: AffineIFS2(0.01, 0.97),
                                         "natural"), 9),
    "middle-thirds-1e15-strict": (_target(lambda: middle_thirds((1e15, 1e15 + 1)),
                                          "strict"), 2),
}


@pytest.mark.parametrize("name", EDGE_SYSTEMS)
def test_systems_at_their_deepest_resolving_level_keep_their_bytes(name,
                                                                   tmp_path):
    build, deepest = EDGE_SYSTEMS[name]
    path = tmp_path / "s.json"
    system = build(deepest)
    save_system(system, path)
    assert path.read_text(encoding="utf-8") == reference_save_text(system)
    assert same_system(load_system(path), system)


@pytest.mark.parametrize("name", EDGE_SYSTEMS)
def test_file_claiming_colliding_endpoints_refused(name, tmp_path,
                                                   monkeypatch):
    """A file of a system one level past the resolution, as a build without
    the collision check writes it, names a system no builder makes."""
    build, deepest = EDGE_SYSTEMS[name]
    path = tmp_path / "s.json"
    with monkeypatch.context() as m:
        for module in (model_cantor, target_cantor):
            m.setattr(module, "_check_resolved", lambda system, what: system)
        save_system(build(deepest + 1), path)
    with pytest.raises(DomainError, match="collide in doubles"):
        load_system(path)
    pretty = tmp_path / "pretty.json"
    pretty.write_text(json.dumps(json.loads(path.read_text()), indent=1))
    with pytest.raises(DomainError, match="collide in doubles"):
        load_system(pretty)


def test_refused_header_is_built_once(tmp_path, monkeypatch):
    """A compact file whose header the model builder refuses is built once:
    the full parse checks the counts and then raises the refusal that the
    byte comparison caught, with the text the full parse alone gives."""
    path = tmp_path / "m.json"
    with monkeypatch.context() as m:
        m.setattr(model_cantor, "_check_resolved", lambda system, what: system)
        save_system(build_model_system(derive_params(-1000.0), 12), path)
    calls = []

    def counting(params, depth):
        calls.append(depth)
        return build_model_system(params, depth)

    monkeypatch.setattr(fileio, "build_model_system", counting)
    with pytest.raises(DomainError, match="collide in doubles") as refused:
        load_system(path)
    assert calls == [12]
    pretty = tmp_path / "pretty.json"
    pretty.write_text(json.dumps(json.loads(path.read_text()), indent=1))
    with pytest.raises(DomainError) as full:
        load_system(pretty)
    assert str(full.value) == str(refused.value)
    assert calls == [12, 12]
    # the counts still come first
    doc = json.loads(path.read_text())
    doc["gaps"][12].pop()
    path.write_text(compact(doc))
    with pytest.raises(SpecError, match="gap level 12 is not an array"):
        load_system(path)
    assert calls == [12, 12, 12]
    # a later "parameters" key is the one the full parse reads: it rebuilds
    # that header, whose levels the file does not hold
    text = compact(json.loads(pretty.read_text()))
    path.write_text(text[:-2] + ',"parameters":{"c":-3.0,"depth":12}}\n')
    with pytest.raises(SpecError, match="segment level 0 does not match"):
        load_system(path)
    assert calls == [12, 12, 12, 12, 12]


def _paths(node, path=()):
    yield path
    items = (enumerate(node) if isinstance(node, list)
             else node.items() if isinstance(node, dict) else ())
    for key, child in items:
        yield from _paths(child, path + (key,))


REPLACEMENTS = [None, True, False, 0, 1, -1, 40, 2.7, "x", [], {}, [0.0, 1.0],
                math.nan, math.inf, -math.inf]


def _mutate(node, op, value):
    """The node after one mutation: op is replace, negate (flips the sign
    of a zero), nudge (one ulp up), bump (an int up or down by one), pop or
    dup (a list loses or repeats its last entry)."""
    number = isinstance(node, (int, float)) and not isinstance(node, bool)
    if op == "negate" and number:
        return -node
    if op == "nudge" and isinstance(node, float):
        return math.nextafter(node, math.inf)
    if op == "bump" and number and isinstance(node, int):
        return node + (1 if value else -1)
    if op == "pop" and isinstance(node, list) and node:
        return node[:-1]
    if op == "dup" and isinstance(node, list) and node:
        return node + node[-1:]
    return REPLACEMENTS[value % len(REPLACEMENTS)]


@functools.lru_cache(maxsize=None)
def fuzz_documents():
    systems = [build_model_system(derive_params(-3.0), 2),
               build_target_system(middle_thirds(), 2),
               build_target_system(FatCantor(0.3, 0.5), 3, "natural"),
               build_target_system(
                   ExplicitGapTree(hull=(0.0, 1.0),
                                   levels=(((0.25, 0.5),),
                                           ((0.0625, 0.125), (0.75, 0.875)))),
                   2, "natural")]
    docs = []
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "system.json"
        for system in systems:
            save_system(system, path)
            docs.append(json.loads(path.read_text()))
    return list(zip(systems, docs))


def _rebuild(system):
    if isinstance(system, TargetSystem):
        return build_target_system(system.spec, system.depth, system.mode)
    return build_model_system(derive_params(system.params.c), system.depth)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_documents(data, tmp_path_factory):
    # every mutation either fails as a CantorDynError or loads the system
    # its header names, bit for bit and tails included, with the stored
    # levels exactly as the writer renders that system
    system, doc = data.draw(st.sampled_from(fuzz_documents()))
    where = data.draw(st.sampled_from(list(_paths(doc))[1:]))
    op = data.draw(st.sampled_from(
        ["replace", "negate", "nudge", "bump", "pop", "dup"]))
    value = data.draw(st.integers(0, len(REPLACEMENTS) - 1))
    mutated = json.loads(json.dumps(doc))
    parent = mutated
    for key in where[:-1]:
        parent = parent[key]
    parent[where[-1]] = _mutate(parent[where[-1]], op, value)
    path = tmp_path_factory.getbasetemp() / "mutated.json"
    path.write_text(json.dumps(mutated))
    try:
        loaded = load_system(path)
    except CantorDynError:
        return
    assert same_system(loaded, _rebuild(loaded))
    resaved = tmp_path_factory.getbasetemp() / "resaved.json"
    save_system(loaded, resaved)
    written = json.loads(resaved.read_text())
    for key in ("levels", "gaps"):
        assert json.dumps(written[key]) == json.dumps(mutated[key])
    if json.dumps(mutated["parameters"]) == json.dumps(doc["parameters"]):
        assert same_system(loaded, system)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_compact_documents(data, tmp_path_factory):
    # test_mutated_documents with each mutation written in the writer's
    # compact layout, where load_system compares bytes before parsing
    system, doc = data.draw(st.sampled_from(fuzz_documents()))
    where = data.draw(st.sampled_from(list(_paths(doc))[1:]))
    op = data.draw(st.sampled_from(
        ["replace", "negate", "nudge", "bump", "pop", "dup"]))
    value = data.draw(st.integers(0, len(REPLACEMENTS) - 1))
    mutated = json.loads(json.dumps(doc))
    parent = mutated
    for key in where[:-1]:
        parent = parent[key]
    parent[where[-1]] = _mutate(parent[where[-1]], op, value)
    path = tmp_path_factory.getbasetemp() / "mutated.json"
    path.write_text(compact(mutated))
    try:
        loaded = load_system(path)
    except CantorDynError:
        return
    assert same_system(loaded, _rebuild(loaded))
    resaved = tmp_path_factory.getbasetemp() / "resaved.json"
    save_system(loaded, resaved)
    written = json.loads(resaved.read_text())
    for key in ("levels", "gaps"):
        assert json.dumps(written[key]) == json.dumps(mutated[key])
    if json.dumps(mutated["parameters"]) == json.dumps(doc["parameters"]):
        assert same_system(loaded, system)

class TestGapTreeFile:
    def test_round_trip_bytes(self, tmp_path):
        tree = ExplicitGapTree(
            hull=(0.0, 1.0),
            levels=(((0.4, 0.6),), ((0.1, 0.2), (0.7, 0.9))),
        )
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_gap_tree(tree, p1)
        loaded = load_gap_tree(p1)
        assert loaded == tree
        save_gap_tree(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_invalid_tree_named_in_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"format":"cantor-gaps/1","hull":[0.0,1.0],'
            '"levels":[[[0.4,1.5]]]}\n')
        with pytest.raises(SpecError, match="bad.json"):
            load_gap_tree(path)

    @pytest.mark.parametrize("hull, gap", [
        ("[false,true]", "[0.4,0.6]"),
        ("[0,1]", "[0.4,0.6]"),
        ("[0.0,10.0]", "[3,6.0]"),
        ("[NaN,1.0]", "[0.4,0.6]"),
        ("[0.0,Infinity]", "[0.4,0.6]"),
        ("[0.0,1.0]", "[-Infinity,0.6]"),
    ], ids=["bools", "int-hull", "int-gap", "nan", "inf", "minus-inf"])
    def test_non_real_values_refused(self, tmp_path, hull, gap):
        # like a system document's spec, every value must be a finite real
        path = tmp_path / "bad.json"
        path.write_text(f'{{"format":"cantor-gaps/1","hull":{hull},'
                        f'"levels":[[{gap}]]}}\n')
        with pytest.raises(SpecError, match="bad.json"):
            load_gap_tree(path)

    def test_int_gaps_round_trip(self, tmp_path):
        # a tree built from ints is written as the reals the reader accepts
        tree = ExplicitGapTree(hull=(0, 10), levels=(((3, 6),),))
        path = tmp_path / "ints.json"
        save_gap_tree(tree, path)
        assert path.read_text() == ('{"format":"cantor-gaps/1","hull":[0.0,10.0],'
                                    '"levels":[[[3.0,6.0]]]}\n')
        assert load_gap_tree(path) == tree


class TestCobwebExport:
    @pytest.fixture
    def trace(self):
        return cobweb_trace(lambda x: x * x + 0.5, 0.0, 5)

    def test_csv_rows(self, trace, tmp_path):
        path = tmp_path / "t.csv"
        export_cobweb(trace, path, fmt="csv")
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x0", "y0", "x1", "y1"]
        assert rows[1] == ["0.0", "0.5", "0.5", "0.5"]
        assert len(rows) == 1 + len(trace)
        # values parse back to the exact trace floats
        for row, seg in zip(rows[1:], trace):
            assert tuple(map(float, row)) == seg[0] + seg[1]

    def test_svg_elements(self, trace, tmp_path):
        path = tmp_path / "t.svg"
        export_cobweb(trace, path, fmt="svg", curve=lambda x: x * x + 0.5)
        text = path.read_text()
        assert 'version="1.1"' in text
        assert text.count("<polyline") == 2  # curve and trace
        assert "<circle" in text  # start marker
        assert "<line" in text  # the diagonal
        curve_points = text.split("<polyline")[1].split('points="')[1]
        assert curve_points.count(",") >= 512

    @pytest.mark.parametrize("c, x0, steps, digest", [
        (0.5, 0.0, 10, "2a60848952aa4d7aec3fa0f1ea35791d"
                       "f924e6a7e52e12c71dd3d9b875ed6695"),
        (-1.5, 0.3, 30, "d8b047da9fadd52e7ee4453a723ac0b4"
                        "1974379684ab1505fdf02db943b1bff8"),
    ])
    def test_svg_bytes_pinned(self, tmp_path, c, x0, steps, digest):
        # the bytes the per-point sampling of the graph wrote (the README's
        # `cobweb --c 0.5 --x0 0 --steps 10 --format svg` is the first)
        calls = []

        def f(x):
            calls.append(x)
            return x * x + c

        trace = cobweb_trace(f, x0, steps)
        del calls[:]
        path = tmp_path / "t.svg"
        export_cobweb(trace, path, fmt="svg", curve=f)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
        assert len(calls) == 1 and calls[0].shape == (512,)

    def test_svg_refuses_a_trace_that_is_not_finite(self, tmp_path):
        # x0 = 0.3 escapes at c = -3; the iterate after 7.8e182 overflows
        calls = []

        def f(x):
            calls.append(x)
            return x * x - 3.0

        trace = cobweb_trace(f, 0.3, 40)
        del calls[:]
        path = tmp_path / "t.svg"
        with pytest.raises(DomainError, match=r"finite trace: trace\[19\] is "
                           r"\(\(7\.815953773102214e\+182, .*inf\)\)"):
            export_cobweb(trace, path, fmt="svg", curve=f)
        assert not path.exists() and calls == []
        export_cobweb(trace, tmp_path / "t.csv", fmt="csv")
        rows = (tmp_path / "t.csv").read_text().splitlines()
        assert rows[20] == "7.815953773102214e+182,7.815953773102214e+182," \
                           "7.815953773102214e+182,inf"
        assert rows[-1] == "inf,inf,inf,inf" and len(rows) == 1 + 79

    def test_svg_refuses_a_graph_that_is_not_finite(self, tmp_path):
        # c = 1e154: the trace 0 -> 1e154 -> 1e308 is finite, but x^2 + c
        # overflows over most of the padded view, from its first sample
        def f(x):
            return x * x + 1e154

        trace = cobweb_trace(f, 0.0, 2)
        path = tmp_path / "t.svg"
        with pytest.raises(DomainError) as err:
            export_cobweb(trace, path, fmt="svg", curve=f)
        assert str(err.value) == ("svg export needs a finite graph: curve "
                                  "sample 0 at x = -8e+306 is inf")
        assert not path.exists()

    def test_svg_names_the_first_sample_that_is_not_finite(self, trace,
                                                           tmp_path):
        # a graph that is nan from the middle of the view on
        calls = []

        def f(x):
            calls.append(x)
            return np.where(x < 1.0, x * x + 0.5, np.nan)

        path = tmp_path / "t.svg"
        with pytest.raises(DomainError) as err:
            export_cobweb(trace, path, fmt="svg", curve=f)
        grid = calls[0]
        first = int(np.argmax(grid >= 1.0))
        assert str(err.value) == (
            f"svg export needs a finite graph: curve sample {first} at "
            f"x = {float(grid[first])!r} is nan")
        assert 0 < first < grid.size - 1 and not path.exists()

    def test_svg_needs_curve(self, trace, tmp_path):
        with pytest.raises(DomainError):
            export_cobweb(trace, tmp_path / "t.svg", fmt="svg")

    def test_empty_trace_rejected(self, tmp_path):
        with pytest.raises(DomainError):
            export_cobweb([], tmp_path / "t.csv", fmt="csv")

    def test_unknown_format(self, trace, tmp_path):
        with pytest.raises(DomainError):
            export_cobweb(trace, tmp_path / "t.bmp", fmt="bmp")


class TestEscapeImage:
    def test_header_and_determinism(self, tmp_path):
        p1, p2 = tmp_path / "a.ppm", tmp_path / "b.ppm"
        region = (-2.5, 1.0, -1.75, 1.75)
        export_escape_image(region, 40, 30, 64, p1)
        export_escape_image(region, 40, 30, 64, p2)
        data = p1.read_bytes()
        assert data.startswith(b"P6\n40 30\n255\n")
        assert len(data) == 13 + 40 * 30 * 3
        assert data == p2.read_bytes()

    def test_interior_pixel_black(self, tmp_path):
        path = tmp_path / "in.ppm"
        export_escape_image((-0.5, 0.5, -0.5, 0.5), 1, 1, 500, path)
        assert path.read_bytes().endswith(b"\x00\x00\x00")

    def test_escape_pixel_uses_palette(self, tmp_path):
        # pixel center lands on c = 1, which escapes at n = 3
        assert mandelbrot_escape(1.0, 0.0, 100) == 3
        path = tmp_path / "out.ppm"
        export_escape_image((0.5, 1.5, -0.5, 0.5), 1, 1, 100, path)
        assert tuple(path.read_bytes()[-3:]) == PALETTE[(3 - 1) % 16]

    @pytest.mark.parametrize("max_iter", [40, 256])
    def test_palette_wraps_and_interior_is_black(self, tmp_path, max_iter):
        # escapes at every count from 1 to 40, so the palette wraps twice,
        # and interior pixels; with max_iter 40 the table ends at the budget
        region, width, height = (-2.2, -1.0, -0.3, 0.3), 24, 128
        counts = mandelbrot_grid(region, width, height, max_iter)
        assert (counts == -1).any()
        assert set(range(1, 41)) <= set(counts.ravel().tolist())
        path = tmp_path / "wrap.ppm"
        export_escape_image(region, width, height, max_iter, path)
        pixels = bytes(v for n in counts.flat
                       for v in (PALETTE[(n - 1) % 16] if n > 0 else (0, 0, 0)))
        assert path.read_bytes() == b"P6\n24 128\n255\n" + pixels

    def test_palette_is_16_rgb(self):
        assert len(PALETTE) == 16
        assert all(len(c) == 3 and all(0 <= v <= 255 for v in c)
                   for c in PALETTE)
