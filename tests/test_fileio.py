"""On-disk formats: system/gap-tree JSON, cobweb CSV/SVG, escape-time PPM.

Round-trips must be byte-identical: floats are serialized with their
shortest round-tripping representation and re-saved files must not change.
Corruption tests edit valid documents in place so only the corrupted field
differs.
"""

import csv
import json

import numpy as np
import pytest

from cantordyn import (
    DomainError,
    ExplicitGapTree,
    SpecError,
    build_target_system,
    cobweb_trace,
    mandelbrot_escape,
)
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

    def test_depth0_target_single_segment(self, thirds, tmp_path):
        path = tmp_path / "t0.json"
        save_system(build_target_system(thirds, 0), path)
        doc = json.loads(path.read_text())
        assert doc["levels"] == [[[0.0, 1.0]]]
        assert doc["gaps"] == [[]]


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

    def test_palette_is_16_rgb(self):
        assert len(PALETTE) == 16
        assert all(len(c) == 3 and all(0 <= v <= 255 for v in c)
                   for c in PALETTE)
