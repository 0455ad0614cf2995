"""Tests for the problem-file grammar, semantic checks, and rendering."""

from pathlib import Path

import pytest

from tcodes import ParseError, parse, render
from tcodes.instances import standard_elliptic, surface_example, threefold_example

SAMPLE = Path(__file__).resolve().parent.parent / "demos" / "surface.tcode"

THREEFOLD_TEXT = """\
field p=7
curve p1
point P0 = (0,0)
point P1 = (1,0)
point Pinf = infinity
box poly (1,0) (0,1) (-1,1) (-1,0) (0,-1) (1,-1)
hstar P0 : (1,0,0) (0,1,0) (-1,1,0) (-1,0,0) (0,-1,-1) (1,-1,-1) (0,0,0)
hstar P1 : (1,0,0) (0,1,0) (-1,1,-1) (-1,0,-1) (0,-1,0) (1,-1,0) (0,0,0)
hstar Pinf : (1,0,1) (0,1,1) (-1,1,2) (-1,0,2) (0,-1,2) (1,-1,2) (0,0,2)
eval all-admissible
"""


def test_sample_file_parses():
    spec = parse(SAMPLE.read_text())
    assert spec.p == 7
    assert spec.curve_kind == "elliptic"
    assert spec.m == 1
    assert sorted(spec.points) == ["Q1", "Q2"]
    assert spec.to_polytope() == surface_example(standard_elliptic())
    setup = spec.to_setup()
    assert setup.n == 66


def test_threefold_file_parses():
    spec = parse(THREEFOLD_TEXT)
    assert spec.m == 2
    assert spec.to_polytope() == threefold_example()
    assert spec.to_setup().n == 180


def test_round_trip():
    for text in (SAMPLE.read_text(), THREEFOLD_TEXT):
        spec = parse(text)
        out = render(spec)
        assert out.endswith("\n")
        again = parse(out)
        assert again == spec
        assert render(again) == out


def test_build_reuses_the_parsed_envelopes():
    spec = parse(THREEFOLD_TEXT)
    built = spec.to_polytope()
    assert all(built.slices[spec.points[name]] is spec.envelopes[tuple(graph)] for name, graph in spec.hstar.items())
    # A graph changed after parsing is enveloped afresh.
    spec.hstar["P0"] = [(v, 0) for v, _ in spec.hstar["P0"]]
    assert spec.to_polytope().slices[spec.points["P0"]].affine_data() == ((0, 0), 0)


def test_point_coordinates_normalized():
    spec = parse(
        "field p=7\ncurve elliptic A=0 B=3\npoint R = (8,9)\nbox [0,1]\nhstar R : (0,0) (1,1)\n"
    )
    assert spec.points["R"].x == 1 and spec.points["R"].y == 2


def test_concave_data_accepted_and_rejected():
    peak = "field p=7\ncurve p1\npoint R = (0,0)\nbox [0,2]\nhstar R : (0,0) (1,5) (2,0)\n"
    dp = parse(peak).to_polytope()
    assert [s.evaluate(1) for s in dp.slices.values()] == [5]
    dip = "field p=7\ncurve p1\npoint R = (0,0)\nbox [0,2]\nhstar R : (0,0) (1,-5) (2,0)\n"
    with pytest.raises(ParseError) as err:
        parse(dip)
    assert "below the concave envelope" in str(err.value)
    assert err.value.line_no == 5


def test_parse_errors():
    base = "field p=7\ncurve p1\npoint R = (0,0)\nbox [0,1]\n"
    cases = [
        ("field p=7\n" + base, "duplicate field"),
        (base + "box [0,2]\n", "duplicate box"),
        (base + "point R = (1,0)\n", "duplicate point name"),
        (base + "hstar R : (0,0) (1,0)\nhstar R : (0,0) (1,0)\n", "duplicate hstar"),
        (base + "hstar S : (0,0) (1,0)\n", "unknown point"),
        (base + "gadget on\n", "unknown key"),
        (base + "eval S\n", "line 5: unknown point 'S' in eval"),
        (base + "eval R R\n", "line 5: repeated point in eval"),
        (base + "hstar R : (0,0) (0,1)\n", "repeated graph position"),
        ("field p=7\ncurve p1\nbox [3,1]\n", "empty interval"),
        ("field p=7\ncurve p1\nbox [0,a]\n", "bad rational"),
        ("field p=6\ncurve p1\nbox [0,1]\n", "must be prime"),
        ("field p=7\ncurve elliptic A=0 B=0\nbox [0,1]\n", "singular"),
        ("field p=7\ncurve p1\npoint R = (0,1)\nbox [0,1]\n", "not on the curve"),
        ("field p=7\ncurve p1\nbox poly (0,0) (1,1) (2,2)\n", "degenerate"),
        ("curve p1\nbox [0,1]\n", "missing field"),
        ("field p=7\nbox [0,1]\n", "missing curve"),
        ("field p=7\ncurve p1\n", "missing box"),
        ("field p=7\ncurve p1\nbox [0,1]\nhstar\n", "expected: hstar"),
        ("field p=7\ncurve p1\nbox [1/2,1]\n", "bound must be an integer"),
    ]
    for text, fragment in cases:
        with pytest.raises(ParseError) as err:
            parse(text)
        assert fragment in str(err.value), (text, str(err.value))


def test_comments_and_blank_lines_ignored():
    text = (
        "# heading\n\nfield p=7  # trailing\ncurve p1\npoint R = (0,0)\n\n"
        "box [0,1]\nhstar R : (0,0) (1,1)\n"
    )
    spec = parse(text)
    assert spec.p == 7


def test_explicit_eval_names():
    text = (
        "field p=7\ncurve p1\npoint R = (3,0)\npoint S = (0,0)\nbox [0,1]\n"
        "hstar S : (0,0) (1,1)\neval R\n"
    )
    spec = parse(text)
    setup = spec.to_setup()
    assert setup.l == 1
    assert setup.points[0].x == 3
    # Evaluating at a point whose slice has a fractional slope is rejected
    # when the setup is built, not at parse time.
    bad = (
        "field p=7\ncurve p1\npoint S = (0,0)\nbox [0,2]\n"
        "hstar S : (0,0) (2,1)\neval S\n"
    )
    with pytest.raises(ValueError):
        parse(bad).to_setup()


def test_two_slices_at_same_point_rejected():
    # Distinct names for the same coordinates pass the grammar but cannot
    # both carry slices.
    text = (
        "field p=7\ncurve p1\npoint R = (0,0)\npoint S = (0,0)\nbox [0,1]\n"
        "hstar R : (0,0) (1,1)\nhstar S : (0,0) (1,0)\n"
    )
    spec = parse(text)
    with pytest.raises(ValueError) as err:
        spec.to_polytope()
    assert "same point" in str(err.value)
