"""Tests for the command-line interface: outputs and exit codes."""

import os
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from tcodes import ConcavePL, Divisor, cli, codes, curve, tvariety
from tcodes.cli import EXIT_BUDGET, EXIT_INVALID, EXIT_OK, EXIT_PARSE, main

ROOT = Path(__file__).resolve().parent.parent
SAMPLE = str(ROOT / "demos" / "surface.tcode")

RULED_TEXT = """\
field p=7
curve elliptic A=0 B=3
point O = infinity
box [0,2]
hstar O : (0,2) (2,4)
eval all-admissible
"""

RECORD_TEXT = """\
field p=7
curve elliptic A=0 B=3
point Q1 = (1,2)
box [0,4]
hstar Q1 : (0,3) (2,5) (4,3)
eval all-admissible
"""


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_sample(capsys):
    code, out, err = run(capsys, ["validate", SAMPLE])
    assert code == EXIT_OK
    assert "degree-nonnegative-at-vertices = pass" in out
    assert "principal-multiple-at-degree-zero-vertices = pass" in out
    assert "lattice-graph-vertices = pass" in out
    assert "valid = true" in out
    assert "semiample = true" in out
    assert "ample = false" in out
    assert err == ""


def test_validate_failure_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.tcode"
    bad.write_text(
        "field p=7\ncurve p1\npoint R = (0,0)\nbox [0,2]\nhstar R : (0,-1) (2,0)\n"
    )
    code, out, _ = run(capsys, ["validate", str(bad)])
    assert code == EXIT_INVALID
    assert "valid = false" in out
    assert "fail" in out


def test_info_builds_each_slice_once(monkeypatch, capsys):
    # Each declared slice is enveloped once, by the parse check, and the
    # build reuses it. The unmarked points take the zero twist directly, so
    # no zero slice is built.
    envelope_1d = ConcavePL._envelope_1d.__func__
    calls = Counter()

    def counting(cls, reps, den):
        calls[tuple(sorted(((Fraction(x, den),), Fraction(z, den)) for (x,), z in reps.items()))] += 1
        return envelope_1d(cls, reps, den)

    monkeypatch.setattr(ConcavePL, "_envelope_1d", classmethod(counting))
    code, _, _ = run(capsys, ["info", SAMPLE])
    assert code == EXIT_OK
    def graph(*pts):
        return tuple(((x,), z) for x, z in pts)

    assert calls == {
        graph((0, 0), (4, 2)): 1,
        graph((0, 0), (2, 2), (3, 1), (4, -1)): 1,
    }


def test_info_evaluates_each_slice_once_per_weight(monkeypatch, capsys):
    # Every read at a lattice weight takes the integer kernel
    # `ConcavePL._value`, so `tcode info` makes no `ConcavePL.evaluate` call.
    # Outside parse's envelope check, sharp's per-slice cross-check and the
    # interior ceiling count, which read the slices themselves, each (stored
    # slice, weight) pair is read once. In all: 6 graph points for parse,
    # 2 slices x 5 weights for the records, 10 for sharp's per-slice sums
    # and 6 for the interior ceiling count; chi reads sharp and reads no
    # slice. The records equal each slice's own `evaluate`.
    cross_checks = {"parse", "floor_sum_over_lattice", "signed_ceiling_interior_sum"}
    value, at = ConcavePL._value, tvariety.DivisorialPolytope.at
    outside, total, polytopes = Counter(), Counter(), {}

    def counting(s, q, b=1):
        frame = sys._getframe(1)
        while frame.f_code.co_name.startswith("<"):  # comprehensions
            frame = frame.f_back
        total[frame.f_code.co_name] += 1
        if frame.f_code.co_name not in cross_checks:
            outside[id(s), q] += 1
        return value(s, q, b)

    def recording(dp, u):
        polytopes[id(dp)] = dp
        return at(dp, u)

    def refuse(s, u):
        raise AssertionError("ConcavePL.evaluate called by tcode info")

    monkeypatch.setattr(ConcavePL, "_value", counting)
    monkeypatch.setattr(ConcavePL, "evaluate", refuse)
    monkeypatch.setattr(tvariety.DivisorialPolytope, "at", recording)
    code, _, _ = run(capsys, ["info", SAMPLE])
    assert code == EXIT_OK
    assert sorted(outside.values()) == [1] * 10
    assert total == {"parse": 6, "at": 10, "floor_sum_over_lattice": 10, "signed_ceiling_interior_sum": 6}
    monkeypatch.undo()
    (dp,) = polytopes.values()
    assert sorted(dp._at) == dp.lattice_points()
    for u, record in dp._at.items():
        assert record.value == Divisor({P: s.evaluate(u) for P, s in dp.slices.items()}), u


@pytest.mark.parametrize("argv", [["info", SAMPLE], ["example", "threefold", "info"]])
def test_info_takes_k_without_building_the_code(monkeypatch, capsys, argv):
    # No two weights share a character mod q - 1 here, so k comes from
    # Riemann-Roch dimensions: no code and no graded basis. d_upper counts
    # its certificates' weights from their divisors and the twist gradients
    # and builds no Riemann-Roch basis either.
    def refuse(name):
        def call(*args):
            raise AssertionError(f"{name} called by tcode info")

        return call

    for module in (cli, codes):
        monkeypatch.setattr(module, "build_code", refuse("build_code"))
    for module in (codes, tvariety):
        monkeypatch.setattr(module, "graded_sections", refuse("graded_sections"))
    basis, callers = curve.riemann_roch_basis, Counter()

    def counting(c, D):
        callers[sys._getframe(1).f_code.co_name] += 1
        return basis(c, D)

    for module in (curve, codes, tvariety):
        monkeypatch.setattr(module, "riemann_roch_basis", counting)
    code, out, _ = run(capsys, argv)
    assert code == EXIT_OK and "k = " in out
    assert callers == Counter()


def test_validate_runs_the_checks_once(monkeypatch, capsys):
    calls = []
    validate = tvariety.validate

    def counting(dp):
        calls.append(dp)
        return validate(dp)

    monkeypatch.setattr(tvariety, "validate", counting)
    monkeypatch.setattr(cli, "validate", counting)
    code, out, _ = run(capsys, ["validate", SAMPLE])
    assert code == EXIT_OK and "semiample = true" in out
    assert len(calls) == 1


def test_validate_polygon_with_a_hundred_graph_points(tmp_path, capsys):
    pts = " ".join(f"({x},{y},{min(x + y, 16 - x, 3 + y, 7)})" for x in range(10) for y in range(10))
    path = tmp_path / "grid.tcode"
    path.write_text(
        f"field p=7\ncurve p1\npoint R = (0,0)\nbox poly (0,0) (9,0) (9,9) (0,9)\nhstar R : {pts}\n"
    )
    start = time.process_time()
    code, out, err = run(capsys, ["validate", str(path)])
    elapsed = time.process_time() - start
    assert code == EXIT_OK and err == ""
    assert out.splitlines() == [
        "degree-nonnegative-at-vertices = pass",
        "principal-multiple-at-degree-zero-vertices = pass",
        "lattice-graph-vertices = pass",
        "valid = true",
        "semiample = true",
        "ample = false",
    ]
    assert elapsed < 5, f"validate took {elapsed:.1f}s of process time"


def test_info_keys_and_determinism(capsys):
    code, first, _ = run(capsys, ["info", SAMPLE])
    assert code == EXIT_OK
    keys = [line.split(" = ")[0] for line in first.strip().splitlines()]
    assert keys == [
        "n", "k", "k_lower", "k_gamma", "k_upper", "k_equality",
        "d_lower", "d_upper", "vol", "degree", "degree_alt", "weil",
        "genus", "genus_form", "euler", "euler_form",
    ]
    assert "n = 66" in first
    assert "k = 8" in first
    assert "d_lower = 22" in first
    assert "d_upper = 33" in first
    assert "vol = 15/2" in first
    assert "degree = 15" in first
    assert "genus = 9" in first
    assert "genus_form = 5 + 4*g" in first
    assert "euler = 7" in first
    assert "euler_form = 12 - 5*g" in first
    code, second, _ = run(capsys, ["info", SAMPLE])
    assert code == EXIT_OK
    assert second == first


def test_info_threefold_omits_curve_forms(capsys):
    code, out, _ = run(capsys, ["example", "threefold", "info"])
    assert code == EXIT_OK
    assert "n = 180" in out
    assert "k = 15" in out
    assert "d_lower = 60" in out
    assert "d_upper = 108" in out
    assert "vol = 4" in out
    assert "degree = 24" in out
    assert "genus" not in out
    assert "euler" not in out


def test_genmat(capsys):
    code, out, _ = run(capsys, ["genmat", SAMPLE])
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "66 8 7"
    assert len(lines) == 9
    for row in lines[1:]:
        entries = row.split()
        assert len(entries) == 66
        assert all(0 <= int(x) < 7 for x in entries)


def test_example_matches_file_route(capsys):
    _, from_file, _ = run(capsys, ["info", SAMPLE])
    _, from_example, _ = run(capsys, ["example", "surface", "info"])
    assert from_example == from_file
    _, from_alias, _ = run(capsys, ["example", "elliptic", "info"])
    assert from_alias == from_file


def test_example_surface_over_line(capsys):
    code, out, _ = run(capsys, ["example", "surface", "validate", "--curve", "p1"])
    assert code == EXIT_OK
    assert "valid = true" in out


def test_distance_sample(capsys):
    code, out, _ = run(capsys, ["distance", SAMPLE])
    assert code == EXIT_OK
    assert "d_lower = 22" in out
    assert "d_exact = 33" in out
    assert "d_upper = 33" in out


@pytest.mark.parametrize(
    "curve_line,n,d",
    [("curve p1\npoint Z = (0,0)", 48, 32), ("curve elliptic A=0 B=3", 78, 52)],
)
def test_polytope_without_slices(tmp_path, capsys, curve_line, n, d):
    # Every slice is zero, so the sections of weight u are the constants and
    # the upper bound's certificate is a constant times unit-root factors.
    f = tmp_path / "flat.tcode"
    f.write_text(f"field p=7\n{curve_line}\nbox [0,2]\neval all-admissible\n")
    code, out, err = run(capsys, ["info", str(f)])
    assert code == EXIT_OK, err
    assert f"n = {n}\nk = 3\n" in out
    assert f"d_lower = {d}\nd_upper = {d}\n" in out
    code, out, err = run(capsys, ["distance", str(f)])
    assert code == EXIT_OK, err
    assert out == f"d_lower = {d}\nd_exact = {d}\nd_upper = {d}\n"


def test_distance_budget_refusal(tmp_path, capsys):
    f = tmp_path / "record.tcode"
    f.write_text(RECORD_TEXT)
    code, out, err = run(capsys, ["distance", str(f)])
    assert code == EXIT_BUDGET
    assert out == ""
    assert "budget exceeded" in err
    code, _, err = run(capsys, ["distance", str(f), "--budget", "100"])
    assert code == EXIT_BUDGET


def test_compare_ruled_file(tmp_path, capsys):
    f = tmp_path / "ruled.tcode"
    f.write_text(RULED_TEXT)
    code, out, _ = run(capsys, ["compare", str(f)])
    assert code == EXIT_OK
    expect = [
        "k1 = 3",
        "tau = 3",
        "a = 2",
        "alpha = 1",
        "b = 2",
        "k_product = 9",
        "d_product = 40",
        "k_tcode = 9",
        "d_tcode = 44",
        "k_matches = true",
        "d_strictly_better = true",
    ]
    assert out.strip().splitlines() == expect


def test_compare_rejects_multi_slice(capsys):
    code, _, err = run(capsys, ["compare", SAMPLE])
    assert code == EXIT_INVALID
    assert "single-slice" in err


def test_parse_error_exit_code(tmp_path, capsys):
    f = tmp_path / "broken.tcode"
    f.write_text("field p=7\ncurve p1\nbox oops\n")
    code, _, err = run(capsys, ["validate", str(f)])
    assert code == EXIT_PARSE
    assert "parse error" in err


def test_missing_file_exit_code(capsys):
    code, _, err = run(capsys, ["validate", "/nonexistent/path.tcode"])
    assert code == EXIT_INVALID
    assert err != ""


@pytest.mark.parametrize(
    "argv",
    [[], ["bogus"], ["info"], ["example", "nope", "info"], ["distance", "x", "--budget", "many"], ["-h"], ["example", "-h"]],
)
def test_usage_errors_and_help_repeat_byte_for_byte(capsys, argv):
    # One parser serves every call in a process; a call must not change
    # what the next one prints or returns.
    seen = []
    for _ in range(3):
        with pytest.raises(SystemExit) as stop:
            main(argv)
        out = capsys.readouterr()
        seen.append((stop.value.code, out.out, out.err))
    assert seen[0][0] in (0, 2) and seen[0][1] + seen[0][2]
    assert seen[1] == seen[0] and seen[2] == seen[0]


def test_cli_tour_leaves_no_temp_files(tmp_path):
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, TMPDIR=str(tmp_path), PYTHONPATH=pythonpath)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / "cli_tour.py")], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    # The broken problem file was written under TMPDIR and refused as a parse error.
    assert f"validate {tmp_path}" in proc.stdout
    assert f"exit code: {EXIT_PARSE}" in proc.stdout
    assert list(tmp_path.iterdir()) == []
