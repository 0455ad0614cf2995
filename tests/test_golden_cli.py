"""Byte-for-byte CLI outputs: stdout, stderr and exit code of every subcommand,
and the stdout of `demos/library_tour.py`.

The files under tests/golden/ are the recorded outputs. To record them again
after a deliberate output change, run `PYTHONPATH=src python tests/test_golden_cli.py`
from the repository root and review the diff.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tcodes.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
ACTIONS = ["validate", "info", "genmat", "distance", "compare"]


def _cases() -> dict[str, list[str]]:
    cases = {}
    for demo in sorted((ROOT / "demos").glob("*.tcode")):
        for action in ACTIONS:
            cases[f"demo-{demo.stem}-{action}"] = [action, str(demo)]
    variants = {
        "surface": ["surface"],
        "threefold": ["threefold"],
        "elliptic": ["elliptic"],
        "surface-p1": ["surface", "--curve", "p1"],
        "surface-p1-p11": ["surface", "--curve", "p1", "--p", "11"],
        "surface-e10-p13": ["surface", "--curve", "elliptic:1,0", "--p", "13"],
    }
    for tag, (name, *opts) in variants.items():
        for action in ACTIONS:
            cases[f"example-{tag}-{action}"] = ["example", name, action, *opts]
    return cases


CASES = _cases()


def _run(argv: list[str]) -> tuple[str, str, int]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return out.getvalue(), err.getvalue(), code


def _run_tour() -> subprocess.CompletedProcess:
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "demos" / "library_tour.py")],
        env=dict(os.environ, PYTHONPATH=pythonpath),
        capture_output=True,
        text=True,
        timeout=300,
    )


def _exit_codes() -> dict[str, int]:
    return json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))


def test_golden_case_list_is_complete():
    assert sorted(_exit_codes()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    out, err, code = _run(CASES[name])
    assert code == _exit_codes()[name]
    assert out == (GOLDEN / f"{name}.stdout").read_text(encoding="utf-8")
    assert err == (GOLDEN / f"{name}.stderr").read_text(encoding="utf-8")


def test_library_tour_matches_golden():
    proc = _run_tour()
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / "library-tour.stdout").read_text(encoding="utf-8")


def record() -> None:
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for name, argv in sorted(CASES.items()):
        out, err, codes[name] = _run(argv)
        (GOLDEN / f"{name}.stdout").write_text(out, encoding="utf-8")
        (GOLDEN / f"{name}.stderr").write_text(err, encoding="utf-8")
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    tour = _run_tour()
    if tour.returncode != 0:
        raise SystemExit(tour.stderr)
    (GOLDEN / "library-tour.stdout").write_text(tour.stdout, encoding="utf-8")


if __name__ == "__main__":
    record()
