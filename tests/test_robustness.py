"""Seeded robustness test: `tcode validate` answers every problem file quickly.

Sixty problem files are drawn from a fixed seed: primes up to 2^31 - 1 (that
prime included), the projective line and nonsingular Weierstrass curves,
intervals and polygons with coordinates up to 10^6, a forced degree-0
vertex in half of the files (on an elliptic curve its value Q1 - Q2 is not
principal), and malformed variants of some of them. One child process, with
its address space capped and one BLAS thread, validates them all under a
wall-clock limit. Each file must end in a report (exit 0 or 2, with the six
report lines) or a parse error (exit 4, nothing on stdout).

`validate` reads only the box vertices and the slices' graphs, so neither
the prime nor the size of the box enters its cost. `info`, `compare`,
`genmat` and `distance` still scale with p or with the box (they list the
curve's points or the box's lattice points), so this test does not run
them: they remain open in ROADMAP item 3.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

from tcodes.algebra import is_prime

ROOT = Path(__file__).resolve().parent.parent
LARGEST_PRIME = 2**31 - 1
ADDRESS_SPACE = 1 << 30  # bytes
WALL_SECONDS = 60
REPORT_NAMES = [
    "degree-nonnegative-at-vertices",
    "principal-multiple-at-degree-zero-vertices",
    "lattice-graph-vertices",
    "valid",
    "semiample",
    "ample",
]

CHILD = """
import contextlib, io, json, resource, sys
resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))
from tcodes.cli import main
for path in sys.argv[1:]:
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["validate", path])
    except BaseException as e:
        code = type(e).__name__
    print(json.dumps([path, code, out.getvalue(), err.getvalue()]), flush=True)
"""


def random_prime(rng: random.Random) -> int:
    # The search stops by 2^31 - 1 at the latest, since that is prime.
    bits = rng.randint(3, 31)
    n = rng.randint(2 ** (bits - 1), 2**bits - 1)
    while not is_prime(n):
        n += 1
    return n


def curve_and_points(rng: random.Random, p: int, elliptic: bool) -> tuple[str, list[tuple[int, int]]]:
    """A curve line and two distinct affine points on it.

    On an elliptic curve the points come first and A, B are solved for, so
    no square root mod p is needed; a singular draw is redrawn.
    """
    while True:
        (x1, y1), (x2, y2) = [(rng.randrange(p), rng.randrange(p)) for _ in range(2)]
        if x1 == x2:
            continue
        if not elliptic:
            return "curve p1", [(x1, 0), (x2, 0)]
        A = (y1 * y1 - x1**3 - y2 * y2 + x2**3) * pow(x1 - x2, -1, p) % p
        B = (y1 * y1 - x1**3 - A * x1) % p
        if (4 * A**3 + 27 * B * B) % p:
            return f"curve elliptic A={A} B={B}", [(x1, y1), (x2, y2)]


def random_box(rng: random.Random) -> list[tuple[int, ...]]:
    """The vertices of an interval, a rectangle or a triangle, coordinates up to 10^6."""
    big = 10**6
    shape = rng.choice(["interval", "rectangle", "triangle"])
    if shape == "interval":
        lo = rng.randint(-big, big - 1)
        return [(lo,), (min(lo + rng.choice([1, 2, 10**3, big]), big),)]
    if shape == "rectangle":
        (x0, x1), (y0, y1) = sorted(rng.sample(range(-big, big), 2)), sorted(rng.sample(range(-big, big), 2))
        return [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]
    while True:
        (a, b), (c, d), (e, f) = [(rng.randint(-big, big), rng.randint(-big, big)) for _ in range(3)]
        if (c - a) * (f - b) != (d - b) * (e - a):
            return [(a, b), (c, d), (e, f)]


def problem_file(rng: random.Random, p: int, elliptic: bool, degree_zero: bool) -> str:
    """Slices at Q1 and Q2 given by their values at the box vertices, so each
    slice is defined exactly on the box. A forced degree-0 vertex carries
    Q1 - Q2; a half-integer value sometimes breaks the lattice condition."""
    curve_line, (q1, q2) = curve_and_points(rng, p, elliptic)
    vertices = random_box(rng)
    if len(vertices[0]) == 1:
        box_line = f"box [{vertices[0][0]},{vertices[1][0]}]"
    else:
        box_line = "box poly " + " ".join(f"({u},{v})" for u, v in vertices)
    values = {name: [str(rng.randint(-3, 5)) for _ in vertices] for name in ("Q1", "Q2")}
    if degree_zero:
        values["Q1"][0], values["Q2"][0] = "1", "-1"
    if rng.random() < 0.2:
        values["Q2"][-1] = f"{2 * rng.randint(-3, 3) + 1}/2"
    lines = [
        f"field p={p}",
        curve_line,
        f"point Q1 = ({q1[0]},{q1[1]})",
        f"point Q2 = ({q2[0]},{q2[1]})",
        "point O = infinity",
        box_line,
    ]
    for name, vals in values.items():
        graph = " ".join(f"({','.join(map(str, u))},{z})" for u, z in zip(vertices, vals))
        lines.append(f"hstar {name} : {graph}")
    lines.append(rng.choice(["eval all-admissible", "eval Q1 Q2 O", "eval O"]))
    return "\n".join(lines) + "\n"


def malformed(rng: random.Random, text: str) -> str:
    """One line of a drawn file broken; dropping an hstar or eval line leaves
    a well-formed file, so a variant may still be answered with a report."""
    lines = text.splitlines()
    kind = rng.choice(["drop", "composite", "off-curve", "unknown-point", "bad-token", "repeated"])
    if kind == "drop":
        del lines[rng.randrange(len(lines))]
    elif kind == "composite":
        lines[0] = f"field p={rng.randint(2, 46340) * rng.randint(2, 46340)}"
    elif kind == "off-curve":
        x, y = lines[2].split("(")[1].rstrip(")").split(",")
        lines[2] = f"point Q1 = ({x},{int(y) + 1})"
    elif kind == "unknown-point":
        lines.append("hstar Z : (0,0)")
    elif kind == "bad-token":
        i = rng.randrange(len(lines))
        lines[i] = lines[i].replace("(", "[", 1) if "(" in lines[i] else lines[i] + " ?"
    else:
        lines[6] += " " + lines[6].split()[3]
    return "\n".join(lines) + "\n"


def draw_files(seed: int = 33, count: int = 60) -> list[str]:
    """Four files at 2^31 - 1, then random primes; odd files on an elliptic
    curve, a forced degree-0 vertex in half, every fifth file malformed."""
    rng = random.Random(seed)
    files = []
    for i in range(count):
        p = LARGEST_PRIME if i < 4 else random_prime(rng)
        text = problem_file(rng, p, elliptic=i % 2 == 1, degree_zero=i % 4 < 2)
        files.append(malformed(rng, text) if i % 5 == 4 else text)
    return files


def test_validate_answers_every_drawn_file(tmp_path):
    paths = []
    for i, text in enumerate(draw_files()):
        path = tmp_path / f"f{i:02d}.tcode"
        path.write_text(text)
        paths.append(str(path))
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=pythonpath, OPENBLAS_NUM_THREADS="1")
    try:
        proc = subprocess.run(
            [sys.executable, "-c", CHILD.format(limit=ADDRESS_SPACE), *paths],
            env=env, capture_output=True, text=True, timeout=WALL_SECONDS,
        )
    except subprocess.TimeoutExpired as e:
        done = len((e.stdout or "").splitlines())
        raise AssertionError(f"validate ran past {WALL_SECONDS} s after {done} of {len(paths)} files") from None
    assert proc.returncode == 0, proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [r[0] for r in results] == paths
    exits = set()
    for path, code, out, err in results:
        text = Path(path).read_text()
        assert code in (0, 2, 4), (code, text, err)
        exits.add(code)
        if code == 4:
            assert out == "" and err.startswith("parse error"), (text, out, err)
        else:
            assert [line.split(" = ")[0] for line in out.splitlines()] == REPORT_NAMES, (text, out, err)
    assert exits == {0, 2, 4}
