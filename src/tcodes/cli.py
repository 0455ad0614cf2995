"""Command-line front end.

Exit codes: 0 success, 2 validation or instance failure, 3 enumeration
budget refusal, 4 problem-file parse error.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache
from math import factorial

from .codes import (
    BudgetExceeded,
    EvaluationSetup,
    build_code,
    code_dimension,
    compare_with_product,
    d_exact,
    d_lower,
    d_upper,
    k_bounds,
)
from .curve import Curve
from .instances import (
    standard_elliptic,
    surface_example,
    threefold_code_setup,
)
from .problemfile import ParseError, parse
from .tvariety import (
    DivisorialPolytope,
    euler_characteristic,
    genus_of_section,
    is_ample,
    validate,
    volume,
    weil_divisor,
)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_BUDGET = 3
EXIT_PARSE = 4


def _linear_form(const: int, coeff: int) -> str:
    sign = "+" if coeff >= 0 else "-"
    return f"{const} {sign} {abs(coeff)}*g"


def _run_validate(dp: DivisorialPolytope) -> int:
    report = validate(dp)
    for cond in report.conditions:
        print(f"{cond.name} = {'pass' if cond.ok else 'fail: ' + cond.detail}")
    print(f"valid = {str(report.ok).lower()}")
    print(f"semiample = {str(report.semiample).lower()}")
    print(f"ample = {str(is_ample(dp)).lower()}")
    return EXIT_OK if report.ok else EXIT_INVALID


def _run_info(setup: EvaluationSetup) -> int:
    dp = setup.dp
    k = code_dimension(setup)
    kb = k_bounds(dp)
    low = d_lower(setup)
    up = d_upper(setup)
    print(f"n = {setup.n}")
    print(f"k = {k}")
    print(f"k_lower = {kb.lower}")
    print(f"k_gamma = {kb.gamma}")
    print(f"k_upper = {kb.upper}")
    print(f"k_equality = {str(kb.equality_case).lower()}")
    print(f"d_lower = {low.value}")
    print(f"d_upper = {up.value}")
    vol = volume(dp)
    print(f"vol = {vol}")
    print(f"degree = {factorial(dp.m + 1) * vol}")  # self_intersection(dp)
    print(f"degree_alt = {vol}")
    print(f"weil = {weil_divisor(dp).render()}")
    if dp.m == 1:
        g_const, g_coeff, g_val = genus_of_section(dp)
        e_const, e_coeff, e_val = euler_characteristic(dp)
        print(f"genus = {g_val}")
        print(f"genus_form = {_linear_form(g_const, g_coeff)}")
        print(f"euler = {e_val}")
        print(f"euler_form = {_linear_form(e_const, e_coeff)}")
    return EXIT_OK


def _run_genmat(setup: EvaluationSetup) -> int:
    code = build_code(setup)
    gen = code.generator()
    print(f"{code.n} {code.k} {setup.q}")
    # Entries are residues below q <= n + 1, so this table is never longer than a row.
    names = [str(c) for c in range(min(setup.q, code.n + 1))]
    for row in gen.rows:
        print(" ".join(map(names.__getitem__, row)))
    return EXIT_OK


def _run_distance(setup: EvaluationSetup, budget: int) -> int:
    code = build_code(setup)
    low = d_lower(setup)
    up = d_upper(setup)
    try:
        exact = d_exact(code.generator(), budget)
    except BudgetExceeded as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        return EXIT_BUDGET
    print(f"d_lower = {low.value}")
    print(f"d_exact = {exact}")
    print(f"d_upper = {up.value}")
    return EXIT_OK


def _run_compare(setup: EvaluationSetup) -> int:
    dp = setup.dp
    if dp.m != 1 or len(dp.stored_points()) != 1:
        print("compare needs a single-slice interval instance", file=sys.stderr)
        return EXIT_INVALID
    slice_ = dp.slice_at(dp.stored_points()[0])
    data = slice_.affine_data()
    lo, hi = dp.box.bounds()
    if data is None or lo != 0:
        print("compare needs an affine slice on a box starting at 0", file=sys.stderr)
        return EXIT_INVALID
    (alpha,), b = data
    if alpha.denominator != 1 or b.denominator != 1:
        print("compare needs integer slice data", file=sys.stderr)
        return EXIT_INVALID
    a = hi
    if (int(alpha) * a) % 2 != 0:
        print("compare needs alpha*a even to recover tau", file=sys.stderr)
        return EXIT_INVALID
    k1 = a + 1
    tau = int(b) + int(alpha) * a // 2
    try:
        rep = compare_with_product(setup.curve, k1, tau, setup.points)
    except ValueError as e:
        print(str(e), file=sys.stderr)
        return EXIT_INVALID
    print(f"k1 = {rep.k1}")
    print(f"tau = {rep.tau}")
    print(f"a = {rep.a}")
    print(f"alpha = {rep.alpha}")
    print(f"b = {rep.b}")
    print(f"k_product = {rep.k_product}")
    print(f"d_product = {rep.d_product}")
    print(f"k_tcode = {rep.k_tcode}")
    print(f"d_tcode = {rep.d_tcode}")
    print(f"k_matches = {str(rep.k_matches).lower()}")
    print(f"d_strictly_better = {str(rep.d_strictly_better).lower()}")
    return EXIT_OK


def _parse_curve_option(text: str, p: int) -> Curve:
    if text == "p1":
        return Curve.p1(p)
    if text.startswith("elliptic:"):
        parts = text.split(":", 1)[1].split(",")
        if len(parts) != 2:
            raise ValueError("curve option looks like elliptic:<A>,<B>")
        return Curve.elliptic(p, int(parts[0]), int(parts[1]))
    if text == "elliptic":
        return Curve.elliptic(p, 0, 3)
    raise ValueError(f"unknown curve option {text!r}")


def _example_setup(name: str, p: int, curve_text: str | None) -> EvaluationSetup:
    if name == "threefold":
        return threefold_code_setup(p)
    if name == "elliptic":
        curve = standard_elliptic(p)
    else:
        curve = _parse_curve_option(curve_text or "elliptic", p)
    return EvaluationSetup.build(surface_example(curve))


def _load_spec(path: str):
    with open(path, encoding="utf-8") as fh:
        return parse(fh.read())


@cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and kept for the process."""
    parser = argparse.ArgumentParser(
        prog="tcode", description="Evaluation codes from divisorial polytopes."
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("validate", "info", "genmat", "compare"):
        sp = sub.add_parser(name)
        sp.add_argument("file")
    sp = sub.add_parser("distance")
    sp.add_argument("file")
    sp.add_argument("--budget", type=int, default=2_000_000)
    sp = sub.add_parser("example")
    sp.add_argument("name", choices=["surface", "threefold", "elliptic"])
    sp.add_argument("action", choices=["validate", "info", "genmat", "distance", "compare"])
    sp.add_argument("--p", type=int, default=7)
    sp.add_argument("--curve", default=None)
    sp.add_argument("--budget", type=int, default=2_000_000)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)

    action = args.action if args.command == "example" else args.command
    try:
        if args.command == "example":
            setup = _example_setup(args.name, args.p, args.curve)
            dp = setup.dp
        elif action == "validate":
            setup, dp = None, _load_spec(args.file).to_polytope()
        else:
            setup = _load_spec(args.file).to_setup()
            dp = setup.dp
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except (ValueError, OSError) as e:
        print(str(e), file=sys.stderr)
        return EXIT_INVALID

    try:
        if action == "validate":
            return _run_validate(dp)
        if action == "info":
            return _run_info(setup)
        if action == "genmat":
            return _run_genmat(setup)
        if action == "distance":
            return _run_distance(setup, args.budget)
        return _run_compare(setup)
    except ValueError as e:
        print(str(e), file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
