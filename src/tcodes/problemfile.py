"""Line-oriented problem files describing a code instance.

Format (one declaration per line, '#' starts a comment):

    field p=<prime>
    curve p1 | curve elliptic A=<int> B=<int>
    point <name> = (<x>,<y>) | point <name> = infinity
    box [<a>,<b>] | box poly (<u1>,<u2>) ...
    hstar <name> : (<u>,<val>) ... | (<u1>,<u2>,<val>) ...
    eval all-admissible | eval <name> ...

Values inside tuples are integers or rationals written n/d, with no spaces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .codes import EvaluationSetup
from .convex import ConcavePL, LatticePolytope
from .curve import INFINITY, Curve, CurvePoint
from .tvariety import DivisorialPolytope


class ParseError(ValueError):
    """Problem-file rejection with the offending line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass
class ProblemSpec:
    """Structured contents of a problem file, in declaration order."""

    p: int
    curve_kind: str
    A: int
    B: int
    points: dict[str, CurvePoint]
    box_is_interval: bool
    box_vertices: list[tuple[int, ...]]
    hstar: dict[str, list[tuple[tuple[int, ...], Fraction]]]
    eval_names: list[str] | None = None
    # The envelope of each hstar graph, keyed by the graph as a tuple, as
    # `parse` built it for its below-the-envelope check.
    envelopes: dict[tuple, ConcavePL] = field(default_factory=dict, repr=False, compare=False)

    @property
    def m(self) -> int:
        return 1 if self.box_is_interval else 2

    def curve(self) -> Curve:
        if self.curve_kind == "p1":
            return Curve.p1(self.p)
        return Curve.elliptic(self.p, self.A, self.B)

    def box(self) -> LatticePolytope:
        if self.box_is_interval:
            (a,), (b,) = self.box_vertices
            return LatticePolytope.interval(a, b)
        return LatticePolytope(self.box_vertices)

    def to_polytope(self) -> DivisorialPolytope:
        curve = self.curve()
        slices: dict[CurvePoint, ConcavePL] = {}
        for name, graph in self.hstar.items():
            P = self.points[name]
            if P in slices:
                raise ValueError(f"two slices declared at the same point {P.render()}")
            env = self.envelopes.get(tuple(graph))
            slices[P] = ConcavePL.from_graph_points(graph) if env is None else env
        return DivisorialPolytope(curve, self.box(), slices)

    def to_setup(self) -> EvaluationSetup:
        dp = self.to_polytope()
        if self.eval_names is None:
            return EvaluationSetup.build(dp)
        return EvaluationSetup.build(dp, [self.points[n] for n in self.eval_names])


def _parse_rational(text: str, line_no: int) -> Fraction:
    try:
        if "/" in text:
            num, den = text.split("/")
            return Fraction(int(num), int(den))
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError):
        raise ParseError(line_no, f"bad rational {text!r}") from None


def _parse_tuple(token: str, arity: int, line_no: int) -> tuple[Fraction, ...]:
    if not (token.startswith("(") and token.endswith(")")):
        raise ParseError(line_no, f"expected a parenthesized tuple, got {token!r}")
    parts = token[1:-1].split(",")
    if len(parts) != arity:
        raise ParseError(line_no, f"expected {arity} components in {token!r}")
    return tuple(_parse_rational(part, line_no) for part in parts)


def _as_int(x: Fraction, line_no: int, what: str) -> int:
    if x.denominator != 1:
        raise ParseError(line_no, f"{what} must be an integer, got {x}")
    return int(x)


def parse(text: str) -> ProblemSpec:
    """Parse and semantically check a problem file."""
    p = None
    curve_kind = None
    A = B = 0
    points: dict[str, CurvePoint] = {}
    point_lines: dict[str, int] = {}
    box_is_interval = None
    box_vertices: list[tuple[int, ...]] = []
    box_line = 0
    hstar_raw: list[tuple[int, str, list[str]]] = []
    eval_tokens: list[str] | None = None
    seen: set[str] = set()

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        key = tokens[0]
        if key == "field":
            if "field" in seen:
                raise ParseError(line_no, "duplicate field declaration")
            seen.add("field")
            if len(tokens) != 2 or not tokens[1].startswith("p="):
                raise ParseError(line_no, "expected: field p=<prime>")
            try:
                p = int(tokens[1][2:])
            except ValueError:
                raise ParseError(line_no, f"bad prime {tokens[1][2:]!r}") from None
        elif key == "curve":
            if "curve" in seen:
                raise ParseError(line_no, "duplicate curve declaration")
            seen.add("curve")
            if len(tokens) == 2 and tokens[1] == "p1":
                curve_kind = "p1"
            elif (
                len(tokens) == 4
                and tokens[1] == "elliptic"
                and tokens[2].startswith("A=")
                and tokens[3].startswith("B=")
            ):
                curve_kind = "elliptic"
                try:
                    A, B = int(tokens[2][2:]), int(tokens[3][2:])
                except ValueError:
                    raise ParseError(line_no, "bad curve coefficients") from None
            else:
                raise ParseError(line_no, "expected: curve p1 | curve elliptic A=<int> B=<int>")
        elif key == "point":
            if len(tokens) != 4 or tokens[2] != "=":
                raise ParseError(line_no, "expected: point <name> = (<x>,<y>) | infinity")
            name = tokens[1]
            if name in points:
                raise ParseError(line_no, f"duplicate point name {name!r}")
            if tokens[3] == "infinity":
                points[name] = INFINITY
            else:
                x, y = _parse_tuple(tokens[3], 2, line_no)
                points[name] = CurvePoint(
                    False, _as_int(x, line_no, "x"), _as_int(y, line_no, "y")
                )
            point_lines[name] = line_no
        elif key == "box":
            if "box" in seen:
                raise ParseError(line_no, "duplicate box declaration")
            seen.add("box")
            box_line = line_no
            if len(tokens) == 2 and tokens[1].startswith("["):
                body = tokens[1]
                if not body.endswith("]") or body == "[]":
                    raise ParseError(line_no, f"bad interval {body!r}")
                parts = body[1:-1].split(",")
                if len(parts) != 2:
                    raise ParseError(line_no, f"bad interval {body!r}")
                a = _as_int(_parse_rational(parts[0], line_no), line_no, "bound")
                b = _as_int(_parse_rational(parts[1], line_no), line_no, "bound")
                if a > b:
                    raise ParseError(line_no, f"empty interval [{a},{b}]")
                box_is_interval = True
                box_vertices = [(a,), (b,)]
            elif len(tokens) >= 2 and tokens[1] == "poly":
                if len(tokens) < 5:
                    raise ParseError(line_no, "a polygon box needs at least three vertices")
                box_is_interval = False
                for tok in tokens[2:]:
                    u1, u2 = _parse_tuple(tok, 2, line_no)
                    box_vertices.append(
                        (_as_int(u1, line_no, "vertex"), _as_int(u2, line_no, "vertex"))
                    )
            else:
                raise ParseError(line_no, "expected: box [<a>,<b>] | box poly (<u1>,<u2>) ...")
        elif key == "hstar":
            if len(tokens) < 4 or tokens[2] != ":":
                raise ParseError(line_no, "expected: hstar <name> : (<u>,<val>) ...")
            hstar_raw.append((line_no, tokens[1], tokens[3:]))
        elif key == "eval":
            if eval_tokens is not None:
                raise ParseError(line_no, "duplicate eval declaration")
            if len(tokens) < 2:
                raise ParseError(line_no, "expected: eval all-admissible | eval <name> ...")
            eval_tokens, eval_line = tokens[1:], line_no
        else:
            raise ParseError(line_no, f"unknown key {key!r}")

    if p is None:
        raise ParseError(0, "missing field declaration")
    if curve_kind is None:
        raise ParseError(0, "missing curve declaration")
    if box_is_interval is None:
        raise ParseError(0, "missing box declaration")

    try:
        curve = Curve.p1(p) if curve_kind == "p1" else Curve.elliptic(p, A, B)
    except ValueError as e:
        raise ParseError(0, str(e)) from None
    for name, P in points.items():
        norm = P if P.is_infinity else CurvePoint.affine(P.x, P.y, p)
        points[name] = norm
        if not curve.contains(norm):
            raise ParseError(point_lines[name], f"point {name} is not on the curve")

    arity = 2 if box_is_interval else 3
    hstar: dict[str, list[tuple[tuple[int, ...], Fraction]]] = {}
    envelopes: dict[tuple, ConcavePL] = {}
    for line_no, name, toks in hstar_raw:
        if name not in points:
            raise ParseError(line_no, f"unknown point {name!r} in hstar")
        if name in hstar:
            raise ParseError(line_no, f"duplicate hstar declaration for {name!r}")
        graph: list[tuple[tuple[int, ...], Fraction]] = []
        positions = set()
        for tok in toks:
            parts = _parse_tuple(tok, arity, line_no)
            pos = tuple(_as_int(c, line_no, "graph position") for c in parts[:-1])
            if pos in positions:
                raise ParseError(line_no, f"repeated graph position {pos}")
            positions.add(pos)
            graph.append((pos, parts[-1]))
        env = ConcavePL.from_graph_points(graph)
        for pos, val in graph:
            got = env._value(pos)
            if got is None or got != val:
                raise ParseError(
                    line_no, f"graph point {pos} with value {val} is below the concave envelope"
                )
        hstar[name] = graph
        envelopes[tuple(graph)] = env

    eval_names: list[str] | None = None
    if eval_tokens is not None and eval_tokens != ["all-admissible"]:
        for name in eval_tokens:
            if name not in points:
                raise ParseError(eval_line, f"unknown point {name!r} in eval")
        if len(set(eval_tokens)) != len(eval_tokens):
            raise ParseError(eval_line, "repeated point in eval")
        eval_names = eval_tokens

    if not box_is_interval:
        poly = LatticePolytope(box_vertices)
        if not poly.is_full_dimensional():
            raise ParseError(box_line, "polygon box is degenerate")

    return ProblemSpec(
        p, curve_kind, A, B, points, box_is_interval, box_vertices, hstar, eval_names, envelopes
    )


def render(spec: ProblemSpec) -> str:
    """Canonical text for a spec; parse(render(s)) round-trips."""
    lines = [f"field p={spec.p}"]
    if spec.curve_kind == "p1":
        lines.append("curve p1")
    else:
        lines.append(f"curve elliptic A={spec.A} B={spec.B}")
    for name, P in spec.points.items():
        val = "infinity" if P.is_infinity else f"({P.x},{P.y})"
        lines.append(f"point {name} = {val}")
    if spec.box_is_interval:
        (a,), (b,) = spec.box_vertices
        lines.append(f"box [{a},{b}]")
    else:
        verts = " ".join(f"({u1},{u2})" for u1, u2 in spec.box_vertices)
        lines.append(f"box poly {verts}")
    for name, graph in spec.hstar.items():
        entries = " ".join(
            "(" + ",".join([*map(str, pos), str(val)]) + ")" for pos, val in graph
        )
        lines.append(f"hstar {name} : {entries}")
    if spec.eval_names is None:
        lines.append("eval all-admissible")
    else:
        lines.append("eval " + " ".join(spec.eval_names))
    return "\n".join(lines) + "\n"
