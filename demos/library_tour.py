"""Walk through the library on the built-in instances, printing each result.

Run from the repository root after installing the package:

    python3 demos/library_tour.py
"""

from tcodes import (
    SupportFunctionSlice,
    build_code,
    compare_with_product,
    d_exact,
    d_lower,
    d_upper,
    euler_characteristic,
    genus_of_section,
    graded_sections,
    hasse_weil_diagnostic,
    intersection_number,
    k_bounds,
    mixed_volume,
    nu,
    point_divisor_dual,
    self_intersection,
    validate,
    volume,
    weil_divisor,
)
from tcodes.instances import (
    marked_point_pair,
    record_example,
    standard_elliptic,
    surface_code_setup,
    surface_example,
    threefold_example,
)


def banner(title: str) -> None:
    print()
    print(f"== {title} ==")


banner("Surface instance on y^2 = x^3 + 3 over F_7")
curve = standard_elliptic()
dp = surface_example(curve)
report = validate(dp)
print("validation:", "ok" if report.ok else report.failures())
print("volume:", volume(dp))
print("self-intersection:", self_intersection(dp))
print("genus of a general section:", genus_of_section(dp))
print("Euler characteristic:", euler_characteristic(dp))

banner("Weil divisor of the section divisor class")
wd = weil_divisor(dp)
print(" ", wd.render())

banner("Support-function duality round trip")
q1, q2 = marked_point_pair(curve)
for P in (q1, q2):
    h = SupportFunctionSlice(dp.slice_at(P).vertices)
    back = h.dual()
    print(f"  slice at {P.render()} -> {len(h.terms)} min-plus terms -> round trip ok: {back == dp.slice_at(P)}")

banner("Graded sections and dimension bounds")
sections = graded_sections(dp)
print("dimensions by weight:", [p.dim for p in sections.pieces])
kb = k_bounds(dp)
print(f"k sandwich: {kb.lower} <= {kb.gamma} <= k <= {kb.upper}, equality flag: {kb.equality_case}")

banner("The [66, 8] evaluation code and its distance bounds")
setup = surface_code_setup()
code = build_code(setup)
print(f"n = {code.n}, k = {code.k}, evaluation points: {len(setup.points)}")
print("curve-count profile nu(lambda):", [nu(dp, lam) for lam in range(4)])
low = d_lower(setup)
print(f"d_lower = {low.value} ({low.detail})")
up = d_upper(setup)
print(f"d_upper = {up.value} (formula minimum {up.formula_min})")
w = up.witness
print(f"  certificate: sub-box {w.sub_box}, {w.r0} forced zeros, codeword weight {w.weight}")
exact = d_exact(code.generator())
print(f"exact minimum distance: {exact} (so {low.value} <= {exact} <= {up.value})")

banner("Field-size diagnostic for the sharp-distance regime")
diag = hasse_weil_diagnostic(dp)
print(f"genus bound {diag.genus} needs q >= {diag.threshold_q}; point bound {diag.point_bound}")

banner("Threefold instance: mixed volumes and intersection numbers")
three = threefold_example()
print("volume:", volume(three))
print("mixed volume V(h, h, h):", mixed_volume([three, three, three]))
print("intersection number (D_h)^3:", intersection_number([three, three, three]))
pd = point_divisor_dual(curve, curve.rational_points()[0])
print("surface pairing 2! V(h, (0 - P)*) = box width:", intersection_number([dp, pd]))

banner("Record instance: dimension formula at equality")
rec = record_example()
rec_code = build_code(rec)
rec_kb = k_bounds(rec.dp)
print(f"n = {rec_code.n}, k = {rec_code.k}, lower bound {rec_kb.lower}, equality flag {rec_kb.equality_case}")

banner("Product-code comparison on the elliptic family")
points = curve.rational_points()[:13]
comparison = compare_with_product(curve, k1=3, tau=3, points=points)
print(f"product code: k = {comparison.k_product}, d = {comparison.d_product}")
print(f"T-code bound: k = {comparison.k_tcode}, d >= {comparison.d_tcode}")
print(f"same dimension: {comparison.k_matches}, strictly better distance: {comparison.d_strictly_better}")
