"""The monotone embedding: southeast order, corner orbits, enclosures.

The planar system is lifted to G(x, y, u, v) = (F(x,y), u, F(u,v), x), which
preserves a southeast-type order.  Iterating G from the two corners of a
compatible box produces monotone orbits whose limits are fixed points of G
enclosing every orbit of the original system that enters the box.
"""
from ricker_lab import (
    BoxRegion,
    ModelParams,
    build_embedding,
    corner_iterate,
    label_embedded_fixed_point,
    planar_maps,
    se_leq,
)

# F(x, y) = x e^{2 - y} + 3.  A map from planar_maps is monotone by proof, so
# corner_iterate does not sample it; a hand-written lambda would be sampled.
F, = planar_maps(ModelParams.constant(2.0, 3.0))
G = build_embedding(F)

# --- the order --------------------------------------------------------------
print("(1,2) <= (2,1) southeast:", se_leq((1.0, 2.0), (2.0, 1.0)))
p, q = (3.0, 5.0, 5.0, 3.0), (3.5, 4.0, 4.5, 3.2)
print("ordered quadruples stay ordered under G:", se_leq(p, q), se_leq(G(p), G(q)))

# --- enclosure collapsing to the equilibrium (h = 3, r = 2) ----------------
enc = corner_iterate(G, BoxRegion(3.0, 6.0))
print(f"\nh=3 box (3, 6): converged in {enc.iterations} steps")
print("  lower limit:", tuple(round(c, 8) for c in enc.lower))
print("  upper limit:", tuple(round(c, 8) for c in enc.upper))
print("  single point:", enc.is_point(1e-9),
      "->", label_embedded_fixed_point(enc.lower).kind.value)

# --- enclosure splitting into a pseudo pair (h = 2.6) -----------------------
# Here the fixed-point curves of G cross off the diagonal, the corner limits
# separate, and the enclosure is a genuine box rather than a point.
F26, = planar_maps(ModelParams.constant(2.0, 2.6))
G26 = build_embedding(F26)
enc26 = corner_iterate(G26, BoxRegion(2.3, 8.0), require_compatible=False)
print(f"\nh=2.6 box (2.3, 8): converged in {enc26.iterations} steps")
print("  lower limit:", tuple(round(c, 4) for c in enc26.lower))
print("  upper limit:", tuple(round(c, 4) for c in enc26.upper))
print("  kind:", label_embedded_fixed_point(enc26.lower).kind.value)
print("  -> long-run terms are squeezed into [{:.3f}, {:.3f}]".format(
    enc26.lower.x, enc26.lower.y))
