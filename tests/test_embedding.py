import math

import numpy as np
import pytest

from hypothesis import example, given, settings, strategies as st

from ricker_lab import (
    BoxRegion,
    FoldedFixedPointKind,
    ModelParams,
    build_embedding,
    classify_folded_fixed_point,
    corner_iterate,
    fold_period2,
    planar_maps,
    se_leq,
    simulate,
)
from ricker_lab import embedding
from ricker_lab.embedding import box_compatible, build_folded_embedding, compatible_box
from ricker_lab.errors import (
    MaxIterExceeded,
    NonMonotoneDetected,
    NotAFixedPoint,
    PreconditionViolated,
)
from ricker_lab.model import QuadPoint

from _oracles import mp_equilibrium, strict_witness

YBAR_2_3 = 3.6839070955344095
# pseudo fixed points of (r=2, h=2.6), frozen from the scalar 2-cycle oracle
XSTAR = 2.7407493243191001
YSTAR = 4.9690061715897323
# 2-cycle of (r=1, h=(2, 1)), frozen from the scalar reduction oracle
Z0_121 = 1.9497266070049478
Z1_121 = 2.4550459773112217
ART_121 = (1.1087550341333, 3.3062780550092, 3.9655664742232, 2.1104667995193)


def ricker_map(r, h):
    return lambda x, y: x * math.exp(r - y) + h


def test_se_leq_planar():
    assert se_leq((1.0, 2.0), (2.0, 1.0))
    assert se_leq((1.0, 2.0), (1.0, 2.0))
    assert not se_leq((2.0, 1.0), (1.0, 2.0))


def test_se_leq_quad_convention():
    # first planar half southeast-up, second half southeast-down
    assert se_leq((1.0, 5.0, 5.0, 1.0), (2.0, 4.0, 4.0, 2.0))
    assert not se_leq((2.0, 4.0, 4.0, 2.0), (1.0, 5.0, 5.0, 1.0))
    with pytest.raises(ValueError):
        se_leq((1.0,), (2.0,))


def test_box_membership_is_order_interval():
    # X in [a,b]^2 iff (a,b,b,a) <= (X,X) <= (b,a,a,b) in the quad order
    a, b = 1.0, 3.0
    lo = (a, b, b, a)
    hi = (b, a, a, b)
    inside = (2.0, 2.5)
    outside = (0.5, 2.0)
    quad_in = (*inside, *inside)
    quad_out = (*outside, *outside)
    assert se_leq(lo, quad_in) and se_leq(quad_in, hi)
    assert not (se_leq(lo, quad_out) and se_leq(quad_out, hi))


def test_embedded_fixed_points():
    G = build_embedding(ricker_map(2.0, 3.0))
    img = G((YBAR_2_3,) * 4)
    assert max(abs(c - YBAR_2_3) for c in img) < 1e-12
    # the off-diagonal pair of (r=2, h=2.6) at three-decimal rounding
    G26 = build_embedding(ricker_map(2.0, 2.6))
    q = (2.741, 4.969, 4.969, 2.741)
    img = G26(q)
    assert max(abs(a - b) for a, b in zip(img, q)) < 5e-3


def test_embedding_preserves_order_on_samples():
    # random southeast-ordered pairs must stay ordered; >= 1e4 samples
    G = build_embedding(ricker_map(2.0, 3.0))
    rng = np.random.default_rng(42)
    a, b = 3.0, 6.0
    for _ in range(10_000):
        lo = rng.uniform(a, b, size=4)
        t = rng.uniform(0.0, 1.0, size=4)
        hi = np.array([
            lo[0] + t[0] * (b - lo[0]),
            lo[1] - t[1] * (lo[1] - a),
            lo[2] - t[2] * (lo[2] - a),
            lo[3] + t[3] * (b - lo[3]),
        ])
        assert se_leq(G(lo), G(hi))


def test_corner_iterate_symmetric():
    G = build_embedding(ricker_map(2.0, 3.0))
    enc = corner_iterate(G, BoxRegion(3.0, 6.0))
    assert enc.compatible and enc.converged
    assert enc.is_point(1e-9)
    ybar = float(mp_equilibrium(2, 3))
    for c in (*enc.lower, *enc.upper):
        assert c == pytest.approx(ybar, abs=1e-9)


def test_corner_iterate_incompatible_box_raises_then_relaxed_converges():
    G = build_embedding(ricker_map(2.0, 3.0))
    with pytest.raises(PreconditionViolated):
        corner_iterate(G, BoxRegion(2.5, 6.0))
    enc = corner_iterate(G, BoxRegion(2.5, 6.0), require_compatible=False)
    assert not enc.compatible and enc.converged
    for c in enc.lower:
        assert c == pytest.approx(YBAR_2_3, abs=1e-9)


def test_corner_iterate_pseudo_pair():
    G = build_embedding(ricker_map(2.0, 2.6))
    enc = corner_iterate(G, BoxRegion(2.3, 8.0), require_compatible=False)
    assert enc.converged and not enc.is_point(1e-3)
    assert enc.lower == pytest.approx((XSTAR, YSTAR, YSTAR, XSTAR), abs=5e-3)
    assert enc.upper == pytest.approx((YSTAR, XSTAR, XSTAR, YSTAR), abs=5e-3)
    # the pseudo pair pattern (x, y, y, x)
    x, y, u, v = enc.lower
    assert u == pytest.approx(y, abs=1e-6) and v == pytest.approx(x, abs=1e-6)


def test_corner_iterate_iteration_cap():
    G = build_embedding(ricker_map(2.0, 3.0))
    enc = corner_iterate(G, BoxRegion(3.0, 6.0), max_iter=3)
    assert not enc.converged and enc.iterations == 3
    with pytest.raises(MaxIterExceeded):
        corner_iterate(G, BoxRegion(3.0, 6.0), max_iter=3, raise_on_max_iter=True)


def test_corner_iterate_degenerate_box():
    G = build_embedding(ricker_map(2.0, 3.0))
    enc = corner_iterate(G, BoxRegion(YBAR_2_3, YBAR_2_3))
    assert enc.converged and enc.iterations <= 2
    assert enc.is_point(1e-9)


def test_corner_monotone_every_step():
    F = ricker_map(2.0, 3.0)
    G = build_embedding(F)
    box = BoxRegion(3.0, 6.0)
    assert box_compatible(G, box)
    lower = (box.a, box.b, box.b, box.a)
    upper = (box.b, box.a, box.a, box.b)
    for _ in range(500):
        nl, nu = G(lower), G(upper)
        assert se_leq(lower, nl)
        assert se_leq(nu, upper)
        assert se_leq(nl, nu)
        lower, upper = nl, nu


def test_orbit_sandwiched_between_corners():
    # any orbit started inside the box stays between the corner orbits
    params = ModelParams.constant(2.0, 3.0)
    F = ricker_map(2.0, 3.0)
    G = build_embedding(F)
    box = BoxRegion(3.0, 6.0)
    rng = np.random.default_rng(9)
    for _ in range(10):
        x0, xm1 = rng.uniform(box.a, box.b, size=2)
        lower = (box.a, box.b, box.b, box.a)
        upper = (box.b, box.a, box.a, box.b)
        quad = (x0, xm1, x0, xm1)
        for _ in range(200):
            lower, quad, upper = G(lower), G(quad), G(upper)
            assert se_leq(lower, quad) and se_leq(quad, upper)


def test_diagonal_consistency_exact():
    # coordinates (1, 4) of the embedded orbit reproduce the scalar orbit
    params = ModelParams.constant(2.0, 2.6)
    F = ricker_map(2.0, 2.6)
    G = build_embedding(F)
    x0, xm1 = 3.1, 4.2
    orbit = simulate(params, x0, xm1, 60)
    quad = (x0, xm1, x0, xm1)
    seq = [x0]
    for _ in range(60):
        quad = G(quad)
        seq.append(quad[0])
        assert quad[3] == seq[-2]  # fourth coordinate trails by one step
    assert seq[1:] == [float(v) for v in orbit]


def test_non_monotone_map_detected():
    bad = lambda x, y: y  # increasing in the second argument
    G = build_embedding(bad)
    with pytest.raises(NonMonotoneDetected):
        corner_iterate(G, BoxRegion(0.0, 1.0), require_compatible=False)


def _refuse_to_sample(*args, **kwargs):
    raise AssertionError("sample_monotone ran on a proven-monotone embedding")


@pytest.mark.parametrize("G, box", [
    (build_embedding(planar_maps(ModelParams.constant(2.0, 3.0))[0]), BoxRegion(3.0, 6.0)),
    (build_folded_embedding(*planar_maps(ModelParams.two_periodic(1.0, 2.0, 1.5))), BoxRegion(1.25, 9.05)),
], ids=["plain", "folded"])
def test_planar_maps_embeddings_are_not_sampled(monkeypatch, G, box):
    unsampled = corner_iterate(G, box, monotone_samples=0)
    monkeypatch.setattr(embedding, "sample_monotone", _refuse_to_sample)
    enc = corner_iterate(G, box)
    assert enc.converged and enc == unsampled


def test_user_map_is_sampled_even_when_its_corner_orbits_stay_monotone():
    # the dip breaks monotonicity only where both arguments lie in (4.2, 4.6);
    # every pair the corner orbits evaluate has one argument on each side of
    # the equilibrium 3.68, so only the sampling can catch it
    dip = lambda x, y: ricker_map(2.0, 3.0)(x, y) - (100.0 if 4.2 < x < 4.6 and 4.2 < y < 4.6 else 0.0)
    G = build_embedding(dip)
    assert corner_iterate(G, BoxRegion(3.0, 6.0), monotone_samples=0).converged
    with pytest.raises(NonMonotoneDetected):
        corner_iterate(G, BoxRegion(3.0, 6.0))


def _reference_corner_loop(G, box, tol=1e-12, max_iter=10**6, compatible=True):
    """The corner loop as it read with se_leq and _sup_dist calls on every
    step, kept as the reference for the inlined one; returns the Enclosure
    corner_iterate builds from it."""
    lower = QuadPoint(box.a, box.b, box.b, box.a)
    upper = QuadPoint(box.b, box.a, box.a, box.b)
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        new_lower = G(lower)
        new_upper = G(upper)
        if compatible:
            if not (se_leq(lower, new_lower) and se_leq(new_upper, upper)):
                raise NonMonotoneDetected(f"corner orbit lost monotonicity at iterate {iterations}")
        if not se_leq(new_lower, new_upper):
            raise NonMonotoneDetected(
                f"corner orbits crossed at iterate {iterations}; map is not order preserving"
            )
        delta = max(embedding._sup_dist(lower, new_lower), embedding._sup_dist(upper, new_upper))
        lower, upper = new_lower, new_upper
        if delta < tol:
            converged = True
            break
    return embedding.Enclosure(
        lower=QuadPoint(*lower), upper=QuadPoint(*upper), converged=converged,
        iterations=iterations, compatible=compatible,
        residual_lower=embedding._sup_dist(G(lower), lower),
        residual_upper=embedding._sup_dist(G(upper), upper),
    )


def _assert_same_corner_run(G, box, **kwargs):
    """corner_iterate and the reference loop agree bit for bit: the same
    Enclosure (repr tells -0.0 from 0.0), or the same error and message."""
    compatible = box_compatible(G, box)
    try:
        expected = _reference_corner_loop(G, box, compatible=compatible, **kwargs)
    except NonMonotoneDetected as ref:
        with pytest.raises(NonMonotoneDetected) as exc:
            corner_iterate(G, box, monotone_samples=0, require_compatible=False, **kwargs)
        assert str(exc.value) == str(ref)
        return str(ref)
    enc = corner_iterate(G, box, monotone_samples=0, require_compatible=False, **kwargs)
    assert repr(enc) == repr(expected)
    return enc


# max_iter caps the slow runs near r2(h), where the corner orbits converge
# slowly; the capped ones must agree too
@settings(max_examples=60, deadline=None, database=None)
@given(r=st.floats(0.05, 4.0), gap=st.floats(0.01, 3.0), spread=st.floats(0.0, 3.0),
       folded=st.booleans())
def test_corner_loop_matches_the_reference_on_ricker_embeddings(r, gap, spread, folded):
    params = ModelParams(r=r, stocking=(r + gap + spread, r + gap) if folded else (r + gap,))
    target = max(params.stocking) + 1.0
    box = compatible_box(params, target, target)
    fs = planar_maps(params)
    G = build_folded_embedding(fs[0], fs[-1]) if folded else build_embedding(fs[0])
    _assert_same_corner_run(G, box, max_iter=3000)


# a compatible box for each map: the kink makes the lower corner orbit step
# back at iterate 2; the bump and the reflection make the corner orbits cross
_USER_MAPS = {
    "kink": (lambda x, y: ricker_map(2.0, 3.0)(x, y) - (2.0 if x > 3.6 and y < 3.8 else 0.0),
             "corner orbit lost monotonicity at iterate 2"),
    "bump": (lambda x, y: ricker_map(2.0, 3.0)(x, y) + (5.0 if 3.4 < x < 3.68 else 0.0),
             "corner orbits crossed at iterate 14; map is not order preserving"),
    "reflection": (lambda x, y: 6.0 - x * math.exp(2.0 - y) / 3.0,
                   "corner orbits crossed at iterate 1; map is not order preserving"),
}


@pytest.mark.parametrize("name", sorted(_USER_MAPS))
def test_corner_loop_matches_the_reference_where_user_maps_break_the_order(name):
    F, message = _USER_MAPS[name]
    G = build_embedding(F)
    assert box_compatible(G, BoxRegion(3.0, 6.0))
    assert _assert_same_corner_run(G, BoxRegion(3.0, 6.0)) == message


@pytest.mark.parametrize("box", [
    BoxRegion(3.0, 6.0), BoxRegion(2.5, 6.0), BoxRegion(2.3, 8.0), BoxRegion(YBAR_2_3, YBAR_2_3),
])
def test_corner_loop_matches_the_reference_on_array_valued_user_maps(box):
    # a generic G: a user map returning numpy arrays, on compatible,
    # incompatible and degenerate boxes, with and without a pseudo pair as
    # the limit
    F = build_embedding(ricker_map(2.0, 3.0 if box.a > 2.4 else 2.6))
    G = lambda q: np.array(F(q))
    enc = _assert_same_corner_run(G, box)
    assert enc.converged


@pytest.mark.parametrize("slow", range(4))
@pytest.mark.parametrize("c", [3.5, 5.5])
def test_corner_loop_matches_the_reference_when_one_coordinate_settles_last(slow, c):
    # each coordinate contracts to c on its own, so G keeps the order; the
    # slow coordinate of the corner farther from c settles last, so the stop
    # step depends on that one of the eight distances
    rates = [0.5, 0.6, 0.7, 0.8]
    rates[slow] = 0.95
    G = lambda q: tuple(c + k * (x - c) for k, x in zip(rates, q))
    enc = _assert_same_corner_run(G, BoxRegion(3.0, 6.0))
    assert enc.converged and enc.compatible


_COORD = st.floats(0.0, 200.0)


@st.composite
def _ordered_quads(draw):
    """A southeast-ordered pair p <= q: coordinates 0 and 3 rise, 1 and 2
    fall, each by nothing, by one ulp or by a drawn amount."""
    p = tuple(draw(_COORD) for _ in range(4))
    q = []
    for c, rises in zip(p, (True, False, False, True)):
        move = draw(st.sampled_from(("none", "ulp", "any")))
        if move == "none":
            q.append(c)
        elif move == "ulp":
            q.append(math.nextafter(c, math.inf if rises else 0.0))
        else:
            d = draw(_COORD)
            q.append(max(c, d) if rises else min(c, d))
    return p, tuple(q)


@settings(max_examples=400, deadline=None, database=None)
@given(r=st.floats(0.01, 50.0), h0=st.floats(0.0, 50.0), h1=st.floats(0.0, 50.0), pair=_ordered_quads())
def test_planar_maps_embeddings_preserve_the_order_in_floats(r, h0, h1, pair):
    # the float-level evidence behind skipping sample_monotone for these maps
    p, q = pair
    assert se_leq(p, q)
    fs = planar_maps(ModelParams.two_periodic(r, h0, h1))  # one map when h0 == h1
    f0, f1 = fs[0], fs[-1]
    for G in (build_embedding(f0), build_folded_embedding(f0, f1)):
        assert se_leq(G(p), G(q))


# a gap drawn log-uniformly from 1e-13 to 10
_LOG_GAP = st.floats(-13.0, 1.0).map(lambda e: 10.0**e)


@settings(max_examples=500, deadline=None, database=None)
@given(r=st.floats(-4.0, 3.0).map(math.exp), gap=_LOG_GAP, spread=_LOG_GAP,
       above=_LOG_GAP, width=_LOG_GAP, kind=st.sampled_from(("constant", "h0 > h1", "h0 < h1")))
# min(h0, h1) = r exactly, its rounding twin at r = 0.1 and h1 at the pole
@example(r=1.0, gap=0.0, spread=1.0, above=0.5, width=1.0, kind="h0 > h1")
@example(r=0.1, gap=1.3877787807814457e-17, spread=0.4, above=0.5, width=0.2, kind="h0 > h1")
@example(r=1.0, gap=1.1102230246251565e-15, spread=1.0, above=0.9, width=1.5, kind="h0 > h1")
def test_compatible_box_is_strict_or_at_float_resolution(r, gap, spread, above, width, kind):
    # min(h) = r + gap; the other stocking value lies `spread` above it, and
    # the target [lo, hi] `above` it, `width` wide
    low = r + gap
    stocking = {"constant": (low,), "h0 > h1": (low + spread, low), "h0 < h1": (low, low + spread)}[kind]
    lo = low + above
    hi = lo + width
    box = compatible_box(ModelParams(r=r, stocking=stocking), lo, hi)
    if box is None:
        # a rounds to r: not strictly between r and min(h), or e^{r-a} within
        # 4 ulps of 1
        a = r + 0.5 * (low - r)
        assert not r < a < low or math.exp(r - a) >= 1.0 - 4 * 2.0**-53
    else:
        assert strict_witness(r, stocking, box.a, box.b, lo, hi)
        for F in planar_maps(ModelParams(r=r, stocking=stocking)):
            assert box_compatible(build_embedding(F), box)


def test_injectivity_on_samples():
    rng = np.random.default_rng(13)
    for h in (2.0, 1.0):
        G = build_embedding(ricker_map(1.0, h))
        pts = rng.uniform(0.0, 8.0, size=(400, 4))
        for i in range(0, 400, 2):
            p, q = pts[i], pts[i + 1]
            if max(abs(a - b) for a, b in zip(p, q)) < 1e-9:
                continue
            gp, gq = G(p), G(q)
            assert max(abs(a - b) for a, b in zip(gp, gq)) > 1e-12


# ---------------------------------------------------------------------------
# folding
# ---------------------------------------------------------------------------


def poly_t0(x, y):
    return (y + x * x - 1.0, x)


def poly_t1(x, y):
    return (-y, x)


def test_fold_polynomial_fixture():
    t10, t01 = fold_period2(poly_t0, poly_t1)
    # t0 itself: (1, y) -> (y, 1)
    assert poly_t0(1.0, 0.37) == pytest.approx((0.37, 1.0), rel=1e-15)
    # {(1, y), (-1, y)} is a 2-cycle family of t10 for any y
    for y in (-1.3, 0.0, 0.37, 2.2):
        assert t10(1.0, y) == pytest.approx((-1.0, y))
        assert t10(-1.0, y) == pytest.approx((1.0, y))
        # t0 carries it onto the 2-cycle family {(y, 1), (y, -1)} of t01
        img = poly_t0(1.0, y)
        assert t01(*img) == pytest.approx((y, -1.0))
        assert t01(y, -1.0) == pytest.approx((y, 1.0))


def test_fold_rational_fixture_common_three_cycle():
    s0 = lambda x, y: (x * y, x)
    s1 = lambda x, y: (x / y, x)
    s10, s01 = fold_period2(s0, s1)
    cycle = [(-1.0, -1.0), (-1.0, 1.0), (1.0, -1.0)]
    for comp in (s10, s01):
        pt = cycle[0]
        seen = []
        for _ in range(3):
            pt = comp(*pt)
            seen.append(pt)
        assert seen[-1] == cycle[0]
        assert set(seen) == set(cycle)


def test_fold_autonomous_collapses_to_square():
    t = lambda x, y: (x * math.exp(1.0 - y) + 2.0, x)
    t10, t01 = fold_period2(t, t)
    for pt in [(1.0, 2.0), (3.3, 0.1)]:
        direct = t(*t(*pt))
        assert t10(*pt) == direct
        assert t01(*pt) == direct


def test_fold_conjugacy_identities():
    t10, t01 = fold_period2(poly_t0, poly_t1)
    rng = np.random.default_rng(21)
    for _ in range(200):
        p = tuple(rng.uniform(-3.0, 3.0, size=2))
        left = poly_t1(*t01(*p))
        right = t10(*poly_t1(*p))
        assert left == pytest.approx(right, rel=1e-12)
        left2 = poly_t0(*t10(*p))
        right2 = t01(*poly_t0(*p))
        assert left2 == pytest.approx(right2, rel=1e-12)


# ---------------------------------------------------------------------------
# folded fixed point taxonomy
# ---------------------------------------------------------------------------


def test_classify_common_equilibrium():
    f = ricker_map(2.0, 3.0)
    kind = classify_folded_fixed_point((YBAR_2_3,) * 4, f, f, tol=1e-8)
    assert kind is FoldedFixedPointKind.COMMON_EQUILIBRIUM


def test_classify_true_two_cycle():
    f0 = ricker_map(1.0, 2.0)
    f1 = ricker_map(1.0, 1.0)
    xi = (Z0_121, Z1_121, Z0_121, Z1_121)
    assert classify_folded_fixed_point(xi, f0, f1, tol=1e-8) is FoldedFixedPointKind.TRUE_TWO_CYCLE


def test_classify_artificial_cycle():
    f0 = ricker_map(1.0, 2.0)
    f1 = ricker_map(1.0, 1.0)
    assert classify_folded_fixed_point(ART_121, f0, f1, tol=1e-6) is FoldedFixedPointKind.ARTIFICIAL_CYCLES
    # three-decimal-rounded coordinates still classify with a loose tolerance
    rounded = (1.109, 3.306, 3.966, 2.110)
    assert classify_folded_fixed_point(rounded, f0, f1, tol=5e-3) is FoldedFixedPointKind.ARTIFICIAL_CYCLES


def test_classify_pseudo_common_fixed_points():
    # for equal maps, the off-diagonal embedded fixed point has the (x,y,y,x) shape
    f = ricker_map(2.0, 2.6)
    xi = (XSTAR, YSTAR, YSTAR, XSTAR)
    assert classify_folded_fixed_point(xi, f, f, tol=1e-6) is FoldedFixedPointKind.PSEUDO_COMMON_FIXED_POINTS


def test_classify_rejects_non_fixed_point():
    f0 = ricker_map(1.0, 2.0)
    f1 = ricker_map(1.0, 1.0)
    with pytest.raises(NotAFixedPoint):
        classify_folded_fixed_point((1.0, 2.0, 3.0, 4.0), f0, f1, tol=1e-8)
