"""Quaternion geometry: the Hopf map, fiber linking, the double cover, and
rotation-loop monodromy.

The rotations, the ball model and loop lifting are :mod:`stemcert.so3`'s and
are imported from there; :mod:`stemcert.hopf` supplies the quaternion
oracles ``qmul``, ``hopf_map`` and ``rot_from_quat``, which take and return
plain tuples, the integer fiber certificates, and the sampled curves, which
are lists of distinct samples.  The private helpers of the float oracle
take curves in column form, one array of floats per coordinate
(:func:`columns`); the exact count takes round circles as tuples of
integers.  numpy serves only as the full-array float oracle of the Gauss
sum, in the tests that import it.
"""

import math
import random
import tracemalloc
from array import array
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stemcert import _kernels, hopf
from stemcert.errors import ResamplePole, VerificationError
from stemcert.hopf import (
    UNLINKED_CONTROL,
    base_point,
    choose_pole,
    circle_linking,
    draw_fiber_pair,
    fiber_circle_linking,
    fiber_curve,
    fiber_determinant,
    fiber_linking,
    gauss_linking,
    hopf_map,
    hurwitz_units,
    linking_number,
    mirror_determinant,
    qmul,
    random_sphere_point,
    rot_from_quat,
    stereographic,
    stereographic_inverse,
    unlinked_control,
)
from stemcert.so3 import (
    _canonical,
    ball_to_rotation,
    homotopy_H,
    homotopy_slice_matrices,
    lift_loop,
    loop_matrices,
    loop_point,
    matrix_path,
    quat_from_rot,
)

ONE = (1.0, 0.0, 0.0, 0.0)
I = (0.0, 1.0, 0.0, 0.0)
J = (0.0, 0.0, 1.0, 0.0)
K = (0.0, 0.0, 0.0, 1.0)
MINUS_ONE = (-1.0, 0.0, 0.0, 0.0)
EYE = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))


def random_unit_quaternion(rng):
    v = [rng.gauss(0.0, 1.0) for _ in range(4)]
    n = math.hypot(*v)
    return tuple(c / n for c in v)


def conjugate(q):
    w, x, y, z = q
    return (w, -x, -y, -z)


def negate(q):
    return tuple(-c for c in q)


def gap(u, v):
    """Largest coordinate difference of two vectors, or of two matrices."""
    if isinstance(u[0], (tuple, list)):
        return max(gap(a, b) for a, b in zip(u, v))
    return max(abs(a - b) for a, b in zip(u, v))


def apply(matrix, v):
    return tuple(sum(m * c for m, c in zip(row, v)) for row in matrix)


def matmul(a, b):
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)


def leibniz_det(rows):
    """Determinant as the signed sum over permutations, in exact integers."""
    total = 0
    for perm in permutations(range(len(rows))):
        inversions = sum(a > b for i, a in enumerate(perm) for b in perm[i + 1 :])
        term = (-1) ** inversions
        for row, column in zip(rows, perm):
            term *= row[column]
        total += term
    return total


def columns(points):
    """A curve given as a list of points, in the column form that the
    private helpers of :mod:`stemcert.hopf` take: one array of floats per
    coordinate."""
    return tuple(array("d", column) for column in zip(*points))


def projected_pair(p1, p2, samples):
    """The fibers over ``p1`` and ``p2``, projected from the pole that
    :func:`choose_pole` picks."""
    a, b = fiber_curve(p1, samples), fiber_curve(p2, samples)
    pole = choose_pole([a, b])
    return stereographic(a, pole), stereographic(b, pole)


# --------------------------------------------------------------------------
# Quaternion algebra
# --------------------------------------------------------------------------


def test_hamilton_table():
    assert qmul(I, J) == K
    assert qmul(J, K) == I
    assert qmul(K, I) == J
    for unit in (I, J, K):
        assert qmul(unit, unit) == (-1, 0, 0, 0)
    assert qmul(I, J) != qmul(J, I)


def test_norm_is_multiplicative():
    rng = random.Random(3)
    for _ in range(50):
        a = [rng.gauss(0.0, 1.0) for _ in range(4)]
        b = [rng.gauss(0.0, 1.0) for _ in range(4)]
        assert math.isclose(
            math.hypot(*qmul(a, b)), math.hypot(*a) * math.hypot(*b), rel_tol=1e-12
        )


def test_conjugate_reverses_products():
    rng = random.Random(4)
    for _ in range(20):
        a, b = random_unit_quaternion(rng), random_unit_quaternion(rng)
        lhs = conjugate(qmul(a, b))
        rhs = qmul(conjugate(b), conjugate(a))
        assert gap(lhs, rhs) < 1e-12


def test_quaternion_oracles_take_and_give_tuples():
    q = random_unit_quaternion(random.Random(12))
    product = qmul(q, I)
    assert type(product) is tuple and len(product) == 4
    image = hopf_map(q)
    assert type(image) is tuple and len(image) == 3
    assert all(type(c) is float for c in product + image)
    # Any 4-sequence of a unit quaternion gives the same values.
    assert hopf_map(list(q)) == image
    assert rot_from_quat(list(q)) == rot_from_quat(q)


# --------------------------------------------------------------------------
# The Hopf map and its fibers
# --------------------------------------------------------------------------


def test_hopf_map_base_cases():
    assert gap(hopf_map(ONE), (1, 0, 0)) < 1e-12
    assert gap(hopf_map(I), (1, 0, 0)) < 1e-12
    assert gap(hopf_map(J), (-1, 0, 0)) < 1e-12
    assert gap(hopf_map(K), (-1, 0, 0)) < 1e-12


def test_hopf_map_lands_on_sphere():
    rng = random.Random(5)
    for _ in range(100):
        p = hopf_map(random_unit_quaternion(rng))
        assert abs(math.hypot(*p) - 1.0) < 1e-12


def test_hopf_map_is_constant_on_circle_orbits():
    rng = random.Random(6)
    for _ in range(30):
        q = random_unit_quaternion(rng)
        theta = rng.uniform(0, 2 * math.pi)
        rotated = qmul((math.cos(theta), math.sin(theta), 0.0, 0.0), q)
        assert gap(hopf_map(q), hopf_map(rotated)) < 1e-12


def test_hopf_map_rejects_non_unit():
    with pytest.raises(ValueError):
        hopf_map((1.0, 1.0, 0.0, 0.0))


def test_fiber_over_i_is_the_stabilizer_circle():
    curve = fiber_curve([1.0, 0.0, 0.0], samples=64)
    # {cos t + i sin t}: the j and k components vanish identically.
    assert max(abs(c) for point in curve for c in point[2:]) < 1e-12
    assert max(abs(math.hypot(*point) - 1.0) for point in curve) < 1e-12


def test_fiber_curve_stores_its_distinct_samples_once():
    curve = fiber_curve([0.0, 0.6, 0.8], 64)
    assert len(curve) == 64 and all(len(point) == 4 for point in curve)
    assert len(set(curve)) == 64
    # Unit speed on a great circle: every step, the one from the last sample
    # back to the first included, spans the chord of angle 2 pi / 64.
    steps = [math.dist(a, b) for a, b in zip(curve, curve[1:] + curve[:1])]
    assert max(abs(s - 2.0 * math.sin(math.pi / 64)) for s in steps) < 1e-12


def test_fiber_over_minus_i_maps_back():
    curve = fiber_curve([-1.0, 0.0, 0.0], samples=64)
    for w, x, y, z in curve:
        image = (w**2 + x**2 - y**2 - z**2, 2 * (x * y - w * z), 2 * (w * y + x * z))
        assert gap(image, (-1.0, 0.0, 0.0)) < 1e-9


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_fiber_samples_all_map_to_base(seed):
    p = random_sphere_point(random.Random(seed))
    curve = fiber_curve(p, samples=48)
    for row in curve[::8]:
        assert gap(hopf_map(row), p) < 1e-9


def test_fiber_curve_validation():
    with pytest.raises(ValueError):
        fiber_curve([1.0, 1.0, 0.0], samples=64)  # not on the sphere
    with pytest.raises(ValueError):
        fiber_curve([1.0, 0.0, 0.0], samples=8)  # too few samples


# --------------------------------------------------------------------------
# Integer fiber certificates
# --------------------------------------------------------------------------


def test_fiber_determinant_is_the_exact_4x4_determinant():
    rng = random.Random(21)
    for _ in range(200):
        q, r = (tuple(rng.randint(-6, 6) for _ in range(4)) for _ in range(2))
        left = leibniz_det([q, qmul(I, q), r, qmul(I, r)])
        right = leibniz_det([q, qmul(q, I), r, qmul(r, I)])
        assert fiber_determinant(q, r) == left and type(fiber_determinant(q, r)) is int
        assert mirror_determinant(q, r) == right


def test_fiber_determinants_have_one_sign_per_fibration():
    # Left multiplication by i orients R^4 as (1, i, j, k) does, right
    # multiplication against it: every pair off one fiber has det > 0 and
    # mirror det < 0.
    rng = random.Random(22)
    for _ in range(500):
        q, r = (tuple(rng.randint(-6, 6) for _ in range(4)) for _ in range(2))
        det, mirror = fiber_determinant(q, r), mirror_determinant(q, r)
        assert det >= 0 and mirror <= 0
    # Two points of one fiber, and a zero quaternion, give no sign.
    q = (1, -2, 3, 5)
    assert fiber_determinant(q, qmul((2, 3, 0, 0), q)) == 0
    assert fiber_determinant(q, (0, 0, 0, 0)) == 0
    assert mirror_determinant(q, qmul(q, (2, 3, 0, 0))) == 0


def test_linking_number_is_the_sign_and_rejects_zero():
    assert linking_number(1754) == 1
    assert linking_number(-3) == -1
    with pytest.raises(VerificationError, match="zero"):
        linking_number(0)


def test_draw_fiber_pair_gives_separated_non_degenerate_pairs():
    rng = random.Random(23)
    for _ in range(300):
        q, r = draw_fiber_pair(rng)
        assert all(type(c) is int and -6 <= c <= 6 for c in q + r)
        assert fiber_determinant(q, r) > 0 > mirror_determinant(q, r)
        assert math.dist(base_point(q), base_point(r)) >= 0.1 - 1e-12


def test_base_point_is_the_hopf_map_of_the_normalized_quaternion():
    rng = random.Random(24)
    for _ in range(50):
        q, _ = draw_fiber_pair(rng)
        norm = math.hypot(*q)
        assert gap(base_point(q), hopf_map([c / norm for c in q])) < 1e-12
        # The fiber through q lies over its base point.
        unit = [c / norm for c in q]
        assert gap(hopf_map(qmul((0.6, 0.8, 0.0, 0.0), unit)), base_point(q)) < 1e-12


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_reference_gauss_sum_has_the_sign_of_the_determinant(seed):
    rng = random.Random(seed)
    for _ in range(3):
        q, r = draw_fiber_pair(rng)
        lk = fiber_linking(base_point(q), base_point(r), samples=128)
        assert abs(lk - linking_number(fiber_determinant(q, r))) < 0.02


# --------------------------------------------------------------------------
# Stereographic projection and pole choice
# --------------------------------------------------------------------------


def test_stereographic_round_trip():
    rng = random.Random(7)
    # A list of samples, as fiber_linking projects them, and each sample on
    # its own give the same images, which the inverse maps back.
    points = [random_unit_quaternion(rng) for _ in range(50)]
    for pole in (MINUS_ONE, hurwitz_units()[13]):
        images = stereographic(points, pole)
        assert len(images) == 50 and all(len(v) == 3 for v in images)
        for q, v in zip(points, images):
            assert gap(stereographic([q], pole)[0], v) < 1e-12
            assert gap(stereographic_inverse(v, pole), q) < 1e-9


def test_stereographic_rejects_pole_neighborhood():
    near = (-1.0 / math.hypot(1.0, 1e-4), 1e-4 / math.hypot(1.0, 1e-4), 0.0, 0.0)
    with pytest.raises(ResamplePole):
        stereographic([MINUS_ONE], MINUS_ONE)
    with pytest.raises(ResamplePole):
        stereographic([(0.0, 1.0, 0.0, 0.0), near], MINUS_ONE)


def test_stereographic_requires_unit_points_and_pole():
    doubled = tuple(2.0 * c for c in MINUS_ONE)
    with pytest.raises(ValueError, match="unit vectors"):
        stereographic([(0.0, 1.0, 0.0, 0.0), (0.0, 1.0, 1.0, 0.0)], MINUS_ONE)
    with pytest.raises(ValueError, match="4 coordinates"):
        stereographic([(0.0, 1.0, 0.0)], MINUS_ONE)
    with pytest.raises(ValueError, match="4 coordinates"):
        stereographic((0.0, 1.0, 0.0, 0.0), MINUS_ONE)  # a point, not a list of them
    with pytest.raises(ValueError, match="pole"):
        stereographic([(0.0, 1.0, 0.0, 0.0)], doubled)
    with pytest.raises(ValueError, match="pole"):
        stereographic_inverse((0.0, 0.0, 0.0), doubled)


def test_hurwitz_units_are_24_distinct_unit_vectors():
    units = hurwitz_units()
    assert len(units) == 24 and all(len(u) == 4 for u in units)
    assert max(abs(math.hypot(*u) - 1.0) for u in units) < 1e-12
    assert len(set(units)) == 24


def test_choose_pole_default_and_fallback():
    # A fiber far from -1 keeps the default pole.
    clear = fiber_curve([0.0, 0.0, 1.0], samples=64)
    assert choose_pole([clear]) == MINUS_ONE
    # The fiber over i passes through -1 itself, forcing a re-choice.
    through_pole = fiber_curve([1.0, 0.0, 0.0], samples=256)
    pole = choose_pole([through_pole])
    assert min(math.dist(p, pole) for p in through_pole) > 1e-3
    # -1, then the 20 Hurwitz units off its Hopf fiber in hurwitz_units()
    # order, then +1, +i and -i, which lie on that fiber: the fiber over i
    # passes through all four, and j, second in the order, clears it.
    off_fiber = [u for u in hurwitz_units() if u[2:] != (0.0, 0.0)]
    assert hopf._POLES == (MINUS_ONE, *off_fiber, ONE, I, negate(I))
    assert pole == J


@pytest.mark.parametrize(
    "p1,p2", [((1.0, 0.0, 0.0), (-1.0, 0.0, 0.0)), ((0.0, 0.6, 0.8), (0.8, 0.0, -0.6))]
)
def test_fiber_linking_is_a_function_of_its_inputs(p1, p2):
    # The first pair passes through -1 and so projects from a later pole.
    first = fiber_linking(p1, p2, samples=128)
    assert all(fiber_linking(p1, p2, samples=128) == first for _ in range(3))


def test_every_pole_basis_is_oriented_alike():
    for pole in [MINUS_ONE, *hurwitz_units()]:
        basis = hopf._pole_basis(pole)
        assert abs(hopf._det4([pole, *basis]) + 1.0) < 1e-12
        for n, e in enumerate(basis):
            assert abs(hopf._dot(e, pole)) < 1e-12
            assert all(abs(hopf._dot(e, f) - (n == m)) < 1e-12 for m, f in enumerate(basis))


@pytest.mark.parametrize(
    "p1,p2", [((0.0, 1.0, 0.0), (0.0, 0.0, 1.0)), ((1.0, 0.0, 0.0), (0.0, 0.6, -0.8))]
)
def test_one_pair_links_with_one_sign_from_every_pole_that_clears_it(p1, p2):
    # The fibers over (0, 1, 0) and (0, 0, 1) read +1 from -1 and from +1
    # alike; the fiber over (1, 0, 0) passes through -1 and +1 themselves.
    a, b = fiber_curve(p1, 128), fiber_curve(p2, 128)
    clearing = [
        pole
        for pole in [MINUS_ONE, *hurwitz_units()]
        if min(math.dist(p, pole) for p in a + b) > 1e-3
    ]
    assert len(clearing) >= 12
    for pole in clearing:
        assert abs(gauss_linking(stereographic(a, pole), stereographic(b, pole)) - 1.0) < 0.02


# --------------------------------------------------------------------------
# Gauss linking
# --------------------------------------------------------------------------


def test_unlinked_control_is_zero():
    assert abs(gauss_linking(*unlinked_control(samples=256))) < 0.02


@pytest.mark.parametrize("samples", [64, 128, 512, 777, 1024])
def test_no_term_of_the_unlinked_control_vanishes(samples):
    # Coplanar circles would make every numerator exactly 0, whatever the
    # integrand code computed; the tilted circle leaves none at 0.
    np = pytest.importorskip("numpy")
    (mid_a, seg_a), (mid_b, seg_b) = (
        (np.asarray(part) for part in hopf._segments(columns(curve)))
        for curve in unlinked_control(samples)
    )
    numerators = np.einsum(
        "ijk,ijk->ij",
        np.cross(seg_a[:, None, :], seg_b[None, :, :]),
        mid_a[:, None, :] - mid_b[None, :, :],
    )
    assert np.abs(numerators).min() > 0.0


def test_hopf_fibers_link_once():
    lk = fiber_linking([0.0, 0.0, 1.0], [0.0, 0.0, -1.0], samples=256)
    assert abs(abs(lk) - 1.0) < 0.02


def test_fiber_linking_survives_pole_reroll():
    # One fiber passes through the default pole; the result must not change.
    lk = fiber_linking([1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], samples=256)
    assert abs(abs(lk) - 1.0) < 0.02


def test_linking_sign_flips_with_orientation():
    first, second = projected_pair([0.0, 0.0, 1.0], [0.0, 0.0, -1.0], 256)
    fwd = gauss_linking(first, second)
    assert abs(fwd + gauss_linking(first[::-1], second)) < 1e-9
    assert abs(fwd + gauss_linking(first, second[::-1])) < 1e-9


@pytest.mark.parametrize("shift", [1, 63, 64, 200])
def test_gauss_linking_does_not_depend_on_the_first_sample(shift):
    # A closed curve has no distinguished start: rolling its samples keeps
    # every segment, the one that wraps around included.
    first, second = projected_pair([0.0, 0.6, 0.8], [0.8, 0.0, -0.6], 256)
    lk = gauss_linking(first, second)
    assert abs(gauss_linking(first[shift:] + first[:shift], second) - lk) < 1e-12
    assert abs(gauss_linking(first, second[shift:] + second[:shift]) - lk) < 1e-12


def test_gauss_linking_validation():
    circle, far = unlinked_control(samples=128)
    with pytest.raises(ValueError, match="R\\^3"):
        gauss_linking([point + (0.0,) for point in circle], far)
    with pytest.raises(ValueError, match="R\\^3"):
        gauss_linking([c for point in circle for c in point], far)
    tiny, _ = unlinked_control(samples=32)
    with pytest.raises(ValueError, match="at least 64"):
        gauss_linking(tiny, far)
    with pytest.raises(ValueError, match="intersect"):
        gauss_linking(circle, circle)  # zero separation


@pytest.mark.parametrize("curve", [0, 1])
@pytest.mark.parametrize("index", [0, 77, 127])
def test_gauss_linking_fails_closed_on_a_non_finite_sample(monkeypatch, curve, index):
    # One NaN (or infinite) coordinate anywhere fails the separation check
    # instead of passing it and returning NaN: the sum is never reached.
    def unreached(*arrays):
        raise AssertionError("the Gauss sum ran on a non-finite sample")

    monkeypatch.setattr(_kernels, "gauss_linking_sum", unreached)
    for bad in (math.nan, math.inf, -math.inf):
        pair = [list(c) for c in unlinked_control(samples=128)]
        x, y, z = pair[curve][index]
        pair[curve][index] = (x, bad, z)
        with pytest.raises(ValueError, match="intersect"):
            gauss_linking(*pair)


def einsum_gauss_sum(np, a, b):
    """The Gauss double sum of two closed curves on full (N, N, 3) arrays:
    the reference for the kernel.  Each curve's segments come from appending
    its first sample to its end."""
    a, b = (np.concatenate([c, c[:1]]) for c in (np.asarray(a), np.asarray(b)))
    mid_a, seg_a = 0.5 * (a[:-1] + a[1:]), a[1:] - a[:-1]
    mid_b, seg_b = 0.5 * (b[:-1] + b[1:]), b[1:] - b[:-1]
    diff = mid_a[:, None, :] - mid_b[None, :, :]
    cross = np.cross(seg_a[:, None, :], seg_b[None, :, :])
    dist2 = np.einsum("ijk,ijk->ij", diff, diff)
    triple = np.einsum("ijk,ijk->ij", cross, diff)
    return float(np.sum(triple / (dist2 * np.sqrt(dist2))))


@pytest.mark.parametrize("samples", [63, 64, 65, 255, 256, 257, 1024])
def test_blocked_gauss_sum_matches_the_full_array_reference(samples):
    # The row-by-row kernel against numpy's full (N, N) arrays, on the
    # wrap-around segments that gauss_linking forms.
    np = pytest.importorskip("numpy")
    pairs = [
        projected_pair([0.0, 0.6, 0.8], [0.8, 0.0, -0.6], samples),
        unlinked_control(samples=samples),
    ]
    for first, second in pairs:
        kernel = _kernels.gauss_linking_sum(
            *hopf._segments(columns(first)), *hopf._segments(columns(second))
        )
        assert abs(kernel - einsum_gauss_sum(np, first, second)) < 1e-12


def test_gauss_linking_holds_block_sized_memory():
    # Two 256-sample curves: one full (N, N) plane of Python floats would
    # take 2 MiB, while the curves, their segments and the kernel's columns
    # take about 0.9 KiB per sample.  (Tracing every allocation slows the
    # sum about fifteenfold, hence the small curves.)
    first, second = projected_pair([0.0, 0.6, 0.8], [0.8, 0.0, -0.6], 256)
    tracemalloc.start()
    try:
        gauss_linking(first, second)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**20


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fiber_linking_matches_the_two_projection_reference(seed):
    # Each fiber projected on its own and summed on full arrays; the fiber
    # over [1, 0, 0] passes through the default pole and moves it on.
    np = pytest.importorskip("numpy")
    rng = random.Random(seed)
    pairs = [([1.0, 0.0, 0.0], random_sphere_point(rng))]
    pairs += [(random_sphere_point(rng), random_sphere_point(rng)) for _ in range(2)]
    for p1, p2 in pairs:
        fibers = [fiber_curve(p1, 256), fiber_curve(p2, 256)]
        pole = choose_pole(fibers)
        first, second = (stereographic(f, pole) for f in fibers)
        reference = einsum_gauss_sum(np, first, second) / (4.0 * math.pi)
        assert abs(fiber_linking(p1, p2, samples=256) - reference) < 1e-12


@pytest.mark.parametrize("samples", [64, 128, 1024])
def test_fiber_linking_hands_the_kernels_one_row_per_sample(monkeypatch, samples):
    # Neither the separation check nor the sum sees a repeated endpoint.
    # The separation check takes each curve in column form.
    rows = []
    closest_within = hopf._closest_within

    def record_curves(a, b, gap):
        rows.extend(len(curve[0]) for curve in (a, b))
        return closest_within(a, b, gap)

    def record_arrays(*arrays):
        rows.extend(map(len, arrays))
        return gauss_linking_sum(*arrays)

    gauss_linking_sum = _kernels.gauss_linking_sum
    monkeypatch.setattr(hopf, "_closest_within", record_curves)
    monkeypatch.setattr(_kernels, "gauss_linking_sum", record_arrays)
    lk = fiber_linking([0.0, 0.6, 0.8], [0.8, 0.0, -0.6], samples=samples)
    assert abs(abs(lk) - 1.0) < 0.02
    assert rows == [samples] * 6


def test_gauss_linking_rejects_curves_1e_3_apart():
    circle, _ = unlinked_control(samples=128)
    with pytest.raises(ValueError, match="intersect"):
        gauss_linking(circle, [(x, y, z + 1e-3) for x, y, z in circle])


@pytest.mark.parametrize("gap,rejected", [(5e-4, True), (2e-3, False)])
def test_separation_check_reaches_the_last_block(gap, rejected):
    # Two curves of 1024 samples, each phased so that only its sample 1000
    # comes near the other curve, at the given gap: whichever curve gives
    # the rows, the check must walk that far.  The samples either side of it
    # stay about 6e-3 apart.
    theta = [2.0 * math.pi * (k - 1000) / 1024 for k in range(1024)]
    circle = [(math.sin(t), -math.cos(t), 0.0) for t in theta]
    other = [(0.0, math.cos(t) - 2.0 - gap, math.sin(t)) for t in theta]
    for pair in ((circle, other), (other, circle)):
        if rejected:
            with pytest.raises(ValueError, match="intersect"):
                gauss_linking(*pair)
        else:
            assert math.isfinite(gauss_linking(*pair))


def walked_distance(a, b):
    """The least distance between a segment of the closed curve ``a`` and
    one of ``b``, by the O(N^2) walk over every pair that the separation
    check's sweep must agree with: exact wherever some pair lies within
    2e-3, and otherwise over 2e-3 or inf.  A pair whose midpoints lie
    further apart than its two half-lengths and 2e-3 is passed over
    unmeasured, as its segments cannot come within 2e-3."""

    def segments(curve):
        return [
            (p0, p1, [0.5 * (x + y) for x, y in zip(p0, p1)], 0.5 * math.dist(p0, p1))
            for p0, p1 in zip(curve[-1:] + curve[:-1], curve)
        ]

    closest, of_b = math.inf, segments(b)
    for p0, p1, mid_p, half_p in segments(a):
        for q0, q1, mid_q, half_q in of_b:
            if math.dist(mid_p, mid_q) - half_p - half_q <= 2e-3:
                closest = min(closest, hopf._segment_distance(p0, p1, q0, q1))
    return closest


def near_touching_pairs(samples):
    """Circles whose closest samples lie at gaps around 1e-3: two in
    perpendicular planes, both ways round, the second's samples all sharing
    x = 0, so that the sweep must not run along x; and a circle beside its
    own translate along x."""
    theta = [2.0 * math.pi * k / samples for k in range(samples)]
    circle = [(math.sin(t), -math.cos(t), 0.0) for t in theta]
    for gap in (0.0, 5e-4, 9.99e-4, 1e-3, 1.001e-3, 2e-3, 0.1):
        other = [(0.0, math.cos(t) - 2.0 - gap, math.sin(t)) for t in theta]
        yield circle, other
        yield other, circle
        # The circle moved along x by the gap: each sample's near partner
        # differs from it in x alone, at the edge of the 1e-3 separation.
        yield circle, [(x + gap, y, z) for x, y, z in circle]


def random_pairs(seed):
    """Clouds of random points in boxes small enough that their closest
    pair falls either side of 1e-3."""
    rng = random.Random(seed)
    for side in (0.01, 0.03, 0.1, 1.0):
        yield tuple(
            [tuple(rng.uniform(0.0, side) for _ in range(3)) for _ in range(128)]
            for _ in range(2)
        )


def flattened_pairs(seed):
    """The clouds of :func:`random_pairs` pressed into the plane x = 0.5,
    then into y = 0.5: every point shares that coordinate."""
    for axis in (0, 1):
        for pair in random_pairs(seed):
            yield tuple(
                [p[:axis] + (0.5,) + p[axis + 1 :] for p in cloud] for cloud in pair
            )


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_separation_sweep_agrees_with_the_walk_over_every_pair(seed):
    verdicts = set()
    pairs = [*random_pairs(seed), *flattened_pairs(seed), *near_touching_pairs(256)]
    for a, b in pairs:
        walked = walked_distance(a, b)
        a, b = columns(a), columns(b)
        swept = hopf._closest_within(a, b, 1e-3)
        assert (swept is None) == (walked > 1e-3), (walked, swept)
        if swept is not None:
            assert walked <= swept <= 1e-3  # one of the pairs walked
        verdicts.add(walked > 1e-3)
    assert verdicts == {True, False}


def test_separation_sweep_spreads_curves_in_a_plane_x_const(monkeypatch):
    # Concentric circles of radii 1 and 1.5 in the plane x = 0: a sweep
    # along x would open every box at once and measure all N^2 pairs.
    # Along the widest axis, each box meets a few others at most.
    samples = 4096
    theta = [2.0 * math.pi * k / samples for k in range(samples)]
    inner = [(0.0, math.cos(t), math.sin(t)) for t in theta]
    outer = [(0.0, 1.5 * math.cos(t), 1.5 * math.sin(t)) for t in theta]
    measured = []
    segment_distance = hopf._segment_distance

    def counted(*ends):
        measured.append(None)
        return segment_distance(*ends)

    monkeypatch.setattr(hopf, "_segment_distance", counted)
    inner, outer = columns(inner), columns(outer)
    assert hopf._closest_within(inner, outer, 1e-3) is None
    assert len(measured) < 50 * samples


# --------------------------------------------------------------------------
# Exact circle count
# --------------------------------------------------------------------------


def span_circle(centre, u, v, scale):
    """The circle ``(centre + cos t u + sin t v) / scale`` of integer
    vectors ``u`` and ``v``, orthogonal and of equal length, as
    :func:`circle_linking` takes it."""
    return (hopf._cross(u, v), centre, hopf._dot(u, u), scale, 1)


def span_samples(centre, u, v, scale, samples=512):
    """``samples`` points of the same circle, for the float oracle."""
    points = []
    for k in range(samples):
        c, s = math.cos(2.0 * math.pi * k / samples), math.sin(2.0 * math.pi * k / samples)
        points.append(tuple((o + c * a + s * b) / scale for o, a, b in zip(centre, u, v)))
    return points


def reversed_circle(circle):
    return (*circle[:4], -circle[4])


#: The unlinked control's second circle moved from the centre (3/2, 0, 0) to
#: (3/5, 1/2, 0), through the first circle's disc.
MOVED = ((6, 5, 0), (0, 10, 0), (6, 0, 8), 10)


def test_surd_signs_are_exact():
    rng = random.Random(3)
    for _ in range(2000):
        x, y = rng.randint(-10**6, 10**6), rng.randint(-10**3, 10**3)
        root = rng.randint(1, 10**3)
        # A perfect square d: the sign of an integer.
        exact = x + y * root
        assert hopf._surd_sign(x, y, root * root) == (exact > 0) - (exact < 0)
        # Any d: the float's sign wherever the float cannot be wrong.
        d = rng.randint(1, 10**6)
        value = x + y * math.sqrt(d)
        if abs(value) > 1e-6 * (abs(x) + 1):
            assert hopf._surd_sign(x, y, d) == (value > 0) - (value < 0)
    # x + y sqrt(d) = 0 only with x^2 = y^2 d and opposite signs.
    assert hopf._surd_sign(-6, 2, 9) == 0
    assert hopf._surd_sign(6, 2, 9) == 1
    assert hopf._surd_sign(0, 0, 5) == 0


def test_reference_count_has_the_sign_of_the_determinant_over_6000_pairs():
    # Every pair of seeds 0-299 x 20 draws: +1, the sign of det[q, iq, r, ir],
    # and -1 for the same pair's circles in the mirror fibration.
    for seed in range(300):
        rng = random.Random(seed)
        for _ in range(20):
            q, r = draw_fiber_pair(rng)
            assert fiber_circle_linking(q, r) == linking_number(fiber_determinant(q, r)) == 1
            assert fiber_circle_linking(q, r, mirror=True) == -1


@pytest.mark.parametrize("seed", range(21))
def test_reference_count_equals_the_gauss_oracle(seed):
    # The first pair of linking --seed 0..20, as the float Gauss sum of its
    # sampled fibers reads it.
    q, r = draw_fiber_pair(random.Random(seed))
    lk = fiber_linking(base_point(q), base_point(r), samples=128)
    assert abs(lk - round(lk)) < 0.02
    assert fiber_circle_linking(q, r) == round(lk)


def test_reversing_either_circle_reverses_the_count():
    rng = random.Random(8)
    for _ in range(50):
        q, r = draw_fiber_pair(rng)
        for mirror, sign in ((False, 1), (True, -1)):
            try:
                a, b = (hopf._fiber_circle(p, mirror) for p in (q, r))
                assert circle_linking(a, b) == sign
            except ValueError:
                continue  # this pair needs a move
            assert circle_linking(b, a) == sign
            assert circle_linking(reversed_circle(a), b) == -sign
            assert circle_linking(a, reversed_circle(b)) == -sign
            assert circle_linking(reversed_circle(a), reversed_circle(b)) == sign


def test_unlinked_control_links_once_when_moved_through_the_disc():
    first, second = UNLINKED_CONTROL
    assert (first, second) == (
        span_circle((0, 0, 0), (1, 0, 0), (0, 1, 0), 1),
        span_circle((15, 0, 0), (0, 10, 0), (6, 0, 8), 10),
    )
    assert circle_linking(first, second) == circle_linking(second, first) == 0
    circle, tilted = unlinked_control(samples=256)
    assert abs(gauss_linking(circle, tilted)) < 0.02
    # Centred at (0.6, 0.5, 0), the tilted circle crosses the plane z = 0 at
    # (0.6, -0.5, 0), inside the first circle, and at (0.6, 1.5, 0), outside:
    # it reads -1 in both orders, the sign of the float Gauss sum.
    moved = span_circle(*MOVED)
    assert circle_linking(first, moved) == circle_linking(moved, first) == -1
    assert abs(gauss_linking(circle, span_samples(*MOVED, samples=256)) + 1.0) < 0.02
    # unlinked_control samples the same two circles.
    for points, (centre, u, v, scale) in zip(unlinked_control(64), hopf._CONTROL):
        assert gap(points[16], [(o + b) / scale for o, b in zip(centre, v)]) < 1e-15


def rational_circle(rng, near=(0.0, 0.0, 0.0)):
    """A random circle with integer data: two columns of the rotation matrix
    of an integer quaternion p, scaled by |p|^2 (orthogonal integer vectors
    of length |p|^2), about an integer centre within about half its radius
    of the point ``near``."""
    p = [rng.randint(-3, 3) for _ in range(4)]
    while not any(p):
        p = [rng.randint(-3, 3) for _ in range(4)]
    w, x, y, z = p
    columns_ = [
        (w * w + x * x - y * y - z * z, 2 * (x * y + w * z), 2 * (x * z - w * y)),
        (2 * (x * y - w * z), w * w - x * x + y * y - z * z, 2 * (y * z + w * x)),
        (2 * (x * z + w * y), 2 * (y * z - w * x), w * w - x * x - y * y + z * z),
    ]
    u, v = rng.sample(columns_, 2)
    norm2 = w * w + x * x + y * y + z * z
    scale = norm2 * rng.randint(1, 3)
    centre = tuple(round(c * scale) + rng.randint(-norm2 // 2, norm2 // 2) for c in near)
    return centre, u, v, scale


def test_circle_linking_agrees_with_the_gauss_oracle_on_random_circles():
    # Each second circle is centred near a point of the first, so that about
    # half the pairs link.
    rng = random.Random(11)
    links = []
    while len(links) < 40:
        first = rational_circle(rng)
        a = span_samples(*first, samples=256)
        second = rational_circle(rng, near=a[rng.randrange(256)])
        b = span_samples(*second, samples=256)
        if min(math.dist(p, q) for p in a for q in b) < 0.05:
            continue  # too near for 256 samples to resolve
        lk = gauss_linking(a, b)
        link = circle_linking(span_circle(*first), span_circle(*second))
        assert abs(lk - link) < 0.02, (first, second, lk, link)
        assert circle_linking(span_circle(*second), span_circle(*first)) == link
        links.append(link)
    assert {-1, 0, 1} <= set(links)


def test_circle_linking_rejects_pairs_in_no_general_position():
    flat = span_circle((0, 0, 0), (1, 0, 0), (0, 1, 0), 1)
    # Coplanar, tangent to the other's plane, or meeting the other circle.
    with pytest.raises(ValueError, match="coplanar"):
        circle_linking(flat, span_circle((3, 0, 0), (1, 0, 0), (0, 1, 0), 1))
    with pytest.raises(ValueError, match="touches the plane"):
        circle_linking(flat, span_circle((0, 0, 1), (1, 0, 0), (0, 0, 1), 1))
    with pytest.raises(ValueError, match="meet"):
        circle_linking(flat, span_circle((2, 0, 0), (1, 0, 0), (0, 0, 1), 1))
    # Parallel planes apart, and a circle that misses the plane: no crossing.
    assert circle_linking(flat, span_circle((0, 0, 1), (1, 0, 0), (0, 1, 0), 1)) == 0
    assert circle_linking(flat, span_circle((0, 0, 3), (1, 0, 0), (0, 0, 1), 1)) == 0


def test_a_pair_that_needs_a_move_counts_the_same_after_it(monkeypatch):
    # Seed 23's first pair: r lies on the fiber through -1, whose image is a
    # line.  Every move that leaves a pair in general position gives the
    # same count.
    q, r = draw_fiber_pair(random.Random(23))
    assert r == (3, -2, 0, 0)
    with pytest.raises(ValueError, match="through the pole"):
        hopf._fiber_circle(r, False)
    assert fiber_circle_linking(q, r) == 1
    rng = random.Random(6)
    for _ in range(30):
        q, r = draw_fiber_pair(rng)
        for mirror in (False, True):
            counts = set()
            for move in hopf._MOVES:
                monkeypatch.setattr(hopf, "_MOVES", (move,))
                try:
                    counts.add(fiber_circle_linking(q, r, mirror))
                except VerificationError:
                    continue
                finally:
                    monkeypatch.undo()
            assert counts == {-1 if mirror else 1}


def test_an_exhausted_move_tuple_raises_a_named_verification_error(monkeypatch):
    q, r = draw_fiber_pair(random.Random(23))
    monkeypatch.setattr(hopf, "_MOVES", ((1, 0, 0, 0),))
    with pytest.raises(VerificationError, match="every projection of the fibers through"):
        fiber_circle_linking(q, r)


def test_the_exact_count_runs_on_python_ints():
    # Every circle coordinate is an int: no float and no Fraction.
    q, r = draw_fiber_pair(random.Random(4))
    for circle in (*UNLINKED_CONTROL, hopf._fiber_circle(q, False), hopf._fiber_circle(r, True)):
        normal, centre, radius2, scale, sign = circle
        assert all(type(c) is int for c in (*normal, *centre, radius2, scale, sign))


# --------------------------------------------------------------------------
# The box sweep of the separation check
# --------------------------------------------------------------------------


def random_polygon(rng):
    """30 vertices in R^3, each coordinate drawn from a few values so that
    the segments' boxes often share a bound."""
    return [tuple(rng.choice((0.0, 0.25, 0.5, rng.random())) for _ in range(3)) for _ in range(30)]


def segment_boxes(polygon, widen=0.0):
    """The box of each segment of the closed polygon ``polygon`` (segment
    ``i`` joins vertex ``i - 1`` to vertex ``i``), widened by ``widen``, as
    ``(lo, hi, lo, hi, ...)``."""
    return [
        tuple(c for x, y in zip(p, q) for c in (min(x, y) - widen, max(x, y) + widen))
        for p, q in zip(polygon[-1:] + polygon[:-1], polygon)
    ]


def flattened(polygon, axis):
    """``polygon`` pressed onto the plane where coordinate ``axis`` is 0.5:
    every segment's box has the range ``[0.5, 0.5]`` there."""
    return [p[:axis] + (0.5,) + p[axis + 1 :] for p in polygon]


def swept_along(first):
    """The coordinates with ``first``, where the sweep runs, at the front."""
    return (first, *(k for k in range(3) if k != first))


def meet(p, q):
    """Whether the closed boxes ``p`` and ``q`` meet."""
    return all(p[k] <= q[k + 1] and q[k] <= p[k + 1] for k in range(0, len(p), 2))


def walked_pairs(boxes_a, boxes_b):
    """The index pairs whose closed boxes meet, by a walk over every pair."""
    return [
        (i, j)
        for i, p in enumerate(boxes_a)
        for j, q in enumerate(boxes_b)
        if meet(p, q)
    ]


def sweep_order(boxes_a, boxes_b, first):
    """The pairs of :func:`walked_pairs` in the order in which a sweep along
    coordinate ``first`` finds them: the boxes enter in the order of
    ``(lower end there, side, index)``, ``a``'s side first, and each entering
    box meets the other side's boxes in the order in which they entered."""
    sides = (boxes_a, boxes_b)
    events = sorted(
        (box[2 * first], side, index)
        for side, boxes in enumerate(sides)
        for index, box in enumerate(boxes)
    )
    entered, pairs = ([], []), []
    for _, side, index in events:
        for other in entered[1 - side]:
            if meet(sides[side][index], sides[1 - side][other]):
                pairs.append((index, other) if side == 0 else (other, index))
        entered[side].append(index)
    return pairs


def test_box_sweep_finds_every_pair_of_meeting_boxes():
    rng = random.Random(3)
    for _ in range(20):
        a, b = random_polygon(rng), random_polygon(rng)
        # The first polygon's boxes widened, as the distance checks widen them.
        for widen in (0.0, 0.1):
            boxes_a, boxes_b = segment_boxes(a, widen), segment_boxes(b)
            swept = list(hopf._overlapping(columns(a), columns(b), (0, 1, 2), widen))
            assert sorted(swept) == walked_pairs(boxes_a, boxes_b)
            assert swept == sweep_order(boxes_a, boxes_b, 0)
        # Flattened on x, then on y, the boxes all share that coordinate's
        # range; the sweep must find the same pairs along it and along every
        # other coordinate.
        for axis in (0, 1):
            flat_a, flat_b = flattened(a, axis), flattened(b, axis)
            boxes_a, boxes_b = segment_boxes(flat_a), segment_boxes(flat_b)
            walked = walked_pairs(boxes_a, boxes_b)
            for first in range(3):
                swept = list(hopf._overlapping(columns(flat_a), columns(flat_b), swept_along(first)))
                assert sorted(swept) == walked
                assert swept == sweep_order(boxes_a, boxes_b, first)


def test_hopf_imports_neither_heapq_nor_random():
    # One stable sort enters the boxes, and the pole order is fixed.
    assert not {"heapq", "random"} & set(vars(hopf))


# --------------------------------------------------------------------------
# The double cover
# --------------------------------------------------------------------------


def test_rot_from_quat_known_rotation():
    # exp(k pi/4) rotates by pi/2 about the z-axis: i -> j.
    q = (math.cos(math.pi / 4), 0.0, 0.0, math.sin(math.pi / 4))
    assert gap(apply(rot_from_quat(q), (1, 0, 0)), (0, 1, 0)) < 1e-12


def test_rot_from_quat_is_a_homomorphism():
    rng = random.Random(8)
    worst = 0.0
    for _ in range(200):
        a, b = random_unit_quaternion(rng), random_unit_quaternion(rng)
        lhs = rot_from_quat(qmul(a, b))
        rhs = matmul(rot_from_quat(a), rot_from_quat(b))
        worst = max(worst, gap(lhs, rhs))
    assert worst < 1e-12


def test_rot_from_quat_identifies_antipodes():
    rng = random.Random(9)
    for _ in range(50):
        q = random_unit_quaternion(rng)
        assert gap(rot_from_quat(q), rot_from_quat(negate(q))) < 1e-15


def test_rot_from_quat_rejects_non_unit():
    with pytest.raises(ValueError):
        rot_from_quat((1.0, 1.0, 1.0, 1.0))


def test_quat_from_rot_rejects_non_rotations():
    with pytest.raises(ValueError, match="3x3"):
        quat_from_rot(((1.0, 0.0), (0.0, 1.0)))
    skewed = ((1.0, 1e-8, 0.0), EYE[1], EYE[2])
    with pytest.raises(ValueError, match="orthogonal"):
        quat_from_rot(skewed)
    with pytest.raises(ValueError, match="orthogonal"):
        quat_from_rot(tuple(tuple(2.0 * c for c in row) for row in EYE))
    with pytest.raises(ValueError, match="determinant"):
        quat_from_rot((EYE[0], EYE[1], (0.0, 0.0, -1.0)))
    rng = random.Random(11)
    for _ in range(20):
        m = rot_from_quat(random_unit_quaternion(rng))
        with pytest.raises(ValueError, match="determinant"):
            quat_from_rot((m[1], m[0], m[2]))


def test_quat_from_rot_inverts_up_to_sign():
    rng = random.Random(10)
    for _ in range(100):
        q = random_unit_quaternion(rng)
        back = quat_from_rot(rot_from_quat(q))
        assert min(gap(back, q), gap(back, negate(q))) < 1e-9


def test_quat_from_rot_near_angle_pi():
    # Max-trace extraction stays stable where the trace is lowest.
    for axis in EYE:
        r = ball_to_rotation([math.pi * c for c in axis])
        q = quat_from_rot(r)
        assert gap(rot_from_quat(q), r) < 1e-12


# --------------------------------------------------------------------------
# The ball model
# --------------------------------------------------------------------------


def test_ball_points_canonicalize_boundary_antipodes():
    top = _canonical(0.0, 0.0, math.pi)
    bottom = _canonical(0.0, 0.0, -math.pi)
    assert bottom == top
    interior = _canonical(0.0, 0.0, -1.0)
    assert interior[2] == -1.0  # interior points are untouched


def test_ball_points_reject_outside():
    with pytest.raises(ValueError):
        _canonical(0.0, 0.0, math.pi + 1e-6)


def test_ball_to_rotation_identity_and_antipodes():
    assert gap(ball_to_rotation([0.0, 0.0, 0.0]), EYE) == 0.0
    v = [math.pi * c / 3.0 for c in (1.0, 2.0, 2.0)]
    antipode = [-c for c in v]
    assert gap(ball_to_rotation(v), ball_to_rotation(antipode)) < 1e-12


def test_ball_to_rotation_rotates_by_norm():
    r = ball_to_rotation([0.0, 0.0, math.pi / 2])
    assert gap(apply(r, (1, 0, 0)), (0, 1, 0)) < 1e-12


# --------------------------------------------------------------------------
# The explicit loops and homotopies
# --------------------------------------------------------------------------


def grid(count):
    return [k / (count - 1) for k in range(count)]


def test_loop_point_endpoints_close_in_the_quotient():
    for name in ("gamma", "alpha", "beta"):
        start = loop_point(name, 0.0)
        end = loop_point(name, 1.0)
        assert gap(start, end) < 1e-9


def test_homotopy_connects_gamma_to_the_target():
    for variant in ("alpha", "beta"):
        for t in grid(9):
            at0 = homotopy_H(variant, 0.0, t)
            assert gap(at0, loop_point("gamma", t)) < 1e-9
            at1 = homotopy_H(variant, 1.0, t)
            assert gap(at1, loop_point(variant, t)) < 1e-9


def test_homotopy_stays_in_the_ball():
    for variant in ("alpha", "beta"):
        for s in grid(5):
            for t in grid(17):
                assert math.hypot(*homotopy_H(variant, s, t)) <= math.pi + 1e-9


def test_homotopy_rejects_gamma_and_bad_parameters():
    with pytest.raises(ValueError):
        homotopy_H("gamma", 0.5, 0.5)
    with pytest.raises(ValueError):
        homotopy_H("alpha", 1.5, 0.5)
    with pytest.raises(ValueError):
        loop_point("gamma", 2.0)


def test_displayed_matrices_match_the_ball_model():
    # The alpha/beta matrix paths equal the Rodrigues rotation of the
    # boundary semicircles exactly (to rounding).
    for name in ("alpha", "beta"):
        for t in grid(33):
            displayed = matrix_path(name, t)
            modeled = ball_to_rotation(loop_point(name, t))
            assert gap(displayed, modeled) < 1e-12


def test_gamma_matrix_path_period_is_two():
    closed = matrix_path("gamma", 0.0)
    assert gap(matrix_path("gamma", 2.0), closed) < 1e-12
    assert gap(matrix_path("gamma", 1.0), closed) > 1.0


# --------------------------------------------------------------------------
# Monodromy
# --------------------------------------------------------------------------


def test_gamma_lift_is_essential():
    sign = lift_loop(loop_matrices("gamma", 512))
    assert sign == -1


def test_gamma_twice_is_nullhomotopic():
    sign = lift_loop(loop_matrices("gamma", 512, turns=2))
    assert sign == 1


def test_monodromy_stable_under_refinement():
    signs = {lift_loop(loop_matrices("gamma", n)) for n in (256, 1024, 4096)}
    assert signs == {-1}


def test_alpha_beta_and_their_concatenation():
    assert lift_loop(loop_matrices("alpha", 512)) == -1
    assert lift_loop(loop_matrices("beta", 512)) == -1
    assert lift_loop(loop_matrices("alpha-then-beta", 512)) == 1


def test_monodromy_constant_along_the_homotopy():
    for s in (0.0, 0.25, 0.5, 0.75, 1.0):
        mats = homotopy_slice_matrices("alpha", s, 512)
        assert lift_loop(mats) == -1


def test_ball_gamma_agrees_with_matrix_gamma():
    assert lift_loop(loop_matrices("ball-gamma", 512)) == -1


def test_identity_loop_is_trivial():
    sign = lift_loop(loop_matrices("identity", 512))
    assert sign == 1


def test_lift_returns_continuous_unit_path():
    # The lift that lift_loop walks without keeping it, built here from
    # quat_from_rot: each preimage is the one nearer the previous point.
    points = []
    for rotation in loop_matrices("gamma", 512):
        q = quat_from_rot(rotation)
        if points and sum(a * b for a, b in zip(q, points[-1])) < 0:
            q = tuple(-c for c in q)
        points.append(q)
    assert max(abs(math.hypot(*p) - 1.0) for p in points) < 1e-9
    dots = [sum(a * b for a, b in zip(p, q)) for p, q in zip(points[1:], points)]
    assert min(dots) > 0.99  # consecutive lifts stay on the same sheet
    sign = 1 if sum(a * b for a, b in zip(points[0], points[-1])) > 0 else -1
    assert sign == lift_loop(loop_matrices("gamma", 512)) == -1


def test_lift_loop_rejects_open_and_jumpy_paths():
    open_path = list(loop_matrices("gamma", 512))[:300]  # ends mid-rotation
    with pytest.raises(ValueError):
        lift_loop(open_path)
    # 20 turns over 300 steps jumps ~0.42 radians per step: rejected.
    with pytest.raises(ValueError):
        lift_loop(loop_matrices("gamma", 300, turns=20))
    with pytest.raises(ValueError):
        lift_loop(list(loop_matrices("gamma", 512))[:100])  # too few samples
