"""Quaternion geometry: the Hopf map, fiber linking, the double cover, and
rotation-loop monodromy."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stemcert import _kernels
from stemcert.errors import ResamplePole, VerificationError
from stemcert.hopf import (
    BallPoint,
    Quaternion,
    Rotation3,
    SampledCurve,
    ball_to_rotation,
    choose_pole,
    curve_from_json,
    curve_to_json,
    fiber_curve,
    fiber_linking,
    gauss_linking,
    _project_curve,
    homotopy_H,
    homotopy_slice_matrices,
    hopf_map,
    hurwitz_units,
    lift_loop,
    loop_matrices,
    loop_point,
    matrix_path,
    qmul,
    quat_from_rot,
    random_sphere_point,
    rot_from_quat,
    stereographic,
    stereographic_inverse,
    unlinked_control,
)

ONE = Quaternion(1, 0, 0, 0)
I = Quaternion(0, 1, 0, 0)
J = Quaternion(0, 0, 1, 0)
K = Quaternion(0, 0, 0, 1)


def random_unit_quaternion(rng):
    v = rng.normal(size=4)
    return Quaternion(*(v / np.linalg.norm(v)))


# --------------------------------------------------------------------------
# Quaternion algebra
# --------------------------------------------------------------------------


def test_hamilton_table():
    assert qmul(I, J).as_array().tolist() == K.as_array().tolist()
    assert qmul(J, K).as_array().tolist() == I.as_array().tolist()
    assert qmul(K, I).as_array().tolist() == J.as_array().tolist()
    for unit in (I, J, K):
        assert qmul(unit, unit).as_array().tolist() == [-1, 0, 0, 0]
    assert qmul(I, J).as_array().tolist() != qmul(J, I).as_array().tolist()


def test_norm_is_multiplicative():
    rng = np.random.default_rng(3)
    for _ in range(50):
        a = Quaternion(*rng.normal(size=4))
        b = Quaternion(*rng.normal(size=4))
        assert math.isclose(qmul(a, b).norm(), a.norm() * b.norm(), rel_tol=1e-12)


def test_conjugate_reverses_products():
    rng = np.random.default_rng(4)
    for _ in range(20):
        a, b = random_unit_quaternion(rng), random_unit_quaternion(rng)
        lhs = qmul(a, b).conjugate().as_array()
        rhs = qmul(b.conjugate(), a.conjugate()).as_array()
        assert np.abs(lhs - rhs).max() < 1e-12


# --------------------------------------------------------------------------
# The Hopf map and its fibers
# --------------------------------------------------------------------------


def test_hopf_map_base_cases():
    assert np.allclose(hopf_map(ONE), [1, 0, 0])
    assert np.allclose(hopf_map(I), [1, 0, 0])
    assert np.allclose(hopf_map(J), [-1, 0, 0])
    assert np.allclose(hopf_map(K), [-1, 0, 0])


def test_hopf_map_lands_on_sphere():
    rng = np.random.default_rng(5)
    for _ in range(100):
        p = hopf_map(random_unit_quaternion(rng))
        assert abs(np.linalg.norm(p) - 1.0) < 1e-12


def test_hopf_map_is_constant_on_circle_orbits():
    rng = np.random.default_rng(6)
    for _ in range(30):
        q = random_unit_quaternion(rng)
        theta = rng.uniform(0, 2 * math.pi)
        rotated = qmul(Quaternion(math.cos(theta), math.sin(theta), 0, 0), q)
        assert np.abs(hopf_map(q) - hopf_map(rotated)).max() < 1e-12


def test_hopf_map_rejects_non_unit():
    with pytest.raises(ValueError):
        hopf_map(Quaternion(1, 1, 0, 0))


def test_fiber_over_i_is_the_stabilizer_circle():
    curve = fiber_curve([1.0, 0.0, 0.0], samples=64)
    assert curve.closed
    # {cos t + i sin t}: the j and k components vanish identically.
    assert np.abs(curve.points[:, 2:]).max() < 1e-12
    assert np.abs(np.linalg.norm(curve.points, axis=1) - 1.0).max() < 1e-12


def test_fiber_over_minus_i_maps_back():
    curve = fiber_curve([-1.0, 0.0, 0.0], samples=64)
    w, x, y, z = curve.points.T
    images = np.stack(
        [w**2 + x**2 - y**2 - z**2, 2 * (x * y - w * z), 2 * (w * y + x * z)],
        axis=1,
    )
    assert np.abs(images - np.array([-1.0, 0.0, 0.0])).max() < 1e-9


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_fiber_samples_all_map_to_base(seed):
    rng = np.random.default_rng(seed)
    p = random_sphere_point(rng)
    curve = fiber_curve(p, samples=48)
    for row in curve.points[:: 8]:
        assert np.abs(hopf_map(Quaternion(*row)) - p).max() < 1e-9


def test_fiber_curve_validation():
    with pytest.raises(ValueError):
        fiber_curve([1.0, 1.0, 0.0], samples=64)  # not on the sphere
    with pytest.raises(ValueError):
        fiber_curve([1.0, 0.0, 0.0], samples=8)  # too few samples


# --------------------------------------------------------------------------
# Stereographic projection and pole choice
# --------------------------------------------------------------------------


def test_stereographic_round_trip():
    rng = np.random.default_rng(7)
    pole = np.array([-1.0, 0.0, 0.0, 0.0])
    for _ in range(50):
        q = random_unit_quaternion(rng).as_array()
        if np.linalg.norm(q - pole) <= 1e-3:
            continue
        v = stereographic(q, pole)
        assert np.abs(stereographic_inverse(v, pole) - q).max() < 1e-9


def test_stereographic_rejects_pole_neighborhood():
    pole = np.array([-1.0, 0.0, 0.0, 0.0])
    with pytest.raises(ResamplePole):
        stereographic(pole, pole)


def test_hurwitz_units_are_24_distinct_unit_vectors():
    units = hurwitz_units()
    assert units.shape == (24, 4)
    assert np.abs(np.linalg.norm(units, axis=1) - 1.0).max() < 1e-12
    assert len({tuple(u) for u in units}) == 24


def test_choose_pole_default_and_reroll():
    # A fiber far from -1 keeps the default pole.
    clear = fiber_curve([0.0, 0.0, 1.0], samples=64)
    assert np.allclose(choose_pole([clear]), [-1.0, 0.0, 0.0, 0.0])
    # The fiber over i passes through -1 itself, forcing a re-choice.
    through_pole = fiber_curve([1.0, 0.0, 0.0], samples=256)
    pole = choose_pole([through_pole], rng=0)
    assert np.linalg.norm(through_pole.points - pole, axis=1).min() > 1e-3


# --------------------------------------------------------------------------
# Gauss linking
# --------------------------------------------------------------------------


def test_unlinked_control_is_zero():
    assert abs(gauss_linking(*unlinked_control(samples=256))) < 0.02


def test_hopf_fibers_link_once():
    lk = fiber_linking([0.0, 0.0, 1.0], [0.0, 0.0, -1.0], samples=256)
    assert abs(abs(lk) - 1.0) < 0.02


def test_fiber_linking_survives_pole_reroll():
    # One fiber passes through the default pole; the result must not change.
    lk = fiber_linking([1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], samples=256, rng=0)
    assert abs(abs(lk) - 1.0) < 0.02


def test_linking_sign_flips_with_orientation():
    a = fiber_curve([0.0, 0.0, 1.0], samples=256)
    b = fiber_curve([0.0, 0.0, -1.0], samples=256)
    pole = choose_pole([a, b])
    basis_images = []
    for curve in (a, b):
        pts = (curve.points @ _basis(pole).T) / (1.0 - curve.points @ pole)[:, None]
        basis_images.append(pts)
    fwd = gauss_linking(
        SampledCurve(basis_images[0], closed=True),
        SampledCurve(basis_images[1], closed=True),
    )
    rev = gauss_linking(
        SampledCurve(basis_images[0][::-1], closed=True),
        SampledCurve(basis_images[1], closed=True),
    )
    assert abs(fwd + rev) < 1e-9


def _basis(pole):
    from stemcert.hopf import _pole_basis

    return _pole_basis(pole)


def test_gauss_linking_validation():
    circle, far = unlinked_control(samples=128)
    open_curve = SampledCurve(circle.points[:-1], closed=False)
    with pytest.raises(ValueError):
        gauss_linking(open_curve, far)
    tiny, _ = unlinked_control(samples=32)
    with pytest.raises(ValueError):
        gauss_linking(tiny, far)
    with pytest.raises(ValueError):
        gauss_linking(circle, circle)  # zero separation


def einsum_gauss_sum(mid_a, seg_a, mid_b, seg_b):
    """The Gauss double sum on full (N, N, 3) arrays: the reference for the
    blocked kernel."""
    diff = mid_a[:, None, :] - mid_b[None, :, :]
    cross = np.cross(seg_a[:, None, :], seg_b[None, :, :])
    dist2 = np.einsum("ijk,ijk->ij", diff, diff)
    triple = np.einsum("ijk,ijk->ij", cross, diff)
    return float(np.sum(triple / (dist2 * np.sqrt(dist2))))


@pytest.mark.parametrize("samples", [64, 255, 256, 257, 1024])
def test_blocked_gauss_sum_matches_the_full_array_reference(samples):
    # 255/256/257 sit on the edge of a 256-row block, 1024 spans four.
    a = fiber_curve([0.0, 0.6, 0.8], samples)
    b = fiber_curve([0.8, 0.0, -0.6], samples)
    pole = choose_pole([a, b])
    pairs = [
        (_project_curve(a, pole), _project_curve(b, pole)),
        unlinked_control(samples=samples),
    ]
    for first, second in pairs:
        args = (*first.segments(), *second.segments())
        assert abs(_kernels.gauss_linking_sum(*args) - einsum_gauss_sum(*args)) < 1e-12


def test_gauss_linking_rejects_curves_1e_3_apart():
    circle, _ = unlinked_control(samples=128)
    lifted = SampledCurve(circle.points + [0.0, 0.0, 1e-3], closed=True)
    with pytest.raises(ValueError, match="intersect"):
        gauss_linking(circle, lifted)


@pytest.mark.parametrize("gap,rejected", [(5e-4, True), (2e-3, False)])
def test_separation_check_reaches_the_last_block(gap, rejected):
    # Only sample 768 of the first curve (row block 3 of 4) comes near the
    # second curve, at the given gap.
    circle, _ = unlinked_control(samples=1024)
    theta = np.linspace(0.0, 2.0 * math.pi, 1025)
    ring = np.stack(
        [np.zeros_like(theta), np.cos(theta) - 2.0 - gap, np.sin(theta)], axis=1
    )
    other = SampledCurve(ring, closed=True)
    for pair in ((circle, other), (other, circle)):
        if rejected:
            with pytest.raises(ValueError, match="intersect"):
                gauss_linking(*pair)
        else:
            assert math.isfinite(gauss_linking(*pair))


def test_curve_json_round_trip():
    curve = fiber_curve([0.0, 1.0, 0.0], samples=32)
    back = curve_from_json(curve_to_json(curve))
    assert back.closed
    assert np.abs(back.points - curve.points).max() == 0.0


# --------------------------------------------------------------------------
# The double cover
# --------------------------------------------------------------------------


def test_rot_from_quat_known_rotation():
    # exp(k pi/4) rotates by pi/2 about the z-axis: i -> j.
    q = Quaternion(math.cos(math.pi / 4), 0, 0, math.sin(math.pi / 4))
    image = np.asarray(rot_from_quat(q).apply([1, 0, 0]))
    assert np.abs(image - [0, 1, 0]).max() < 1e-12


def test_rot_from_quat_is_a_homomorphism():
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(200):
        a, b = random_unit_quaternion(rng), random_unit_quaternion(rng)
        lhs = np.asarray(rot_from_quat(qmul(a, b)).matrix)
        rhs = np.asarray(rot_from_quat(a).matrix) @ np.asarray(rot_from_quat(b).matrix)
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    assert worst < 1e-12


def test_rot_from_quat_identifies_antipodes():
    rng = np.random.default_rng(9)
    for _ in range(50):
        q = random_unit_quaternion(rng)
        diff = np.asarray(rot_from_quat(q).matrix) - rot_from_quat(-q).matrix
        assert np.abs(diff).max() < 1e-15


def test_rot_from_quat_rejects_non_unit():
    with pytest.raises(ValueError):
        rot_from_quat(Quaternion(1, 1, 1, 1))


def test_rotation3_rejects_non_rotations():
    with pytest.raises(ValueError, match="3x3"):
        Rotation3(np.eye(2))
    skewed = np.eye(3)
    skewed[0, 1] = 1e-8
    with pytest.raises(ValueError, match="orthogonal"):
        Rotation3(skewed)
    with pytest.raises(ValueError, match="orthogonal"):
        Rotation3(2.0 * np.eye(3))
    with pytest.raises(ValueError, match="determinant"):
        Rotation3(np.diag([1.0, 1.0, -1.0]))
    rng = np.random.default_rng(11)
    for _ in range(20):
        m = np.asarray(rot_from_quat(random_unit_quaternion(rng)).matrix)
        with pytest.raises(ValueError, match="determinant"):
            Rotation3(m[[1, 0, 2]])


def test_quat_from_rot_inverts_up_to_sign():
    rng = np.random.default_rng(10)
    for _ in range(100):
        q = random_unit_quaternion(rng).as_array()
        back = quat_from_rot(rot_from_quat(Quaternion(*q)))
        assert min(np.abs(back - q).max(), np.abs(back + q).max()) < 1e-9


def test_quat_from_rot_near_angle_pi():
    # Max-trace extraction stays stable where the trace is lowest.
    for axis in np.eye(3):
        r = ball_to_rotation(math.pi * axis)
        q = quat_from_rot(r)
        back = np.asarray(rot_from_quat(Quaternion(*q)).matrix)
        assert np.abs(back - np.asarray(r.matrix)).max() < 1e-12


# --------------------------------------------------------------------------
# The ball model
# --------------------------------------------------------------------------


def test_ball_point_canonicalizes_boundary_antipodes():
    top = BallPoint(0.0, 0.0, math.pi)
    bottom = BallPoint(0.0, 0.0, -math.pi)
    assert (bottom.x, bottom.y, bottom.z) == (top.x, top.y, top.z)
    interior = BallPoint(0.0, 0.0, -1.0)
    assert interior.z == -1.0  # interior points are untouched


def test_ball_point_rejects_outside():
    with pytest.raises(ValueError):
        BallPoint(0.0, 0.0, math.pi + 1e-6)


def test_ball_to_rotation_identity_and_antipodes():
    origin = np.asarray(ball_to_rotation([0.0, 0.0, 0.0]).matrix)
    assert np.abs(origin - np.eye(3)).max() == 0.0
    v = np.array([1.0, 2.0, 2.0])
    v = math.pi * v / np.linalg.norm(v)
    diff = np.asarray(ball_to_rotation(v).matrix) - ball_to_rotation(-v).matrix
    assert np.abs(diff).max() < 1e-12


def test_ball_to_rotation_rotates_by_norm():
    r = ball_to_rotation([0.0, 0.0, math.pi / 2])
    assert np.abs(np.asarray(r.apply([1, 0, 0])) - [0, 1, 0]).max() < 1e-12


# --------------------------------------------------------------------------
# The explicit loops and homotopies
# --------------------------------------------------------------------------


def test_loop_point_endpoints_close_in_the_quotient():
    for name in ("gamma", "alpha", "beta"):
        start = loop_point(name, 0.0)
        end = loop_point(name, 1.0)
        assert np.abs(np.asarray(start.as_tuple()) - end.as_tuple()).max() < 1e-9


def test_homotopy_connects_gamma_to_the_target():
    for variant in ("alpha", "beta"):
        for t in np.linspace(0, 1, 9):
            at0 = np.asarray(homotopy_H(variant, 0.0, t).as_tuple())
            gamma = np.asarray(loop_point("gamma", t).as_tuple())
            assert np.abs(at0 - gamma).max() < 1e-9
            at1 = np.asarray(homotopy_H(variant, 1.0, t).as_tuple())
            target = np.asarray(loop_point(variant, t).as_tuple())
            assert np.abs(at1 - target).max() < 1e-9


def test_homotopy_stays_in_the_ball():
    for variant in ("alpha", "beta"):
        for s in np.linspace(0, 1, 5):
            for t in np.linspace(0, 1, 17):
                assert homotopy_H(variant, s, t).norm() <= math.pi + 1e-9


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
        for t in np.linspace(0, 1, 33):
            displayed = np.asarray(matrix_path(name, t).matrix)
            modeled = np.asarray(ball_to_rotation(loop_point(name, t)).matrix)
            assert np.abs(displayed - modeled).max() < 1e-12


def test_gamma_matrix_path_period_is_two():
    closed = np.asarray(matrix_path("gamma", 0.0).matrix)
    assert np.abs(np.asarray(matrix_path("gamma", 2.0).matrix) - closed).max() < 1e-12
    assert np.abs(np.asarray(matrix_path("gamma", 1.0).matrix) - closed).max() > 1.0


# --------------------------------------------------------------------------
# Monodromy
# --------------------------------------------------------------------------


def test_gamma_lift_is_essential():
    _, sign = lift_loop(loop_matrices("gamma", 512))
    assert sign == -1


def test_gamma_twice_is_nullhomotopic():
    _, sign = lift_loop(loop_matrices("gamma", 512, turns=2))
    assert sign == 1


def test_monodromy_stable_under_refinement():
    signs = {lift_loop(loop_matrices("gamma", n))[1] for n in (256, 1024, 4096)}
    assert signs == {-1}


def test_alpha_beta_and_their_concatenation():
    assert lift_loop(loop_matrices("alpha", 512))[1] == -1
    assert lift_loop(loop_matrices("beta", 512))[1] == -1
    assert lift_loop(loop_matrices("alpha-then-beta", 512))[1] == 1


def test_monodromy_constant_along_the_homotopy():
    for s in (0.0, 0.25, 0.5, 0.75, 1.0):
        mats = homotopy_slice_matrices("alpha", s, 512)
        assert lift_loop(mats)[1] == -1


def test_ball_gamma_agrees_with_matrix_gamma():
    assert lift_loop(loop_matrices("ball-gamma", 512))[1] == -1


def test_identity_loop_is_trivial():
    _, sign = lift_loop(loop_matrices("identity", 512))
    assert sign == 1


def test_lift_returns_continuous_unit_path():
    path, _ = lift_loop(loop_matrices("gamma", 512))
    points = np.asarray(path.points)
    norms = np.linalg.norm(points, axis=1)
    assert np.abs(norms - 1.0).max() < 1e-9
    dots = np.sum(points[1:] * points[:-1], axis=1)
    assert dots.min() > 0.99  # consecutive lifts stay on the same sheet


def test_lift_loop_rejects_open_and_jumpy_paths():
    open_path = loop_matrices("gamma", 512)[:300]  # ends mid-rotation
    with pytest.raises(ValueError):
        lift_loop(open_path)
    # 20 turns over 300 steps jumps ~0.42 radians per step: rejected.
    with pytest.raises(ValueError):
        lift_loop(loop_matrices("gamma", 300, turns=20))
    with pytest.raises(ValueError):
        lift_loop(loop_matrices("gamma", 512)[:100])  # too few samples


def test_lift_loop_accepts_callables():
    _, sign = lift_loop(lambda t: matrix_path("gamma", 2.0 * t), steps=512)
    assert sign == -1
