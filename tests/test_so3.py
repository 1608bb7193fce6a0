"""The stdlib SO(3) code against the numpy formulas it replaced.

``numpy_ball_to_rotation`` and ``numpy_quat_from_rot`` are the array
versions that ``stemcert.hopf`` used before the rotations moved to
``stemcert.so3``; they stay here as the reference.
"""

import math

import numpy as np
import pytest

from stemcert.so3 import (
    Rotation3,
    ball_to_rotation,
    homotopy_H,
    homotopy_slice_matrices,
    lift_loop,
    loop_matrices,
    loop_point,
    quat_from_rot,
)

LOOPS = ("gamma", "alpha", "beta", "alpha-then-beta", "ball-gamma", "identity")


def numpy_ball_to_rotation(v) -> np.ndarray:
    """Rodrigues' formula ``I + sin(theta) k + (1 - cos(theta)) k @ k``."""
    v = np.asarray(v, dtype=float)
    theta = np.linalg.norm(v)
    if theta < 1e-15:
        return np.eye(3)
    u = v / theta
    k = np.array([[0.0, -u[2], u[1]], [u[2], 0.0, -u[0]], [-u[1], u[0], 0.0]])
    return np.eye(3) + math.sin(theta) * k + (1.0 - math.cos(theta)) * (k @ k)


def numpy_branch(m: np.ndarray):
    """Which formula the max-trace extraction uses: "trace" or a diagonal index."""
    return "trace" if float(np.trace(m)) > 0 else int(np.argmax(np.diag(m)))


def numpy_quat_from_rot(m: np.ndarray) -> np.ndarray:
    branch = numpy_branch(m)
    if branch == "trace":
        r = math.sqrt(1.0 + float(np.trace(m)))
        w = 0.5 * r
        x = (m[2, 1] - m[1, 2]) / (2.0 * r)
        y = (m[0, 2] - m[2, 0]) / (2.0 * r)
        z = (m[1, 0] - m[0, 1]) / (2.0 * r)
    elif branch == 0:
        r = math.sqrt(1.0 + m[0, 0] - m[1, 1] - m[2, 2])
        x = 0.5 * r
        w = (m[2, 1] - m[1, 2]) / (2.0 * r)
        y = (m[0, 1] + m[1, 0]) / (2.0 * r)
        z = (m[0, 2] + m[2, 0]) / (2.0 * r)
    elif branch == 1:
        r = math.sqrt(1.0 - m[0, 0] + m[1, 1] - m[2, 2])
        y = 0.5 * r
        w = (m[0, 2] - m[2, 0]) / (2.0 * r)
        x = (m[0, 1] + m[1, 0]) / (2.0 * r)
        z = (m[1, 2] + m[2, 1]) / (2.0 * r)
    else:
        r = math.sqrt(1.0 - m[0, 0] - m[1, 1] + m[2, 2])
        z = 0.5 * r
        w = (m[1, 0] - m[0, 1]) / (2.0 * r)
        x = (m[0, 2] + m[2, 0]) / (2.0 * r)
        y = (m[1, 2] + m[2, 1]) / (2.0 * r)
    return np.array([w, x, y, z])


def assert_quaternions_match(matrices):
    """``quat_from_rot`` equals the numpy extraction on every matrix; returns
    the branches used."""
    branches = set()
    for matrix in matrices:
        m = np.asarray(matrix)
        branches.add(numpy_branch(m))
        scalar = np.asarray(quat_from_rot(matrix))
        assert np.abs(scalar - numpy_quat_from_rot(m)).max() < 1e-12
    return branches


def ball_points():
    """Random points of the ball, points on its radius-pi boundary (random
    directions and the three axes, both signs), and the origin."""
    rng = np.random.default_rng(13)
    directions = rng.normal(size=(200, 3))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    radii = math.pi * rng.random(200) ** (1 / 3)
    points = list(directions * radii[:, None]) + list(math.pi * directions)
    points += [sign * math.pi * axis for axis in np.eye(3) for sign in (1.0, -1.0)]
    return points + [np.zeros(3)]


def test_ball_to_rotation_matches_rodrigues_with_k_squared():
    for v in ball_points():
        r = ball_to_rotation(v)
        assert np.abs(np.asarray(r.matrix) - numpy_ball_to_rotation(v)).max() < 1e-12


def test_quat_from_rot_matches_the_numpy_extraction_on_all_four_branches():
    rotations = [ball_to_rotation(v) for v in ball_points()]
    branches = assert_quaternions_match(r.matrix for r in rotations)
    # Rotations by pi about the three axes pick the three diagonal branches.
    assert branches == {"trace", 0, 1, 2}
    # A Rotation3 and its bare matrix give the same quaternion.
    assert all(quat_from_rot(r) == quat_from_rot(r.matrix) for r in rotations)


@pytest.mark.parametrize("turns", [1, 2])
@pytest.mark.parametrize("name", LOOPS)
def test_every_loop_sample_matches_the_numpy_formulas(name, turns):
    steps = 512
    samples = loop_matrices(name, steps, turns)
    assert len(samples) == steps + 1
    assert_quaternions_match(samples)
    if name == "ball-gamma":
        for k, sample in enumerate(samples):
            point = loop_point("gamma", turns * k / steps % 1.0).as_tuple()
            reference = numpy_ball_to_rotation(point)
            assert np.abs(np.asarray(sample) - reference).max() < 1e-12


@pytest.mark.parametrize("variant", ["alpha", "beta"])
@pytest.mark.parametrize("s", [0.0, 0.3, 1.0])
def test_every_homotopy_sample_matches_the_numpy_formulas(variant, s):
    steps = 512
    samples = homotopy_slice_matrices(variant, s, steps)
    assert len(samples) == steps + 1
    assert_quaternions_match(samples)
    for k, sample in enumerate(samples):
        point = homotopy_H(variant, s, k / steps % 1.0).as_tuple()
        reference = numpy_ball_to_rotation(point)
        assert np.abs(np.asarray(sample) - reference).max() < 1e-12


def test_lift_loop_rejects_one_non_orthogonal_sample():
    samples = loop_matrices("gamma", 512)
    assert lift_loop(samples)[1] == -1
    skewed = [list(row) for row in samples[300]]
    skewed[0][1] += 1e-6
    samples[300] = skewed
    with pytest.raises(ValueError, match="orthogonal"):
        lift_loop(samples)


def test_lift_loop_accepts_numpy_arrays():
    samples = np.asarray(loop_matrices("gamma", 512, turns=3))
    assert samples.shape == (513, 3, 3)
    assert lift_loop(samples)[1] == -1


def test_rotation3_rejects_nan_entries():
    matrix = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, math.nan]]
    with pytest.raises(ValueError, match="orthogonal"):
        Rotation3(matrix)
    with pytest.raises(ValueError, match="outside"):
        ball_to_rotation([0.0, math.nan, 0.0])
