"""The stdlib SO(3) code against the numpy formulas it replaced.

``numpy_ball_to_rotation`` and ``numpy_quat_from_rot`` are the array
versions that ``stemcert.hopf`` used before the rotations moved to
``stemcert.so3``; they stay here as the reference, and the tests that use
them skip where numpy is not installed.
"""

import math
import tracemalloc

import pytest

from stemcert import so3
from stemcert.so3 import (
    ball_to_rotation,
    homotopy_H,
    homotopy_slice_matrices,
    lift_loop,
    loop_matrices,
    loop_point,
    matrix_path,
    quat_from_rot,
)

LOOPS = ("gamma", "alpha", "beta", "alpha-then-beta", "ball-gamma", "identity")


def numpy_ball_to_rotation(v):
    """Rodrigues' formula ``I + sin(theta) k + (1 - cos(theta)) k @ k``."""
    np = pytest.importorskip("numpy")
    v = np.asarray(v, dtype=float)
    theta = np.linalg.norm(v)
    if theta < 1e-15:
        return np.eye(3)
    u = v / theta
    k = np.array([[0.0, -u[2], u[1]], [u[2], 0.0, -u[0]], [-u[1], u[0], 0.0]])
    return np.eye(3) + math.sin(theta) * k + (1.0 - math.cos(theta)) * (k @ k)


def numpy_branch(m):
    """Which formula the max-trace extraction uses: "trace" or a diagonal index."""
    np = pytest.importorskip("numpy")
    return "trace" if float(np.trace(m)) > 0 else int(np.argmax(np.diag(m)))


def numpy_quat_from_rot(m):
    np = pytest.importorskip("numpy")
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
    np = pytest.importorskip("numpy")
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
    np = pytest.importorskip("numpy")
    rng = np.random.default_rng(13)
    directions = rng.normal(size=(200, 3))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    radii = math.pi * rng.random(200) ** (1 / 3)
    points = list(directions * radii[:, None]) + list(math.pi * directions)
    points += [sign * math.pi * axis for axis in np.eye(3) for sign in (1.0, -1.0)]
    return points + [np.zeros(3)]


def test_ball_to_rotation_matches_rodrigues_with_k_squared():
    np = pytest.importorskip("numpy")
    for v in ball_points():
        r = ball_to_rotation(v)
        assert np.abs(np.asarray(r) - numpy_ball_to_rotation(v)).max() < 1e-12


def test_quat_from_rot_matches_the_numpy_extraction_on_all_four_branches():
    rotations = [ball_to_rotation(v) for v in ball_points()]
    branches = assert_quaternions_match(rotations)
    # Rotations by pi about the three axes pick the three diagonal branches.
    assert branches == {"trace", 0, 1, 2}


def test_quat_from_rot_reads_rows_lists_and_numpy_rows_alike():
    np = pytest.importorskip("numpy")
    rows = [ball_to_rotation(v) for v in ball_points()]
    array = np.asarray(rows)
    for k, matrix in enumerate(rows):
        q = quat_from_rot(matrix)
        assert quat_from_rot([list(row) for row in matrix]) == q
        assert quat_from_rot(array[k]) == q


@pytest.mark.parametrize("turns", [1, 2])
@pytest.mark.parametrize("name", LOOPS)
def test_every_loop_sample_matches_the_numpy_formulas(name, turns):
    np = pytest.importorskip("numpy")
    steps = 512
    samples = list(loop_matrices(name, steps, turns))
    assert len(samples) == steps + 1
    assert_quaternions_match(samples)
    if name == "ball-gamma":
        for k, sample in enumerate(samples):
            point = loop_point("gamma", turns * k / steps % 1.0)
            reference = numpy_ball_to_rotation(point)
            assert np.abs(np.asarray(sample) - reference).max() < 1e-12


@pytest.mark.parametrize("variant", ["alpha", "beta"])
@pytest.mark.parametrize("s", [0.0, 0.3, 1.0])
def test_every_homotopy_sample_matches_the_numpy_formulas(variant, s):
    np = pytest.importorskip("numpy")
    steps = 512
    samples = list(homotopy_slice_matrices(variant, s, steps))
    assert len(samples) == steps + 1
    assert_quaternions_match(samples)
    for k, sample in enumerate(samples):
        point = homotopy_H(variant, s, k / steps % 1.0)
        reference = numpy_ball_to_rotation(point)
        assert np.abs(np.asarray(sample) - reference).max() < 1e-12


@pytest.mark.parametrize("loop", LOOPS + ("homotopy",))
def test_each_loop_sample_is_checked_once(monkeypatch, loop):
    # The builders yield unchecked rows; lift_loop reads each sample through
    # quat_from_rot, and that alone checks it, once.
    calls = {"quat_from_rot": 0, "_rotation": 0}

    def counted(name):
        original = getattr(so3, name)

        def wrapper(matrix):
            calls[name] += 1
            return original(matrix)

        monkeypatch.setattr(so3, name, wrapper)

    counted("quat_from_rot")
    counted("_rotation")
    if loop == "homotopy":
        samples = homotopy_slice_matrices("beta", 0.5, 512)
    else:
        samples = loop_matrices(loop, 512)
    lift_loop(samples)
    assert calls == {"quat_from_rot": 513, "_rotation": 513}


def gamma_lists():
    """The 513 samples of the 512-step gamma loop as lists of lists."""
    return [[list(row) for row in m] for m in loop_matrices("gamma", 512)]


def lift_error(path):
    with pytest.raises(ValueError) as info:
        lift_loop(path)
    return str(info.value)


#: A bad sample, made from the sample it replaces, and the message naming it.
BAD_SAMPLES = {
    "not-3x3": (lambda m: [[1.0, 0.0], [0.0, 1.0]], "a rotation is a 3x3 matrix"),
    "non-orthogonal": (
        lambda m: [[m[0][0], m[0][1] + 1e-6, m[0][2]], m[1], m[2]],
        "matrix is not orthogonal within tolerance",
    ),
    "det-negative": (
        lambda m: [[-c for c in row] for row in m],
        "matrix must have positive determinant",
    ),
    "nan": (
        lambda m: [m[0], m[1], [m[2][0], m[2][1], math.nan]],
        "matrix is not orthogonal within tolerance",
    ),
}
#: Sample k replaced by sample k + 101 of gamma: 102 steps of 2 pi / 512.
JUMP_MESSAGE = f"discontinuity: consecutive rotations jump by angle {2 * math.pi * 102 / 512:.3f}"


@pytest.mark.parametrize("bad", sorted(BAD_SAMPLES))
def test_lift_loop_names_a_bad_sample_in_a_list_of_lists(bad):
    damage, message = BAD_SAMPLES[bad]
    path = gamma_lists()
    path[200] = damage(path[200])
    assert lift_error(path) == message


def test_lift_loop_names_a_jump_a_short_path_and_an_open_one_in_lists():
    path = gamma_lists()
    assert lift_loop(path) == -1
    assert lift_error(path[:100]) == "at least 256 steps are required"
    assert lift_error(path[:300]) == "the sampled path is not a closed loop"
    path[200] = path[301]
    assert lift_error(path) == JUMP_MESSAGE


@pytest.mark.parametrize("early", sorted(BAD_SAMPLES))
def test_lift_loop_reports_the_first_bad_sample_in_stream_order(early):
    damage, message = BAD_SAMPLES[early]
    for late, _ in BAD_SAMPLES.values():
        path = gamma_lists()
        path[100] = damage(path[100])
        path[200] = late(path[200])
        assert lift_error(path) == message
    # Before a later jump, in a path too short and not closed...
    path = gamma_lists()
    path[100] = damage(path[100])
    path[200] = path[301]
    assert lift_error(path[:250]) == message
    # ...and after an earlier jump, which wins.
    path = gamma_lists()
    path[100] = path[201]
    path[200] = damage(path[200])
    assert lift_error(path) == JUMP_MESSAGE


def test_lift_loop_accepts_numpy_arrays():
    np = pytest.importorskip("numpy")
    samples = np.asarray(list(loop_matrices("gamma", 512, turns=3)))
    assert samples.shape == (513, 3, 3)
    assert lift_loop(samples) == -1


def test_quat_from_rot_rejects_nan_entries():
    matrix = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, math.nan]]
    with pytest.raises(ValueError, match="orthogonal"):
        quat_from_rot(matrix)
    with pytest.raises(ValueError, match="outside"):
        ball_to_rotation([0.0, math.nan, 0.0])


ONE_TURN_SIGN = {
    "gamma": -1, "alpha": -1, "beta": -1, "alpha-then-beta": 1, "ball-gamma": -1,
    "identity": 1, "homotopy": -1,
}


@pytest.mark.parametrize("steps", [257, 1025])
@pytest.mark.parametrize("loop", sorted(ONE_TURN_SIGN))
def test_every_turn_count_is_rejected_or_lifts_to_the_right_sign(loop, steps):
    # A step of nearly a full turn looks like a small backward one to the
    # jump check of ``lift_loop``; before the speed bound, gamma at 256 turns
    # in 257 steps lifted to -1.  A ValueError is exit 2 on ``lift``.
    for turns in range(1, steps + 1):
        try:
            if loop == "homotopy":
                samples = homotopy_slice_matrices("alpha", 1.0, steps, turns)
            else:
                samples = loop_matrices(loop, steps, turns)
        except ValueError as exc:
            assert str(exc).startswith("discontinuity: ")
            continue
        assert lift_loop(samples) == ONE_TURN_SIGN[loop] ** turns, turns


@pytest.mark.parametrize(
    "build",
    [
        lambda: loop_matrices("gamma", 4096),
        lambda: homotopy_slice_matrices("beta", 0.5, 4096),
    ],
    ids=["gamma", "homotopy"],
)
def test_lifting_a_sample_stream_holds_a_few_samples(build):
    # The builder and the lift hold a few samples at a time; a list of the
    # 4097 samples alone, each three row tuples of floats, takes 1.1 MB
    # (gamma) to 1.8 MB (homotopy).
    tracemalloc.start()
    try:
        sign = lift_loop(build())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sign == -1
    assert peak < 64 * 1024


def test_builders_check_their_arguments_at_call_time_and_stream_once():
    with pytest.raises(ValueError, match="at least 256 steps"):
        loop_matrices("gamma", 255)
    with pytest.raises(ValueError, match="discontinuity: "):
        homotopy_slice_matrices("alpha", 1.0, 256, 16)
    with pytest.raises(ValueError, match="must lie in"):
        homotopy_slice_matrices("alpha", 1.5, 256)
    with pytest.raises(ValueError, match="target loop"):
        homotopy_slice_matrices("gamma", 0.5, 256)
    samples = loop_matrices("gamma", 512)
    assert lift_loop(samples) == -1
    # The iterator is spent: a second lift sees no samples at all.
    assert next(samples, None) is None
    with pytest.raises(ValueError, match="at least 256 steps"):
        lift_loop(samples)


def public_samples(loop, steps, turns, variant="alpha", s=1.0):
    """The samples of a sampled loop, each from the public point functions."""
    ts = [turns * k / steps for k in range(steps + 1)]
    if loop == "homotopy":
        return [ball_to_rotation(homotopy_H(variant, s, t % 1.0)) for t in ts]
    if loop == "identity":
        return [((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))] * len(ts)
    if loop == "ball-gamma":
        return [ball_to_rotation(loop_point("gamma", t % 1.0)) for t in ts]
    if loop == "alpha-then-beta":
        return [matrix_path("alpha" if t % 1.0 < 0.5 else "beta", 2.0 * t) for t in ts]
    return [matrix_path(loop, (2.0 if loop == "gamma" else 1.0) * t) for t in ts]


@pytest.mark.parametrize("turns", [1, 2])
@pytest.mark.parametrize("loop", LOOPS)
def test_loop_samples_are_the_public_path_values(loop, turns):
    assert list(loop_matrices(loop, 256, turns)) == public_samples(loop, 256, turns)


@pytest.mark.parametrize("turns", [1, 2])
@pytest.mark.parametrize("variant,s", [("alpha", 1.0), ("beta", 1.0), ("alpha", 0.0), ("beta", 0.37)])
def test_homotopy_samples_are_the_public_path_values(variant, s, turns):
    built = list(homotopy_slice_matrices(variant, s, 256, turns))
    assert built == public_samples("homotopy", 256, turns, variant, s)


def test_loop_matrices_reads_a_loop_name_as_matrix_path_does():
    # The name is normalized once, so gamma keeps its period of 2 and closes.
    assert list(loop_matrices(" Gamma", 256)) == list(loop_matrices("gamma", 256))
    assert lift_loop(loop_matrices("BETA", 256)) == -1
