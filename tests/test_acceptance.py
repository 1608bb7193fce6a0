"""Acceptance gate: twelve pass/fail criteria with pinned tolerances and
runtime budgets.

Each test prints one ``[criterion NN] PASS`` line (visible with ``-s`` or in
failure output); under ``pytest -v`` the test names themselves give the
one-line-per-criterion report.  Runtime budgets are enforced with
``time.perf_counter`` around the measured computation (imports and cache
warm-up excluded).
"""

import math
import random
import time
from fractions import Fraction

from stemcert import einv, hopf, jorder, so3
from stemcert.kring import (
    LaurentPoly,
    adams,
    laurent_to_phi,
    make_ring,
    parse_space,
    symmetric_reduce,
)
from stemcert.derivation import StepStatus
from stemcert.reports import build_stem_report, eta_order_chain


def _passed(n, detail):
    print(f"[criterion {n:02d}] PASS — {detail}")


def _timed(fn, *args, repeats=1, **kwargs):
    best = math.inf
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        best = min(best, time.perf_counter() - t0)
    return result, best


def ring(name):
    return make_ring(parse_space(name))


def test_criterion_01_adams_formula_on_cp2():
    model = ring("cp2")
    mu = model.generator()
    adams(2, mu)  # warm-up (ring caches, import costs)
    image, elapsed = _timed(adams, 2, mu, repeats=5)
    assert str(image) == "2μ + μ²"
    assert image.coeffs == (2, 1)
    assert elapsed < 1e-3
    _passed(1, f"psi^2(mu) = 2mu + mu^2 in {elapsed * 1e6:.0f} us")


def test_criterion_02_smash_nonsplitting_with_conjugacy_oracle():
    model = ring("s2-smash-cp2")
    cert = einv.splitting_verdict(model, [2, 3, 5, 7])
    assert cert.verdict is einv.Verdict.DOES_NOT_SPLIT
    for k in (2, 3, 5, 7):
        assert einv.e_invariant(model, k) == Fraction(1, 2)

    def oracle_all():
        return [
            einv.conjugacy_witness(einv.two_cell_from(model, k), bound=20)
            for k in (2, 3, 5, 7)
        ]

    witnesses, elapsed = _timed(oracle_all)
    assert witnesses == [None, None, None, None]  # brute force agrees: no split
    assert elapsed < 5.0
    _passed(2, f"DoesNotSplit, e = 1/2 at k in {{2,3,5,7}}; oracle in {elapsed:.2f} s")


def test_criterion_03_hp2_nonsplitting():
    model = ring("hp2")

    def compute():
        return (
            einv.e_invariant(model, 2),
            einv.e_invariant(model, 3),
            einv.order_lower_bound(model, 2),
        )

    compute()  # warm-up
    (e2, e3, lower), elapsed = _timed(compute, repeats=5)
    assert e2 == Fraction(1, 12)
    assert e3 == Fraction(1, 12)
    assert lower == 12
    assert elapsed < 1e-3
    _passed(3, f"e(HP^2) = 1/12 at k = 2, 3; lower bound 12 in {elapsed * 1e6:.0f} us")


def test_criterion_04_eta_square_chain_replays():
    steps = eta_order_chain({})
    square = steps[1]
    assert square.evidence == {
        "check": "eta_square_identity",
        "inputs": {},
        "outputs": {"a": -1, "b": 2},
    }
    realified = steps[2]
    outputs = realified.evidence["outputs"]
    assert outputs["rank"] == 2 and outputs["reduced"] == 0
    report = build_stem_report(1)
    assert report.replay() is True
    _passed(4, "eta^2 = 2*eta - 1; realification reduced part 0; report replays")


def test_criterion_05_the_24_three_ways_and_extended_table():
    def all_methods():
        head = (
            jorder.stabilized_gcd(2, K=200, N=12).value,
            jorder.m_closed_form(2),
            jorder.m_via_bernoulli(1),
        )
        table = {
            t: (
                jorder.stabilized_gcd(t).value,
                jorder.m_closed_form(t),
                jorder.m_via_bernoulli(t // 2),
            )
            for t in range(2, 26, 2)
        }
        return head, table

    (head, table), elapsed = _timed(all_methods)
    assert head == (24, 24, 24)
    expected = [24, 240, 504, 480, 264, 65520, 24, 16320, 28728, 13200, 552, 131040]
    for t, value in zip(range(2, 26, 2), expected):
        assert table[t] == (value, value, value)
    assert elapsed < 2.0
    _passed(5, f"m(2) = 24 three ways; even t <= 24 agree in {elapsed:.2f} s")


def test_criterion_06_bernoulli_recurrence_and_von_staudt_clausen():
    from stemcert.exact import is_prime

    def compute():
        assert jorder.bernoulli(2) == Fraction(1, 6)
        assert jorder.bernoulli(4) == Fraction(-1, 30)
        for n in range(2, 62, 2):
            expected = 1
            for p in range(2, n + 2):
                if is_prime(p) and n % (p - 1) == 0:
                    expected *= p
            assert jorder.bernoulli(n).denominator == expected

    _, elapsed = _timed(compute)
    assert elapsed < 1.0
    _passed(6, f"B_2 = 1/6, B_4 = -1/30; denominators match to n = 60 in {elapsed:.2f} s")


def test_criterion_07_feder_gitler_and_thom_cells():
    assert jorder.feder_gitler_equivalent(1, 12, 0, Bn=24) is False
    assert jorder.feder_gitler_equivalent(1, 24, 0) is True
    cells = jorder.thom_space("quaternionic", 1, 24).cell_dimensions()
    assert set(cells) == {96, 100}
    _passed(7, "k = 12 vs 0 inequivalent, 24 vs 0 equivalent; cells {96, 100}")


def _unit_quaternion(rng):
    v = [rng.gauss(0.0, 1.0) for _ in range(4)]
    n = math.hypot(*v)
    return [c / n for c in v]


def _matrix_gap(a, b):
    return max(abs(x - y) for row_a, row_b in zip(a, b) for x, y in zip(row_a, row_b))


def test_criterion_08_double_cover_homomorphism():
    rng = random.Random(2026)
    pairs = [(_unit_quaternion(rng), _unit_quaternion(rng)) for _ in range(10**4)]

    def residual():
        worst = 0.0
        for a, b in pairs:
            lhs = hopf.rot_from_quat(hopf.qmul(a, b)).matrix
            ra, rb = hopf.rot_from_quat(a).matrix, hopf.rot_from_quat(b).matrix
            rhs = [[sum(x * y for x, y in zip(row, col)) for col in zip(*rb)] for row in ra]
            worst = max(worst, _matrix_gap(lhs, rhs))
        return worst

    worst, elapsed = _timed(residual)
    assert worst < 1e-12
    q = pairs[0][0]
    minus_q = [-c for c in q]
    assert _matrix_gap(hopf.rot_from_quat(q).matrix, hopf.rot_from_quat(minus_q).matrix) == 0.0
    assert elapsed < 1.0
    _passed(8, f"residual {worst:.2e} over 10^4 pairs in {elapsed:.2f} s")


def test_criterion_09_monodromy_of_gamma():
    def all_lifts():
        once = so3.lift_loop(so3.loop_matrices("gamma", 512))
        twice = so3.lift_loop(so3.loop_matrices("gamma", 512, turns=2))
        refined = {
            so3.lift_loop(so3.loop_matrices("gamma", n)) for n in (256, 4096)
        }
        slices = {
            so3.lift_loop(so3.homotopy_slice_matrices(variant, s, 256))
            for variant in ("alpha", "beta")
            for s in (0.0, 0.25, 0.5, 0.75, 1.0)
        }
        return once, twice, refined, slices

    (once, twice, refined, slices), elapsed = _timed(all_lifts)
    assert once == -1
    assert twice == 1
    assert refined == {-1}
    assert slices == {-1}
    assert elapsed < 1.0
    _passed(9, f"gamma: -1; twice: +1; stable under refinement and homotopy "
               f"in {elapsed:.2f} s")


def test_criterion_10_fiber_linking_20_trials():
    rng = random.Random(0)

    def all_trials():
        links = []
        for _ in range(20):
            p1 = hopf.random_sphere_point(rng)
            p2 = hopf.random_sphere_point(rng)
            while math.dist(p1, p2) < 0.1:
                p2 = hopf.random_sphere_point(rng)
            links.append(hopf.fiber_linking(p1, p2, samples=512))
        control = hopf.gauss_linking(*hopf.unlinked_control(samples=512))
        return links, control

    (links, control), elapsed = _timed(all_trials)
    worst = max(abs(abs(v) - 1.0) for v in links)
    assert worst <= 0.02
    assert abs(control) <= 0.02
    assert elapsed < 30.0
    _passed(10, f"20 trials, max | |Lk| - 1 | = {worst:.4f}, control "
                f"{control:.1e}, in {elapsed:.1f} s")


def test_criterion_11_property_suites():
    def run_suites():
        # psi^k psi^l = psi^(kl) for k, l <= 7 on models up to degree 8
        for space in ("cp8", "hp8", "s8", "s2-smash-cp2"):
            gen = ring(space).generator()
            for k in range(2, 8):
                for l in range(2, 8):
                    assert adams(k, adams(l, gen)).coeffs == adams(k * l, gen).coeffs
        # e-invariant independence of k
        for space, value in (("cp2", Fraction(1, 2)), ("hp2", Fraction(1, 12))):
            model = ring(space)
            for k in (2, 3, 5, 7):
                assert einv.e_invariant(model, k) == value
        # Laurent oracle equals the ring-model operation for k <= 10, n <= 5
        for n in range(1, 6):
            model = ring(f"hp{n}")
            for k in range(1, 11):
                assert laurent_to_phi(k, n).coeffs == adams(k, model.generator()).coeffs
                reduced = symmetric_reduce(LaurentPoly.circle_class(k))
                rebuilt = LaurentPoly()
                for d, c in reduced.items():
                    rebuilt = rebuilt + (LaurentPoly.x_variable() ** d).scale(c)
                assert rebuilt == LaurentPoly.circle_class(k)

    _, elapsed = _timed(run_suites)
    assert elapsed < 10.0
    _passed(11, f"composition, k-independence, Laurent oracle in {elapsed:.2f} s")


def test_criterion_12_reports_conclude_and_replay():
    expected = {1: ("Z2", "eta"), 2: ("Z2", "eta^2"), 3: ("Z24", "nu")}
    for stem, (group, generator) in expected.items():
        report = build_stem_report(stem)
        assert (report.group, report.generator) == (group, generator)
        assert report.replay() is True
    ehp_steps = [
        s
        for s in build_stem_report(2).steps
        if "ehp" in (s.claim + s.citation).lower()
    ]
    assert ehp_steps and all(
        s.status is StepStatus.PAPER_ASSERTED for s in ehp_steps
    )
    _passed(12, "Z2, Z2, Z24 with replaying computed steps; EHP step asserted")
