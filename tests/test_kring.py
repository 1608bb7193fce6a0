"""Truncated K-theory ring models and Adams operations."""

import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stemcert.kring import (
    LaurentPoly,
    Space,
    adams,
    adams_matrix,
    element_to_json,
    laurent_to_phi,
    make_ring,
    mul,
    parse_element,
    parse_space,
    symmetric_reduce,
)


def ring(name):
    return make_ring(parse_space(name))


def elem(space, text):
    return parse_element(ring(space), text)


# --------------------------------------------------------------------------
# Model construction
# --------------------------------------------------------------------------


def test_parse_space_round_trip():
    assert parse_space("cp2") == Space("cp2", "cp", 2, 0)
    assert parse_space("hp3") == Space("hp3", "hp", 3, 0)
    assert parse_space("s4") == Space("s4", None, 0, 2)
    assert parse_space("s2-smash-cp2") == Space("s2-smash-cp2", "cp", 2, 1)
    assert parse_space(" HP02-smash-S04 ") == Space("hp2-smash-s4", "hp", 2, 2)


def test_parse_space_rejects_bad_names():
    # syntactic rejections happen at parse time
    for bad in ["xyz", "s3", "s0", "cp", "2cp"]:
        with pytest.raises(ValueError):
            parse_space(bad)
    # semantic rejections happen at model-construction time
    for bad in ["cp0", "hp0", "s2-smash-s2", "cp2-smash-cp2"]:
        with pytest.raises(ValueError):
            make_ring(parse_space(bad))


def test_basis_dimensions():
    cp2 = ring("cp2")
    assert [cp2.monomial_display(m) for m in cp2.basis] == ["μ", "μ²"]
    assert cp2.dims == (2, 4)

    hp2 = ring("hp2")
    assert [hp2.monomial_display(m) for m in hp2.basis] == ["φ", "φ²"]
    assert hp2.dims == (4, 8)

    smash = ring("s2-smash-cp2")
    assert [smash.monomial_display(m) for m in smash.basis] == ["μν", "μ²ν"]
    assert smash.dims == (4, 6)


def test_multiplication_truncates():
    cp2 = ring("cp2")
    mu = cp2.generator()
    assert str(mul(mu, mu)) == "μ²"
    assert mul(mul(mu, mu), mu).coeffs == (0, 0)  # mu^3 = 0 in CP^2

    smash = ring("s2-smash-cp2")
    munu = smash.generator()
    # nu^2 = 0 kills every product of two smash monomials
    assert mul(munu, munu).coeffs == (0, 0)


def test_element_algebra_and_display():
    cp2 = ring("cp2")
    mu = cp2.generator()
    musq = cp2.monomial(2)
    combo = mu.scale(2) + musq
    assert str(combo) == "2μ + μ²"
    assert (combo - combo).coeffs == (0, 0)
    assert str(-mu) == "-μ"
    assert str(mu - musq.scale(3)) == "μ - 3μ²"


def test_elements_of_different_models_never_combine():
    with pytest.raises(ValueError):
        ring("cp2").generator() + ring("cp3").generator()


# --------------------------------------------------------------------------
# Adams operations: pinned coefficients
# --------------------------------------------------------------------------


def test_adams_on_cp2_squares():
    mu = elem("cp2", "mu")
    assert str(adams(2, mu)) == "2μ + μ²"
    assert str(adams(3, mu)) == "3μ + 3μ²"


def test_adams_on_hp_pinned_coefficients():
    # psi^k(phi) in K(HP^n), frozen from the Laurent-reduction oracle
    phi = elem("hp2", "phi")
    assert adams(2, phi).coeffs == (4, 1)
    assert adams(3, phi).coeffs == (9, 6)

    phi3 = elem("hp3", "phi")
    assert adams(4, phi3).coeffs == (16, 20, 8)
    assert adams(5, phi3).coeffs == (25, 50, 35)


def test_adams_on_spheres_is_degree_scaling():
    assert adams(2, elem("s2", "nu")).coeffs == (2,)
    assert adams(7, elem("s2", "nu")).coeffs == (7,)
    assert adams(2, elem("s4", "nu")).coeffs == (4,)
    assert adams(3, elem("s4", "nu")).coeffs == (9,)


def test_adams_on_smash_multiplies_factorwise():
    munu = elem("s2-smash-cp2", "mu*nu")
    assert adams(2, munu).coeffs == (4, 2)
    assert adams(3, munu).coeffs == (9, 9)


def test_adams_is_additive_and_identity_at_one():
    cp2 = ring("cp2")
    a = cp2.element({1: 3, 2: -2})
    b = cp2.element({1: -1, 2: 5})
    assert adams(1, a).coeffs == a.coeffs
    assert adams(5, a + b).coeffs == (adams(5, a) + adams(5, b)).coeffs


def test_adams_matrix_lower_triangular():
    assert adams_matrix(ring("cp2"), 2) == ((2, 0), (1, 4))
    assert adams_matrix(ring("s2-smash-cp2"), 2) == ((4, 0), (2, 8))
    assert adams_matrix(ring("hp2"), 2) == ((4, 0), (1, 16))


def test_adams_matrix_diagonal_is_power_of_k():
    for space in ["cp4", "hp3", "s2-smash-cp2"]:
        model = ring(space)
        for k in (2, 3, 5):
            m = adams_matrix(model, k)
            assert all(m[j][i] == 0 for i in range(len(m)) for j in range(i))
            assert tuple(m[i][i] for i in range(len(m))) == tuple(
                k ** (d // 2) for d in model.dims
            )


# --------------------------------------------------------------------------
# Laurent oracle
# --------------------------------------------------------------------------


def test_circle_class_and_x_variable():
    x = LaurentPoly.x_variable()
    assert x == LaurentPoly.circle_class(1)
    sq = x * x
    assert sq.coefficient(2) == 1 and sq.coefficient(-2) == 1
    assert LaurentPoly.circle_class(3).is_symmetric()


def chebyshev_circle_class(k):
    """t^k + t^-k - 2 by the three-term recurrence, an independent oracle."""
    # s_k = t^k + t^-k satisfies s_k = y*s_{k-1} - s_{k-2} with y = t + 1/t
    if k == 0:
        return LaurentPoly()
    y = LaurentPoly({1: 1, -1: 1})
    s_prev, s_cur = LaurentPoly({0: 2}), y
    for _ in range(k - 1):
        s_prev, s_cur = s_cur, y * s_cur - s_prev
    return s_cur - LaurentPoly({0: 2})


@pytest.mark.parametrize("k", range(0, 11))
def test_circle_class_matches_chebyshev_recurrence(k):
    assert LaurentPoly.circle_class(k) == chebyshev_circle_class(k)


@pytest.mark.parametrize("k", range(1, 11))
@pytest.mark.parametrize("n", range(1, 6))
def test_laurent_to_phi_agrees_with_adams(k, n):
    # The Laurent reduction and the ring-model Adams operation are two
    # independent routes to the same coefficients.
    model = ring(f"hp{n}")
    assert laurent_to_phi(k, n).coeffs == adams(k, model.generator()).coeffs


@pytest.mark.parametrize("k", range(1, 61))
def test_closed_form_adams_matches_the_laurent_reduction(k):
    # On HP^n, adams() steps through the closed form 2k/(k+j) * C(k+j, 2j)
    # by its ratio; the Laurent reduction computes the same expansion
    # independently.
    for n in sorted({1, k - 1, k, k + 3} - {0}):
        model = ring(f"hp{n}")
        image = adams(k, model.generator()).coeffs
        assert image == laurent_to_phi(k, n).coeffs
        # psi^k(phi) has x-degree k, so nothing survives above phi^k.
        assert all(c == 0 for c in image[k:])
        assert all(c > 0 for c in image[:k])


@pytest.mark.parametrize("space", ["cp256", "hp256"])
@pytest.mark.parametrize("k", [1, 2, 255, 256])
def test_adams_at_the_caps_matches_the_closed_form(space, k):
    # adams() steps from each coefficient to the next by its ratio; at the
    # caps every coefficient must still be the closed form's C(k, d) on CP^n
    # and 2k * C(k+d, 2d) / (k+d) on HP^n.
    model = ring(space)
    if space.startswith("cp"):
        expected = [math.comb(k, d) for d in model.basis]
    else:
        expected = [2 * k * math.comb(k + d, 2 * d) // (k + d) for d in model.basis]
    assert list(adams(k, model.generator()).coeffs) == expected


def test_closed_form_adams_on_the_smash_with_a_sphere():
    # psi^k(phi*nu) = psi^k(phi) * k*nu in K(S^2 smash HP^8).
    model = ring("s2-smash-hp8")
    phinu = parse_element(model, "phi*nu")
    for k in range(1, 13):
        phi_image = laurent_to_phi(k, 8).coeffs
        expected = model.element(
            {j: k * c for j, c in enumerate(phi_image, start=1)}
        )
        assert adams(k, phinu).coeffs == expected.coeffs


# S^(2m) smash P^n with m >= 2 or the sphere on the right: Sigma^4 HP^2,
# Sigma^6 CP^3 and CP^2 smash S^2, with m, the basis names, the cell
# dimensions and psi^2 of the generator.
SUSPENSIONS = [
    ("s4-smash-hp2", "hp2", 2, ["φν₂", "φ²ν₂"], (8, 12), "16φν₂ + 4φ²ν₂"),
    ("s6-smash-cp3", "cp3", 3, ["μν₃", "μ²ν₃", "μ³ν₃"], (8, 10, 12), "16μν₃ + 8μ²ν₃"),
    ("cp2-smash-s2", "cp2", 1, ["μν", "μ²ν"], (4, 6), "4μν + 2μ²ν"),
]
SUSPENSION_IDS = [row[0] for row in SUSPENSIONS]


@pytest.mark.parametrize("space,base,m", [row[:3] for row in SUSPENSIONS], ids=SUSPENSION_IDS)
def test_adams_on_a_suspension_is_k_to_the_m_times_the_projective_image(space, base, m):
    # psi^k(x^e nu) = k^m psi^k(x)^e nu, with psi^k(x) from the Laurent
    # reduction (phi) or the binomial (mu), and its powers from mul.
    model, projective = ring(space), ring(base)
    n = len(projective.basis)
    for k in range(1, 13):
        if base.startswith("hp"):
            image = laurent_to_phi(k, n)
        else:
            image = projective.element({j: math.comb(k, j) for j in range(1, n + 1)})
        power = image
        for e in projective.basis:
            expected = model.element(
                {j: k**m * c for j, c in zip(projective.basis, power.coeffs)}
            )
            assert adams(k, model.monomial(e)) == expected
            power = mul(power, image)


POWER_GRID = [f"{kind}{n}" for kind in ("cp", "hp") for n in range(1, 13)]


@pytest.mark.parametrize("base", POWER_GRID)
def test_adams_on_every_power_is_the_power_of_the_generator_image(base):
    # adams computes psi^k(x^e) by its binomial closed form; psi^k is a ring
    # map, so that must be the e-fold product of psi^k(x).  k runs from 1,
    # and k*j > n (the truncated terms) occurs on every space.  On S^2 and
    # S^4 smashes the image is k^m times the projective one.
    projective = ring(base)
    suspensions = [(ring(f"s2-smash-{base}"), 1), (ring(f"{base}-smash-s4"), 2)]
    for k in range(1, 13):
        image = adams(k, projective.generator())
        power = image
        for e in projective.basis:
            assert adams(k, projective.monomial(e)) == power
            for model, m in suspensions:
                expected = {d: k**m * c for d, c in zip(projective.basis, power.coeffs)}
                assert adams(k, model.monomial(e)) == model.element(expected)
            power = mul(power, image)


@pytest.mark.parametrize("space", SUSPENSION_IDS)
def test_every_product_on_a_suspension_is_zero(space):
    model = ring(space)
    elements = [model.monomial(e) for e in model.basis]
    elements.append(model.element({e: 3 - e for e in model.basis}))
    for a in elements:
        for b in elements:
            product = mul(a, b)
            assert product.model == model and product.coeffs == (0,) * len(model.basis)


@pytest.mark.parametrize("space,base,m,names,dims,psi2", SUSPENSIONS, ids=SUSPENSION_IDS)
def test_suspension_display_and_grading(space, base, m, names, dims, psi2):
    model = ring(space)
    assert [model.monomial_display(e) for e in model.basis] == names
    assert model.dims == dims
    generator = "phi" if base.startswith("hp") else "mu"
    assert str(parse_element(model, f"{generator}^2*nu")) == names[1]
    assert str(adams(2, model.generator())) == psi2


def test_monomial_index_follows_the_basis():
    for space in ("cp4", "hp3", "s2-smash-cp2", "s2-smash-hp8"):
        model = ring(space)
        assert [model.monomial_index(m) for m in model.basis] == list(
            range(len(model.basis))
        )
    with pytest.raises(ValueError):
        ring("cp2").element({3: 1})


def test_symmetric_reduce_requires_symmetry():
    with pytest.raises(ValueError):
        symmetric_reduce(LaurentPoly({1: 1}))


def test_symmetric_reduce_pinned():
    assert symmetric_reduce(LaurentPoly.circle_class(2)) == {1: 4, 2: 1}
    assert symmetric_reduce(LaurentPoly.circle_class(3)) == {1: 9, 2: 6, 3: 1}
    assert symmetric_reduce(LaurentPoly()) == {}
    with pytest.raises(ValueError, match="non-constant remainder"):
        symmetric_reduce(LaurentPoly({0: 5}))


@given(st.lists(st.integers(-5, 5), min_size=1, max_size=4))
@settings(max_examples=60)
def test_symmetric_reduce_is_linear(coeffs):
    # reduce(sum c_k * circle_class(k)) == sum of c_k * reduce(circle_class(k))
    poly = LaurentPoly()
    total: dict[int, int] = {}
    for k, c in enumerate(coeffs, start=1):
        poly = poly + LaurentPoly.circle_class(k).scale(c)
        for d, v in symmetric_reduce(LaurentPoly.circle_class(k)).items():
            total[d] = total.get(d, 0) + c * v
    total = {d: v for d, v in total.items() if v != 0}
    assert symmetric_reduce(poly) == total


@given(st.integers(1, 12))
def test_symmetric_reduce_inverts_expansion(k):
    # Substituting x = t + 1/t - 2 back in recovers the original polynomial.
    target = LaurentPoly.circle_class(k)
    x = LaurentPoly.x_variable()
    rebuilt = LaurentPoly()
    for d, c in symmetric_reduce(target).items():
        rebuilt = rebuilt + (x**d).scale(c)
    assert rebuilt == target


# --------------------------------------------------------------------------
# Composition law (acceptance criterion 11 backs onto this)
# --------------------------------------------------------------------------


SPACES_TO_8 = ["cp8", "hp8", "s2", "s8", "s2-smash-cp2"]


@pytest.mark.parametrize("space", SPACES_TO_8)
def test_adams_composition_on_generators(space):
    a = ring(space).generator()
    for k in range(2, 8):
        for l in range(2, 8):
            assert adams(k, adams(l, a)).coeffs == adams(k * l, a).coeffs


@given(
    st.sampled_from(SPACES_TO_8),
    st.integers(1, 7),
    st.integers(1, 7),
    st.lists(st.integers(-3, 3), min_size=1, max_size=3),
)
@settings(max_examples=80, deadline=None)
def test_adams_composition_on_random_elements(space, k, l, coeffs):
    model = ring(space)
    data = {}
    for i, c in enumerate(coeffs):
        mono = model.basis[i % len(model.basis)]
        data[mono] = data.get(mono, 0) + c
    a = model.element(data)
    assert adams(k, adams(l, a)).coeffs == adams(k * l, a).coeffs


@pytest.mark.parametrize("k", [2, 3, 5, 7])
@pytest.mark.parametrize("space", ["cp8", "cp6", "hp6", "cp12", "hp9"])
def test_adams_is_multiplicative(space, k):
    # The generator squared, then 20 seeded pairs with random coefficients.
    model = ring(space)
    rng = random.Random(f"{space}-{k}")

    def random_element():
        return model.element({mono: rng.randint(-9, 9) for mono in model.basis})

    pairs = [(model.generator(), model.generator())]
    pairs += [(random_element(), random_element()) for _ in range(20)]
    for a, b in pairs:
        assert adams(k, mul(a, b)).coeffs == mul(adams(k, a), adams(k, b)).coeffs


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_adams_p_is_the_pth_power_mod_p_on_generators(p):
    # psi^p(x) = x^p (mod p) in K-theory (Adams), here on every CP^n and HP^n
    # with n < 30; the closed forms of psi^p(mu) and psi^p(phi) must obey it.
    for kind in ("cp", "hp"):
        for n in range(1, 30):
            model = ring(f"{kind}{n}")
            x = model.generator()
            power = x
            for _ in range(p - 1):
                power = mul(power, x)
            gap = adams(p, x) - power
            assert all(c % p == 0 for c in gap.coeffs), (kind, n)


# --------------------------------------------------------------------------
# Serialization
# --------------------------------------------------------------------------


def test_element_json_round_trip():
    a = elem("s2-smash-cp2", "mu*nu").scale(4) + elem("s2-smash-cp2", "mu^2*nu").scale(2)
    blob = element_to_json(a)
    assert blob == {"space": "s2-smash-cp2", "coeffs": ["4", "2"]}
    # coefficients serialize as strings so arbitrarily large ones survive
    big = elem("cp2", "mu").scale(10**40)
    assert json.loads(json.dumps(element_to_json(big)))["coeffs"][0] == str(10**40)


def test_parse_element_rejects_non_basis_text():
    model = ring("cp2")
    for bad in ["nu", "mu^3", "phi", "", "mu+mu"]:
        with pytest.raises(ValueError):
            parse_element(model, bad)
