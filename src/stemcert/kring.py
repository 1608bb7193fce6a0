"""Truncated polynomial models of reduced K-theory rings and Adams operations.

The reduced complex K-theory of the spaces used in this package is a
truncated polynomial ring on a single generator, and smash products are
reduced tensor products of such rings:

* ``ComplexProjective(n)``      — Z[mu]/(mu^(n+1)),  mu in cell dimension 2,
* ``QuaternionicProjective(n)`` — Z[phi]/(phi^(n+1)), phi in cell dimension 4,
* ``EvenSphere(m)``             — Z[nu]/(nu^2),       nu in cell dimension 2m,
* ``Smash(a, b)``               — one basis monomial per pair of factor
  monomials; a product vanishes as soon as either factor exceeds its
  truncation.

The Adams operation ``psi^k`` is determined by its value on the generators:
``(1 + mu)^k - 1`` on a complex projective space, multiplication by ``k^m``
on ``S^(2m)``, and on a quaternionic projective space the Chebyshev closed
form ``psi^k(phi) = sum_j 2k/(k+j) * C(k+j, 2j) * phi^j`` for
``1 <= j <= min(k, n)``.  The closed form is the expansion of
``t^k + t^(-k) - 2`` in the variable ``x = t + t^(-1) - 2``; the Laurent
reduction (:func:`laurent_to_phi`) computes that expansion independently
and is kept as its cross-check.  Everything extends additively and
multiplicatively; all coefficients are exact integers.
"""

from __future__ import annotations

import math
import re
from typing import Iterable, Mapping, Union

from ._frozen import Frozen
from .exact import BigInt

__all__ = [
    "AdamsMatrix",
    "ComplexProjective",
    "EvenSphere",
    "LaurentPoly",
    "QuaternionicProjective",
    "RingElement",
    "RingModel",
    "Smash",
    "adams",
    "adams_matrix",
    "element_from_json",
    "element_to_json",
    "laurent_to_phi",
    "make_ring",
    "mul",
    "parse_element",
    "parse_space",
]


# --------------------------------------------------------------------------
# Space descriptors
# --------------------------------------------------------------------------


class ComplexProjective(Frozen):
    """CP^n; generator mu = (complex Hopf line bundle) - 1, cell dim 2."""

    __slots__ = ("n",)

    def __init__(self, n: int):
        self._set(n=n)


class QuaternionicProjective(Frozen):
    """HP^n; generator phi = c(quaternionic Hopf bundle) - 2, cell dim 4."""

    __slots__ = ("n",)

    def __init__(self, n: int):
        self._set(n=n)


class EvenSphere(Frozen):
    """S^(2m); generator nu with nu^2 = 0, cell dim 2m."""

    __slots__ = ("m",)

    def __init__(self, m: int):
        self._set(m=m)


class Smash(Frozen):
    """Smash product of an even sphere with a projective space."""

    __slots__ = ("left", "right")

    def __init__(
        self,
        left: Union[ComplexProjective, QuaternionicProjective, EvenSphere],
        right: Union[ComplexProjective, QuaternionicProjective, EvenSphere],
    ):
        self._set(left=left, right=right)


Space = Union[ComplexProjective, QuaternionicProjective, EvenSphere, Smash]

_ATOM_SYMBOLS = {
    ComplexProjective: "mu",
    QuaternionicProjective: "phi",
    EvenSphere: "nu",
}

_SUPERSCRIPTS = str.maketrans("0123456789", "⁰¹²³⁴⁵⁶⁷⁸⁹")
_SUBSCRIPTS = str.maketrans("0123456789", "₀₁₂₃₄₅₆₇₈₉")
_UNICODE_SYMBOLS = {"mu": "μ", "phi": "φ", "nu": "ν"}


def _atom_truncation(space) -> int:
    return 1 if isinstance(space, EvenSphere) else space.n


def _atom_generator_dim(space) -> int:
    if isinstance(space, ComplexProjective):
        return 2
    if isinstance(space, QuaternionicProjective):
        return 4
    return 2 * space.m


def _atom_label(space) -> str:
    if isinstance(space, ComplexProjective):
        return f"cp{space.n}"
    if isinstance(space, QuaternionicProjective):
        return f"hp{space.n}"
    return f"s{2 * space.m}"


def _atom_display(space) -> str:
    sym = _UNICODE_SYMBOLS[_ATOM_SYMBOLS[type(space)]]
    if isinstance(space, EvenSphere) and space.m != 1:
        sym += str(space.m).translate(_SUBSCRIPTS)
    return sym


# --------------------------------------------------------------------------
# Ring models and elements
# --------------------------------------------------------------------------

#: A monomial is a tuple of per-factor exponents (length 1 for atomic models).
Monomial = tuple


class RingModel(Frozen):
    """A K-theory ring presented on an explicit graded monomial basis.

    ``basis`` lists the reduced monomials in increasing cell dimension (ties
    broken by left-factor degree), ``dims`` their cell dimensions.  Built via
    :func:`make_ring`; immutable afterwards.
    """

    __slots__ = ("space", "label", "factors", "truncations", "basis", "dims", "_index")

    def __init__(
        self,
        space: Space,
        label: str,
        factors: tuple,
        truncations: tuple,
        basis: tuple,
        dims: tuple,
    ):
        self._set(
            space=space,
            label=label,
            factors=factors,
            truncations=truncations,
            basis=basis,
            dims=dims,
            _index={m: i for i, m in enumerate(basis)},
        )

    def monomial_index(self, mono: Monomial) -> int:
        try:
            return self._index[mono]
        except KeyError:
            raise ValueError(f"{mono!r} is not in the basis of {self.label}") from None

    def zero(self) -> "RingElement":
        return RingElement(self, (0,) * len(self.basis))

    def element(self, coeffs: Mapping[Monomial, int]) -> "RingElement":
        vec = [0] * len(self.basis)
        for mono, c in coeffs.items():
            vec[self.monomial_index(mono)] += c
        return RingElement(self, tuple(vec))

    def monomial(self, mono: Monomial) -> "RingElement":
        return self.element({mono: 1})

    def generator(self) -> "RingElement":
        """The generator for atomic models; lowest-dimension monomial otherwise."""
        return self.monomial(self.basis[0])

    def monomial_display(self, mono: Monomial) -> str:
        # Projective factor first, sphere factor last (mu^2*nu prints as μ²ν).
        parts = []
        order = sorted(
            range(len(self.factors)),
            key=lambda i: isinstance(self.factors[i], EvenSphere),
        )
        for i in order:
            e = mono[i]
            if e == 0:
                continue
            sym = _atom_display(self.factors[i])
            parts.append(sym if e == 1 else sym + str(e).translate(_SUPERSCRIPTS))
        return "".join(parts) or "1"


class RingElement(Frozen):
    """Exact integer coefficient vector over a model's monomial basis."""

    __slots__ = ("model", "coeffs")

    def __init__(self, model: RingModel, coeffs: tuple):
        if len(coeffs) != len(model.basis):
            raise ValueError("coefficient vector length does not match basis")
        self._set(model=model, coeffs=coeffs)

    def __add__(self, other: "RingElement") -> "RingElement":
        _require_same_model(self, other)
        return RingElement(
            self.model, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other: "RingElement") -> "RingElement":
        _require_same_model(self, other)
        return RingElement(
            self.model, tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self) -> "RingElement":
        return RingElement(self.model, tuple(-a for a in self.coeffs))

    def scale(self, c: BigInt) -> "RingElement":
        return RingElement(self.model, tuple(c * a for a in self.coeffs))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __str__(self) -> str:
        terms = []
        for c, mono in zip(self.coeffs, self.model.basis):
            if c == 0:
                continue
            name = self.model.monomial_display(mono)
            if c == 1:
                text = name
            elif c == -1:
                text = f"-{name}"
            else:
                text = f"{c}{name}"
            terms.append(text)
        if not terms:
            return "0"
        out = terms[0]
        for t in terms[1:]:
            out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
        return out


def _require_same_model(a: RingElement, b: RingElement) -> None:
    if a.model != b.model:
        raise ValueError(
            f"elements of different models never combine "
            f"({a.model.label} vs {b.model.label})"
        )


def make_ring(space: Space) -> RingModel:
    """Build the ring model for a space descriptor.

    Smash products are restricted to an even sphere smashed with a complex
    or quaternionic projective space (nesting depth at most 2); degrees must
    be at least 1.
    """
    if isinstance(space, Smash):
        left, right = space.left, space.right
        if isinstance(left, Smash) or isinstance(right, Smash):
            raise ValueError("smash factors must be atomic (nesting depth <= 2)")
        spheres = sum(isinstance(f, EvenSphere) for f in (left, right))
        if spheres != 1:
            raise ValueError(
                "smash models must pair one even sphere with one projective space"
            )
        factors = (left, right)
    else:
        factors = (space,)

    for f in factors:
        size = f.m if isinstance(f, EvenSphere) else f.n
        if size <= 0:
            raise ValueError(f"degree must be at least 1, got {size}")

    truncations = tuple(_atom_truncation(f) for f in factors)
    gen_dims = tuple(_atom_generator_dim(f) for f in factors)

    monos: list[Monomial] = []
    if len(factors) == 1:
        monos = [(e,) for e in range(1, truncations[0] + 1)]
    else:
        for el in range(1, truncations[0] + 1):
            for er in range(1, truncations[1] + 1):
                monos.append((el, er))
    # Increasing cell dimension; ties broken by left-factor degree.
    dim = lambda mono: sum(e * d for e, d in zip(mono, gen_dims))
    monos.sort(key=lambda mono: (dim(mono), mono[0]))

    if isinstance(space, Smash):
        label = f"{_atom_label(factors[0])}-smash-{_atom_label(factors[1])}"
    else:
        label = _atom_label(space)

    return RingModel(
        space=space,
        label=label,
        factors=factors,
        truncations=truncations,
        basis=tuple(monos),
        dims=tuple(dim(m) for m in monos),
    )


# --------------------------------------------------------------------------
# Multiplication
# --------------------------------------------------------------------------


def _mul_monomials(model: RingModel, a: Monomial, b: Monomial):
    """Product of two basis monomials, or ``None`` if it truncates to zero."""
    out = tuple(x + y for x, y in zip(a, b))
    for e, t in zip(out, model.truncations):
        if e > t:
            return None
    return out


def mul(a: RingElement, b: RingElement) -> RingElement:
    """Truncated product of two ring elements of the same model."""
    _require_same_model(a, b)
    model = a.model
    vec = [0] * len(model.basis)
    for i, ca in enumerate(a.coeffs):
        if ca == 0:
            continue
        for j, cb in enumerate(b.coeffs):
            if cb == 0:
                continue
            mono = _mul_monomials(model, model.basis[i], model.basis[j])
            if mono is not None:
                vec[model.monomial_index(mono)] += ca * cb
    return RingElement(model, tuple(vec))


# --------------------------------------------------------------------------
# Laurent polynomials and the quaternionic Adams images
# --------------------------------------------------------------------------


class LaurentPoly:
    """Integer Laurent polynomial in a formal circle variable ``t``."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[int, BigInt] | None = None):
        self.coeffs = {e: c for e, c in (coeffs or {}).items() if c != 0}

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __repr__(self) -> str:
        if not self.coeffs:
            return "LaurentPoly(0)"
        body = " + ".join(f"{c}*t^{e}" for e, c in sorted(self.coeffs.items()))
        return f"LaurentPoly({body})"

    def coefficient(self, e: int) -> BigInt:
        return self.coeffs.get(e, 0)

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_symmetric(self) -> bool:
        """Whether ``coeff(e) == coeff(-e)`` for every exponent."""
        return all(c == self.coefficient(-e) for e, c in self.coeffs.items())

    def max_exponent(self) -> int:
        if not self.coeffs:
            raise ValueError("the zero polynomial has no leading exponent")
        return max(self.coeffs)

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly(out)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) - c
        return LaurentPoly(out)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        out: dict[int, BigInt] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPoly(out)

    def scale(self, c: BigInt) -> "LaurentPoly":
        return LaurentPoly({e: c * v for e, v in self.coeffs.items()})

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("negative powers are not defined here")
        out = LaurentPoly({0: 1})
        for _ in range(n):
            out = out * self
        return out

    @staticmethod
    def circle_class(k: int) -> "LaurentPoly":
        """``t^k + t^(-k) - 2``: the reduced class of the k-th power map."""
        if k == 0:
            return LaurentPoly()
        return LaurentPoly({k: 1, -k: 1, 0: -2})

    @staticmethod
    def x_variable() -> "LaurentPoly":
        """``x = t + t^(-1) - 2``, the degree-one reduction variable."""
        return LaurentPoly.circle_class(1)


def symmetric_reduce(target: LaurentPoly) -> dict[int, BigInt]:
    """Express a symmetric Laurent polynomial as a polynomial in ``x``.

    Repeatedly eliminates the leading term against powers of
    ``x = t + t^(-1) - 2`` (whose d-th power has leading term ``t^d`` with
    coefficient 1), returning ``{degree: coefficient}``.  The powers are
    built once, each from the previous one, so degree ``k`` costs O(k^2)
    coefficient operations.
    """
    if not target.is_symmetric():
        raise ValueError("only symmetric Laurent polynomials reduce to x-polynomials")
    out: dict[int, BigInt] = {}
    if target.is_zero():
        return out
    x = LaurentPoly.x_variable()
    powers = [LaurentPoly({0: 1})]
    for _ in range(target.max_exponent()):
        powers.append(powers[-1] * x)
    rem = target
    while not rem.is_zero():
        d = rem.max_exponent()
        if d <= 0:
            raise ValueError("reduction left a non-constant remainder")
        c = rem.coefficient(d)
        out[d] = c
        rem = rem - powers[d].scale(c)
    return out


def laurent_to_phi(k: int, n: int) -> RingElement:
    """Image of the quaternionic generator under ``psi^k`` in HP^n.

    Expands ``t^k + t^(-k) - 2`` as a polynomial in ``x = t + t^(-1) - 2``
    and truncates at degree ``n``.
    """
    if k < 1:
        raise ValueError("Adams index must be at least 1")
    model = make_ring(QuaternionicProjective(n))
    coeffs = symmetric_reduce(LaurentPoly.circle_class(k))
    return model.element({(d,): c for d, c in coeffs.items() if d <= n})


# --------------------------------------------------------------------------
# Adams operations
# --------------------------------------------------------------------------


def _generator_image(factor, trunc: int, k: int) -> dict[int, BigInt]:
    """psi^k of an atomic generator as ``{degree: coefficient}``."""
    if isinstance(factor, ComplexProjective):
        # (1 + mu)^k - 1, truncated.
        return {d: math.comb(k, d) for d in range(1, min(k, trunc) + 1)}
    if isinstance(factor, QuaternionicProjective):
        # Chebyshev closed form of t^k + t^(-k) - 2 in x = t + t^(-1) - 2;
        # the division is exact.
        return {
            j: 2 * k * math.comb(k + j, 2 * j) // (k + j)
            for j in range(1, min(k, trunc) + 1)
        }
    return {1: k**factor.m}


def adams(k: int, a: RingElement) -> RingElement:
    """Adams operation ``psi^k`` applied to a ring element."""
    if k < 1:
        raise ValueError("Adams index must be at least 1")
    model = a.model
    gen_images = [
        _generator_image(f, t, k) for f, t in zip(model.factors, model.truncations)
    ]
    vec = [0] * len(model.basis)
    for coeff, mono in zip(a.coeffs, model.basis):
        if coeff == 0:
            continue
        # psi^k(monomial) = product over factors of psi^k(generator)^exponent.
        term: dict[Monomial, BigInt] = {(): 1}
        for fi, e in enumerate(mono):
            image = gen_images[fi]
            # Raise the factor image to the e-th power, truncating.
            powers: dict[int, BigInt] = {0: 1}
            for _ in range(e):
                nxt: dict[int, BigInt] = {}
                for d1, c1 in powers.items():
                    for d2, c2 in image.items():
                        d = d1 + d2
                        if d <= model.truncations[fi]:
                            nxt[d] = nxt.get(d, 0) + c1 * c2
                powers = nxt
            term = {
                prefix + (d,): c1 * c2
                for prefix, c1 in term.items()
                for d, c2 in powers.items()
            }
        for full_mono, c in term.items():
            if all(e >= 1 for e in full_mono):
                vec[model.monomial_index(full_mono)] += coeff * c
    return RingElement(model, tuple(vec))


class AdamsMatrix(Frozen):
    """Matrix of ``psi^k`` in the monomial basis, with the grading attached.

    ``entries[j][i]`` is the coefficient of basis monomial ``j`` in the image
    of basis monomial ``i``; ``dims`` are the cell dimensions of the basis.
    With the basis ordered by increasing cell dimension the matrix is lower
    triangular, and the diagonal entry of a monomial in cell dimension ``2d``
    is ``k^d``.
    """

    __slots__ = ("space", "k", "entries", "dims")

    def __init__(self, space: str, k: int, entries: tuple, dims: tuple):
        self._set(space=space, k=k, entries=entries, dims=dims)

    def diagonal(self) -> tuple:
        return tuple(self.entries[i][i] for i in range(len(self.dims)))


def adams_matrix(model: RingModel, k: int) -> AdamsMatrix:
    """Matrix of ``psi^k`` on ``model``'s basis (columns are images)."""
    if k < 1:
        raise ValueError("Adams index must be at least 1")
    size = len(model.basis)
    cols = []
    for mono in model.basis:
        cols.append(adams(k, model.monomial(mono)).coeffs)
    entries = tuple(tuple(cols[i][j] for i in range(size)) for j in range(size))
    return AdamsMatrix(space=model.label, k=k, entries=entries, dims=model.dims)


# --------------------------------------------------------------------------
# Parsing and serialization
# --------------------------------------------------------------------------

_SPACE_RE = re.compile(r"^(cp|hp|s)(\d+)$")


def _parse_atom(text: str):
    m = _SPACE_RE.match(text)
    if not m:
        raise ValueError(f"unrecognized space {text!r}")
    kind, num = m.group(1), int(m.group(2))
    if kind == "cp":
        return ComplexProjective(num)
    if kind == "hp":
        return QuaternionicProjective(num)
    if num % 2 != 0 or num == 0:
        raise ValueError(f"only even spheres are modeled, got s{num}")
    return EvenSphere(num // 2)


def parse_space(text: str) -> Space:
    """Parse a space label such as ``cp2``, ``s2``, or ``s2-smash-cp2``."""
    text = text.strip().lower()
    if "-smash-" in text:
        left, right = text.split("-smash-", 1)
        return Smash(_parse_atom(left), _parse_atom(right))
    return _parse_atom(text)


def parse_element(model: RingModel, text: str) -> RingElement:
    """Parse a basis monomial name (``mu``, ``phi``, ``nu``, ``mu^2*nu``...)."""
    text = text.strip().lower()
    exponents = [0] * len(model.factors)
    sym_to_index = {
        _ATOM_SYMBOLS[type(f)]: i for i, f in enumerate(model.factors)
    }
    for part in text.split("*"):
        m = re.match(r"^(mu|phi|nu)(?:\^(\d+))?$", part.strip())
        if not m:
            raise ValueError(f"unrecognized element {text!r}")
        sym, power = m.group(1), int(m.group(2) or "1")
        if sym not in sym_to_index:
            raise ValueError(f"{sym!r} is not a generator of {model.label}")
        exponents[sym_to_index[sym]] += power
    mono = tuple(exponents)
    if mono not in model.basis:
        raise ValueError(f"{text!r} is not a basis monomial of {model.label}")
    return model.monomial(mono)


def element_to_json(elem: RingElement) -> dict:
    """Serialize to ``{"space": label, "coeffs": [decimal strings]}``."""
    return {
        "space": elem.model.label,
        "coeffs": [str(c) for c in elem.coeffs],
    }


def element_from_json(data: Mapping) -> RingElement:
    model = make_ring(parse_space(data["space"]))
    coeffs = tuple(int(c) for c in data["coeffs"])
    return RingElement(model, coeffs)
