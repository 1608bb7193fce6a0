"""Truncated polynomial models of reduced K-theory rings and Adams operations.

Every space modeled here is ``S^(2m) ∧ P^n``: a complex or quaternionic
projective space ``P^n`` (``m = 0``), an even sphere ``S^(2m)`` (no
projective factor), or their smash product with the sphere on either side.
One descriptor, :class:`Space`, records the label, the projective kind
(``"cp"``, ``"hp"`` or ``None``), ``n`` and ``m``:

* ``K~(CP^n) = Z[mu]/(mu^(n+1))``, mu in cell dimension 2;
* ``K~(HP^n) = Z[phi]/(phi^(n+1))``, phi in cell dimension 4;
* ``K~(S^(2m)) = Z nu``, nu in cell dimension 2m, with ``nu^2 = 0``;
* because ``nu^2 = 0``, ``K~(S^(2m) ∧ P^n)`` is ``K~(P^n)`` suspended: the
  same exponents ``x^e nu`` for ``1 <= e <= n``, every cell dimension raised
  by 2m, and every product zero.

A basis monomial ``x^e nu`` is named by its projective exponent ``e`` (0 for
the bare sphere's ``nu``).  The Adams operation ``psi^k`` is determined by
its value on the generators: ``psi^k(x^e nu) = k^m psi^k(x)^e nu``, with
``psi^k(mu) = (1 + mu)^k - 1`` on a complex projective space and, on a
quaternionic one, the Chebyshev closed form ``psi^k(phi) = sum_j 2k/(k+j) *
C(k+j, 2j) * phi^j`` for ``1 <= j <= min(k, n)``.  The closed form is the
expansion of ``t^k + t^(-k) - 2`` in the variable ``x = t + t^(-1) - 2``; the
Laurent reduction (:func:`laurent_to_phi`) computes that expansion
independently and is kept as its cross-check.  All coefficients are exact
integers.
"""

from __future__ import annotations

import math
import re
from typing import Mapping, Optional

from ._frozen import Frozen

__all__ = [
    "LaurentPoly",
    "RingElement",
    "RingModel",
    "Space",
    "adams",
    "adams_matrix",
    "element_to_json",
    "laurent_to_phi",
    "make_ring",
    "mul",
    "parse_element",
    "parse_space",
]


# --------------------------------------------------------------------------
# The space descriptor
# --------------------------------------------------------------------------


class Space(Frozen):
    """``S^(2m) ∧ P^n`` under its label.

    ``kind`` is ``"cp"`` or ``"hp"`` for the projective factor ``P^n``, or
    ``None`` for a bare sphere (with ``n = 0``); ``m = 0`` for a bare
    projective space.  ``kind=None, m=0`` marks a smash that does not pair
    one even sphere with one projective space, which :func:`make_ring`
    rejects.
    """

    __slots__ = ("label", "kind", "n", "m")

    def __init__(self, label: str, kind: Optional[str], n: int, m: int):
        self._set(label=label, kind=kind, n=n, m=m)


#: Per projective kind: the generator's name and glyph, its cell dimension,
#: and the coefficient of ``x^j`` in ``psi^k(x)`` for ``1 <= j <= k``.
_KINDS = {
    # (1 + mu)^k - 1.
    "cp": ("mu", "μ", 2, math.comb),
    # Chebyshev closed form of t^k + t^(-k) - 2 in x = t + t^(-1) - 2; the
    # division is exact.
    "hp": ("phi", "φ", 4, lambda k, j: 2 * k * math.comb(k + j, 2 * j) // (k + j)),
    # A bare sphere has no projective generator.
    None: (None, "", 0, None),
}

_SUPERSCRIPTS = str.maketrans("0123456789", "⁰¹²³⁴⁵⁶⁷⁸⁹")
_SUBSCRIPTS = str.maketrans("0123456789", "₀₁₂₃₄₅₆₇₈₉")


# --------------------------------------------------------------------------
# Ring models and elements
# --------------------------------------------------------------------------


class RingModel(Frozen):
    """The K-theory ring of a :class:`Space` on its graded monomial basis.

    ``basis`` lists the projective exponents ``e`` of the monomials
    ``x^e nu`` in increasing cell dimension, ``dims`` their cell dimensions.
    Built via :func:`make_ring`, which validates the space.
    """

    __slots__ = ("space",)

    def __init__(self, space: Space):
        self._set(space=space)

    @property
    def label(self) -> str:
        return self.space.label

    @property
    def basis(self) -> range:
        return range(0 if self.space.kind is None else 1, self.space.n + 1)

    @property
    def dims(self) -> tuple:
        cell = _KINDS[self.space.kind][2]
        return tuple(e * cell + 2 * self.space.m for e in self.basis)

    def monomial_index(self, mono: int) -> int:
        basis = self.basis
        if mono not in basis:
            raise ValueError(f"{mono!r} is not in the basis of {self.label}")
        return mono - basis.start

    def element(self, coeffs: Mapping[int, int]) -> "RingElement":
        vec = [0] * len(self.basis)
        for mono, c in coeffs.items():
            vec[self.monomial_index(mono)] += c
        return RingElement(self, tuple(vec))

    def monomial(self, mono: int) -> "RingElement":
        return self.element({mono: 1})

    def generator(self) -> "RingElement":
        """The lowest-dimension monomial: ``mu``, ``phi``, ``nu`` or ``x*nu``."""
        return self.monomial(self.basis[0])

    def monomial_display(self, mono: int) -> str:
        # Projective factor first, sphere factor last (mu^2*nu prints as μ²ν).
        text = _KINDS[self.space.kind][1] if mono else ""
        if mono > 1:
            text += str(mono).translate(_SUPERSCRIPTS)
        if self.space.m:
            text += "ν"
            if self.space.m != 1:
                text += str(self.space.m).translate(_SUBSCRIPTS)
        return text


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

    def scale(self, c: int) -> "RingElement":
        return RingElement(self.model, tuple(c * a for a in self.coeffs))

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
    """Build the ring model of a space descriptor.

    Rejects a smash that does not pair one even sphere with one projective
    space, then a degree below 1.
    """
    if space.kind is None and space.m == 0:
        raise ValueError(
            "smash models must pair one even sphere with one projective space"
        )
    size = space.n if space.kind else space.m
    if size <= 0:
        raise ValueError(f"degree must be at least 1, got {size}")
    return RingModel(space)


# --------------------------------------------------------------------------
# Multiplication
# --------------------------------------------------------------------------


def mul(a: RingElement, b: RingElement) -> RingElement:
    """Truncated product of two ring elements of the same model.

    Every product vanishes on a sphere or a smash with one, as ``nu^2 = 0``.
    """
    _require_same_model(a, b)
    model = a.model
    vec = [0] * len(model.basis)
    if not model.space.m:
        n = model.space.n
        for ea, ca in zip(model.basis, a.coeffs):
            if ca == 0:
                continue
            for eb, cb in zip(model.basis, b.coeffs):
                if cb != 0 and ea + eb <= n:
                    vec[model.monomial_index(ea + eb)] += ca * cb
    return RingElement(model, tuple(vec))


# --------------------------------------------------------------------------
# Laurent polynomials and the quaternionic Adams images
# --------------------------------------------------------------------------


class LaurentPoly:
    """Integer Laurent polynomial in a formal circle variable ``t``."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[int, int] | None = None):
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

    def coefficient(self, e: int) -> int:
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
        out: dict[int, int] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPoly(out)

    def scale(self, c: int) -> "LaurentPoly":
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


def symmetric_reduce(target: LaurentPoly) -> dict[int, int]:
    """Express a symmetric Laurent polynomial as a polynomial in ``x``.

    Repeatedly eliminates the leading term against powers of
    ``x = t + t^(-1) - 2`` (whose d-th power has leading term ``t^d`` with
    coefficient 1), returning ``{degree: coefficient}``.  The powers are
    built once, each from the previous one, so degree ``k`` costs O(k^2)
    coefficient operations.
    """
    if not target.is_symmetric():
        raise ValueError("only symmetric Laurent polynomials reduce to x-polynomials")
    out: dict[int, int] = {}
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
    model = make_ring(Space(f"hp{n}", "hp", n, 0))
    coeffs = symmetric_reduce(LaurentPoly.circle_class(k))
    return model.element({d: c for d, c in coeffs.items() if d <= n})


# --------------------------------------------------------------------------
# Adams operations
# --------------------------------------------------------------------------


def adams(k: int, a: RingElement) -> RingElement:
    """Adams operation ``psi^k``: ``psi^k(x^e nu) = k^m psi^k(x)^e nu``."""
    if k < 1:
        raise ValueError("Adams index must be at least 1")
    model = a.model
    n, start = model.space.n, model.basis.start
    coefficient = _KINDS[model.space.kind][3]
    image = {j: coefficient(k, j) for j in range(1, min(k, n) + 1)}
    suspension = k**model.space.m
    top = max((e for e, c in zip(model.basis, a.coeffs) if c), default=start - 1)
    vec = [0] * len(model.basis)
    # psi^k(x)^e, truncated above x^n, raised one exponent at a time and
    # only as far as the last nonzero coefficient.
    power = {0: 1}
    for e, c in zip(range(start, top + 1), a.coeffs):
        if e:
            nxt: dict[int, int] = {}
            for d1, c1 in power.items():
                for d2, c2 in image.items():
                    d = d1 + d2
                    if d <= n:
                        nxt[d] = nxt.get(d, 0) + c1 * c2
            power = nxt
        if c:
            for d, p in power.items():
                vec[d - start] += suspension * c * p
    return RingElement(model, tuple(vec))


def adams_matrix(model: RingModel, k: int) -> tuple:
    """Matrix of ``psi^k`` on ``model``'s basis, as a tuple of rows.

    Entry ``[j][i]`` is the coefficient of basis monomial ``j`` in the image
    of basis monomial ``i``.  With the basis ordered by increasing cell
    dimension (``model.dims``) the matrix is lower triangular, and the
    diagonal entry of a monomial in cell dimension ``2d`` is ``k^d``.
    """
    cols = [adams(k, model.monomial(mono)).coeffs for mono in model.basis]
    return tuple(zip(*cols))


# --------------------------------------------------------------------------
# Parsing and serialization
# --------------------------------------------------------------------------

_SPACE_RE = re.compile(r"^(cp|hp|s)(\d+)$")
_ELEMENT_RE = re.compile(r"^(mu|phi|nu)(?:\^(\d+))?$")


def _parse_atom(text: str) -> tuple:
    m = _SPACE_RE.match(text)
    if not m:
        raise ValueError(f"unrecognized space {text!r}")
    # Leading zeros are stripped first: int() refuses more than 4300 digits.
    kind, num = m.group(1), int(m.group(2).lstrip("0") or "0")
    if kind == "s" and (num % 2 != 0 or num == 0):
        raise ValueError(f"only even spheres are modeled, got s{num}")
    return kind, num


def parse_space(text: str) -> Space:
    """Parse a space label such as ``cp2``, ``s2``, or ``s2-smash-cp2``.

    Only the syntax is checked here.  The pairing of a smash and the degrees
    are left to :func:`make_ring`, so that a caller can bound the label's
    indices in between.
    """
    atoms = [_parse_atom(part) for part in text.strip().lower().split("-smash-", 1)]
    label = "-smash-".join(f"{kind}{num}" for kind, num in atoms)
    kinds = [kind for kind, _ in atoms]
    if len(atoms) == 2 and kinds.count("s") != 1:
        return Space(label, None, 0, 0)
    sizes = dict(atoms)
    kind = next((k for k in kinds if k != "s"), None)
    return Space(label, kind, sizes.get(kind, 0), sizes.get("s", 0) // 2)


def parse_element(model: RingModel, text: str) -> RingElement:
    """Parse a basis monomial name (``mu``, ``phi``, ``nu``, ``mu^2*nu``...)."""
    text = text.strip().lower()
    generator = _KINDS[model.space.kind][0]
    exponents = {sym: 0 for sym in (generator, "nu" if model.space.m else None) if sym}
    for part in text.split("*"):
        m = _ELEMENT_RE.match(part.strip())
        if not m:
            raise ValueError(f"unrecognized element {text!r}")
        sym, power = m.group(1), int((m.group(2) or "1").lstrip("0") or "0")
        if sym not in exponents:
            raise ValueError(f"{sym!r} is not a generator of {model.label}")
        exponents[sym] += power
    mono = exponents.pop(generator, 0)
    if mono not in model.basis or exponents.get("nu", 1) != 1:
        raise ValueError(f"{text!r} is not a basis monomial of {model.label}")
    return model.monomial(mono)


def element_to_json(elem: RingElement) -> dict:
    """Serialize to ``{"space": label, "coeffs": [decimal strings]}``."""
    return {
        "space": elem.model.label,
        "coeffs": [str(c) for c in elem.coeffs],
    }
