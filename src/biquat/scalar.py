"""The complex quaternion (biquaternion) algebra.

An element is ``a = a0 + a1*e1 + a2*e2 + a3*e3`` with complex components and
basis law ``e1**2 = e2**2 = e3**2 = -1``, ``e1*e2 = -e2*e1 = e3`` (and cyclic).
Unlike real quaternions the algebra has zero divisors: ``a`` is invertible
exactly when its weak norm ``a0**2 + a1**2 + a2**2 + a3**2`` is nonzero.

The algebra is isomorphic to the full 2x2 complex matrix algebra; the
isomorphism is the workhorse for everything nontrivial here: pseudoinverse,
canonical forms under similarity, and the similarity witnesses themselves.
The algebra's two defining tables live here, once each, and work on
components of any array shape: :func:`image` and :func:`preimage` (the
isomorphism and its inverse) and :func:`product` (the multiplication
table).  The scalar image, both matrix representations, their inverses and
the scalar and matrix products all apply them.  Only the frame
constructions stay separate: those of :mod:`matrix`, which the verify laws
compare against, and the eigenvector lift of :mod:`spectral`.

The image of an element is the block representation of its 1x1 matrix, so
each tolerance decision here applies the matrix layer's rule for the same
question (rank, full kernel, eigenvalue clustering; see :mod:`clinalg`) to it.

A :class:`Biquaternion` holds four plain Python ``complex`` components, and
its arithmetic is plain ``complex`` arithmetic through the same tables; numpy
enters only where a decision needs the 2x2 image (rank, pseudoinverse,
similarity witness).  Every element, whether given or computed, is built by
its constructor, which checks once that its components are finite.  A given
component that is not finite is an input error (ValueError); an operation
whose result leaves the float range raises OverflowError.
"""

from __future__ import annotations

import cmath
import enum
import math
import operator
import re
from typing import NamedTuple

import numpy as np

from . import clinalg
from .errors import DegenerateWitnessError, DimensionError, NotInvertibleError


def principal_sqrt(z: complex) -> complex:
    """Complex square root on the branch Re >= 0 (Im >= 0 when Re == 0)."""
    r = complex(np.sqrt(complex(z)))
    if r.real < 0 or (r.real == 0 and r.imag < 0):
        r = -r
    return r


def image(c):
    """The 2x2 complex image of components ``(c0, c1, c2, c3)``: its cells
    ``(m11, m12, m21, m22)`` of ``[[c0 + i*c1, -(c2 + i*c3)], [c2 - i*c3, c0 - i*c1]]``.

    The components may be numbers or arrays of one shape; the cells then
    have that shape (for the components of a matrix, the four blocks of its
    block representation).
    """
    c0, c1, c2, c3 = c
    i1, i3 = 1j * c1, 1j * c3
    return c0 + i1, -(c2 + i3), c2 - i3, c0 - i1


def preimage(m11, m12, m21, m22):
    """Inverse of :func:`image`: the components ``(c0, c1, c2, c3)`` of the
    cells of any 2x2 complex matrix, cellwise for arrays.

    Each cell is halved before two are combined, so finite cells give finite
    components; halving is exact outside the subnormal range, where the
    result equals that of halving the sum."""
    h11, h12, h21, h22 = m11 / 2, m12 / 2, m21 / 2, m22 / 2
    return h11 + h22, 1j * (h22 - h11), h21 - h12, 1j * (h12 + h21)


def product(a, b, prod):
    """The multiplication table: components of ``a * b`` from the components
    of ``a`` and ``b``, with ``prod`` multiplying one component by another
    (``operator.mul`` for numbers, ``np.multiply`` or ``np.matmul`` for the
    component arrays of matrices)."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (
        prod(a0, b0) - prod(a1, b1) - prod(a2, b2) - prod(a3, b3),
        prod(a0, b1) + prod(a1, b0) + prod(a2, b3) - prod(a3, b2),
        prod(a0, b2) + prod(a2, b0) + prod(a3, b1) - prod(a1, b3),
        prod(a0, b3) + prod(a3, b0) + prod(a1, b2) - prod(a2, b1),
    )


class CanonicalCase(enum.Enum):
    """Which similarity canonical form an element falls into."""

    COMPLEX = "complex"  # central element, similar only to itself
    GENERIC = "generic"  # nonzero vector magnitude: similar to a0 + tau*e1
    NULL = "null"  # isotropic vector part: similar to a0 - e2/2 + i*e3/2


class ScalarFlags(NamedTuple):
    """Structural predicates of a single element."""

    real: bool
    pure_imaginary: bool
    scalar: bool
    hermitian: bool


def _component(k: int) -> property:
    return property(lambda self: self.components[k], doc=f"Component ``a{k}``, a Python ``complex``.")


class Biquaternion:
    """One complex quaternion: an immutable value of four plain Python
    ``complex`` components, equal (and hashed) exactly by them.

    Every element, given or computed, is built by ``__init__``, which checks
    its components once: a component that is not finite raises ValueError.
    Arithmetic works on the components as plain ``complex`` numbers; a
    result that leaves the float range raises OverflowError instead.
    """

    __slots__ = ("components",)

    def __init__(self, a0: complex = 0, a1: complex = 0, a2: complex = 0, a3: complex = 0):
        c = (complex(a0), complex(a1), complex(a2), complex(a3))
        if not (cmath.isfinite(c[0]) and cmath.isfinite(c[1]) and cmath.isfinite(c[2]) and cmath.isfinite(c[3])):
            k = next(k for k, z in enumerate(c) if not cmath.isfinite(z))
            raise ValueError(f"component a{k} is not finite: {c[k]!r}")
        object.__setattr__(self, "components", c)

    a0, a1, a2, a3 = map(_component, range(4))

    def __setattr__(self, name, value):
        raise AttributeError(f"Biquaternion is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"Biquaternion is immutable: cannot delete {name!r}")

    def __reduce__(self):
        return (type(self), self.components)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.components == other.components

    def __hash__(self) -> int:
        return hash(self.components)  # hash(-0.0) == hash(0.0), as equality needs

    def __repr__(self) -> str:
        return "Biquaternion(a0=%r, a1=%r, a2=%r, a3=%r)" % self.components

    # -- basic structure ---------------------------------------------------

    def _scaled(self) -> tuple[tuple[complex, ...], float]:
        """The components times ``unit``, :func:`clinalg.scaling_unit` of the
        largest real or imaginary part, and ``unit``: their squares can
        neither overflow nor underflow, and every ratio is unchanged."""
        a0, a1, a2, a3 = self.components
        # Parts, not moduli: abs() of a component overflows past 1.8e308.
        top = max(map(abs, (a0.real, a0.imag, a1.real, a1.imag, a2.real, a2.imag, a3.real, a3.imag)))
        unit = clinalg.scaling_unit(top)
        return (a0 * unit, a1 * unit, a2 * unit, a3 * unit), unit

    def norm(self) -> float:
        """Euclidean magnitude ``sqrt(sum |component|**2)`` (a real norm,
        unrelated to the complex-valued weak norm)."""
        comps, unit = self._scaled()
        return math.sqrt(sum(abs(c) ** 2 for c in comps)) / unit

    def __bool__(self) -> bool:
        return any(self.components)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other) -> "Biquaternion":
        b = _components(other)
        if b is NotImplemented:
            return NotImplemented
        a0, a1, a2, a3 = self.components
        return _computed((a0 + b[0], a1 + b[1], a2 + b[2], a3 + b[3]), "the sum")

    __radd__ = __add__

    def __sub__(self, other) -> "Biquaternion":
        b = _components(other)
        if b is NotImplemented:
            return NotImplemented
        a0, a1, a2, a3 = self.components
        return _computed((a0 - b[0], a1 - b[1], a2 - b[2], a3 - b[3]), "the difference")

    def __rsub__(self, other) -> "Biquaternion":
        b = _components(other)
        if b is NotImplemented:
            return NotImplemented
        a0, a1, a2, a3 = self.components
        return _computed((b[0] - a0, b[1] - a1, b[2] - a2, b[3] - a3), "the difference")

    def __neg__(self) -> "Biquaternion":
        a0, a1, a2, a3 = self.components
        return Biquaternion(-a0, -a1, -a2, -a3)

    def __mul__(self, other) -> "Biquaternion":
        b = _components(other)
        if b is NotImplemented:
            return NotImplemented
        return _computed(product(self.components, b, operator.mul), "the product")

    def __rmul__(self, other) -> "Biquaternion":
        b = _components(other)
        if b is NotImplemented:
            return NotImplemented
        return _computed(product(b, self.components, operator.mul), "the product")

    def __truediv__(self, other) -> "Biquaternion":
        # Division only by central (complex) scalars; for general elements
        # multiply by .inverse() explicitly to pick a side.
        if isinstance(other, Biquaternion):
            return NotImplemented
        b = _components(other)
        if b is NotImplemented:
            return NotImplemented
        # The product by the reciprocal, which a subnormal divisor takes out of range.
        return _computed(product(self.components, (1.0 / b[0], 0j, 0j, 0j), operator.mul), "the quotient")

    # -- conjugations and norms ----------------------------------------------

    def dual(self) -> "Biquaternion":
        """Negate the e-part."""
        a0, a1, a2, a3 = self.components
        return Biquaternion(a0, -a1, -a2, -a3)

    def cconj(self) -> "Biquaternion":
        """Conjugate each complex component."""
        a0, a1, a2, a3 = self.components
        return Biquaternion(a0.conjugate(), a1.conjugate(), a2.conjugate(), a3.conjugate())

    def hconj(self) -> "Biquaternion":
        """Hermitian conjugate: dual followed by componentwise conjugation."""
        a0, a1, a2, a3 = self.components
        return Biquaternion(a0.conjugate(), (-a1).conjugate(), (-a2).conjugate(), (-a3).conjugate())

    def weak_norm(self) -> complex:
        """The complex quadratic form ``a0**2 + a1**2 + a2**2 + a3**2``.

        Satisfies ``a * a.dual() == weak_norm(a)``; zero exactly on the zero
        divisors of the algebra.
        """
        return sum(c * c for c in self.components)

    def inverse(self) -> "Biquaternion":
        """Two-sided inverse ``dual(a) / weak_norm(a)``, taken on ``a`` scaled
        exactly by a power of two, so the weak norm cannot overflow or underflow.

        The image has ``|image|_F**2 == 2*|a|**2`` and determinant
        ``weak_norm(a)``, so ``2*|a|**2 / |weak_norm(a)|`` bounds its condition
        number; up to ``0.1 / DEFAULT_TOL`` the rank rule finds rank 2 and is
        not run.

        Raises:
            NotInvertibleError: when the image has numerical rank below 2
                (a zero divisor), exactly as the 1x1 :meth:`BqMatrix.inverse`.
            OverflowError: if the inverse lies beyond the float range.
        """
        comps, unit = self._scaled()
        wn = sum(c * c for c in comps)
        certified = wn != 0 and 2 * sum(abs(c) ** 2 for c in comps) <= 0.1 / clinalg.DEFAULT_TOL * abs(wn)
        # The rank rule on the scaled image, whose cells cannot overflow.
        if not certified and clinalg.rank(Biquaternion(*comps).as_complex_matrix()) < 2:
            raise NotInvertibleError("the image has rank below 2; element is not invertible")
        b0, b1, b2, b3 = comps
        # The product table against the central (unit / wn), zeros included,
        # which fixes the signs of zero components.
        return _computed(product((b0, -b1, -b2, -b3), (unit / wn, 0j, 0j, 0j), operator.mul), "the inverse")

    # -- complex 2x2 representation -------------------------------------------

    def as_complex_matrix(self) -> np.ndarray:
        """Faithful 2x2 complex image ``[[a0+a1*i, -(a2+a3*i)], [a2-a3*i, a0-a1*i]]``
        (:func:`image`).

        Raises:
            OverflowError: if a cell lies beyond the float range.
        """
        m11, m12, m21, m22 = image(self.components)
        return clinalg.within_range(np.array([[m11, m12], [m21, m22]]), "the image")

    @classmethod
    def from_complex_matrix(cls, m) -> "Biquaternion":
        """Inverse of :meth:`as_complex_matrix` on any 2x2 complex matrix (ValueError if a
        cell is not finite); the preimage of finite cells is finite."""
        m = clinalg.as_cmatrix(m)
        if m.shape != (2, 2):
            raise DimensionError(f"expected a 2x2 matrix, got {m.shape}")
        return cls(*preimage(m[0, 0], m[0, 1], m[1, 0], m[1, 1]))

    def pinv(self) -> "Biquaternion":
        """Moore-Penrose inverse: the unique solution of the four Penrose
        equations; coincides with :meth:`inverse` on invertible elements and
        maps zero divisors to zero divisors (and 0 to 0)."""
        return Biquaternion.from_complex_matrix(clinalg.pinv(self.as_complex_matrix()))

    # -- similarity ------------------------------------------------------------

    def canonical_form(self) -> tuple["Biquaternion", CanonicalCase]:
        """Similarity canonical form of the element.

        Central elements are their own form; otherwise ``a0 + tau*e1``, or
        ``a0 - e2/2 + i*e3/2`` when the e-part is isotropic.  The rank rule
        ``clinalg.DEFAULT_TOL`` decides the central case (a negligible e-part),
        the cluster rule ``clinalg.CLUSTER_TOL`` the null case: the image's
        eigenvalues ``a0 +/- i*tau`` merge, ``|2*tau| <= CLUSTER_TOL*sqrt(2)*|a|``.
        Every decision is taken on the element scaled by a power of two, so it
        holds at any magnitude.

        Raises:
            OverflowError: if ``tau`` lies beyond the float range.
        """
        comps, unit = self._scaled()
        if _is_central(comps):
            return self, CanonicalCase.COMPLEX
        _, a1, a2, a3 = comps
        tau_sq = a1**2 + a2**2 + a3**2
        scaled_norm = math.sqrt(sum(abs(c) ** 2 for c in comps))
        if abs(tau_sq) <= 0.5 * (clinalg.CLUSTER_TOL * scaled_norm) ** 2:
            return (
                Biquaternion(self.a0, 0, -0.5, 0.5j),
                CanonicalCase.NULL,
            )
        tau = principal_sqrt(tau_sq) / unit
        if not cmath.isfinite(tau):
            raise OverflowError("tau of the canonical form exceeds the float range")
        return Biquaternion(self.a0, tau, 0, 0), CanonicalCase.GENERIC

    def similarity_witness(self) -> "Biquaternion":
        """Invertible ``p`` with ``p.inverse() * a * p`` equal to the canonical form.

        Constructed by diagonalizing (generic case) or Jordan-reducing (null
        case) the 2x2 complex image and pulling the similarity matrix back
        through the isomorphism.  The generic witness is taken from the
        element scaled by a power of two, so it exists at any magnitude.

        Raises:
            DegenerateWitnessError: if the witness's image is numerically
                rank deficient.  In the null case the form is fixed, so the
                witness's condition number grows as ``max(|N|, 1/|N|)``,
                ``N = image - a0*I``: the rank rule ``clinalg.DEFAULT_TOL``
                makes this raise once ``|N|`` passes ``1/DEFAULT_TOL`` or
                ``DEFAULT_TOL`` (``1e10`` or ``1e-10``).
            OverflowError: if ``tau`` of the form, or in the null case the
                image or the witness, lies beyond the float range.
        """
        form, case = self.canonical_form()
        if case is CanonicalCase.COMPLEX or self == form:
            return Biquaternion(1)
        if case is CanonicalCase.NULL:
            s = self._null_reduction(self.as_complex_matrix())
        else:
            s = self._generic_reduction()
        if clinalg.rank(clinalg.within_range(s, "the witness")) < 2:
            raise DegenerateWitnessError("the constructed witness is a zero divisor")
        return Biquaternion.from_complex_matrix(s)

    def _generic_reduction(self) -> np.ndarray:
        # Unit eigenvectors for a0 + tau*i and a0 - tau*i (the diagonal of the
        # form's image) of the scaled element: directions do not scale.
        comps = self._scaled()[0]
        m11, m12, m21, m22 = image(comps)
        tau = principal_sqrt(comps[1] ** 2 + comps[2] ** 2 + comps[3] ** 2)
        cols = []
        for mu in image((comps[0], tau, 0j, 0j))[::3]:
            v1 = np.array([m12, mu - m11])
            v2 = np.array([mu - m22, m21])
            v = v1 if np.linalg.norm(v1) >= np.linalg.norm(v2) else v2
            cols.append(v / np.linalg.norm(v))
        return np.column_stack(cols)

    def _null_reduction(self, m: np.ndarray) -> np.ndarray:
        # m - a0*I is nonzero nilpotent; [N@w, w] gives the Jordan basis, and
        # a nonzero column of N always yields an invertible basis.
        nil = m - self.a0 * np.eye(2)
        w = np.eye(2)[:, int(np.linalg.norm(nil[:, 1]) > np.linalg.norm(nil[:, 0]))]
        return np.column_stack([nil @ w, w])

    def classify(self) -> ScalarFlags:
        """Structural flags: real (``a.cconj() == a``), pure imaginary
        (``a.cconj() == -a``), scalar (``a.dual() == a``), Hermitian
        (``a.hconj() == a``), each componentwise within
        ``clinalg.DEFAULT_TOL * |a|``, decided on the element scaled by a
        power of two (no overflow)."""
        b = Biquaternion(*self._scaled()[0])
        scale = clinalg.DEFAULT_TOL * b.norm()

        def close(x: "Biquaternion", y: "Biquaternion") -> bool:
            return all(abs(cx - cy) <= scale for cx, cy in zip(x.components, y.components))

        return ScalarFlags(
            real=close(b.cconj(), b),
            pure_imaginary=close(b.cconj(), -b),
            scalar=close(b.dual(), b),
            hermitian=close(b.hconj(), b),
        )

    # -- rendering ----------------------------------------------------------

    def __str__(self) -> str:
        return format_biquaternion(self)


def _components(value):
    """The components of an element, or of a number taken as a central
    element (ValueError if it is not finite); NotImplemented for anything else."""
    if isinstance(value, Biquaternion):
        return value.components
    if isinstance(value, (int, float, complex, np.number)):
        z = complex(value)
        if not cmath.isfinite(z):
            raise ValueError(f"operand is not finite: {z!r}")
        return (z, 0j, 0j, 0j)
    return NotImplemented


def _computed(c, what: str) -> Biquaternion:
    """The element with components ``c``, computed from finite values: a
    component that is not finite left the float range (OverflowError naming
    ``what``), unlike one given from outside (ValueError)."""
    try:
        return Biquaternion(*c)
    except ValueError as exc:
        raise OverflowError(f"{what} exceeds the float range") from exc


def _is_central(comps) -> bool:
    """``|e-part| <= DEFAULT_TOL * |a|`` on scaled components: the full-kernel rule."""
    a0, a1, a2, a3 = comps
    vec = abs(a1) ** 2 + abs(a2) ** 2 + abs(a3) ** 2
    return vec <= clinalg.DEFAULT_TOL**2 * (abs(a0) ** 2 + vec)


ONE = Biquaternion(1)
E1 = Biquaternion(0, 1)
E2 = Biquaternion(0, 0, 1)
E3 = Biquaternion(0, 0, 0, 1)


def format_complex(z: complex, digits: int | None = None) -> str:
    """Render a complex number as ``re+imi`` (e.g. ``1.5-2i``)."""
    if digits is None:
        re, im = repr(z.real), repr(z.imag)
        sign = "" if im.startswith("-") else "+"
        return f"{re}{sign}{im}i"
    re, im = z.real + 0.0, z.imag + 0.0  # +0.0 folds away negative zeros
    return f"{re:.{digits}g}{im:+.{digits}g}i"


def format_biquaternion(a: Biquaternion, digits: int | None = None) -> str:
    """Canonical text form ``(a0) + (a1)e1 + (a2)e2 + (a3)e3``."""
    parts = [format_complex(c, digits) for c in a.components]
    return f"({parts[0]}) + ({parts[1]})e1 + ({parts[2]})e2 + ({parts[3]})e3"


_BQ_RE = re.compile(
    r"^\s*\(([^()]*)\)\s*\+\s*\(([^()]*)\)\s*e1\s*\+\s*\(([^()]*)\)\s*e2\s*\+\s*\(([^()]*)\)\s*e3\s*$"
)
_CPLX_RE = re.compile(
    r"^\s*([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)\s*([+-]\s*(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)\s*i\s*$"
)


def parse_complex(text: str) -> complex:
    m = _CPLX_RE.match(text)
    if not m:
        raise ValueError(f"cannot parse complex number from {text!r}")
    return complex(float(m.group(1)), float(m.group(2).replace(" ", "")))


def parse_biquaternion(text: str) -> Biquaternion:
    """Parse the text form produced by :func:`format_biquaternion`."""
    m = _BQ_RE.match(text)
    if not m:
        raise ValueError(f"cannot parse biquaternion from {text!r}")
    return Biquaternion(*(parse_complex(g) for g in m.groups()))
