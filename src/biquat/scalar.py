"""The complex quaternion (biquaternion) algebra.

An element is ``a = a0 + a1*e1 + a2*e2 + a3*e3`` with complex components and
basis law ``e1**2 = e2**2 = e3**2 = -1``, ``e1*e2 = -e2*e1 = e3`` (and cyclic).
Unlike real quaternions the algebra has zero divisors: ``a`` is invertible
exactly when its weak norm ``a0**2 + a1**2 + a2**2 + a3**2`` is nonzero.

The algebra is isomorphic to the full 2x2 complex matrix algebra; the
isomorphism (:meth:`Biquaternion.as_complex_matrix` and its inverse) is the
workhorse for everything nontrivial here: pseudoinverse, canonical forms
under similarity, and the similarity witnesses themselves.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import clinalg
from .errors import DegenerateWitnessError, DimensionError, NotInvertibleError

# Treat |weak norm| <= ZERO_DIVISOR_TOL * (1 + |a|**2) as zero: the weak norm
# is complex-valued and can be small without vanishing.
ZERO_DIVISOR_TOL = 1e-12


def principal_sqrt(z: complex) -> complex:
    """Complex square root on the branch Re >= 0 (Im >= 0 when Re == 0)."""
    r = complex(np.sqrt(complex(z)))
    if r.real < 0 or (r.real == 0 and r.imag < 0):
        r = -r
    return r


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


@dataclass(frozen=True)
class Biquaternion:
    """One complex quaternion, immutable, with exact componentwise equality."""

    a0: complex = 0
    a1: complex = 0
    a2: complex = 0
    a3: complex = 0

    def __post_init__(self):
        for name in ("a0", "a1", "a2", "a3"):
            z = complex(getattr(self, name))
            if not (np.isfinite(z.real) and np.isfinite(z.imag)):
                raise ValueError(f"component {name} is not finite: {z!r}")
            object.__setattr__(self, name, z)

    # -- basic structure ---------------------------------------------------

    @property
    def components(self) -> tuple[complex, complex, complex, complex]:
        return (self.a0, self.a1, self.a2, self.a3)

    def norm(self) -> float:
        """Euclidean magnitude ``sqrt(sum |component|**2)`` (a real norm,
        unrelated to the complex-valued weak norm)."""
        return float(np.sqrt(sum(abs(c) ** 2 for c in self.components)))

    def is_complex(self, tol: float = ZERO_DIVISOR_TOL) -> bool:
        """True when the e-part vanishes within tolerance."""
        scale = 1.0 + self.norm()
        return all(abs(c) <= tol * scale for c in (self.a1, self.a2, self.a3))

    def __bool__(self) -> bool:
        return any(c != 0 for c in self.components)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other) -> "Biquaternion":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Biquaternion(*(x + y for x, y in zip(self.components, other.components)))

    __radd__ = __add__

    def __sub__(self, other) -> "Biquaternion":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Biquaternion(*(x - y for x, y in zip(self.components, other.components)))

    def __rsub__(self, other) -> "Biquaternion":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self) -> "Biquaternion":
        return Biquaternion(-self.a0, -self.a1, -self.a2, -self.a3)

    def __mul__(self, other) -> "Biquaternion":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a0, a1, a2, a3 = self.components
        b0, b1, b2, b3 = other.components
        return Biquaternion(
            a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
            a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
            a0 * b2 + a2 * b0 + a3 * b1 - a1 * b3,
            a0 * b3 + a3 * b0 + a1 * b2 - a2 * b1,
        )

    def __rmul__(self, other) -> "Biquaternion":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self

    def __truediv__(self, other) -> "Biquaternion":
        # Division only by central (complex) scalars; for general elements
        # multiply by .inverse() explicitly to pick a side.
        if isinstance(other, Biquaternion):
            return NotImplemented
        return self * (1.0 / complex(other))

    # -- conjugations and norms ----------------------------------------------

    def dual(self) -> "Biquaternion":
        """Negate the e-part."""
        return Biquaternion(self.a0, -self.a1, -self.a2, -self.a3)

    def cconj(self) -> "Biquaternion":
        """Conjugate each complex component."""
        return Biquaternion(*(c.conjugate() for c in self.components))

    def hconj(self) -> "Biquaternion":
        """Hermitian conjugate: dual followed by componentwise conjugation."""
        return self.dual().cconj()

    def weak_norm(self) -> complex:
        """The complex quadratic form ``a0**2 + a1**2 + a2**2 + a3**2``.

        Satisfies ``a * a.dual() == weak_norm(a)``; zero exactly on the zero
        divisors of the algebra.
        """
        return sum(c * c for c in self.components)

    def vector_magnitude(self) -> complex:
        """Principal square root of ``a1**2 + a2**2 + a3**2``.

        The complex magnitude of the e-part; together with ``a0`` it is a
        complete similarity invariant for elements outside the null case.
        """
        return principal_sqrt(self.a1**2 + self.a2**2 + self.a3**2)

    def inverse(self, tol: float = ZERO_DIVISOR_TOL) -> "Biquaternion":
        """Two-sided inverse ``dual(a) / weak_norm(a)``.

        Raises:
            NotInvertibleError: when the weak norm vanishes within tolerance
                (the element is zero or a zero divisor).
        """
        n = self.weak_norm()
        if abs(n) <= tol * (1.0 + self.norm() ** 2):
            raise NotInvertibleError(f"weak norm {n!r} vanishes; element is not invertible")
        return self.dual() * (1.0 / n)

    # -- complex 2x2 representation -------------------------------------------

    def as_complex_matrix(self) -> np.ndarray:
        """Faithful 2x2 complex image ``[[a0+a1*i, -(a2+a3*i)], [a2-a3*i, a0-a1*i]]``."""
        a0, a1, a2, a3 = self.components
        return np.array(
            [[a0 + a1 * 1j, -(a2 + a3 * 1j)], [a2 - a3 * 1j, a0 - a1 * 1j]]
        )

    @classmethod
    def from_complex_matrix(cls, m) -> "Biquaternion":
        """Inverse of :meth:`as_complex_matrix`; accepts any 2x2 complex matrix."""
        m = clinalg.as_cmatrix(m)
        if m.shape != (2, 2):
            raise DimensionError(f"expected a 2x2 matrix, got {m.shape}")
        m11, m12, m21, m22 = m[0, 0], m[0, 1], m[1, 0], m[1, 1]
        return cls(
            (m11 + m22) / 2,
            1j * (m22 - m11) / 2,
            (m21 - m12) / 2,
            1j * (m12 + m21) / 2,
        )

    def pinv(self, tol: float = clinalg.DEFAULT_TOL) -> "Biquaternion":
        """Moore-Penrose inverse: the unique solution of the four Penrose
        equations; coincides with :meth:`inverse` on invertible elements and
        maps zero divisors to zero divisors (and 0 to 0)."""
        return Biquaternion.from_complex_matrix(
            clinalg.pinv(self.as_complex_matrix(), tol)
        )

    # -- similarity ------------------------------------------------------------

    def canonical_form(
        self, tol: float = ZERO_DIVISOR_TOL
    ) -> tuple["Biquaternion", CanonicalCase]:
        """Similarity canonical form of the element.

        Central elements are their own form; otherwise ``a0 + tau*e1`` when
        the vector magnitude ``tau`` is nonzero, and ``a0 - e2/2 + i*e3/2``
        when the e-part is isotropic (``tau**2 == 0``).
        """
        if self.is_complex(tol):
            return self, CanonicalCase.COMPLEX
        tau_sq = self.a1**2 + self.a2**2 + self.a3**2
        vec_scale = abs(self.a1) ** 2 + abs(self.a2) ** 2 + abs(self.a3) ** 2
        if abs(tau_sq) <= tol * (1.0 + vec_scale):
            return (
                Biquaternion(self.a0, 0, -0.5, 0.5j),
                CanonicalCase.NULL,
            )
        tau = principal_sqrt(tau_sq)
        return Biquaternion(self.a0, tau, 0, 0), CanonicalCase.GENERIC

    def similarity_witness(self, tol: float = ZERO_DIVISOR_TOL) -> "Biquaternion":
        """Invertible ``p`` with ``p.inverse() * a * p`` equal to the canonical form.

        Constructed by diagonalizing (generic case) or Jordan-reducing (null
        case) the 2x2 complex image and pulling the similarity matrix back
        through the isomorphism.

        Raises:
            DegenerateWitnessError: if every constructed candidate has
                vanishing weak norm within tolerance.
        """
        form, case = self.canonical_form(tol)
        if case is CanonicalCase.COMPLEX or self == form:
            return Biquaternion(1)
        m = self.as_complex_matrix()
        if case is CanonicalCase.NULL:
            s = self._null_reduction(m)
        else:
            s = self._generic_reduction(m, form)
        for scale in (1.0, 2.0, 8.0):
            p = Biquaternion.from_complex_matrix(scale * s)
            if abs(p.weak_norm()) > tol * (1.0 + p.norm() ** 2):
                return p
        raise DegenerateWitnessError("all candidate witnesses are zero divisors")

    def _generic_reduction(self, m: np.ndarray, form: "Biquaternion") -> np.ndarray:
        # Columns are eigenvectors for a0 + tau*i and a0 - tau*i, in that order.
        cols = []
        for mu in (form.a0 + form.a1 * 1j, form.a0 - form.a1 * 1j):
            v1 = np.array([m[0, 1], mu - m[0, 0]])
            v2 = np.array([mu - m[1, 1], m[1, 0]])
            v = v1 if np.linalg.norm(v1) >= np.linalg.norm(v2) else v2
            nv = np.linalg.norm(v)
            if nv == 0.0:  # m already diagonal: basis vector in matching slot
                v = np.array([1.0, 0.0]) if abs(m[0, 0] - mu) <= abs(m[1, 1] - mu) else np.array([0.0, 1.0])
                nv = 1.0
            cols.append(v / nv)
        return np.column_stack(cols)

    def _null_reduction(self, m: np.ndarray) -> np.ndarray:
        # m - a0*I is nonzero nilpotent; [N@w, w] gives the Jordan basis, and
        # a nonzero column of N always yields an invertible basis.
        nil = m - self.a0 * np.eye(2)
        col = 0 if np.linalg.norm(nil[:, 0]) >= np.linalg.norm(nil[:, 1]) else 1
        w = np.zeros(2)
        w[col] = 1.0
        return np.column_stack([nil @ w, w])

    def classify(self, tol: float = ZERO_DIVISOR_TOL) -> ScalarFlags:
        """Structural flags: real (``a.cconj() == a``), pure imaginary
        (``a.cconj() == -a``), scalar (``a.dual() == a``), Hermitian
        (``a.hconj() == a``), each within componentwise tolerance."""
        scale = tol * (1.0 + self.norm())

        def close(x: "Biquaternion", y: "Biquaternion") -> bool:
            return all(
                abs(cx - cy) <= scale for cx, cy in zip(x.components, y.components)
            )

        return ScalarFlags(
            real=close(self.cconj(), self),
            pure_imaginary=close(self.cconj(), -self),
            scalar=close(self.dual(), self),
            hermitian=close(self.hconj(), self),
        )

    # -- rendering ----------------------------------------------------------

    def __str__(self) -> str:
        return format_biquaternion(self)

    @classmethod
    def parse(cls, text: str) -> "Biquaternion":
        return parse_biquaternion(text)


def _coerce(value):
    if isinstance(value, Biquaternion):
        return value
    if isinstance(value, (int, float, complex, np.integer, np.floating, np.complexfloating)):
        return Biquaternion(complex(value))
    return NotImplemented


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
