"""Matrix algebra over O_d, projective canonicalization, isometry
classification, and the Heisenberg boundary action.

``Mat`` is the reference type: a small (2x2 or 3x3) matrix with QuadRat
entries. All catalog matrices are in fact integral with a unit
determinant, and so is every word in them. The hot loops (the orbit
ball, the word search, and the word checks of the catalog and of
certify) therefore run on an integer kernel instead: a 3x3 matrix over O_d
as a flat tuple of 18 Python ints (an ``IntMat``), with its product,
inverse, word evaluation, canonical projective key, coefficient height and
the key of the image of the Heisenberg origin (``int_origin_key(d, x,
column)``, the point of x times a column), all in integers. Every
kernel function takes the ring d and ``IntMat``s, ``projective_order``
and ``classify`` included, which names the isometry class from Goldman's
discriminant and the characteristic polynomial; ``int_mat`` converts a
``Mat`` once, and the catalog's ``int_env`` is where the command-line verbs
get theirs.

The ball of radius L holds the projectively distinct elements of word
length at most L over the generators and their inverses; ``_spheres``
walks it one sphere at a time from the identity. It skips two kinds of
product, and neither can change its elements. It keeps one move per
projective class, because a move projectively equal to an earlier one
(the inverse of a projective involution such as I1 and I2 for d=3, or B1
and B2 for d=7) gives the class the earlier move gave the same element.
And it skips the move that undoes an element's last move, because that
product is the element's parent. Either product is already in the set of
seen keys, so the elements and their order stay those of the plain
breadth-first search over all moves. The word search
takes both its moves and its step (``_step``) from the ball.

The ball keeps each element m as its key u*m, u a unit. The key times a
move g is u*(m*g), which has the key, the zero entries and the origin
image (z = q/r and p/r) of m*g. So ``_spheres`` yields keys, and
``orbit_points`` forms the keys and points of the elements themselves.

``orbit_points`` runs the same breadth-first loop to radius L-1 only. The
image of the Heisenberg origin under m depends only on the third column of
m, because the origin lifts to (0, 0, 1). Every element of the sphere of
radius L is m*g with m in the sphere of radius L-1 and g a move other than
the one that undoes m's last move, so the last sphere's points are the
origin images of the columns m*(third column of g), which int_origin_key
forms from m and that column in one call, and no 3x3 product is needed.
An inner element m is the call with the column E3 = (0, 0, 1). A column
that repeats an earlier element only adds a point that is already in the
set. The one count that needs distinct elements is that of
the images at Infinity, so only those products are multiplied out in full
and counted when their key is new.

A move g whose third column is (0, 0, r) fixes the origin, and so does the
move that undoes it. The third column of m*g is then r times that of m,
and r != 0 because g is invertible, so m*g sends the origin where m does.
``orbit_points`` therefore forms no key for an inner element whose last
move is such a g, and no column and no key for the product of an element
of the sphere of radius L-1 by such a g: each skipped column is a nonzero
multiple of one whose key, boundary check included, was formed for an
ancestor. When m sends the origin to Infinity, so does m*g, but m*g may
still be a new element, so that product keeps the full product and key
and the count of elements at Infinity stays exact.

``int_inv`` is memoized: an inverse is a pure function of d and the
tuple x, and the command-line verbs invert only generator matrices, which
the catalog's own word checks have inverted already. The memo is bounded
(``INV_CACHE_SIZE``), because a library caller may invert many distinct
matrices.

Everything here is exact: no floating point enters any decision.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from functools import lru_cache, partial
from math import gcd, sqrt

from .exactring import (
    _TAU_ISQRTD, _TAU_SQ, UNITS, QuadInt, QuadRat, RingMismatchError, units,
)
from .fpgroups import Word, eval_word


class Mat(namedtuple("Mat", "d rows")):
    """Square matrix (2x2 or 3x3) over the fraction field of O_d: rows is a
    tuple of rows, each a tuple of QuadRat."""

    __slots__ = ()

    @property
    def n(self) -> int:
        return len(self.rows)

    @staticmethod
    def from_entries(d: int, entries) -> "Mat":
        rows = []
        for row in entries:
            out = []
            for e in row:
                if isinstance(e, int):
                    e = QuadRat(QuadInt.of_int(d, e), 1)
                elif isinstance(e, QuadInt):
                    e = QuadRat(e, 1)
                elif not isinstance(e, QuadRat):
                    raise TypeError(f"bad matrix entry {e!r}")
                if e.d != d:
                    raise RingMismatchError(f"entry in O_{e.d} inside O_{d} matrix")
                out.append(e)
            rows.append(tuple(out))
        n = len(rows)
        if any(len(r) != n for r in rows) or n not in (2, 3):
            raise ValueError("matrix must be square, 2x2 or 3x3")
        return Mat(d, tuple(rows))

    @staticmethod
    def identity(d: int, n: int = 3) -> "Mat":
        one, zero = QuadRat.one(d), QuadRat.zero(d)
        return Mat(d, tuple(
            tuple(one if i == j else zero for j in range(n)) for i in range(n)))

    def __mul__(self, other: "Mat") -> "Mat":
        if not isinstance(other, Mat):
            return NotImplemented
        if other.d != self.d:
            raise RingMismatchError("matrix rings differ")
        if other.n != self.n:
            raise ValueError("matrix sizes differ")
        n = self.n
        return Mat(self.d, tuple(
            tuple(
                sum((self.rows[i][k] * other.rows[k][j] for k in range(n)),
                    QuadRat.zero(self.d))
                for j in range(n))
            for i in range(n)))

    # tuple's concatenation and repetition would give a plain tuple
    def __add__(self, other):
        return NotImplemented

    def __rmul__(self, other):
        return NotImplemented

    # (1,) + m would concatenate too; returning NotImplemented would fall
    # back to it, so this raises
    def __radd__(self, other):
        raise TypeError(f"cannot add Mat to {type(other).__name__}")

    def scale(self, c) -> "Mat":
        c = QuadRat.of(c) if not isinstance(c, int) else QuadRat.of_fraction(self.d, c)
        return Mat(self.d, tuple(tuple(c * e for e in row) for row in self.rows))

    def det(self) -> QuadRat:
        r = self.rows
        if self.n == 2:
            return r[0][0] * r[1][1] - r[0][1] * r[1][0]
        return (r[0][0] * (r[1][1] * r[2][2] - r[1][2] * r[2][1])
                - r[0][1] * (r[1][0] * r[2][2] - r[1][2] * r[2][0])
                + r[0][2] * (r[1][0] * r[2][1] - r[1][1] * r[2][0]))

    def adjugate(self) -> "Mat":
        r = self.rows
        if self.n == 2:
            return Mat(self.d, ((r[1][1], -r[0][1]), (-r[1][0], r[0][0])))

        def cof(i, j):
            rs = [k for k in range(3) if k != i]
            cs = [k for k in range(3) if k != j]
            m = (r[rs[0]][cs[0]] * r[rs[1]][cs[1]]
                 - r[rs[0]][cs[1]] * r[rs[1]][cs[0]])
            return m if (i + j) % 2 == 0 else -m

        return Mat(self.d, tuple(tuple(cof(j, i) for j in range(3)) for i in range(3)))

    def inverse(self) -> "Mat":
        det = self.det()
        if det.is_zero():
            raise ZeroDivisionError("singular matrix")
        inv_det = QuadRat.one(self.d) / det
        return self.adjugate().scale(inv_det)

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.rows for e in row)

    def is_integral(self) -> bool:
        return all(e.is_integral() for row in self.rows for e in row)

    def key(self) -> tuple:
        """Flattened (num-a, num-b, den) triples, row-major."""
        return tuple(e.key() for row in self.rows for e in row)

    def max_coeff_bits(self) -> int:
        return max(max(abs(v).bit_length() for v in e.key())
                   for row in self.rows for e in row)

    def __str__(self) -> str:
        return "[" + "; ".join(
            ", ".join(str(e) for e in row) for row in self.rows) + "]"


# -- projective classes ----------------------------------------------------

class ProjIsom(namedtuple("ProjIsom", "rep")):
    """A matrix canonicalized modulo the unit group of O_d (rep is a Mat)."""

    __slots__ = ()

    def key(self) -> tuple:
        return self.rep.key()


def canonical_rep(m: Mat) -> ProjIsom:
    """The unit multiple of m minimal in the fixed entry-key order."""
    if m.is_zero():
        raise ValueError("zero matrix has no projective class")
    best = min((m.scale(QuadRat.of(u)) for u in units(m.d)), key=Mat.key)
    return ProjIsom(best)


def proj_eq(m: Mat, n: Mat) -> bool:
    """Equality in PU(2,1): n = u*m for some unit u."""
    return canonical_rep(m).key() == canonical_rep(n).key()


# -- Heisenberg boundary ---------------------------------------------------

class BoundaryPoint(namedtuple("BoundaryPoint", "d at_infinity z t_coeff",
                               defaults=(False, None, 0))):
    """Point of the boundary in Heisenberg coordinates, or Infinity.

    The finite variant stores z exactly in Q(i sqrt d) as a QuadRat and t as
    the exact rational coefficient t_coeff (a Fraction) with
    t = t_coeff * sqrt(d). The default t_coeff is the int 0, which compares
    and hashes equal to Fraction(0).
    """

    __slots__ = ()

    @staticmethod
    def infinity(d: int) -> "BoundaryPoint":
        return BoundaryPoint(d, at_infinity=True)

    @staticmethod
    def finite(z: QuadRat | QuadInt, t_coeff: Fraction | int = 0) -> "BoundaryPoint":
        from fractions import Fraction
        z = QuadRat.of(z)
        return BoundaryPoint(z.d, False, z, Fraction(t_coeff))

    @staticmethod
    def origin(d: int) -> "BoundaryPoint":
        return BoundaryPoint.finite(QuadRat.zero(d))

    @staticmethod
    def from_key(d: int, key: tuple[int, ...]) -> "BoundaryPoint":
        """The finite point whose key() is key."""
        from fractions import Fraction
        za, zb, den, tn, td = key
        return BoundaryPoint(d, False, QuadRat(QuadInt(d, za, zb), den), Fraction(tn, td))

    def key(self) -> tuple:
        if self.at_infinity:
            return ("inf",)
        return self.z.key() + (self.t_coeff.numerator, self.t_coeff.denominator)

    def lift(self) -> tuple[QuadRat, QuadRat, QuadRat]:
        """The column psi(z, t, 0) = ((-|z|^2 + it)/2, z, 1)."""
        if self.at_infinity:
            one = QuadRat.one(self.d)
            zero = QuadRat.zero(self.d)
            return (one, zero, zero)
        from fractions import Fraction
        half_norm = QuadRat.of_fraction(self.d, -self.z.norm() / 2)
        # Fraction(t, 2), not t / 2, which is a float for an int t_coeff
        it_half = QuadRat.of(QuadInt.sqrt_minus_d(self.d)) * QuadRat.of_fraction(
            self.d, Fraction(self.t_coeff, 2))
        return (half_norm + it_half, self.z, QuadRat.one(self.d))

    def approx(self) -> tuple[complex, float]:
        if self.at_infinity:
            raise ValueError("point at infinity has no Heisenberg coordinates")
        return self.z.approx(), float(self.t_coeff) * self.d ** 0.5


def key_rows(d: int, keys):
    """The CSV row "re_z,im_z,t" (each %.15g) of BoundaryPoint.from_key(d,
    key).approx() for each int_origin_key key, without building the point
    or a complex. The floats are those of QuadInt.approx, QuadRat.approx and
    BoundaryPoint.approx bit for bit: those form the parts of z in the same
    order, but as a complex divided by den. CPython divides a complex by a
    real as by a complex with a zero imaginary part, so each part of that
    quotient is this part over den plus a signed zero, and the zeros never
    change a sign: neither (2*za + zb*c1)/2 nor zb*cn/cd*root is -0.0, and
    den > 0. The "re_z,im_z," text is formed once for each run of keys
    with equal z, which sorted keys put side by side."""
    c1 = _TAU_SQ[d][1]
    cn, cd = _TAU_ISQRTD[d]
    root, half_power = sqrt(d), d ** 0.5
    last = head = None
    for za, zb, den, tn, td in keys:
        if (za, zb, den) != last:
            last = za, zb, den
            head = "%.15g,%.15g," % ((2 * za + zb * c1) / 2 / den, zb * cn / cd * root / den)
        yield "%s%.15g" % (head, tn / td * half_power)


def boundary_action(m: Mat, p: BoundaryPoint) -> BoundaryPoint:
    """Apply the projective action of m to a boundary point."""
    if m.d != p.d:
        raise RingMismatchError("matrix and point live over different rings")
    v = p.lift()
    w = tuple(
        sum((m.rows[i][k] * v[k] for k in range(3)), QuadRat.zero(m.d))
        for i in range(3))
    if w[2].is_zero():
        return BoundaryPoint.infinity(m.d)
    z = w[1] / w[2]
    first = w[0] / w[2]
    # first = (-|z|^2 + it)/2, so it/2 = first + |z|^2/2 must be imaginary
    it_half = first + QuadRat.of_fraction(m.d, z.norm() / 2)
    if it_half.real_part() != 0:
        raise ValueError("image left the boundary")
    t_coeff = 2 * it_half.isqrtd_coeff()
    return BoundaryPoint.finite(z, t_coeff)


# -- integer kernel --------------------------------------------------------
#
# An integral 3x3 matrix over O_d as a flat tuple of 18 ints: entry (i, j)
# is a + b*tau_d with a at index 6i + 2j and b right after it. Tuple order
# is the order of Mat.key() on integral matrices, so keys sort the same way.

IntMat = tuple[int, ...]

INT_ID: IntMat = (1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0)


def int_mat(m: Mat) -> IntMat:
    """The integer tuple of a 3x3 matrix; ValueError unless it is integral."""
    if m.n != 3 or not m.is_integral():
        raise ValueError("the integer kernel takes integral 3x3 matrices only")
    return tuple(v for row in m.rows for e in row for v in (e.num.a, e.num.b))


def mat_from_int(d: int, x: IntMat) -> Mat:
    """The Mat of an integer tuple: the inverse of int_mat."""
    e = [QuadRat(QuadInt(d, x[k], x[k + 1]), 1) for k in range(0, 18, 2)]
    return Mat(d, (tuple(e[0:3]), tuple(e[3:6]), tuple(e[6:9])))


def int_mul(d: int, x: IntMat, y: IntMat) -> IntMat:
    """The product x*y, using tau^2 = c0 + c1*tau. Entry k of x is
    ak + bk*tau and entry k of y is pk + qk*tau, row-major; sk is the sum
    of the tau*tau terms of entry k of the product."""
    c0, c1 = _TAU_SQ[d]
    (a0, b0, a1, b1, a2, b2, a3, b3, a4, b4, a5, b5, a6, b6, a7, b7, a8, b8) = x
    (p0, q0, p1, q1, p2, q2, p3, q3, p4, q4, p5, q5, p6, q6, p7, q7, p8, q8) = y
    s0 = b0 * q0 + b1 * q3 + b2 * q6
    s1 = b0 * q1 + b1 * q4 + b2 * q7
    s2 = b0 * q2 + b1 * q5 + b2 * q8
    s3 = b3 * q0 + b4 * q3 + b5 * q6
    s4 = b3 * q1 + b4 * q4 + b5 * q7
    s5 = b3 * q2 + b4 * q5 + b5 * q8
    s6 = b6 * q0 + b7 * q3 + b8 * q6
    s7 = b6 * q1 + b7 * q4 + b8 * q7
    s8 = b6 * q2 + b7 * q5 + b8 * q8
    return (
        a0 * p0 + a1 * p3 + a2 * p6 + c0 * s0,
        a0 * q0 + b0 * p0 + a1 * q3 + b1 * p3 + a2 * q6 + b2 * p6 + c1 * s0,
        a0 * p1 + a1 * p4 + a2 * p7 + c0 * s1,
        a0 * q1 + b0 * p1 + a1 * q4 + b1 * p4 + a2 * q7 + b2 * p7 + c1 * s1,
        a0 * p2 + a1 * p5 + a2 * p8 + c0 * s2,
        a0 * q2 + b0 * p2 + a1 * q5 + b1 * p5 + a2 * q8 + b2 * p8 + c1 * s2,
        a3 * p0 + a4 * p3 + a5 * p6 + c0 * s3,
        a3 * q0 + b3 * p0 + a4 * q3 + b4 * p3 + a5 * q6 + b5 * p6 + c1 * s3,
        a3 * p1 + a4 * p4 + a5 * p7 + c0 * s4,
        a3 * q1 + b3 * p1 + a4 * q4 + b4 * p4 + a5 * q7 + b5 * p7 + c1 * s4,
        a3 * p2 + a4 * p5 + a5 * p8 + c0 * s5,
        a3 * q2 + b3 * p2 + a4 * q5 + b4 * p5 + a5 * q8 + b5 * p8 + c1 * s5,
        a6 * p0 + a7 * p3 + a8 * p6 + c0 * s6,
        a6 * q0 + b6 * p0 + a7 * q3 + b7 * p3 + a8 * q6 + b8 * p6 + c1 * s6,
        a6 * p1 + a7 * p4 + a8 * p7 + c0 * s7,
        a6 * q1 + b6 * p1 + a7 * q4 + b7 * p4 + a8 * q7 + b8 * p7 + c1 * s7,
        a6 * p2 + a7 * p5 + a8 * p8 + c0 * s8,
        a6 * q2 + b6 * p2 + a7 * q5 + b7 * p5 + a8 * q8 + b8 * p8 + c1 * s8,
    )


def _qmul(c0: int, c1: int, p: tuple[int, int], q: tuple[int, int]) -> tuple[int, int]:
    """The product of two (a, b) pairs a + b*tau, with tau^2 = c0 + c1*tau."""
    return (p[0] * q[0] + c0 * p[1] * q[1],
            p[0] * q[1] + p[1] * q[0] + c1 * p[1] * q[1])


def _cofactors(d: int, x: IntMat) -> tuple[list[tuple[int, int]], tuple[int, int]]:
    """The signed cofactors of x, row-major, and det x, as (a, b) pairs;
    ValueError unless N(det x) = 1."""
    c0, c1 = _TAU_SQ[d]
    e = [(x[k], x[k + 1]) for k in range(0, 18, 2)]
    # cof[3i + j] is the signed cofactor of entry (i, j), by cyclic indices
    cof = []
    for i in range(3):
        i1, i2 = 3 * ((i + 1) % 3), 3 * ((i + 2) % 3)
        for j in range(3):
            j1, j2 = (j + 1) % 3, (j + 2) % 3
            p = _qmul(c0, c1, e[i1 + j1], e[i2 + j2])
            q = _qmul(c0, c1, e[i1 + j2], e[i2 + j1])
            cof.append((p[0] - q[0], p[1] - q[1]))
    da = db = 0
    for j in range(3):
        a, b = _qmul(c0, c1, e[j], cof[j])
        da, db = da + a, db + b
    # N(a + b*tau) = a^2 + c1*ab - c0*b^2
    if da * da + c1 * da * db - c0 * db * db != 1:
        raise ValueError("the determinant is not a unit of O_d")
    return cof, (da, db)


INV_CACHE_SIZE = 256    # the inverses int_inv keeps (see the module docstring)


@lru_cache(maxsize=INV_CACHE_SIZE)
def int_inv(d: int, x: IntMat) -> IntMat:
    """The inverse of x: its adjugate times conj(det x), because a unit
    det x has inverse conj(det x); ValueError unless N(det x) = 1.
    Memoized: lru_cache keeps no exception, so a non-unit det x raises on
    every call."""
    c0, c1 = _TAU_SQ[d]
    cof, (da, db) = _cofactors(d, x)
    conj_det = (da + c1 * db, -db)      # conj(a + b*tau) = (a + c1*b) - b*tau
    out: list[int] = []
    for i in range(3):
        for j in range(3):
            out += _qmul(c0, c1, cof[3 * j + i], conj_det)
    return tuple(out)


# for d = 1 and 3, each unit u = ua + ub*tau other than 1 (UNITS lists 1
# first) as (ua, ub, q, s) with q = ub*c0 and s = ua + ub*c1, so that
# u * (a + b*tau) = (a*ua + b*q) + (a*ub + b*s)*tau
_UNIT_MULS = {d: tuple((ua, ub, ub * c0, ua + ub * c1) for ua, ub in UNITS[d][1:])
              for d, (c0, c1) in _TAU_SQ.items() if d != 7}


def int_key(d: int, x: IntMat) -> IntMat:
    """The least unit multiple of x in tuple order, so two matrices have
    equal keys iff they are equal in PU(2,1); canonical_rep's choice."""
    k = 0
    while not (x[k] or x[k + 1]):
        k += 2
        if k == 18:
            raise ValueError("zero matrix has no projective class")
    # entries before k are 0 under every unit, and distinct units move the
    # nonzero entry k to distinct values, so entry k alone picks the unit:
    # the u minimizing the pair of coefficients of u * (a + b*tau)
    a, b = x[k], x[k + 1]
    if d == 7:      # the units are 1 and -1
        return x if a < 0 or (a == 0 and b < 0) else tuple(map(operator.neg, x))
    ma, mb, best = a, b, None
    for u in _UNIT_MULS[d]:
        ca = a * u[0] + b * u[2]
        if ca < ma or (ca == ma and a * u[1] + b * u[3] < mb):
            ma, mb, best = ca, a * u[1] + b * u[3], u
    if best is None:
        return x
    ua, ub, q, s = best
    if ub == 0:     # u = -1
        return tuple(map(operator.neg, x))
    (a0, b0, a1, b1, a2, b2, a3, b3, a4, b4, a5, b5, a6, b6, a7, b7, a8, b8) = x
    return (a0 * ua + b0 * q, a0 * ub + b0 * s, a1 * ua + b1 * q, a1 * ub + b1 * s,
            a2 * ua + b2 * q, a2 * ub + b2 * s, a3 * ua + b3 * q, a3 * ub + b3 * s,
            a4 * ua + b4 * q, a4 * ub + b4 * s, a5 * ua + b5 * q, a5 * ub + b5 * s,
            a6 * ua + b6 * q, a6 * ub + b6 * s, a7 * ua + b7 * q, a7 * ub + b7 * s,
            a8 * ua + b8 * q, a8 * ub + b8 * s)


# the antidiagonal Siegel form H, whose unitary group is U(2,1)
_SIEGEL: IntMat = (0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0)


def int_is_unitary(d: int, x: IntMat) -> bool:
    """Whether x preserves the Siegel form: x* H x == H, with x* the
    conjugate transpose of x."""
    c1 = _TAU_SQ[d][1]
    # entry (i, j) of x* is conj(x_ji), whose a sits at index 2i + 6j of x;
    # conj(a + b*tau) = (a + c1*b) - b*tau
    star = tuple(v for i2 in range(0, 6, 2) for j6 in range(0, 18, 6)
                 for v in (x[i2 + j6] + c1 * x[i2 + j6 + 1], -x[i2 + j6 + 1]))
    return int_mul(d, star, int_mul(d, _SIEGEL, x)) == _SIEGEL


def int_height(x: IntMat) -> int:
    """Bit length of the largest coefficient: Mat.max_coeff_bits of a
    nonzero integral matrix, whose denominators 1 have bit length 1."""
    return max(map(abs, x)).bit_length()


# the third column of INT_ID, (0, 0, 1), as int_origin_key takes a column:
# the lift of the Heisenberg origin
E3 = (0, 0, 0, 0, 1, 0)


def int_origin_key(d: int, x: IntMat, column: tuple[int, ...]) -> tuple[int, ...] | None:
    """The key() of boundary_action(x*g, BoundaryPoint.origin(d)), or None when
    that image is Infinity, from the third column of g as the 6 ints
    (e0, f0, e1, f1, e2, f2), entry k being ek + fk*tau; E3 for g = Id. The
    origin lifts to (0, 0, 1), so its image lifts to the column
    x*column = (p, q, r), and z = q/r. Infinity is known from r alone, before
    p and q are formed. ValueError if the image leaves the boundary."""
    c0, c1 = _TAU_SQ[d]
    (a0, b0, a1, b1, a2, b2, a3, b3, a4, b4, a5, b5, a6, b6, a7, b7, a8, b8) = x
    e0, f0, e1, f1, e2, f2 = column
    # the rows of x times the column, r first, as int_mul forms them; t is
    # the sum of the tau*tau terms
    t = b6 * f0 + b7 * f1 + b8 * f2
    ra = a6 * e0 + a7 * e1 + a8 * e2 + c0 * t
    rb = a6 * f0 + b6 * e0 + a7 * f1 + b7 * e1 + a8 * f2 + b8 * e2 + c1 * t
    if ra == 0 and rb == 0:
        return None
    t = b0 * f0 + b1 * f1 + b2 * f2
    pa = a0 * e0 + a1 * e1 + a2 * e2 + c0 * t
    pb = a0 * f0 + b0 * e0 + a1 * f1 + b1 * e1 + a2 * f2 + b2 * e2 + c1 * t
    t = b3 * f0 + b4 * f1 + b5 * f2
    qa = a3 * e0 + a4 * e1 + a5 * e2 + c0 * t
    qb = a3 * f0 + b3 * e0 + a4 * f1 + b4 * e1 + a5 * f2 + b5 * e2 + c1 * t
    # conj(a + b*tau) = (a + c1*b) - b*tau and N(a + b*tau) = a^2 + c1*ab - c0*b^2
    ca, cb = ra + c1 * rb, -rb
    norm_r = ra * ra + c1 * ra * rb - c0 * rb * rb
    norm_q = qa * qa + c1 * qa * qb - c0 * qb * qb
    # z = q*conj(r)/N(r) and p/r = s/N(r) with s = p*conj(r)
    za, zb = qa * ca + c0 * qb * cb, qa * cb + qb * ca + c1 * qb * cb
    sa, sb = pa * ca + c0 * pb * cb, pa * cb + pb * ca + c1 * pb * cb
    # it/2 = p/r + |z|^2/2 = (2s + N(q)) / (2 N(r)) must be purely imaginary;
    # the real part of 2s is 2*sa + c1*sb since 2*Re(tau) = c1
    if 2 * sa + c1 * sb + norm_q != 0:
        raise ValueError("image left the boundary")
    # reduce z and t_coeff = (2 sb / N(r)) * _TAU_ISQRTD[d] as QuadRat and
    # Fraction do; N(r) > 0
    g = gcd(za, zb, norm_r)
    cn, cd = _TAU_ISQRTD[d]
    tn, td = 2 * sb * cn, norm_r * cd
    h = gcd(tn, td)
    return za // g, zb // g, norm_r // g, tn // h, td // h


def int_word(d: int, w: Word, gens: list[IntMat]) -> IntMat:
    """The product of the word w over gens (fpgroups.eval_word on the
    kernel); each generator that w inverts is inverted once."""
    inverse = {gens[-g - 1]: int_inv(d, gens[-g - 1]) for g in set(w) if g < 0}
    return eval_word(w, gens, INT_ID, partial(int_mul, d), inverse.__getitem__)


def _move_table(d: int, gens: list[IntMat]) -> tuple[list[IntMat], list[int], list[int]]:
    """One move per projective class among gens and their inverses, for
    each move the position of the move that undoes it, and each move's
    letter: i for gens[i - 1], -i for its inverse."""
    if not gens:
        raise ValueError("generator list is empty")
    table: dict[IntMat, tuple] = {}    # move key -> (move, letter, key of its inverse)
    for i, x in enumerate(gens, start=1):
        x_inv = int_inv(d, x)
        x_key, inv_key = int_key(d, x), int_key(d, x_inv)
        table.setdefault(x_key, (x, i, inv_key))
        table.setdefault(inv_key, (x_inv, -i, x_key))
    index = {key: k for k, key in enumerate(table)}
    moves, letters, undo_keys = zip(*table.values())
    return list(moves), [index[key] for key in undo_keys], list(letters)


def _step(d: int, frontier: list, mats: list[IntMat], undo: list[int], order, seen: dict,
          keep=None) -> list:
    """One breadth-first step: each state (key, skip) of frontier times mats[k],
    for each k in order but skip, gives the state (key of the product, undo[k])
    if seen lacks that key and keep (if given) accepts it; seen maps it to k."""
    new = []
    for m, skip in frontier:
        for k in order:
            if k == skip:
                continue
            key = int_key(d, int_mul(d, m, mats[k]))
            if key not in seen and (keep is None or keep(key)):
                seen[key] = k
                new.append((key, undo[k]))
    return new


def _spheres(d: int, moves: list[IntMat], undo: list[int], seen: dict, radius: int):
    """The spheres of radius 0 to radius in breadth-first order, each a list of
    (key of an element, position of the move that undoes its last move); maps
    each key in seen to the position of its last move."""
    frontier = [(int_key(d, INT_ID), -1)]
    seen[frontier[0][0]] = -1
    yield frontier
    for _ in range(radius):
        frontier = _step(d, frontier, moves, undo, range(len(moves)), seen)
        yield frontier


def orbit_points(d: int, gens: list[IntMat], radius: int) -> tuple[set[tuple[int, ...]], int]:
    """The int_origin_key of every element of the ball of that radius over
    gens that keeps the Heisenberg origin finite, and the number of
    elements that send it to Infinity; ValueError for a negative radius.
    The last sphere is formed as columns only, and products by moves that
    fix the origin form no key (see the module docstring)."""
    if radius < 0:
        raise ValueError("radius must be non-negative")
    moves, undo, _letters = _move_table(d, gens)
    # the moves whose third column is (0, 0, r): each fixes the origin, and
    # so does the move that undoes it
    fixes = [not (g[4] or g[5] or g[10] or g[11]) for g in moves]
    seen: dict[IntMat, int] = {}
    points = set()
    n_infinity = 0
    for frontier in _spheres(d, moves, undo, seen, max(radius - 1, 0)):
        for m, skip in frontier:
            if m[16] or m[17]:
                if skip >= 0 and fixes[skip]:
                    continue    # the parent's point
                points.add(int_origin_key(d, m, E3))
            else:
                n_infinity += 1
    if radius == 0:
        return points, n_infinity
    # frontier is now the sphere of radius L-1
    columns = [g[4:6] + g[10:12] + g[16:] for g in moves]
    for m, skip in frontier:
        finite = m[16] or m[17]
        for k, column in enumerate(columns):
            if k == skip or (finite and fixes[k]):
                continue
            key = int_origin_key(d, m, column)
            if key is not None:
                points.add(key)
                continue
            key = int_key(d, int_mul(d, m, moves[k]))
            if key not in seen:
                seen[key] = k
                n_infinity += 1
    return points, n_infinity


# -- isometry classification ----------------------------------------------

def goldman_f(d: int, tr: tuple[int, int], det: tuple[int, int]) -> int:
    """Goldman's discriminant |t|^4 - 8 Re(t^3) + 18 |t|^2 - 27 of the
    trace t of m/c, where c^3 = det m, from tr = tr m and the unit
    det = det m as (a, b) pairs: |t|^2 = N(tr) and t^3 = tr^3 * conj(det)."""
    c0, c1 = _TAU_SQ[d]
    a, b = tr
    n = a * a + c1 * a * b - c0 * b * b
    a, b = _qmul(c0, c1, _qmul(c0, c1, _qmul(c0, c1, tr, tr), tr),
                 (det[0] + c1 * det[1], -det[1]))
    # 8 Re(a + b*tau) = 8a + 4*c1*b
    return n * n - (8 * a + 4 * c1 * b) + 18 * n - 27


def classify(d: int, x: IntMat) -> str:
    """The class of x in PU(2,1) (Goldman, Complex Hyperbolic Geometry,
    1999, 6.2): regular-elliptic if f < 0, loxodromic if f > 0, where f is
    goldman_f; ValueError unless det x is a unit.

    On f = 0 the characteristic polynomial t^3 - e1 t^2 + e2 t - e3 of x
    (e1 = tr x, e2 the sum of the diagonal cofactors, e3 = det x) has a
    repeated root l and a third root m, and
    e1^2 - 3 e2 = (l - m)^2,  e1 e2 - 9 e3 = 2 l (l - m)^2.
    If e1^2 = 3 e2, then l = m = e1/3 and N = 3x - e1 Id is nilpotent: x
    is the identity if N = 0, unipotent-2-step if N^2 = 0 and
    unipotent-3-step otherwise. Else g = 2(e1^2 - 3 e2) != 0 and
    n = e1 e2 - 9 e3 = l g, so g m = e1 g - 2n, and x is a
    complex-reflection iff (x - l)(x - m) = 0, that is
    (g x - n Id)(g x - (e1 g - 2n) Id) = 0; otherwise it is
    ellipto-parabolic. Each test is scaled by 3 or g, so all of it stays
    in O_d: no division and no cube root of det x."""
    mul = partial(_qmul, *_TAU_SQ[d])
    cof, e3 = _cofactors(d, x)
    e1 = (x[0] + x[8] + x[16], x[1] + x[9] + x[17])
    f = goldman_f(d, e1, e3)
    if f:
        return "regular-elliptic" if f < 0 else "loxodromic"

    def shift(a: tuple[int, int], b: tuple[int, int]) -> IntMat:   # a*x - b*Id
        ax = [c for k in range(0, 18, 2) for c in mul(a, x[k:k + 2])]
        return tuple(map(operator.sub, ax, (*b, 0, 0, 0, 0, 0, 0) * 2 + b))

    e2 = tuple(map(sum, zip(cof[0], cof[4], cof[8])))
    s = mul(e1, e1)
    g = (2 * s[0] - 6 * e2[0], 2 * s[1] - 6 * e2[1])
    if not any(g):
        nil = shift((3, 0), e1)
        if not any(nil):
            return "identity"
        return "unipotent-3-step" if any(int_mul(d, nil, nil)) else "unipotent-2-step"
    gl = tuple(p - 9 * q for p, q in zip(mul(e1, e2), e3))     # n = e1 e2 - 9 e3 = g*l
    gm = tuple(p - 2 * q for p, q in zip(mul(e1, g), gl))      # e1 g - 2n = g*m
    if any(int_mul(d, shift(g, gl), shift(g, gm))):
        return "ellipto-parabolic"
    return "complex-reflection"


def projective_order(d: int, x: IntMat, limit: int = 24) -> int | None:
    """Smallest k >= 1 with x^k a unit multiple of Id, or None past limit."""
    ident, power = int_key(d, INT_ID), x
    for k in range(1, limit + 1):
        if int_key(d, power) == ident:
            return k
        power = int_mul(d, power, x)
    return None
