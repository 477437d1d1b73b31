"""Matrix algebra over O_d, projective canonicalization, isometry
classification, and the Heisenberg boundary action.

``Mat`` is the reference type: a small (2x2 or 3x3) matrix with QuadRat
entries. All catalog matrices are in fact integral with a unit
determinant, and so is every word in them. The hot loops (the orbit
``ball``, the word search, and the word checks of the catalog and of
certify) therefore run on an integer kernel instead: a 3x3 matrix over O_d
as a flat tuple of 18 Python ints, with its product, inverse, canonical
projective key, coefficient height and the key of the image of the
Heisenberg origin, all in integers. ``classify`` and ``projective_order``
take a ``Mat`` but convert it once and decide on the kernel too.

``ball`` skips two kinds of product, and neither can change its output.
It keeps one move per projective class, because a move projectively equal
to an earlier one (the inverse of a projective involution such as I1 and
I2 for d=3, or B1 and B2 for d=7) gives the class the earlier move gave
the same element. And it skips the move that undoes an element's last
move, because that product is the element's parent. Either product is
already in the set of seen keys, so the elements and their order stay
those of the plain breadth-first search over all moves.

``orbit_points`` runs the same breadth-first loop to radius L-1 only. The
image of the Heisenberg origin under m depends only on the third column of
m, because the origin lifts to (0, 0, 1). Every element of the sphere of
radius L is m*g with m in the sphere of radius L-1 and g a move other than
the one that undoes m's last move, so the last sphere's points are the
origin images of the columns m*(third column of g), and no 3x3 product is
needed. A column that repeats an earlier element only adds a point that is
already in the set. The one count that needs distinct elements is that of
the images at Infinity, so only those products are multiplied out in full
and counted when their key is new.

Everything here is exact: no floating point enters any decision.
"""

from __future__ import annotations

import enum
import operator
from fractions import Fraction
from math import gcd, sqrt
from typing import NamedTuple

from .exactring import (
    _TAU_ISQRTD, _TAU_SQ, UNITS, QuadInt, QuadRat, RingMismatchError, units,
)


class Mat(NamedTuple):
    """Square matrix (2x2 or 3x3) over the fraction field of O_d."""

    d: int
    rows: tuple[tuple[QuadRat, ...], ...]

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

class ProjIsom(NamedTuple):
    """A matrix canonicalized modulo the unit group of O_d."""

    rep: Mat

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

# the coefficient _TAU_ISQRTD[d] as a (numerator, denominator) pair of ints
_ISQRTD = {d: (c.numerator, c.denominator) for d, c in _TAU_ISQRTD.items()}


class BoundaryPoint(NamedTuple):
    """Point of the boundary in Heisenberg coordinates, or Infinity.

    The finite variant stores z exactly in Q(i sqrt d) and t as the exact
    rational coefficient t_coeff with t = t_coeff * sqrt(d).
    """

    d: int
    at_infinity: bool = False
    z: QuadRat | None = None
    t_coeff: Fraction = Fraction(0)

    @staticmethod
    def infinity(d: int) -> "BoundaryPoint":
        return BoundaryPoint(d, at_infinity=True)

    @staticmethod
    def finite(z: QuadRat | QuadInt, t_coeff: Fraction | int = 0) -> "BoundaryPoint":
        z = QuadRat.of(z)
        return BoundaryPoint(z.d, False, z, Fraction(t_coeff))

    @staticmethod
    def origin(d: int) -> "BoundaryPoint":
        return BoundaryPoint.finite(QuadRat.zero(d))

    @staticmethod
    def from_key(d: int, key: tuple[int, ...]) -> "BoundaryPoint":
        """The finite point whose key() is key."""
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
        half_norm = QuadRat.of_fraction(self.d, -self.z.norm() / 2)
        it_half = QuadRat.of(QuadInt.sqrt_minus_d(self.d)) * QuadRat.of_fraction(
            self.d, self.t_coeff / 2)
        return (half_norm + it_half, self.z, QuadRat.one(self.d))

    def approx(self) -> tuple[complex, float]:
        if self.at_infinity:
            raise ValueError("point at infinity has no Heisenberg coordinates")
        return self.z.approx(), float(self.t_coeff) * self.d ** 0.5


def key_approx(d: int, key: tuple[int, ...]) -> tuple[complex, float]:
    """BoundaryPoint.from_key(d, key).approx() without building the point:
    the float operations of QuadInt.approx, QuadRat.approx and
    BoundaryPoint.approx in the same order, so the floats are identical."""
    za, zb, den, tn, td = key
    cn, cd = _ISQRTD[d]
    re = (2 * za + zb * _TAU_SQ[d][1]) / 2
    z = complex(re) + 1j * (zb * cn / cd) * sqrt(d)
    return z / den, tn / td * d ** 0.5


def heis_translation(z: QuadRat | QuadInt, s: QuadRat | QuadInt) -> Mat:
    """Heisenberg translation matrix with horizontal part z and s = it/2.

    s must be purely imaginary; the top-right entry is -|z|^2/2 + s, which
    must be expressible over Q(i sqrt d) (it always is for QuadRat input).
    """
    z = QuadRat.of(z)
    s = QuadRat.of(s)
    if s.real_part() != 0:
        raise ValueError(f"s = {s} is not purely imaginary")
    d = z.d
    top_right = QuadRat.of_fraction(d, -z.norm() / 2) + s
    one, zero = QuadRat.one(d), QuadRat.zero(d)
    return Mat.from_entries(d, (
        (one, -z.conj(), top_right),
        (zero, one, z),
        (zero, zero, one)))


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


# the third column of an IntMat, as the 6 ints (pa, pb, qa, qb, ra, rb)
_third_column = operator.itemgetter(4, 5, 10, 11, 16, 17)


def int_mul_column(d: int, x: IntMat, y: tuple[int, ...]) -> tuple[int, ...]:
    """The column x*y of a column y = (p0 + q0*tau, p1 + q1*tau, p2 + q2*tau):
    int_mul's third column when y is the third column of a matrix."""
    c0, c1 = _TAU_SQ[d]
    (a0, b0, a1, b1, a2, b2, a3, b3, a4, b4, a5, b5, a6, b6, a7, b7, a8, b8) = x
    p0, q0, p1, q1, p2, q2 = y
    s0 = b0 * q0 + b1 * q1 + b2 * q2
    s1 = b3 * q0 + b4 * q1 + b5 * q2
    s2 = b6 * q0 + b7 * q1 + b8 * q2
    return (
        a0 * p0 + a1 * p1 + a2 * p2 + c0 * s0,
        a0 * q0 + b0 * p0 + a1 * q1 + b1 * p1 + a2 * q2 + b2 * p2 + c1 * s0,
        a3 * p0 + a4 * p1 + a5 * p2 + c0 * s1,
        a3 * q0 + b3 * p0 + a4 * q1 + b4 * p1 + a5 * q2 + b5 * p2 + c1 * s1,
        a6 * p0 + a7 * p1 + a8 * p2 + c0 * s2,
        a6 * q0 + b6 * p0 + a7 * q1 + b7 * p1 + a8 * q2 + b8 * p2 + c1 * s2,
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


def int_inv(d: int, x: IntMat) -> IntMat:
    """The inverse of x: its adjugate times conj(det x), because a unit
    det x has inverse conj(det x); ValueError unless N(det x) = 1."""
    c0, c1 = _TAU_SQ[d]
    cof, (da, db) = _cofactors(d, x)
    conj_det = (da + c1 * db, -db)      # conj(a + b*tau) = (a + c1*b) - b*tau
    out: list[int] = []
    for i in range(3):
        for j in range(3):
            out += _qmul(c0, c1, cof[3 * j + i], conj_det)
    return tuple(out)


def int_key(d: int, x: IntMat) -> IntMat:
    """The least unit multiple of x in tuple order, so two matrices have
    equal keys iff they are equal in PU(2,1); canonical_rep's choice."""
    c0, c1 = _TAU_SQ[d]
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
        ua, ub = (1, 0) if a < 0 or (a == 0 and b < 0) else (-1, 0)
    else:
        ma, mb, ua, ub = a, b, 1, 0
        for va, vb in UNITS[d]:
            ca = a * va + b * vb * c0
            if ca < ma or (ca == ma and a * vb + b * (va + vb * c1) < mb):
                ma, mb, ua, ub = ca, a * vb + b * (va + vb * c1), va, vb
    if ub == 0:
        return x if ua == 1 else tuple(map(operator.neg, x))
    q, s = ub * c0, ua + ub * c1
    out: list[int] = []
    for a, b in zip(x[::2], x[1::2]):
        out += (a * ua + b * q, a * ub + b * s)
    return tuple(out)


def int_is_unitary(d: int, x: IntMat) -> bool:
    """Whether x preserves the antidiagonal Siegel form H: x* H x == H,
    where entry (i, j) of x* H x is the sum over k of conj(x_ki) x_(2-k)j.
    Both sides are Hermitian, so the entries with i <= j decide."""
    c0, c1 = _TAU_SQ[d]
    for i in range(3):
        for j in range(i, 3):
            sa = sb = 0
            for k in range(3):
                a, b = x[6 * k + 2 * i], x[6 * k + 2 * i + 1]
                p, q = a + c1 * b, -b           # conj(a + b*tau)
                ya, yb = x[12 - 6 * k + 2 * j], x[13 - 6 * k + 2 * j]
                sa += p * ya + c0 * q * yb
                sb += p * yb + q * ya + c1 * q * yb
            if sa != (i + j == 2) or sb:
                return False
    return True


def int_height(x: IntMat) -> int:
    """Bit length of the largest coefficient: Mat.max_coeff_bits of a
    nonzero integral matrix, whose denominators 1 have bit length 1."""
    return max(map(abs, x)).bit_length()


def int_origin_key(d: int, x: tuple[int, ...]) -> tuple[int, ...] | None:
    """The key() of boundary_action(x, BoundaryPoint.origin(d)), from the
    third column (p, q, r) of x, or None when that image is Infinity: the
    origin lifts to (0, 0, 1), so z = q/r. x is an IntMat or its third
    column alone, 6 ints. ValueError if the image leaves the boundary."""
    c0, c1 = _TAU_SQ[d]
    pa, pb, qa, qb, ra, rb = x if len(x) == 6 else _third_column(x)
    if ra == 0 and rb == 0:
        return None
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
    cn, cd = _ISQRTD[d]
    tn, td = 2 * sb * cn, norm_r * cd
    h = gcd(tn, td)
    return za // g, zb // g, norm_r // g, tn // h, td // h


def _move_table(gens: list[Mat]) -> tuple[int, list[IntMat], list[int]]:
    """The ring, one move per projective class among gens and their
    inverses, and for each move the position of the move that undoes it."""
    if not gens:
        raise ValueError("generator list is empty")
    d = gens[0].d
    moves: list[IntMat] = []
    index: dict[IntMat, int] = {}    # move key -> position in moves
    for g in gens:
        x = int_mat(g)
        for m in (x, int_inv(d, x)):
            key = int_key(d, m)
            if key not in index:
                index[key] = len(moves)
                moves.append(m)
    return d, moves, [index[int_key(d, int_inv(d, m))] for m in moves]


def _spheres(d: int, moves: list[IntMat], undo: list[int], seen: set[IntMat],
             radius: int):
    """The spheres of radius 0 to radius in breadth-first order, each a
    list of (element, position of the move that undoes its last move).
    Adds the key of every element to seen."""
    seen.add(int_key(d, INT_ID))
    frontier = [(INT_ID, -1)]
    yield frontier
    for _ in range(radius):
        new = []
        for m, skip in frontier:
            for k, g in enumerate(moves):
                if k == skip:
                    continue
                nm = int_mul(d, m, g)
                key = int_key(d, nm)
                if key not in seen:
                    seen.add(key)
                    new.append((nm, undo[k]))
        frontier = new
        yield frontier


def ball(gens: list[Mat], radius: int) -> list[IntMat]:
    """The projectively distinct elements of word length <= radius over
    gens and their inverses, in breadth-first order from the identity.
    Products known to be repeats are skipped (see the module docstring)."""
    d, moves, undo = _move_table(gens)
    return [m for sphere in _spheres(d, moves, undo, set(), radius) for m, _k in sphere]


def orbit_points(gens: list[Mat], radius: int) -> tuple[set[tuple[int, ...]], int]:
    """The int_origin_key of every element of ball(gens, radius) that keeps
    the Heisenberg origin finite, and the number of elements that send it
    to Infinity. The last sphere is formed as columns only (see the module
    docstring)."""
    d, moves, undo = _move_table(gens)
    seen: set[IntMat] = set()
    points = set()
    n_infinity = 0
    for frontier in _spheres(d, moves, undo, seen, max(radius - 1, 0)):
        for m, _k in frontier:
            key = int_origin_key(d, m)
            if key is None:
                n_infinity += 1
            else:
                points.add(key)
    if radius == 0:
        return points, n_infinity
    # frontier is now the sphere of radius L-1
    columns = [_third_column(g) for g in moves]
    for m, skip in frontier:
        for k, column in enumerate(columns):
            if k == skip:
                continue
            key = int_origin_key(d, int_mul_column(d, m, column))
            if key is not None:
                points.add(key)
                continue
            key = int_key(d, int_mul(d, m, moves[k]))
            if key not in seen:
                seen.add(key)
                n_infinity += 1
    return points, n_infinity


# -- isometry classification ----------------------------------------------

class IsometryClass(enum.Enum):
    REGULAR_ELLIPTIC = "regular-elliptic"
    LOXODROMIC = "loxodromic"
    UNIPOTENT_2_STEP = "unipotent-2-step"
    UNIPOTENT_3_STEP = "unipotent-3-step"
    OTHER_BOUNDARY = "other-boundary"


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


def classify(m: Mat) -> IsometryClass:
    """Trace-discriminant classification of m in PU(2,1) (Goldman,
    Complex Hyperbolic Geometry, 1999, 6.2); ValueError unless m is
    integral with a unit determinant.

    On the zero locus of f, m is unipotent up to scale iff m - u*Id is
    nilpotent for some u with u^3 = det m. Such a u is a root of
    x^3 - det m equal to tr(m)/3, so it lies in O_d and is a unit; when
    det m has no unit cube root (det P = w for d=3), m is other-boundary."""
    d, x = m.d, int_mat(m)
    c0, c1 = _TAU_SQ[d]
    det = _cofactors(d, x)[1]
    f = goldman_f(d, (x[0] + x[8] + x[16], x[1] + x[9] + x[17]), det)
    if f < 0:
        return IsometryClass.REGULAR_ELLIPTIC
    if f > 0:
        return IsometryClass.LOXODROMIC
    for u in UNITS[d]:
        if _qmul(c0, c1, _qmul(c0, c1, u, u), u) != det:
            continue
        nil = tuple(map(operator.sub, x, (*u, 0, 0, 0, 0, 0, 0) * 2 + u))   # m - u*Id
        if not any(nil):
            return IsometryClass.OTHER_BOUNDARY
        nil2 = int_mul(d, nil, nil)
        if not any(nil2):
            return IsometryClass.UNIPOTENT_2_STEP
        if not any(int_mul(d, nil2, nil)):
            return IsometryClass.UNIPOTENT_3_STEP
    return IsometryClass.OTHER_BOUNDARY


def projective_order(m: Mat, limit: int = 24) -> int | None:
    """Smallest k >= 1 with m^k a unit multiple of Id, or None past limit;
    ValueError unless m is an integral 3x3 matrix."""
    d, x = m.d, int_mat(m)
    ident, power = int_key(d, INT_ID), x
    for k in range(1, limit + 1):
        if int_key(d, power) == ident:
            return k
        power = int_mul(d, power, x)
    return None
