"""Finitely presented group machinery: free words, HLT coset enumeration
with coincidence merging, Smith normal form, abelianization, and
Reidemeister-Schreier subgroup presentations.

Words are tuples of nonzero signed 1-based generator indices; +k is the
k-th generator, -k its inverse.
"""

from __future__ import annotations

import operator
import re
from collections import deque, namedtuple

Word = tuple[int, ...]

DEFAULT_MAX_COSETS = 10**6


def free_reduce(w) -> Word:
    """Cancel adjacent inverse pairs until none remain."""
    out: list[int] = []
    for g in w:
        if g == 0:
            raise ValueError("0 is not a generator letter")
        if out and out[-1] == -g:
            out.pop()
        else:
            out.append(g)
    return tuple(out)


def _check_letters(w: Word, ngens: int, what: str) -> None:
    """ValueError unless every letter of w is +k or -k with 1 <= k <= ngens."""
    for g in w:
        if not 0 < abs(g) <= ngens:
            raise ValueError(f"{what} uses the letter {g}, outside +-1..+-{ngens}")


def invert_word(w: Word) -> Word:
    return tuple(-g for g in reversed(w))


def _inverse(x):
    return x.inverse()


def eval_word(w: Word, gens, one, mul=operator.mul, inv=_inverse):
    """The product of the letters of w from left to right, starting from
    one: letter +k is gens[k - 1] and -k its inverse. By default any
    element type with ``*`` and ``.inverse()`` will do (the reference
    ``Mat``); ``mul`` and ``inv`` replace them for the integer kernel of
    cxhyp, whose ``int_word`` passes ``partial(int_mul, d)`` and a table of
    the inverses the word needs."""
    result = one
    for g in w:
        x = gens[abs(g) - 1]
        result = mul(result, x if g > 0 else inv(x))
    return result


class Presentation(namedtuple("Presentation", "ngens relators gen_names")):
    """Generators and relators; the relators are stored freely reduced, and
    gen_names is a tuple of ngens names or None."""

    __slots__ = ()

    def __new__(cls, ngens: int, relators, gen_names: tuple[str, ...] | None = None):
        relators = tuple(free_reduce(r) for r in relators)
        if any(not r for r in relators):
            raise ValueError("relators must be nonempty after free reduction")
        for r in relators:
            _check_letters(r, ngens, "a relator")
        if gen_names is not None and len(gen_names) != ngens:
            raise ValueError("gen_names length mismatch")
        return tuple.__new__(cls, (ngens, relators, gen_names))

    # through __new__, as in exactring.QuadInt
    @classmethod
    def _make(cls, fields):
        return cls(*fields)


def quotient_by_normal_gens(p: Presentation, extra) -> Presentation:
    """Append the given words as relators (kill their normal closure);
    words that reduce to the empty word are dropped."""
    return p._replace(relators=p.relators + tuple(w for w in map(free_reduce, extra) if w))


# -- word text format ------------------------------------------------------
#
# A word is written as juxtaposed factors, each a generator name optionally
# followed by ^exponent, or a parenthesized word with an exponent, e.g.
# "P^2 (R Q^2)^2 P^-2"; the empty word is written "1". Round-trips through
# format_word/parse_word.

_TOKEN_RE = re.compile(r"\s*(?:([A-Za-z][A-Za-z0-9_']*)|(\()|(\))|(\^-?\d+))")


def parse_word(text: str, names) -> Word:
    if text.strip() == "1":
        return ()
    index = {n: i + 1 for i, n in enumerate(names)}
    groups: list[list[int]] = [[]]   # the open parenthesized groups, innermost last
    start = None                     # where the factor an exponent may follow starts
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ValueError(f"cannot tokenize {text[pos:]!r}")
            break
        pos = m.end()
        name, lpar, rpar, caret = m.groups()
        out = groups[-1]
        if name:
            if name not in index:
                raise ValueError(f"unknown generator {name!r} in {text!r}")
            start = len(out)
            out.append(index[name])
        elif lpar:
            groups.append([])
            start = None
        elif rpar:
            if len(groups) == 1:
                raise ValueError(f"unbalanced ')' in {text!r}")
            inner = groups.pop()
            start = len(groups[-1])
            groups[-1].extend(inner)
        elif start is None:
            raise ValueError(f"dangling exponent in {text!r}")
        else:
            e = int(caret[1:])
            factor = out[start:] if e >= 0 else invert_word(out[start:])
            out[start:] = factor * abs(e)
            start = None
    if len(groups) > 1:
        raise ValueError(f"unbalanced '(' in {text!r}")
    return free_reduce(groups[0])


def format_word(w: Word, names) -> str:
    _check_letters(w, len(names), "the word")
    if not w:
        return "1"
    parts = []
    i = 0
    while i < len(w):
        g = w[i]
        j = i
        while j < len(w) and w[j] == g:
            j += 1
        e = (j - i) if g > 0 else -(j - i)
        name = names[abs(g) - 1]
        parts.append(name if e == 1 else f"{name}^{e}")
        i = j
    return " ".join(parts)


# -- Todd-Coxeter ----------------------------------------------------------

class _Overflow(Exception):
    pass


class CosetTable(namedtuple("CosetTable", "ngens table status")):
    """Standardized coset table; row 0 is the subgroup coset. The status is
    "complete", or "overflowed" with an empty table.

    ``table[alpha][col(g)]`` is the coset alpha.g; columns alternate
    generator / inverse: col(+k) = 2(k-1), col(-k) = 2(k-1)+1.
    """

    __slots__ = ()

    @property
    def index(self) -> int:
        return len(self.table)

    @property
    def complete(self) -> bool:
        return self.status == "complete"

    def act_word(self, alpha: int, w: Word) -> int:
        _check_letters(w, self.ngens, "a coset action")
        rows = self.table
        for g in w:
            alpha = rows[alpha][_col(g)]
        return alpha


def _col(g: int) -> int:
    return 2 * (abs(g) - 1) + (0 if g > 0 else 1)


def todd_coxeter(p: Presentation, subgens=(), max_cosets: int = DEFAULT_MAX_COSETS) -> CosetTable:
    """HLT coset enumeration of the subgroup generated by ``subgens``
    (Holt, Eick and O'Brien, Handbook of Computational Group Theory, ch. 5).

    Returns the complete table, standardized: its cosets are numbered in
    breadth-first order from the subgroup coset, so it depends only on the
    subgroup and on the order of the generators. Returns status
    "overflowed" and an empty table once ``max_cosets`` cosets have been
    defined, dead ones included. Overflow is a status, not an error.
    """
    if max_cosets <= 0:
        raise ValueError("max_cosets must be positive")
    ncols = 2 * p.ngens
    table: list[list[int | None]] = [[None] * ncols]
    parent = [0]  # a live coset is its own parent; a dead one points to a smaller coset

    def rep(k: int) -> int:
        while parent[k] != k:
            parent[k] = k = parent[parent[k]]
        return k

    def define(alpha: int, c: int) -> int:
        if len(table) >= max_cosets:
            raise _Overflow
        beta = len(table)
        table.append([None] * ncols)
        parent.append(beta)
        table[alpha][c] = beta
        table[beta][c ^ 1] = alpha
        return beta

    def coincidence(a: int, b: int) -> None:
        # each pair is merged when it is popped: the larger coset dies into
        # the smaller, and its row moves there, queueing the pairs it forces
        pairs = deque([(a, b)])
        while pairs:
            x, y = pairs.popleft()
            x, y = rep(x), rep(y)
            if x == y:
                continue
            if x > y:
                x, y = y, x
            parent[y] = x
            for c, delta in enumerate(table[y]):
                if delta is None:
                    continue
                table[delta][c ^ 1] = None
                delta = rep(delta)
                if table[x][c] is not None:
                    pairs.append((table[x][c], delta))
                elif table[delta][c ^ 1] is not None:
                    pairs.append((x, table[delta][c ^ 1]))
                else:
                    table[x][c] = delta
                    table[delta][c ^ 1] = x

    def scan_and_fill(alpha: int, cols: list[int]) -> None:
        f, i = alpha, 0
        b, j = alpha, len(cols) - 1
        while True:
            while i <= j and table[f][cols[i]] is not None:
                f = table[f][cols[i]]
                i += 1
            while j >= i and table[b][cols[j] ^ 1] is not None:
                b = table[b][cols[j] ^ 1]
                j -= 1
            if j < i:
                if f != b:
                    coincidence(f, b)
                return
            if j == i:
                table[f][cols[i]] = b
                table[b][cols[i] ^ 1] = f
                return
            f = define(f, cols[i])
            i += 1

    # each relator as its column list, built once per enumeration
    relator_cols = [[_col(g) for g in r] for r in p.relators]
    try:
        for w in subgens:
            _check_letters(w, p.ngens, "a subgroup word")
            scan_and_fill(0, [_col(g) for g in free_reduce(w)])
        # the table grows while it is iterated: each coset in the order of
        # definition, skipped once dead
        for alpha, row in enumerate(table):
            for cols in relator_cols:
                if parent[alpha] == alpha:
                    scan_and_fill(alpha, cols)
            for c, beta in enumerate(row):
                if parent[alpha] == alpha and beta is None:
                    define(alpha, c)
    except _Overflow:
        return CosetTable(p.ngens, [], "overflowed")

    # standardize: number the live cosets in breadth-first order from coset 0
    order, number = [0], {0: 0}
    for alpha in order:
        for beta in table[alpha]:
            if beta not in number:
                number[beta] = len(order)
                order.append(beta)
    return CosetTable(p.ngens, [[number[beta] for beta in table[alpha]] for alpha in order],
                      "complete")


# -- Smith normal form and abelianization ---------------------------------

def smith_normal_form(a):
    """Return (D, L, R) with L*a*R = D diagonal, divisibility chain,
    L and R unimodular. Input is a list of rows of ints (possibly empty).

    The work is done on the block matrix [[a, I_m], [I_n, 0]]. A row
    operation on its first m rows multiplies [a, I_m] on the left, and a
    column operation on its first n columns multiplies [a; I_n] on the
    right, so the matrix ends as [[L a R, L], [R, 0]]: the identity blocks
    have recorded L and R.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    if any(len(row) != n for row in a):
        raise ValueError("ragged matrix")
    b = [list(row) + [int(i == k) for k in range(m)] for i, row in enumerate(a)]
    b += [[int(j == k) for k in range(n)] + [0] * m for j in range(n)]
    t = 0
    while True:
        # the pivot: the first entry of least absolute value in the trailing
        # block; no nonzero entry is less than 1, so the scan ends at a 1
        p = 0
        for i in range(t, m):
            for j, x in enumerate(b[i][t:n], t):
                if x and (not p or abs(x) < abs(p)):
                    p, pi, pj = x, i, j
                    if x in (1, -1):
                        break
            if p in (1, -1):
                break
        if not p:
            break
        b[t], b[pi] = b[pi], b[t]
        for row in b:
            row[t], row[pj] = row[pj], row[t]
        # clear column t and row t; start again while a remainder is nonzero
        for i in range(t + 1, m):
            q = b[i][t] // p
            if q:  # row i -= q * row t
                b[i] = [x - q * y for x, y in zip(b[i], b[t])]
        for j in range(t + 1, n):
            q = b[t][j] // p
            if q:  # column j -= q * column t
                for row in b:
                    row[j] -= q * row[t]
        if any(b[i][t] for i in range(t + 1, m)) or any(b[t][t + 1:n]):
            continue
        # the pivot must divide the trailing block: add the first row where
        # it does not to row t, and start again
        i = next((i for i in range(t + 1, m) for x in b[i][t + 1:n] if x % p), None)
        if i is not None:
            b[t] = [x + y for x, y in zip(b[t], b[i])]
        else:
            if p < 0:
                b[t] = [-x for x in b[t]]
            t += 1
    return [row[:n] for row in b[:m]], [row[n:] for row in b[:m]], [row[:n] for row in b[m:]]


class AbelianInvariants(namedtuple("AbelianInvariants", "rank torsion")):
    """Free rank plus torsion divisors d1 | d2 | ... (all >= 2), a tuple."""

    __slots__ = ()

    @property
    def is_finite(self) -> bool:
        return self.rank == 0

    @property
    def order(self) -> int | None:
        if not self.is_finite:
            return None
        out = 1
        for t in self.torsion:
            out *= t
        return out

    def __str__(self) -> str:
        parts = ["Z"] * self.rank + [f"Z/{t}" for t in self.torsion]
        return " x ".join(parts) if parts else "trivial"


def exponent_matrix(p: Presentation):
    rows = []
    for r in p.relators:
        row = [0] * p.ngens
        for g in r:
            row[abs(g) - 1] += 1 if g > 0 else -1
        rows.append(row)
    return rows


def abelianization(p: Presentation) -> AbelianInvariants:
    """Z^ngens modulo the row space of the exponent matrix, read off the
    diagonal of its Smith normal form."""
    d, _l, _r = smith_normal_form(exponent_matrix(p))
    diag = [d[i][i] for i in range(min(len(d), p.ngens))]
    return AbelianInvariants(p.ngens - sum(1 for x in diag if x),
                             tuple(x for x in diag if x >= 2))


def derived_subgroup_table(p: Presentation) -> CosetTable:
    """Coset table of the commutator subgroup of ``p``.

    Enumerated by Todd-Coxeter: the coset table of the trivial subgroup of
    G/G', the quotient by the commutators [g_i, g_j] of the generators, is
    the coset table of G' in G. A word stabilizes coset 0 exactly when it
    lies in the derived subgroup. Requires a finite abelianization
    (ValueError otherwise).
    """
    if not abelianization(p).is_finite:
        raise ValueError("infinite abelianization: derived subgroup has infinite index")
    n = p.ngens
    return todd_coxeter(quotient_by_normal_gens(
        p, ((i, j, -i, -j) for i in range(1, n + 1) for j in range(i + 1, n + 1))))


# -- Reidemeister-Schreier -------------------------------------------------

def reidemeister_schreier(p: Presentation, table: CosetTable) -> Presentation:
    """Presentation of the subgroup enumerated by ``table`` on Schreier
    generators, with tree generators eliminated."""
    if not table.complete:
        raise ValueError("coset table is not complete")
    if table.ngens != p.ngens:
        raise ValueError("coset table and presentation differ in their generators")
    rows = table.table
    # breadth-first Schreier tree over the columns g1, g1^-1, g2, ...; the
    # list grows while it is iterated. A tree edge (coset, positive
    # generator) gives a trivial Schreier generator
    order, seen, tree = [0], {0}, set()
    for alpha in order:
        for c, beta in enumerate(rows[alpha]):
            if beta not in seen:
                seen.add(beta)
                order.append(beta)
                tree.add((beta if c & 1 else alpha, c // 2 + 1))
    gen_index: dict[tuple[int, int], int] = {}
    for alpha in range(len(rows)):
        for g in range(1, p.ngens + 1):
            if (alpha, g) not in tree:
                gen_index[(alpha, g)] = len(gen_index) + 1

    def rewrite(alpha: int, w: Word) -> Word:
        out = []
        for g in w:
            beta = rows[alpha][_col(g)]
            k = gen_index.get((alpha, g) if g > 0 else (beta, -g))
            if k:
                out.append(k if g > 0 else -k)
            alpha = beta
        return free_reduce(out)

    # the relators in order of first appearance, each once
    relators = dict.fromkeys(w for alpha in range(len(rows)) for r in p.relators
                             if (w := rewrite(alpha, r)))
    return Presentation(len(gen_index), tuple(relators))
