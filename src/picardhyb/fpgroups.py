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
        if any(abs(g) > ngens for r in relators for g in r):
            raise ValueError("relator uses an out-of-range generator")
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


class CosetTable:
    """Standardized coset table; row 0 is the subgroup coset.

    ``table[alpha][col(g)]`` is the coset alpha.g; columns alternate
    generator / inverse: col(+k) = 2(k-1), col(-k) = 2(k-1)+1.
    """

    def __init__(self, ngens: int, table: list[list[int]], status: str):
        self.ngens = ngens
        self.table = table
        self.status = status

    @property
    def index(self) -> int:
        return len(self.table)

    @property
    def complete(self) -> bool:
        return self.status == "complete"

    def act(self, alpha: int, g: int) -> int:
        return self.table[alpha][_col(g)]

    def act_word(self, alpha: int, w: Word) -> int:
        for g in w:
            alpha = self.act(alpha, g)
        return alpha


def _col(g: int) -> int:
    return 2 * (abs(g) - 1) + (0 if g > 0 else 1)


def todd_coxeter(p: Presentation, subgens=(), max_cosets: int = DEFAULT_MAX_COSETS) -> CosetTable:
    """HLT coset enumeration of the subgroup generated by ``subgens``.

    Returns a complete standardized table, or a table with status
    "overflowed" once ``max_cosets`` cosets have been defined. Overflow is
    a status, not an error.
    """
    if max_cosets <= 0:
        raise ValueError("max_cosets must be positive")
    ncols = 2 * p.ngens
    table: list[list[int | None]] = [[None] * ncols]
    parent = [0]

    def rep(k: int) -> int:
        r = k
        while parent[r] != r:
            r = parent[r]
        while parent[k] != r:
            parent[k], k = r, parent[k]
        return r

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
        q: deque[int] = deque()

        def merge(x: int, y: int) -> None:
            x, y = rep(x), rep(y)
            if x != y:
                x, y = min(x, y), max(x, y)
                parent[y] = x
                q.append(y)

        merge(a, b)
        while q:
            gamma = q.popleft()
            row = table[gamma]
            for c in range(ncols):
                delta = row[c]
                if delta is None:
                    continue
                row[c] = None
                table[delta][c ^ 1] = None
                mu, nu = rep(gamma), rep(delta)
                if table[mu][c] is not None:
                    merge(nu, table[mu][c])
                elif table[nu][c ^ 1] is not None:
                    merge(mu, table[nu][c ^ 1])
                else:
                    table[mu][c] = nu
                    table[nu][c ^ 1] = mu

    def scan_and_fill(alpha: int, cols: list[int]) -> None:
        f, i = alpha, 0
        b, j = alpha, len(cols) - 1
        while True:
            while i <= j and table[f][cols[i]] is not None:
                f = table[f][cols[i]]
                i += 1
            if i > j:
                if f != b:
                    coincidence(f, b)
                return
            while j >= i and table[b][cols[j] ^ 1] is not None:
                b = table[b][cols[j] ^ 1]
                j -= 1
            if j < i:
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
            scan_and_fill(rep(0), [_col(g) for g in free_reduce(w)])
        alpha = 0
        while alpha < len(table):
            if rep(alpha) == alpha:
                for cols in relator_cols:
                    scan_and_fill(alpha, cols)
                    if rep(alpha) != alpha:
                        break
                if rep(alpha) == alpha:
                    for c in range(ncols):
                        if table[alpha][c] is None:
                            define(alpha, c)
            alpha += 1
    except _Overflow:
        return CosetTable(p.ngens, [], "overflowed")

    return _standardize(p.ngens, table, parent, rep)


def _standardize(ngens: int, table, parent, rep) -> CosetTable:
    """Renumber live cosets in breadth-first discovery order."""
    ncols = 2 * ngens
    start = rep(0)
    number = {start: 0}
    order = [start]
    qi = 0
    while qi < len(order):
        alpha = order[qi]
        qi += 1
        for c in range(ncols):
            beta = table[alpha][c]
            assert beta is not None, "incomplete row in completed table"
            beta = rep(beta)
            if beta not in number:
                number[beta] = len(order)
                order.append(beta)
    new_table = [[number[rep(table[alpha][c])] for c in range(ncols)] for alpha in order]
    return CosetTable(ngens, new_table, "complete")


# -- Smith normal form and abelianization ---------------------------------

def smith_normal_form(a):
    """Return (D, L, R) with L*a*R = D diagonal, divisibility chain,
    L and R unimodular. Input is a list of rows of ints (possibly empty).
    """
    m = len(a)
    n = len(a[0]) if m else 0
    d = [list(row) for row in a]
    if any(len(row) != n for row in d):
        raise ValueError("ragged matrix")
    lmat = [[int(i == j) for j in range(m)] for i in range(m)]
    rmat = [[int(i == j) for j in range(n)] for i in range(n)]

    def row_op(i, j, q):  # row_i -= q * row_j
        d[i] = [x - q * y for x, y in zip(d[i], d[j])]
        lmat[i] = [x - q * y for x, y in zip(lmat[i], lmat[j])]

    def col_op(i, j, q):  # col_i -= q * col_j
        for row in d:
            row[i] -= q * row[j]
        for row in rmat:
            row[i] -= q * row[j]

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        lmat[i], lmat[j] = lmat[j], lmat[i]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in rmat:
            row[i], row[j] = row[j], row[i]

    t = 0
    while True:
        # locate a pivot in the trailing submatrix
        pivot = None
        for i in range(t, m):
            for j in range(t, n):
                if d[i][j] != 0 and (pivot is None or abs(d[i][j]) < abs(d[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        i, j = pivot
        if i != t:
            swap_rows(i, t)
        if j != t:
            swap_cols(j, t)
        # clear row and column t; restart whenever a smaller remainder appears
        dirty = False
        for i in range(t + 1, m):
            if d[i][t] != 0:
                q = d[i][t] // d[t][t]
                row_op(i, t, q)
                if d[i][t] != 0:
                    dirty = True
        for j in range(t + 1, n):
            if d[t][j] != 0:
                q = d[t][j] // d[t][t]
                col_op(j, t, q)
                if d[t][j] != 0:
                    dirty = True
        if dirty:
            continue
        # enforce divisibility of the remaining submatrix by the pivot
        offender = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if d[i][j] % d[t][t] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            row_op(t, offender, -1)  # fold the offending row into row t
            continue
        if d[t][t] < 0:
            row_op(t, t, 2)  # negate row t
        t += 1

    return d, lmat, rmat


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
    d, _l, _r = smith_normal_form(exponent_matrix(p) or [[0] * p.ngens])
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
    index = table.index
    # BFS Schreier tree; tree edges give trivial Schreier generators
    seen = [False] * index
    seen[0] = True
    tree: set[tuple[int, int]] = set()   # (coset, positive generator)
    queue = deque([0])
    while queue:
        alpha = queue.popleft()
        for g in range(1, p.ngens + 1):
            for signed in (g, -g):
                beta = table.act(alpha, signed)
                if not seen[beta]:
                    seen[beta] = True
                    tree.add((alpha, g) if signed > 0 else (beta, g))
                    queue.append(beta)

    gen_index: dict[tuple[int, int], int] = {}
    for alpha in range(index):
        for g in range(1, p.ngens + 1):
            if (alpha, g) not in tree:
                gen_index[(alpha, g)] = len(gen_index) + 1

    def rewrite(alpha: int, w: Word) -> Word:
        out = []
        c = alpha
        for g in w:
            if g > 0:
                key = (c, g)
                c = table.act(c, g)
                if key in gen_index:
                    out.append(gen_index[key])
            else:
                c = table.act(c, g)
                key = (c, -g)
                if key in gen_index:
                    out.append(-gen_index[key])
        return free_reduce(out)

    relators = []
    seen_rel = set()
    for alpha in range(index):
        for r in p.relators:
            w = rewrite(alpha, r)
            if w and w not in seen_rel:
                seen_rel.add(w)
                relators.append(w)
    return Presentation(len(gen_index), tuple(relators))
