"""Bounded meet-in-the-middle search expressing a target projective
isometry as a word in given generator matrices.

States are deduplicated by the canonical projective representative's exact
entry key, so two words meet iff they evaluate to the same element of
PU(2,1). A state is a key and the move that undoes its last letter, as in
cxhyp's ball, and both sides expand through the ball's step (``_step``)
over its moves, one per projective class among the generators and their
inverses: no product back to a word's parent is formed and no key is
expanded twice on a side. Each side maps a key to the position of the move
that first reached it, and a word is read back, one product per letter,
only for a key that meets. The last step keeps only the keys that meet. The
height prune reads the key, and only in a step where a proven bound on its
height can exceed the cap.

Among words of equal length the least in lexicographic order wins. Each
frontier is kept in word order, and a parent reaches a key by at most one
move, as there is one move per projective class; so the first parent to
reach a key gives it its least word. Side 0 appends letters in letter
order, so its new states come out in word order; side 1 prepends them, and
one stable sort by first letter puts them in word order. Every returned
word is re-verified by evaluation before return.
"""

from __future__ import annotations

from collections import namedtuple

from .cxhyp import INT_ID, IntMat, _move_table, _step, int_height, int_key, int_mul, int_word
# not called here: bound as module attributes because the benchmark's
# smoke check expects its tracer to patch them under these names
from .cxhyp import canonical_rep, proj_eq  # noqa: F401
from .fpgroups import free_reduce


# the bits a key can gain per letter beyond the height of the letter's move:
# 4 for the product, 1 for the unit multiple that makes it a key
LETTER_BITS = 5


class SearchResult(namedtuple("SearchResult", "word depth_searched pruned_by_height")):
    """word is a Word, or None when no word was found."""

    __slots__ = ()

    @property
    def found(self) -> bool:
        return self.word is not None


def find_word(d: int, target: IntMat, gens: list[IntMat], *, max_depth: int = 10,
              max_coeff_bits: int = 512) -> SearchResult:
    """Minimal-length word over gens (and inverses) projectively equal to
    the target, using at most max_depth letters and dropping every class
    whose key has an int_height above max_coeff_bits. The search ends
    early, with depth_searched below max_depth, once neither side has a
    new class left to expand.

    The target and the generators are kernel matrices over O_d (cxhyp's
    IntMat), the generators with a unit determinant (ValueError
    otherwise).

    A key reached in n letters from a start of height h0 (the identity's
    key, or the target's) has an int_height of at most
    h0 + n * (max int_height(moves) + LETTER_BITS), so the heights are
    only read in a step where that bound exceeds max_coeff_bits:
    - each coefficient of an entry of m*g is a sum of three terms, each at
      most 3 |m-coefficient| |g-coefficient| because |c0| <= 2 and
      |c1| <= 1 for d in {1, 3, 7}, so it has at most h(m) + h(g) + 4 bits;
    - a unit multiple adds at most 1 bit (the d=3 units w and 1+w mix the
      two coefficients);
    - each new key is the key of (a parent's key) * (a move)."""
    if max_depth < 0 or max_coeff_bits <= 0:
        raise ValueError("max_depth must be at least 0 and max_coeff_bits at least 1, "
                         f"got {max_depth} and {max_coeff_bits}")
    moves, undo, letters = _move_table(d, gens)

    # side 0 grows words by appending the letter of move k (right-multiplying
    # by move k), side 1 by prepending it (right-multiplying by
    # moves[undo[k]], a unit multiple of the inverse of move k)
    mats = (moves, [moves[j] for j in undo])
    order = sorted(range(len(moves)), key=letters.__getitem__)

    target_key = int_key(d, target)
    ident_key = int_key(d, INT_ID)
    if ident_key == target_key:
        return SearchResult((), 0, False)
    starts = (int_height(ident_key), int_height(target_key))
    letter_bits = max(map(int_height, moves)) + LETTER_BITS

    # per side, key -> position of the move that first reached it (-1 for
    # the start), and the states the last step added; side 0's key stands
    # for eval(w), side 1's for target * eval(w)^-1, w the key's first word
    tables = ({ident_key: -1}, {target_key: -1})
    frontiers = [[(ident_key, -1)], [(target_key, -1)]]
    depths = [0, 0]
    pruned = False

    def keep(key: IntMat) -> bool:
        """The current step's height prune; the last step keeps only keys that meet."""
        nonlocal pruned
        if capped and int_height(key) > max_coeff_bits:
            pruned = True
            return False
        return not last or key in theirs

    def word(side: int, key: IntMat) -> list[int]:
        """The first word of key on side, read back from key to its start."""
        w = []
        while (k := tables[side][key]) >= 0:
            w.append(letters[k])
            key = int_key(d, int_mul(d, key, mats[side][undo[k]]))
        return w[::-1] if side == 0 else w

    while depths[0] + depths[1] < max_depth and (frontiers[0] or frontiers[1]):
        side = 0 if (depths[0] <= depths[1] and frontiers[0]) or not frontiers[1] else 1
        theirs = tables[1 - side]
        last = depths[0] + depths[1] + 1 == max_depth
        capped = starts[side] + (depths[side] + 1) * letter_bits > max_coeff_bits
        new = _step(d, frontiers[side], mats[side], undo, order, tables[side], keep)
        # side 1's new states in word order: by first letter, letters[undo[skip]]
        if side:
            new.sort(key=lambda state: letters[undo[state[1]]])
        depths[side] += 1
        frontiers[side] = new
        # the tables were disjoint, so a meet is a key new to this side
        meets = [free_reduce(word(0, key) + word(1, key)) for key, _ in new if key in theirs]
        if meets:
            best = min(meets, key=lambda w: (len(w), w))
            # re-evaluated from the generators, not from the tables
            if int_key(d, int_word(d, best, gens)) != target_key:
                raise RuntimeError("search returned an unsound word")
            return SearchResult(best, depths[0] + depths[1], pruned)
    return SearchResult(None, depths[0] + depths[1], pruned)
