"""The braided antisymmetry check on tensor words of generators.

A word is a tuple of 1-based generator indices.  The braiding swaps two
adjacent letters a, b with the factor lambda~_{a,b}, so a composite of
braidings maps a word to one word times a product of lambda~ entries, whose
character is the sum of theirs.  ``braiding_f_prime`` is the alternating
contraction f' built from it, which must vanish: each of its terms is one
(word, lambda~-character, int) triple, summed as every differential is.
"""
from __future__ import annotations

from .algebra import Combination
from .errors import IndexOutOfRange, WordTooLong
from .scalar import AlgebraSpec, Scalar

Word = tuple[int, ...]

# The longest word ``braiding_f_prime`` accepts.
MAX_WORD_LENGTH = 6


def _pair_form(spec: AlgebraSpec, a: int, b: int) -> int:
    """The bilinear form pairing each Weyl generator with its partner."""
    if a <= spec.r and b == a + spec.r:
        return 1
    if b <= spec.r and a == b + spec.r:
        return -1
    return 0


def _braided(spec: AlgebraSpec, word: Word, positions) -> tuple[list[int], list[int]]:
    """The word braided at each 1-based (pos, pos + 1) in turn, and its factors' character."""
    word, acc = list(word), [0] * spec.model.rank
    for pos in positions:
        a, b = word[pos - 1], word[pos]
        if a != b:
            spec.add_character(acc, a, b)
            word[pos - 1], word[pos] = b, a
    return word, acc


def _terms(spec: AlgebraSpec, word: Word):
    """The (word, character, int) triples of f' on ``word``, two per pair i < j."""
    p, reduce = len(word), spec.model.reduce
    for i in range(1, p + 1):
        for j in range(i + 1, p + 1):
            sign = (-1) ** (i + j + 1)
            # (f (x) I)(I_1 (x) Pi_{j-1}) Pi_i, then (I (x) f)(PiBack_i (x) I_1) PiBack_j.
            front, acc = _braided(spec, word, [*range(i - 1, 0, -1), *range(j - 1, 1, -1)])
            pair = _pair_form(spec, front[0], front[1])
            if pair:
                yield tuple(front[2:]), reduce(acc), sign * pair
            back, acc = _braided(spec, word, [*range(j, p), *range(i, p - 1)])
            pair = _pair_form(spec, back[-2], back[-1])
            if pair:
                yield tuple(back[:-2]), reduce(acc), -sign * pair


def braiding_f_prime(spec: AlgebraSpec, word: Word) -> dict[Word, Scalar]:
    """The alternating contraction f' on a tensor word, as word -> nonzero scalar; expected to vanish.

    f' = sum_{i<j} (-1)^{i+j+1} [ (f (x) I)(I (x) Pi_{j-1}) Pi_i
                                - (I (x) f)(PiBack_i (x) I) PiBack_j ]

    where Pi_i braids letter i to the front, PiBack_k braids letter k to the
    end, and f pairs v_i with v_{r+i} (value 1) and v_{r+i} with v_i
    (value -1).
    """
    p = len(word)
    if p > MAX_WORD_LENGTH:
        raise WordTooLong(f"word length {p} exceeds bound {MAX_WORD_LENGTH}")
    if p < 2:
        raise WordTooLong("need a word of length at least 2")
    for a in word:
        if not (1 <= a <= spec.num_generators):
            raise IndexOutOfRange(f"letter {a} out of range")
    return Combination.from_triples(spec, _terms(spec, word)).terms
