"""The braided antisymmetry check on tensor words of generators.

A word is a tuple of 1-based generator indices.  The braiding swaps two
adjacent letters a, b with the factor lambda~_{a,b}, and ``braiding_f_prime``
is the alternating contraction f' built from it, which must vanish.
"""
from __future__ import annotations

from .errors import IndexOutOfRange, WordTooLong
from .scalar import AlgebraSpec, Scalar

Word = tuple[int, ...]
WordElement = dict[Word, Scalar]

# The longest word ``braiding_f_prime`` accepts.
MAX_WORD_LENGTH = 6


def _braid_at(spec: AlgebraSpec, elem: WordElement, pos: int) -> WordElement:
    """Apply the braiding at positions (pos, pos+1), 1-based."""
    out: WordElement = {}
    for word, c in elem.items():
        a, b = word[pos - 1], word[pos]
        if a != b:
            c = c * spec.lambda_tilde(a, b)
            word = word[: pos - 1] + (b, a) + word[pos + 1 :]
        out[word] = out[word] + c if word in out else c
    return {w: c for w, c in out.items() if not c.is_zero()}


def _pi_front(spec: AlgebraSpec, elem: WordElement, i: int) -> WordElement:
    """Bring letter i to the front: the composite c_1 ... c_{i-1}."""
    for t in range(i - 1, 0, -1):
        elem = _braid_at(spec, elem, t)
    return elem


def _pi_back(spec: AlgebraSpec, elem: WordElement, k: int, length: int) -> WordElement:
    """Bring letter k to the end of a length-`length` prefix: c_{L-1} ... c_k."""
    for t in range(k, length):
        elem = _braid_at(spec, elem, t)
    return elem


def _pair_form(spec: AlgebraSpec, a: int, b: int) -> int:
    """The bilinear form pairing each Weyl generator with its partner."""
    if a <= spec.r and b == a + spec.r:
        return 1
    if b <= spec.r and a == b + spec.r:
        return -1
    return 0


def braiding_f_prime(spec: AlgebraSpec, word: Word) -> WordElement:
    """The alternating contraction f' on a tensor word; expected to vanish.

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
    total: WordElement = {}

    def accumulate(elem: WordElement, sign: int, drop_front: bool):
        for w, c in elem.items():
            if drop_front:
                pair = _pair_form(spec, w[0], w[1])
                rest = w[2:]
            else:
                pair = _pair_form(spec, w[-2], w[-1])
                rest = w[:-2]
            if pair == 0:
                continue
            contrib = c * (pair * sign)
            total[rest] = total[rest] + contrib if rest in total else contrib

    start: WordElement = {word: spec.one()}
    for i in range(1, p + 1):
        for j in range(i + 1, p + 1):
            sign = (-1) ** (i + j + 1)
            # (f (x) I) (I_1 (x) Pi_{j-1}) Pi_i
            elem = _pi_front(spec, start, i)
            shifted: WordElement = {}
            for w, c in elem.items():
                sub = {w[1:]: c}
                for ww, cc in _pi_front(spec, sub, j - 1).items():
                    nw = (w[0],) + ww
                    shifted[nw] = shifted[nw] + cc if nw in shifted else cc
            accumulate(shifted, sign, drop_front=True)
            # (I (x) f) (PiBack_i (x) I_1) PiBack_j
            elem = _pi_back(spec, start, j, p)
            moved: WordElement = {}
            for w, c in elem.items():
                sub = {w[: p - 1]: c}
                for ww, cc in _pi_back(spec, sub, i, p - 1).items():
                    nw = ww + (w[-1],)
                    moved[nw] = moved[nw] + cc if nw in moved else cc
            accumulate(moved, -sign, drop_front=False)
    return {w: c for w, c in total.items() if not c.is_zero()}
