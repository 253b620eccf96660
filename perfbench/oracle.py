"""Independent checks on search outputs, in plain integer arithmetic.

Nothing here imports :mod:`repro`: a polynomial over GF(2) is a Python
int whose bit ``i`` is the coefficient of ``x**i``, and every check is
recomputed from that definition.  The benchmark runs these after its
timed work, so a kernel that gets faster by getting wrong fails the
run instead of posting a better number.

* :func:`is_codeword` -- a witness ``(p_1, ..., p_k)`` is an
  undetected error pattern iff ``sum x**p_i == 0 (mod g)``, its
  positions are distinct and all fall inside the ``n + r``-bit
  codeword.
* :func:`lightest_codeword` -- brute force over every pattern of
  weight ``2 .. k_limit - 1``, for proving that a survivor's HD is at
  least ``k_limit`` or that a kill had no lighter codeword.
* :func:`canonical_count` -- the closed-form size of the reciprocal-
  deduplicated candidate space.
"""

from __future__ import annotations

import numpy as np


def gf2_mod(a: int, g: int) -> int:
    """Remainder of ``a`` divided by ``g`` over GF(2) (long division).

    >>> gf2_mod(0b1000, 0b1011)   # x^3 mod (x^3 + x + 1) = x + 1
    3
    """
    if g <= 0:
        raise ValueError("the divisor must be a non-zero polynomial")
    dg = g.bit_length() - 1
    while a and a.bit_length() - 1 >= dg:
        a ^= g << (a.bit_length() - 1 - dg)
    return a


def divisible_by_x_plus_1(g: int) -> bool:
    """``(x + 1) | g`` iff ``g(1) == 0`` iff ``g`` has an even number
    of terms."""
    return bin(g).count("1") % 2 == 0


def is_codeword(g: int, positions: tuple[int, ...], n_bits: int) -> bool:
    """True iff ``positions`` are distinct bit positions of an
    ``n_bits``-long codeword of ``g`` whose flipped-bit pattern the
    CRC cannot see: ``sum x**p == 0 (mod g)``."""
    if len(set(positions)) != len(positions):
        return False
    if any(not 0 <= p < n_bits for p in positions):
        return False
    pattern = 0
    for p in positions:
        pattern |= 1 << p
    return pattern != 0 and gf2_mod(pattern, g) == 0


def syndromes(g: int, n_bits: int) -> list[int]:
    """``x**i mod g`` for ``i`` in ``[0, n_bits)``, by shift-and-reduce."""
    r = g.bit_length() - 1
    out = []
    s = 1
    for _ in range(n_bits):
        out.append(s)
        s <<= 1
        if s >> r:
            s ^= g
    return out


def lightest_codeword(g: int, n_bits: int, k_limit: int) -> tuple[int, ...] | None:
    """The positions of some lightest non-zero codeword of weight
    ``< k_limit`` in an ``n_bits``-long code of ``g``, or ``None`` if
    every error pattern of weight ``2 .. k_limit - 1`` is detected.

    Exhaustive by construction: weights are tried in ascending order,
    so a match between two sub-patterns that shared a position would
    already have shown up as a lighter codeword.  Weight 2 compares
    single syndromes, weight 3 pairs against singles, weight 4 pairs
    against pairs and weight 5 triples against pairs.  (Weight 1 is
    impossible: ``g`` has a constant term, so no ``x**i`` vanishes.)
    """
    if k_limit > 6:
        raise ValueError("brute force is implemented for weights up to 5")
    if g & 1 == 0:
        raise ValueError("generator must have a constant term")
    syn = np.array(syndromes(g, n_bits), dtype=np.int64)
    order = np.argsort(syn, kind="stable")
    if k_limit > 2 and n_bits >= 2:
        same = np.flatnonzero(syn[order][1:] == syn[order][:-1])
        if len(same):
            i, j = sorted((int(order[same[0]]), int(order[same[0] + 1])))
            return (i, j)
    if k_limit <= 3 or n_bits < 3:
        return None
    ia, ib = np.triu_indices(n_bits, k=1)
    pairs = syn[ia] ^ syn[ib]
    # weight 3: a pair XOR equal to a single syndrome
    pos = np.searchsorted(syn[order], pairs)
    pos = np.minimum(pos, n_bits - 1)
    hit = np.flatnonzero(syn[order][pos] == pairs)
    if len(hit):
        h = int(hit[0])
        return tuple(sorted((int(ia[h]), int(ib[h]), int(order[pos[h]]))))
    if k_limit <= 4 or n_bits < 4:
        return None
    # weight 4: two distinct pairs with equal XOR
    porder = np.argsort(pairs, kind="stable")
    sp = pairs[porder]
    same = np.flatnonzero(sp[1:] == sp[:-1])
    if len(same):
        u, v = int(porder[same[0]]), int(porder[same[0] + 1])
        return tuple(sorted((int(ia[u]), int(ib[u]), int(ia[v]), int(ib[v]))))
    if k_limit <= 5 or n_bits < 5:
        return None
    # weight 5: a triple XOR equal to a pair XOR, one anchor at a time
    for a in range(n_bits - 2):
        rest = ia > a
        trip = syn[a] ^ pairs[rest]
        tpos = np.minimum(np.searchsorted(sp, trip), len(sp) - 1)
        thit = np.flatnonzero(sp[tpos] == trip)
        if len(thit):
            t = int(thit[0])
            u = int(porder[tpos[t]])
            b, c = int(ia[rest][t]), int(ib[rest][t])
            return tuple(sorted((a, b, c, int(ia[u]), int(ib[u]))))
    return None


def reciprocal(p: int, width: int) -> int:
    """``p`` with its ``width + 1`` coefficients reversed."""
    return int(f"{p:0{width + 1}b}"[::-1], 2)


def is_canonical(p: int, width: int) -> bool:
    """A reciprocal pair is screened once, as its smaller encoding."""
    return p <= reciprocal(p, width)


def canonical_count(width: int) -> int:
    """Canonical (reciprocal-deduplicated) width-``width`` candidates:
    ``2**(w-1)`` generators with both end terms, ``2**(w//2)`` of them
    palindromes, every other one paired with its reciprocal.

    >>> canonical_count(32)
    1073774592
    """
    raw = 1 << (width - 1)
    palindromes = 1 << (width // 2)
    return (raw - palindromes) // 2 + palindromes
