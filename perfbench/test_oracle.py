"""Tests of the benchmark's independent checker on textbook codes.

    python3 -m pytest perfbench/test_oracle.py
"""

from __future__ import annotations

import random
from itertools import combinations

import pytest

import oracle

#: x^3 + x + 1: its CRC over 4 data bits is the Hamming(7,4) code.
HAMMING_7_4 = 0b1011
#: (x + 1)(x^3 + x + 1) = x^4 + x^3 + x^2 + 1: over 3 data bits the
#: even-weight subcode of Hamming(7,4), distance 4.
EXTENDED = 0b11101


def naive_lightest(g: int, n_bits: int, k_limit: int) -> tuple[int, ...] | None:
    """Reference for :func:`oracle.lightest_codeword` on tiny codes: try
    every subset of positions in order of weight."""
    for k in range(2, k_limit):
        for combo in combinations(range(n_bits), k):
            if oracle.is_codeword(g, combo, n_bits):
                return combo
    return None


def test_gf2_mod_textbook():
    assert oracle.gf2_mod(0b1000, HAMMING_7_4) == 0b011  # x^3 = x + 1
    assert oracle.gf2_mod(1 << 7, HAMMING_7_4) == 1  # x has order 7
    assert oracle.gf2_mod(0b101, HAMMING_7_4) == 0b101  # already reduced
    # a multiple of g leaves no remainder
    q = 0b110101
    product = 0
    for i in range(q.bit_length()):
        if q >> i & 1:
            product ^= HAMMING_7_4 << i
    assert oracle.gf2_mod(product, HAMMING_7_4) == 0


def test_hamming_7_4_has_distance_3():
    assert oracle.lightest_codeword(HAMMING_7_4, 7, 3) is None
    light = oracle.lightest_codeword(HAMMING_7_4, 7, 4)
    assert len(light) == 3 and oracle.is_codeword(HAMMING_7_4, light, 7)
    # one bit longer, x^7 = 1 closes a weight-2 codeword
    assert oracle.lightest_codeword(HAMMING_7_4, 8, 3) == (0, 7)


def test_extended_hamming_has_distance_4_and_even_weights():
    assert oracle.divisible_by_x_plus_1(EXTENDED)
    assert not oracle.divisible_by_x_plus_1(HAMMING_7_4)
    assert oracle.lightest_codeword(EXTENDED, 7, 4) is None
    light = oracle.lightest_codeword(EXTENDED, 7, 6)
    assert len(light) == 4 and oracle.is_codeword(EXTENDED, light, 7)
    assert len(naive_lightest(EXTENDED, 7, 6)) == 4
    # parity: no odd-weight pattern is a codeword, at any length
    for combo in [(0, 1, 3), (1, 2, 4), (0, 1, 2, 4, 5), (0, 7, 9)]:
        assert not oracle.is_codeword(EXTENDED, combo, 12)


def test_is_codeword_rejects_malformed_witnesses():
    g = HAMMING_7_4
    assert oracle.is_codeword(g, (0, 1, 3), 7)  # g itself
    assert not oracle.is_codeword(g, (0, 1, 3), 3)  # position past the end
    assert not oracle.is_codeword(g, (0, 1, 1, 3), 7)  # repeated position
    assert not oracle.is_codeword(g, (0, 1, 2), 7)  # detected pattern
    assert not oracle.is_codeword(g, (), 7)  # the empty pattern


@pytest.mark.parametrize("seed", range(8))
def test_brute_force_agrees_with_naive_enumeration(seed):
    rng = random.Random(seed)
    r = rng.randint(4, 6)
    g = (1 << r) | rng.getrandbits(r - 1) << 1 | 1
    n_bits = rng.randint(r + 2, 13)
    fast = oracle.lightest_codeword(g, n_bits, 6)
    slow = naive_lightest(g, n_bits, 6)
    assert (fast is None) == (slow is None)
    if fast is not None:
        assert len(fast) == len(slow)
        assert oracle.is_codeword(g, fast, n_bits)


def test_weight_5_found_when_lighter_weights_are_absent():
    # x^5 + x^2 + 1 is primitive (order 31), so weights 2 and 3 are
    # absent at 8 bits; enumerate to find what the brute force must.
    g = 0b100101
    expected = naive_lightest(g, 12, 6)
    got = oracle.lightest_codeword(g, 12, 6)
    assert len(got) == len(expected)
    assert oracle.is_codeword(g, got, 12)


def test_canonical_count_matches_enumeration():
    for width in range(3, 13):
        enumerated = sum(
            oracle.is_canonical((1 << width) | (i << 1) | 1, width)
            for i in range(1 << (width - 1))
        )
        assert enumerated == oracle.canonical_count(width)
    assert oracle.canonical_count(16) == 16512
    assert oracle.canonical_count(14) == 4160


def test_reciprocal_reverses_coefficients():
    # x^3 + x + 1  <->  x^3 + x^2 + 1
    assert oracle.reciprocal(0b1011, 3) == 0b1101
    assert oracle.is_canonical(0b1011, 3) and not oracle.is_canonical(0b1101, 3)
