"""Walk through the letter algebra and exact word products.

Run with:  python demos/01_pauli_words.py
"""

import itertools

from eprkit import PauliWord, approx_equal, compose_letters, mul_words, word_matrix

# Three letters that square to 1 and anticommute, with the orientation
# e1*e2 = i*e3.  compose_letters returns (k, c) meaning i**k * c.
print("single-site products (phase exponent, letter):")
for a in (1, 2, 3):
    row = "  ".join(f"e{a}*e{b} -> {compose_letters(a, b)}" for b in (1, 2, 3))
    print("  " + row)

# Words are tensor strings of letters; E13 means e1 on the first site and
# e3 on the second.  Products accumulate one exact phase.
a, b = PauliWord((1, 3)), PauliWord((0, 1))
k, w = mul_words(a, b)
print(f"\n{a} * {b} = i**{k} * {w}")

# Every word is its own inverse.
for letters in [(0, 0), (1, 2), (3, 3)]:
    word = PauliWord(letters)
    print(f"{word} squared -> {mul_words(word, word)}")

# The matrix route is built from the explicit 2x2 matrices, not from the
# composition table, so agreement between the two is a real check.
print("\ncross-checking all 256 word products against Kronecker matrices...")
words = [PauliWord(t) for t in itertools.product(range(4), repeat=2)]
agree = 0
for wa, wb in itertools.product(words, repeat=2):
    k, w = mul_words(wa, wb)
    agree += approx_equal(word_matrix(wa) * word_matrix(wb), word_matrix(w).times_i(k))
print(f"agreement: {agree}/256")

print("\nthe E30 matrix (a diagonal sign pattern):")
m = word_matrix(PauliWord((3, 0)))
for r in range(m.dim):
    print("  " + " ".join(f"{str(m.entry(r, c)[0]):>2}" for c in range(m.dim)))
