"""Scalar and element arithmetic, plus algebraic property tests."""

import itertools
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, strategies as st

from eprkit.element import ArityMismatchError, E, Element, IM, ONE, Scalar, ZERO, e
from eprkit.exprparse import parse_expr, to_element
from eprkit.matrices import approx_equal, element_matrix
from eprkit.pauli import PauliWord, commute_sign, mul_words


class TestScalar:
    def test_construction_and_equality(self):
        assert Scalar(2) == 2
        assert Scalar(Fraction(1, 2)) == Fraction(1, 2)
        assert Scalar(0, 1) == IM
        assert Scalar(1, 1) != Scalar(1, -1)

    def test_float_parts_are_refused(self):
        for re, im in [(0.1, 0), (0, 0.5), (1.0, 0)]:
            with pytest.raises(TypeError):
                Scalar(re, im)
        assert Scalar("1/10", 2) == Scalar(Fraction(1, 10), 2)

    @pytest.mark.parametrize("n, h", [(True, 1), (-3, -3), (2 ** 70, 512)])
    def test_an_int_coerces_to_its_integral_scalar(self, n, h):
        s = Scalar._coerce(n)
        assert s.parts == (1, int(n), 0) and type(s.parts[1]) is int
        assert hash(s) == h == hash(n)
        assert repr(s) == f"Scalar(Fraction({int(n)}, 1), Fraction(0, 1))"
        assert s == Scalar(n) and n == ZERO + s

    def test_arithmetic(self):
        assert Scalar(1, 2) + Scalar(3, -1) == Scalar(4, 1)
        assert Scalar(1, 2) * Scalar(3, 4) == Scalar(-5, 10)
        assert IM * IM == -1
        assert -Scalar(1, -2) == Scalar(-1, 2)

    def test_division_is_exact(self):
        a, b = Scalar(3, 7), Scalar(Fraction(2, 5), -4)
        assert (a / b) * b == a
        assert ONE / IM == Scalar(0, -1)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            ONE / ZERO

    @pytest.mark.parametrize("op", [lambda s: "x" - s, lambda s: s / "x", lambda s: "x" / s],
                             ids=["rsub", "truediv", "rtruediv"])
    def test_an_operand_that_is_no_scalar_is_refused(self, op):
        # Each operator returns NotImplemented, and Python raises TypeError.
        with pytest.raises(TypeError, match="unsupported operand"):
            op(Scalar(1, 2))

    def test_bool(self):
        assert not ZERO
        assert Scalar(0, Fraction(1, 3))

    def test_repr_and_refused_float(self):
        assert repr(Scalar(Fraction(3, 4))) == "Scalar(Fraction(3, 4), Fraction(0, 1))"
        assert repr(Scalar(2, "-1/3")) == "Scalar(Fraction(2, 1), Fraction(-1, 3))"
        with pytest.raises(TypeError):
            Scalar(0.5)

    def test_str(self):
        assert str(Scalar(Fraction(-1, 2))) == "-1/2"
        assert str(IM) == "i"
        assert str(-IM) == "-i"
        assert str(Scalar(0, Fraction(3, 4))) == "3/4*i"
        assert str(Scalar(Fraction(1, 2), Fraction(-3, 4))) == "1/2-3/4*i"


class TestElementBasics:
    def test_sum_with_negation_is_zero(self):
        a = E(0, 1) + 2 * E(1, 2)
        assert (a + (-a)).is_zero
        assert a - a == Element.zero(2)

    def test_scaling(self):
        scaled = IM * E(0, 3)
        assert list(scaled.terms.items()) == [(PauliWord((0, 3)), IM)]

    def test_half_difference_has_two_terms(self):
        el = (E(1, 1) - 1) / 2
        assert el.coefficient(PauliWord((1, 1))) == Fraction(1, 2)
        assert el.trace_normalized() == Fraction(-1, 2)
        assert len(el.terms) == 2

    def test_zero_terms_pruned(self):
        el = E(0, 1) + E(1, 0) - E(0, 1)
        assert list(el.terms) == [PauliWord((1, 0))]

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatchError):
            e(1) + E(0, 1)
        with pytest.raises(ArityMismatchError):
            e(1) * E(0, 1)

    def test_a_coefficient_of_a_word_of_another_arity_is_refused(self):
        with pytest.raises(ArityMismatchError, match="^arities differ: 2 vs 1$"):
            E(0, 1).coefficient(PauliWord((1,)))
        with pytest.raises(ArityMismatchError, match="^arities differ: 1 vs 2$"):
            e(0).coefficient(PauliWord((0, 0)))

    def test_scalar_coercion_uses_identity_word(self):
        assert E(1, 1) - 1 == E(1, 1) - Element.one(2)
        assert 2 + E(0, 1) == Element.scalar(2, 2) + E(0, 1)

    def test_zero_needs_a_site(self):
        with pytest.raises(ValueError, match="arity must be at least 1"):
            Element.zero(0)

    def test_division_by_zero_scalar(self):
        with pytest.raises(ZeroDivisionError):
            E(0, 1) / 0

    def test_single_site_identity_prints_as_e0(self):
        one = Element.one(1)
        assert str(one) == "e0"
        assert str(-one) == "-e0"
        assert str(IM * one) == "i*e0"
        assert str(Scalar(1, 1) * one) == "(1+i)*e0"
        assert str(Element.zero(1)) == "0*e0"
        assert str(one / 2 - e(3)) == "1/2*e0 - e3"
        # two sites keep the bare scalar
        assert str(Element.one(2)) == "1"
        assert str(Element.zero(2)) == "0"

    def test_an_element_at_an_arity_without_names_does_not_print(self):
        # A bare scalar reads back at two sites, so a three-site element has no text.
        for el in (Element.one(3), Element.zero(3), Element.from_word(PauliWord((1, 2, 3)))):
            with pytest.raises(ValueError, match="no word of 3 sites"):
                str(el)

    def test_a_coefficient_that_is_no_scalar_is_refused(self):
        with pytest.raises(TypeError, match="not scalar-like"):
            Element.from_word(PauliWord((0, 1)), "x")

    def test_an_operand_that_is_no_scalar_is_refused(self):
        x, other = E(0, 1), object()
        for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
            with pytest.raises(TypeError):
                op(x, other)
            with pytest.raises(TypeError):
                op(other, x)
        with pytest.raises(TypeError):
            x / other
        assert (x == other) is False and (other == x) is False

    def test_equality_with_scalars(self):
        assert Element.one(2) == 1
        assert Element.zero(2) == 0
        assert E(0, 1) * E(0, 1) == 1


class TestElementProducts:
    def test_cyclic_product(self):
        assert E(0, 1) * E(0, 2) == IM * E(0, 3)

    def test_pair_correlator_both_orders(self):
        assert E(0, 1) * E(1, 0) == E(1, 1)
        assert E(1, 0) * E(0, 1) == E(1, 1)

    def test_singlet_factor_orderings_agree(self):
        f1, f2, f3 = [(E(k, k) - 1) / 2 for k in (1, 2, 3)]
        base = f1 * f2 * f3
        assert base == f2 * f1 * f3
        assert base == f3 * f1 * f2

    def test_word_pairs_commute_or_anticommute(self, nontrivial):
        for wa, wb in itertools.combinations(nontrivial, 2):
            a, b = Element.from_word(wa), Element.from_word(wb)
            sign = commute_sign(wa, wb)
            assert a * b == sign * (b * a)

    def test_distributivity_exhaustive_over_word_triples(self, all_words):
        elements = [Element.from_word(w) for w in all_words]
        for a, b, c in itertools.product(elements, repeat=3):
            assert (a + b) * c == a * c + b * c


class TestAdjointAndTrace:
    def test_trace_of_identity_and_words(self):
        assert Element.one(2).trace_normalized() == 1
        assert E(1, 2).trace_normalized() == 0

    def test_trace_of_singlet_element(self, singlet):
        # trace/4 of psi; the matrix route must give the same number
        assert singlet.psi.trace_normalized() == Fraction(-1, 4)
        assert element_matrix(singlet.psi).trace() == (-1, 0)


# --- property tests -------------------------------------------------------

WORDS2 = [PauliWord(t) for t in itertools.product(range(4), repeat=2)]

# i**k for k = 0..3, as scalars.
PHASES = (ONE, IM, Scalar(-1), Scalar(0, -1))

# Every rational in [-3, 3] with denominator at most 4, smallest magnitude
# first so that shrinking heads to 0.  Drawing from the finite list gives the
# same values as st.fractions(-3, 3, max_denominator=4) at a fraction of the
# generation cost.
SMALL_RATIONALS = sorted({Fraction(n, d) for d in range(1, 5) for n in range(-3 * d, 3 * d + 1)},
                         key=lambda q: (abs(q), q < 0))

scalars = st.builds(
    Scalar,
    st.sampled_from(SMALL_RATIONALS),
    st.sampled_from(SMALL_RATIONALS),
)

# i**u times one word: a product with one of these maps the other factor's words
# one to one and keeps the denominator and gcd it had.
unit_words = st.builds(Element.from_word, st.sampled_from(WORDS2), st.sampled_from(PHASES))


def build(terms, arity=2):
    """The sum of ``c*w`` over ``terms``, built from words and arithmetic as callers do."""
    el = Element.zero(arity)
    for w, c in terms.items():
        el += c * Element.from_word(w)
    return el


elements = st.one_of(
    st.builds(build, st.dictionaries(st.sampled_from(WORDS2), scalars, max_size=4)),
    unit_words,
)


@given(elements, elements, elements)
def test_mul_is_associative(a, b, c):
    lhs, rhs = (a * b) * c, a * (b * c)
    assert lhs == rhs
    assert hash(lhs) == hash(rhs)  # the two sides build their words in different orders


@given(elements, elements, elements)
def test_mul_distributes_over_add(a, b, c):
    for lhs, rhs in [(a * (b + c), a * b + a * c), ((a + b) * c, a * c + b * c)]:
        assert lhs == rhs
        assert hash(lhs) == hash(rhs)


@given(elements, elements)
def test_add_commutes(a, b):
    assert a + b == b + a


@given(elements, elements)
def test_trace_is_cyclic(a, b):
    assert (a * b).trace_normalized() == (b * a).trace_normalized()


def adjoint(el):
    """Hermitian conjugate: words are self-adjoint, coefficients conjugate."""
    return build({w: Scalar(c.re, -c.im) for w, c in el.terms.items()}, el.arity)


@given(elements, elements)
def test_adjoint_reverses_products(a, b):
    # Holds only if every word product's phase is conjugated by swapping the factors.
    assert adjoint(a * b) == adjoint(b) * adjoint(a)


@given(st.one_of(st.integers(-10, 10), st.fractions(max_denominator=6)),
       st.one_of(st.just(0), st.fractions(max_denominator=6)), st.integers(1, 2))
def test_equal_values_hash_alike(re, im, arity):
    s = Scalar(re, im)
    values = [re, Fraction(re), s, Element.scalar(s, arity), Element.scalar(re, arity),
              Element.scalar(s, arity) + Element.from_word(PauliWord((1,) * arity))]
    for a, b in itertools.product(values, repeat=2):
        if a == b:
            assert hash(a) == hash(b), (a, b)


@given(scalars, st.sampled_from([PauliWord(t) for n in (1, 2)
                                  for t in itertools.product(range(4), repeat=n)]))
@example(ZERO, PauliWord((1,)))
@example(ZERO, PauliWord((1, 2)))
def test_one_term_constructors_match_the_reference(c, w):
    identity = PauliWord.identity(w.arity)
    assert terms_of(Element.from_word(w, c)) == _ref_canonical({w: c})
    assert terms_of(Element.scalar(c, w.arity)) == _ref_canonical({identity: c})


@given(elements, elements)
def test_matrix_route_is_a_homomorphism(a, b):
    assert approx_equal(element_matrix(a * b),
                        element_matrix(a) * element_matrix(b))


# --- reference implementation ---------------------------------------------
# The readable definition: a coefficient per word as a Fraction-pair Scalar,
# products as the double loop over terms with the word phase i**k.  Element
# must agree with it term by term, order of words included.

def _ref_canonical(acc):
    return [(w, c) for w, c in sorted(acc.items()) if c]


def ref_mul(a, b):
    acc = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            k, w = mul_words(wa, wb)
            acc[w] = acc.get(w, ZERO) + ca * cb * PHASES[k]
    return _ref_canonical(acc)


def ref_add(a, b, sign=1):
    acc = dict(a)
    for w, c in b.items():
        acc[w] = acc.get(w, ZERO) + sign * c
    return _ref_canonical(acc)


def ref_map(a, f):
    return _ref_canonical({w: f(c) for w, c in a.items()})


# Denominators: every product of 2, 3, 5 and 7 up to 35.
SMOOTH = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 15, 16, 18, 20, 21, 24, 25, 27, 28,
          30, 32, 35]

wide_rationals = st.builds(Fraction, st.integers(-10**6, 10**6), st.sampled_from(SMOOTH))
wide_scalars = st.builds(Scalar, wide_rationals, st.one_of(st.just(0), wide_rationals))
wide_terms = st.dictionaries(st.sampled_from(WORDS2), wide_scalars, max_size=16)
wide_elements = st.one_of(st.builds(build, wide_terms), unit_words)


def terms_of(el):
    return list(el.terms.items())


# --- Scalar against a Fraction-pair reference -------------------------------

rational_parts = st.one_of(st.sampled_from(SMALL_RATIONALS), wide_rationals)
pairs = st.tuples(rational_parts, st.one_of(st.just(Fraction(0)), rational_parts))


def assert_stores(s, pair):
    """``s`` is the Gaussian rational ``pair``, stored in lowest terms."""
    den, re, im = s.parts
    assert den > 0 and gcd(den, re, im) == 1
    assert (Fraction(re, den), Fraction(im, den)) == (s.re, s.im) == pair


@given(pairs, pairs)
@example((Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 2), Fraction(1, 2)))  # i/2
@example((Fraction(0), Fraction(0)), (Fraction(2, 3), Fraction(0)))
@example((Fraction(3, 4), Fraction(0)), (Fraction(0), Fraction(0)))
def test_scalar_arithmetic_matches_fraction_pairs(p, q):
    (ar, ai), (br, bi) = p, q
    a, b = Scalar(ar, ai), Scalar(br, bi)
    assert_stores(a, p)
    assert_stores(a + b, (ar + br, ai + bi))
    assert_stores(a - b, (ar - br, ai - bi))
    assert_stores(a * b, (ar * br - ai * bi, ar * bi + ai * br))
    assert_stores(-a, (-ar, -ai))
    norm = br * br + bi * bi
    if norm:
        assert_stores(a / b, ((ar * br + ai * bi) / norm, (ai * br - ar * bi) / norm))
    else:
        with pytest.raises(ZeroDivisionError):
            a / b
    # A Fraction operand on either side, through the reflected operators too.
    assert_stores(br + a, (br + ar, ai))
    assert_stores(br - a, (br - ar, -ai))
    assert_stores(br * a, (br * ar, br * ai))
    if a:
        assert a / a == 1 and br / a * a == br
    assert (a == b) == (p == q)
    assert bool(a) == (p != (0, 0))
    if not ai:  # a real scalar is its Fraction, and an integral one its int
        assert a == ar and hash(a) == hash(ar)
        if ar.denominator == 1:
            assert a == int(ar) and hash(a) == hash(int(ar))


@given(wide_elements, wide_elements)
def test_binary_operations_match_the_reference(a, b):
    ta, tb = a.terms, b.terms
    assert terms_of(a * b) == ref_mul(ta, tb)
    assert terms_of(a + b) == ref_add(ta, tb)
    assert terms_of(a - b) == ref_add(ta, tb, -1)


@given(wide_elements, unit_words)
@example(E(0, 1) + 2 * E(1, 0), E(1, 1))  # E01*E11 = E10 and E10*E11 = E01 swap places
@example(Element.zero(2), -IM * E(1, 2))  # the canonical zero, denominator 1
@example(E(0, 1) / 2 - IM * E(2, 3) + 3, Element.scalar(IM, 2))
@example(IM * E(1, 2), -E(2, 1))  # a unit times a unit
def test_a_product_by_a_unit_word_relabels_the_terms(a, u):
    for product, reference in [(a * u, ref_mul(a.terms, u.terms)),
                               (u * a, ref_mul(u.terms, a.terms))]:
        assert terms_of(product) == reference  # words in order, as the reference sorts them
        assert gcd(product._den, *(x for pair in product._num.values() for x in pair)) == 1


@given(wide_elements, wide_scalars)
def test_unary_and_scalar_operations_match_the_reference(a, s):
    ta = a.terms
    assert terms_of(-a) == ref_map(ta, lambda c: -c)
    assert terms_of(a * s) == terms_of(s * a) == ref_map(ta, lambda c: c * s)
    if s:
        assert terms_of(a / s) == ref_map(ta, lambda c: c / s)


# --- the stored invariant -----------------------------------------------------
# An element's stored form is canonical in one sense only: no stored pair is
# (0, 0) and the denominator is positive.  The denominator is whatever the
# arithmetic built, not the lowest one, and equality and hashing read values,
# not stored parts.

def assert_stores_no_zero_pair(el):
    assert el._den > 0 and (0, 0) not in el._num.values()


def assert_stored_canonical(result, reference):
    assert_stores_no_zero_pair(result)
    assert terms_of(result) == reference
    assert result.is_zero == (not reference)


# One word times a Gaussian rational whose parts share factors with their
# denominators, so that a product of two can reduce: (1+i)/2 squared is i/2.
one_term_elements = st.builds(Element.from_word, st.sampled_from(WORDS2), scalars)
HALF_ONE_PLUS_I_E01 = Element.from_word(PauliWord((0, 1)), Scalar(Fraction(1, 2), Fraction(1, 2)))


@given(one_term_elements, one_term_elements)
@example(HALF_ONE_PLUS_I_E01, HALF_ONE_PLUS_I_E01)  # i/2, stored as 2i/4
@example(2 * E(0, 1), E(0, 1) / 2)  # 1, stored over 2
@example(2 * E(0, 1), 3 * E(1, 2))  # denominator 1, kept as built
def test_a_one_term_product_is_stored_canonical(a, b):
    for x, y in [(a, b), (b, a)]:
        assert_stored_canonical(x * y, ref_mul(x.terms, y.terms))
    assert element_matrix(a * b) == element_matrix(a) * element_matrix(b)


# A product's collisions are sums too: its words meet in the product loop.
@given(st.one_of(wide_elements, one_term_elements), st.one_of(wide_elements, one_term_elements),
       st.sampled_from(WORDS2), wide_scalars)
@example(E(0, 1) / 6, E(0, 2) / 10, PauliWord((0, 1)), ONE)  # distinct words, lcm 30
@example(E(0, 1) / 2, E(0, 1) / 2, PauliWord((0, 1)), ONE)  # a - b cancels its one pair
@example(E(0, 1) / 4, E(0, 1) / 4, PauliWord((0, 1)), ONE)  # a + b is E01/2, stored as 2/4
@example(E(0, 1) / 6, E(0, 2) / 3, PauliWord((0, 1)), ONE)  # b's denominator divides a's
@example(E(0, 1), E(0, 2), PauliWord((1, 2)), ZERO)  # the zero scalar
@example(E(0, 1) + E(1, 0), E(0, 1) - E(1, 0), PauliWord((0, 1)), ONE)  # E11 twice, cancelled
def test_every_sum_is_stored_canonical(a, b, w, s):
    ta, tb = a.terms, b.terms
    for result, reference in [(a + b, ref_add(ta, tb)), (a - b, ref_add(ta, tb, -1)),
                              (a * b, ref_mul(ta, tb)), (b * a, ref_mul(tb, ta)),
                              (a * s, ref_map(ta, lambda c: c * s)),
                              (Element.from_word(w, s), _ref_canonical({w: s})),
                              (Element.scalar(s, 2), _ref_canonical({PauliWord((0, 0)): s}))]:
        assert_stored_canonical(result, reference)


def over(k):
    """``1`` stored over the denominator ``k``: a product that nothing reduces."""
    return Element.scalar(k, 2) * Element.scalar(Fraction(1, k), 2)


@given(wide_elements, wide_elements, st.integers(2, 12), st.sampled_from(["same", "other"]))
@example(E(0, 1) / 2, E(0, 1), 2, "same")
@example(E(0, 1) / 2, E(0, 1) / 4, 2, "other")  # same words, parts off by a factor
@example(E(0, 1) + E(0, 2), E(0, 1) + E(0, 3), 3, "other")  # different words
def test_equality_across_denominators_is_equality_of_values(a, b, k, which):
    x, y = a, (a if which == "same" else b) * over(k)
    if x._den == y._den:
        x = x * over(k + 1)
    assert x._den != y._den
    equal = element_matrix(x) == element_matrix(y)
    assert (x == y) == (y == x) == equal
    assert (x != y) == (not equal)
    if equal:
        assert hash(x) == hash(y)


PROJECTOR = (1 + E(1, 1)) / 2


# A product is stored over the product of its factors' denominators, and read
# in lowest terms.  Only a denominator past 64 bits is divided by the gcd of
# the parts: the projector's powers store 2**k until 2**64 falls back to 2, so
# 900 factors leave 2**18 (2**(1 + 836 % 63)), not 2**900.
@pytest.mark.parametrize("factors, values, den, printed", [
    ([2 * E(0, 1), Fraction(1, 2) * E(0, 1)], [Element.one(2), 1], 2, "1"),
    ([PROJECTOR] * 900, [PROJECTOR], 2 ** 18, "1/2 + 1/2*E11"),
], ids=["one over two", "projector to the 900th"])
def test_a_product_is_stored_unreduced_and_read_reduced(factors, values, den, printed):
    product = factors[0]
    for factor in factors[1:]:
        product = product * factor
    assert product._den == den
    for value in values:
        assert product == value and value == product
        assert hash(product) == hash(value)
    assert terms_of(product) == terms_of(values[0])
    assert str(product) == printed


# 10**4 factors that leave the start's value, through each branch of the
# product: the stored denominator stays within the 64-bit bound and the
# factors' own bits.
@pytest.mark.parametrize("start, factors", [
    (PROJECTOR, [PROJECTOR]),
    (E(0, 1), [Fraction(2, 3) * E(0, 1), Fraction(3, 2) * E(0, 1)]),
    (PROJECTOR, [Fraction(2, 3), Fraction(3, 2)]),
], ids=["sum by sum", "word by word", "sum by scalar"])
def test_a_long_product_stores_a_bounded_denominator(start, factors):
    product = start
    for k in range(10 ** 4):
        product = product * factors[k % len(factors)]
        assert product._den.bit_length() <= 65
    assert product == start and str(product) == str(start)


# Each branch of the printed term: unit coefficients, a coefficient that reduces
# to one, imaginary units, the one-site identity, compound coefficients, zero.
@pytest.mark.parametrize("text, printed", [
    ("E12", "E12"), ("-E12", "-E12"), ("2/2*E12", "E12"), ("i*E12", "i*E12"),
    ("-i*E12", "-i*E12"), ("-e0", "-e0"), ("-1*e0", "-e0"), ("1/2+i", "(1/2+i)"),
    ("(1/2-i)*E12", "(1/2-i)*E12"), ("0*e0", "0*e0"),
])
def test_printed_terms(text, printed):
    assert str(to_element(parse_expr(text))) == printed


def test_printing_builds_no_negated_scalar(monkeypatch):
    coeffs = [ONE, -ONE, IM, -IM, Scalar(Fraction(1, 2), -1), Scalar(-3, Fraction(2, 7))]
    el = build({w: coeffs[k % len(coeffs)] for k, w in enumerate(WORDS2)})
    assert len(el.terms) == 16
    expected = str(el)

    def refuse(self):
        raise AssertionError("printing negated a scalar")
    monkeypatch.setattr(Scalar, "__neg__", refuse)
    assert str(el) == expected


# --- a scalar factor --------------------------------------------------------
# A scalar operand scales the numerators; the general path multiplies by that
# multiple of the identity word.  Both must give the same element.

WORDS1 = [PauliWord((k,)) for k in range(4)]
one_and_two_site_elements = st.one_of(
    wide_elements,
    st.builds(build, st.dictionaries(st.sampled_from(WORDS1), wide_scalars, max_size=4),
              st.just(1)),
)
scalar_operands = st.one_of(st.just(0), st.just(ZERO), st.integers(-10**6, 10**6),
                            wide_rationals, wide_scalars)


@given(one_and_two_site_elements, scalar_operands)
@example(E(0, 1) / 2, 0)  # the zero scalar: nothing over 1
@example(Element.zero(1), Fraction(2, 3))
@example(HALF_ONE_PLUS_I_E01, Scalar(1, -1))  # (1+i)/2 * (1-i) = 1, stored as 2/2
@example(e(1) / 6 + e(2) / 4, 12)
def test_a_scalar_operand_scales_the_numerators(x, s):
    general = x * Element.scalar(s, x.arity)
    for product in (x * s, s * x):
        assert product == general
        assert hash(product) == hash(general)
        assert_stores_no_zero_pair(product)
    if s:
        quotient, general = x / s, x * Element.scalar(ONE / s, x.arity)
        assert quotient == x * (ONE / s) == general
        assert hash(quotient) == hash(general)
        assert_stores_no_zero_pair(quotient)


def test_a_scalar_operand_multiplies_no_words(monkeypatch):
    x = E(0, 1) / 6 - IM * E(2, 3) + 3
    expected = [(w, c * Scalar(Fraction(1, 2), 1)) for w, c in x.terms.items()]

    def refuse(a, b):
        raise AssertionError("a scalar operand multiplied words")
    monkeypatch.setattr("eprkit.element.mul_words", refuse)
    for product in (x * Scalar(Fraction(1, 2), 1), Scalar(Fraction(1, 2), 1) * x):
        assert terms_of(product) == expected
    assert terms_of(x / 2) == [(w, c / 2) for w, c in x.terms.items()]
    assert (x * 0).is_zero and (0 * x).is_zero


# --- operands and per-call cost -----------------------------------------------
# Every result is built in a dict of its own: a sum copies its left operand's
# terms and rescales the copy, a product fills a new dict.  A slip that wrote
# into an operand would corrupt an element shared by later callers, such as
# the parser's one element per word name.

def parts(el):
    """An element's arity, denominator and a copy of its terms, to compare later."""
    return el._arity, el._den, dict(el._num)


SIXTHS = E(0, 1) / 2 + E(1, 2) / 3


@given(wide_elements, wide_elements, scalar_operands)
@example(SIXTHS, E(1, 2) / 4 - E(2, 3) / 10, Fraction(2, 3))  # both sides rescaled to the lcm
@example(SIXTHS, SIXTHS, Scalar(Fraction(1, 5), -1))  # one object on both sides: all cancels
@example(SIXTHS, -SIXTHS, 0)  # every pair cancels; the zero scalar
def test_no_operator_changes_its_operands(a, b, s):
    before = parts(a), parts(b)
    results = {"a + b": lambda: a + b, "a - b": lambda: a - b, "b - a": lambda: b - a,
               "a * b": lambda: a * b, "a * s": lambda: a * s, "s * a": lambda: s * a,
               "-a": lambda: -a}
    if s:
        results["a / s"] = lambda: a / s
    for name, result in results.items():
        result()
        assert (parts(a), parts(b)) == before, name


@pytest.mark.parametrize("operator", [Element.__mul__, Element.__add__],
                         ids=["mul", "add"])
def test_an_arithmetic_operator_makes_no_closure_cell(operator):
    """No local is a cell, so a call creates none.

    On Python 3.10 and 3.11 a comprehension is a nested function, and a local
    it reads becomes a cell that every call of the operator creates, whichever
    branch it takes.  From 3.12 comprehensions are inlined (PEP 709), and this
    test passes either way.
    """
    assert operator.__code__.co_cellvars == ()
