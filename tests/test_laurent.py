"""Laurent polynomial ring: construction, arithmetic, grammar, properties."""

import random
from collections import Counter
from functools import partial
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from swfold.errors import DomainError, ParseError, StructuralError, UnknownVariableError
from swfold.fold import EulerClass, QuotientLattice, fold_poly
from swfold.laurent import (Basis, LaurentPoly, _balanced_digits, _code_monomials, _joined, _Memo, _monomial,
                            _pack, _piece, _unpack, from_text, to_text)

from conftest import coefficients, monomial, random_basis, random_poly


def naive_convolution(p: LaurentPoly, q: LaurentPoly) -> dict:
    """Independent multiplication oracle: plain double loop over term lists."""
    out = {}
    for ea, ca in p.terms():
        for eb, cb in q.terms():
            key = tuple(a + b for a, b in zip(ea, eb))
            out[key] = out.get(key, 0) + ca * cb
    return {k: v for k, v in out.items() if v != 0}


# -- basis --------------------------------------------------------------


class TestBasis:
    def test_rank_and_order(self):
        b = Basis(("m1", "m2", "m3"))
        assert b.rank == 3
        assert b.names == ("m1", "m2", "m3")
        assert b.index("m2") == 1
        assert b.unit("m2") == (0, 1, 0)

    def test_rejects_duplicates(self):
        with pytest.raises(StructuralError):
            Basis(("a", "a"))

    def test_rejects_bad_identifiers(self):
        for bad in ("1a", "", "a-b", "a b"):
            with pytest.raises(StructuralError):
                Basis((bad,))

    def test_rejects_empty(self):
        with pytest.raises(StructuralError):
            Basis(())

    def test_unknown_variable(self):
        with pytest.raises(UnknownVariableError):
            Basis(("m1",)).index("m9")


# -- monomial -----------------------------------------------------------


class TestMonomial:
    def test_identity_case(self, b1):
        assert to_text(monomial(b1, 1, (0,))) == "1"

    def test_zero_coefficient_annihilates(self, b1):
        assert monomial(b1, 0, (5,)) == LaurentPoly.zero(b1)

    def test_negative_exponent_rendering(self, b2):
        assert to_text(monomial(b2, -3, (0, -2))) == "-3*m2^-2"

    def test_length_mismatch(self, b2):
        with pytest.raises(StructuralError):
            monomial(b2, 1, (1,))

    def test_rejects_bool_exponents_and_coefficients(self, b1):
        # bool is an int subclass; True must not pass for t or for 1
        with pytest.raises(StructuralError):
            LaurentPoly(b1, {(True,): 1})
        with pytest.raises(StructuralError):
            LaurentPoly(b1, {(1,): True})


# -- addition -----------------------------------------------------------


class TestCombine:
    def test_additive_identity(self, b2):
        p = from_text("m1^2 - 3*m2", b2)
        assert p + LaurentPoly.zero(b2) == p

    def test_cancellation_drops_term(self, b1):
        p = monomial(b1, 1, (2,))
        assert p + (-p) == LaurentPoly.zero(b1)
        assert len(p + (-p)) == 0

    def test_merged_coefficients(self, b1):
        p = monomial(b1, 1, (-2,))
        assert to_text(p + p) == "2*t^-2"

    def test_basis_mismatch(self, b1, b2):
        with pytest.raises(StructuralError):
            LaurentPoly.one(b1) + LaurentPoly.one(b2)


# -- multiplication -----------------------------------------------------


class TestMultiply:
    def test_multiplicative_identity(self, b2):
        p = from_text("2*m1^2 - 3 + 2*m1^-2", b2)
        assert p * LaurentPoly.one(b2) == p

    def test_twist_knot_pair_product(self, b2):
        p = from_text("2*m1^2 - 3 + 2*m1^-2", b2)
        q = from_text("2*m2^2 - 3 + 2*m2^-2", b2)
        expected = from_text(
            "4*m1^-2*m2^-2 - 6*m2^-2 + 4*m1^2*m2^-2 - 6*m1^-2 + 9"
            " - 6*m1^2 + 4*m1^-2*m2^2 - 6*m2^2 + 4*m1^2*m2^2",
            b2,
        )
        assert p * q == expected

    def test_matches_naive_convolution(self):
        rng = random.Random(20210)
        for _ in range(300):
            basis = random_basis(rng)
            p = random_poly(rng, basis, max_terms=6)
            q = random_poly(rng, basis, max_terms=6)
            assert dict((p * q).terms()) == naive_convolution(p, q)

    def test_basis_mismatch(self, b1, b2):
        with pytest.raises(StructuralError):
            LaurentPoly.one(b1) * LaurentPoly.one(b2)


# -- powers -------------------------------------------------------------


class TestPower:
    @pytest.fixture
    def t_minus_tinv(self, b1):
        return from_text("t - t^-1", b1)

    def test_zeroth_power(self, t_minus_tinv, b1):
        assert t_minus_tinv ** 0 == LaurentPoly.one(b1)

    def test_square(self, t_minus_tinv, b1):
        assert t_minus_tinv ** 2 == from_text("t^2 - 2 + t^-2", b1)

    def test_fourth_power(self, t_minus_tinv, b1):
        assert t_minus_tinv ** 4 == from_text("t^4 - 4*t^2 + 6 - 4*t^-2 + t^-4", b1)

    def test_negative_power_rejected(self, t_minus_tinv):
        with pytest.raises(DomainError):
            t_minus_tinv ** -1

    @pytest.mark.parametrize("k", [True, False])
    def test_boolean_power_rejected(self, t_minus_tinv, k):
        with pytest.raises(DomainError, match="nonnegative integer"):
            t_minus_tinv ** k

    def test_matches_repeated_multiply(self, b2):
        rng = random.Random(7)
        p = random_poly(rng, b2, max_terms=4, max_exp=3)
        by_hand = LaurentPoly.one(b2)
        for k in range(5):
            assert p ** k == by_hand
            by_hand = by_hand * p


# -- conjugation --------------------------------------------------------


class TestConjugate:
    def test_exponent_negation(self, b1):
        assert from_text("t^2 - 3", b1).conjugate() == from_text("t^-2 - 3", b1)

    def test_involution(self):
        rng = random.Random(11)
        for _ in range(50):
            basis = random_basis(rng)
            p = random_poly(rng, basis)
            assert p.conjugate().conjugate() == p

    def test_symmetric_nine_term_polynomial_is_fixed(self, b2):
        p = from_text(
            "m1^-2*m2^-2 - 3*m2^-2 + m1^2*m2^-2 - 3*m1^-2 + 9"
            " - 3*m1^2 + m1^-2*m2^2 - 3*m2^2 + m1^2*m2^2",
            b2,
        )
        assert p.conjugate() == p

    def test_ring_homomorphism(self):
        rng = random.Random(13)
        for _ in range(100):
            basis = random_basis(rng)
            p = random_poly(rng, basis, max_terms=5)
            q = random_poly(rng, basis, max_terms=5)
            assert (p * q).conjugate() == p.conjugate() * q.conjugate()
            assert (p + q).conjugate() == p.conjugate() + q.conjugate()


# -- reindex ------------------------------------------------------------


class TestReindex:
    def test_square_substitution(self, b1):
        trefoil = from_text("t - 1 + t^-1", b1)
        m1 = Basis(("m1",))
        assert trefoil.reindex(m1, {"t": (2,)}) == from_text("m1^2 - 1 + m1^-2", m1)

    def test_identity_images(self, b2):
        rng = random.Random(17)
        p = random_poly(rng, b2)
        images = {name: b2.unit(name) for name in b2.names}
        assert p.reindex(b2, images) == p

    def test_embed_into_rank_three(self, b1, b3):
        p = from_text("t - 3 + t^-1", b1)
        embedded = p.reindex(b3, {"t": (0, 2, 0)})
        assert dict(embedded.terms()) == {(0, -2, 0): 1, (0, 0, 0): -3, (0, 2, 0): 1}

    def test_collapsing_terms_sum(self, b2, b1):
        p = from_text("m1 + m2", b2)
        collapsed = p.reindex(b1, {"m1": (1,), "m2": (1,)})
        assert collapsed == from_text("2*t", b1)

    def test_missing_image_rejected(self, b2, b1):
        with pytest.raises(StructuralError):
            from_text("m1", b2).reindex(b1, {"m1": (1,)})

    def test_image_for_unknown_variable_rejected(self, b1, b2):
        with pytest.raises(StructuralError, match="^reindex images for unknown variables: m3, x$"):
            from_text("m1 + m2", b2).reindex(b1, {"m1": (1,), "m2": (1,), "m3": (1,), "x": (2,)})

    def test_wrong_length_image_rejected(self, b1, b2):
        with pytest.raises(StructuralError):
            from_text("t", b1).reindex(b2, {"t": (1,)})


# -- eval at the all-ones point ------------------------------------------


class TestEvalOnes:
    def test_zero(self, b1):
        assert LaurentPoly.zero(b1).eval_ones() == 0

    @pytest.mark.parametrize("genus", [2, 3, 4])
    def test_alternating_binomials_vanish(self, b1, genus):
        assert (from_text("t - t^-1", b1) ** (2 * genus - 2)).eval_ones() == 0

    def test_nine_term_polynomial(self, b2):
        p = from_text(
            "m1^-2*m2^-2 - 3*m2^-2 + m1^2*m2^-2 - 3*m1^-2 + 9"
            " - 3*m1^2 + m1^-2*m2^2 - 3*m2^2 + m1^2*m2^2",
            b2,
        )
        assert p.eval_ones() == 4 * 1 + 4 * (-3) + 9 == 1

    def test_ring_homomorphism_to_integers(self):
        rng = random.Random(19)
        for _ in range(100):
            basis = random_basis(rng)
            p = random_poly(rng, basis, max_terms=5)
            q = random_poly(rng, basis, max_terms=5)
            assert (p * q).eval_ones() == p.eval_ones() * q.eval_ones()
            assert (p + q).eval_ones() == p.eval_ones() + q.eval_ones()


# -- text grammar --------------------------------------------------------


class TestGrammar:
    def test_zero_renders_and_parses(self, b1):
        assert to_text(LaurentPoly.zero(b1)) == "0"
        assert from_text("0", b1) == LaurentPoly.zero(b1)

    def test_one_piece_memo_serves_many_texts(self, b2):
        """Pieces keep their sign, so ``_joined`` over a memo shared across polynomials renders each as alone."""
        rng, memo = random.Random(31), _Memo(partial(_piece, b2))
        for _ in range(200):
            p = random_poly(rng, b2, max_terms=5, max_exp=2, max_coeff=2)
            assert _joined(map(memo.__getitem__, p.terms())) == to_text(p)
            assert from_text(_joined(map(memo.__getitem__, p.terms())), b2) == p
        assert all(piece.startswith((" + ", " - ")) for piece in memo.values())
        with pytest.raises(DomainError, match="result too large to print"):
            to_text(monomial(b2, 1, (10**5000, 0)))

    def test_memo_calls_fn_once_per_missing_key(self):
        """A miss stores fn(key); repeated lookups and seeded keys never call fn again."""
        calls = Counter()

        def fn(key):
            calls[key] += 1
            return -key

        memo = _Memo(fn, [(1, "seeded")])
        for _ in range(3):
            assert [memo[k] for k in (1, 2, 3, 2)] == ["seeded", -2, -3, -2]
        assert calls == {2: 1, 3: 1}
        assert memo == {1: "seeded", 2: -2, 3: -3}

    def test_two_term_fragment(self, b2):
        p = from_text("-3*m2^-2 + 9", b2)
        assert dict(p.terms()) == {(0, -2): -3, (0, 0): 9}

    def test_whitespace_insensitive(self, b2):
        assert from_text(" -3 * m2 ^ -2+9 ", b2) == from_text("-3*m2^-2 + 9", b2)

    def test_bare_integer_and_default_exponent(self, b2):
        assert from_text("5", b2) == monomial(b2, 5, (0, 0))
        assert from_text("m1", b2) == monomial(b2, 1, (1, 0))
        assert from_text("2*m1*m2", b2) == monomial(b2, 2, (1, 1))

    def test_repeated_variable_accumulates(self, b2):
        assert from_text("m1*m1", b2) == monomial(b2, 1, (2, 0))

    def test_like_terms_merge(self, b1):
        assert from_text("t + t", b1) == from_text("2*t", b1)
        assert from_text("t - t", b1) == LaurentPoly.zero(b1)

    def test_syntax_error_carries_position(self, b1):
        with pytest.raises(ParseError) as err:
            from_text("t + ", b1)
        assert err.value.position == 4
        with pytest.raises(ParseError):
            from_text("2 t", b1)
        with pytest.raises(ParseError):
            from_text("t^", b1)
        with pytest.raises(ParseError):
            from_text("", b1)

    def test_unknown_variable_error(self, b1):
        with pytest.raises(UnknownVariableError) as err:
            from_text("t + u^2", b1)
        assert err.value.position == 4

    def test_unexpected_character(self, b1):
        with pytest.raises(ParseError):
            from_text("t / 2", b1)

    @pytest.mark.parametrize("text, position", [
        ("t^\u00b2", 2),        # superscript two: str.isdigit accepts it, int() does not
        ("\u00b2*t", 0),
        ("\u0663*t", 0),        # Arabic-Indic three: int() would read it as 3
        ("1\u0663*t", 1),
        ("t^\uff12", 2),        # fullwidth two
    ])
    def test_only_ascii_digits(self, b1, text, position):
        with pytest.raises(ParseError, match="unexpected character") as err:
            from_text(text, b1)
        assert err.value.position == position

    @pytest.mark.parametrize("text, expected", [
        ("+t", "t"),
        ("t^+2", "t^2"),
        ("+3 + t^+0", "4"),
        ("t -- t", "2*t"),
        ("-t^-1 + +2", "-t^-1 + 2"),
    ])
    def test_explicit_signs(self, b1, text, expected):
        assert to_text(from_text(text, b1)) == expected

    @pytest.mark.parametrize("text, error, message, position", [
        ("2*3", ParseError, "expected a variable name", 2),
        ("t*", ParseError, "expected a variable name", 2),
        ("t ^ 2 * ", ParseError, "expected a variable name", 8),
        ("", ParseError, "expected an integer or a variable name", 0),
        ("*t", ParseError, "expected an integer or a variable name", 0),
        ("+-t", ParseError, "expected an integer or a variable name", 1),
        ("t + ", ParseError, "expected an integer or a variable name", 4),
        ("t^", ParseError, "expected an integer", 2),
        ("t^t", ParseError, "expected an integer", 2),
        ("t^-", ParseError, "expected an integer", 3),
        ("2 t", ParseError, "expected '+', '-' or end of input", 2),
        ("t^2^3", ParseError, "expected '+', '-' or end of input", 3),
        ("t + u^2", UnknownVariableError, "unknown variable 'u'; basis is (t)", 4),
        ("2*t²", UnknownVariableError, "unknown variable 't²'; basis is (t)", 2),
        ("_t", ParseError, "unexpected character '_'", 0),
        ("t^ /", ParseError, "unexpected character '/'", 3),  # the whole text is scanned first
        ("Ⅻ + t", ParseError, "unexpected character 'Ⅻ'", 0),
        ("t - ½", ParseError, "unexpected character '½'", 4),
    ])
    def test_error_message_and_position(self, b1, text, error, message, position):
        with pytest.raises(error) as err:
            from_text(text, b1)
        assert type(err.value) is error
        assert str(err.value) == f"{message} (at position {position})"
        assert err.value.position == position

    def test_oversized_literal_is_a_parse_error(self, b1):
        # int() refuses more than 4300 digits (sys.int_max_str_digits)
        with pytest.raises(ParseError) as err:
            from_text("t + " + "9" * 5000 + "*t", b1)
        assert type(err.value) is ParseError
        assert err.value.position == 4
        assert coefficients(from_text("9" * 4300, b1)) == (int("9" * 4300),)

    def test_round_trip_seeded(self):
        rng = random.Random(23)
        for _ in range(100):
            basis = random_basis(rng)
            p = random_poly(rng, basis)
            assert from_text(to_text(p), basis) == p

    def test_to_text_deterministic(self, b2):
        rng = random.Random(29)
        p = random_poly(rng, b2)
        assert to_text(p) == to_text(LaurentPoly(b2, dict(p.terms())))


# -- ring axioms (hypothesis) ---------------------------------------------

_AXIOM_BASIS = Basis(("x1", "x2", "x3"))


def polys(max_terms=8):
    exponents = st.tuples(*[st.integers(-6, 6)] * 3)
    coeffs = st.integers(-9, 9).filter(lambda c: c != 0)
    return st.dictionaries(exponents, coeffs, max_size=max_terms).map(
        lambda d: LaurentPoly(_AXIOM_BASIS, d)
    )


class TestRingAxioms:
    @given(polys(), polys(), polys())
    def test_associativity(self, p, q, r):
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)

    @given(polys(), polys())
    def test_commutativity(self, p, q):
        assert p + q == q + p
        assert p * q == q * p

    @given(polys(), polys(), polys())
    def test_distributivity(self, p, q, r):
        assert p * (q + r) == p * q + p * r

    @given(polys())
    def test_identities(self, p):
        assert p + LaurentPoly.zero(_AXIOM_BASIS) == p
        assert p * LaurentPoly.one(_AXIOM_BASIS) == p
        assert p * LaurentPoly.zero(_AXIOM_BASIS) == LaurentPoly.zero(_AXIOM_BASIS)
        assert p + (-p) == LaurentPoly.zero(_AXIOM_BASIS)

    @given(polys(max_terms=6), polys(max_terms=6))
    def test_multiply_matches_oracle(self, p, q):
        assert dict((p * q).terms()) == naive_convolution(p, q)

    @given(polys())
    def test_text_round_trip(self, p):
        assert from_text(to_text(p), _AXIOM_BASIS) == p


# Grammar tokens, whitespace (including "\x1c", which str.isspace accepts),
# near-misses, non-ASCII letters, digits and numerals, and a literal past
# int()'s 4300-digit limit.
_TEXT_PIECES = [
    "m1", "m2", "t", "x", "m", "7", "0", "12", "1", "+", "-", "*", "^",
    " ", "\t", "\x1c", "(", "_", "a_b", "é", "3m1", "m1²",
    "²", "٣", "Ⅻ", "½", "9" * 4301,
]


@settings(max_examples=400)
@given(st.lists(st.sampled_from(_TEXT_PIECES), max_size=12).map("".join))
def test_from_text_is_total(text):
    """Every text parses and round-trips, or raises ParseError at a position inside it."""
    basis = Basis(("m1", "m2"))
    try:
        p = from_text(text, basis)
    except ParseError as err:
        assert 0 <= err.position <= len(text)
    else:
        assert from_text(to_text(p), basis) == p


def digit_vectors(base: int, count: int) -> dict:
    """Oracle: every vector of ``count`` digits in the balanced range, keyed by its value."""
    low = -(base // 2)
    return {
        sum(d * base**i for i, d in enumerate(digits)): list(digits)
        for digits in product(range(low, low + base), repeat=count)
    }


class TestBalancedDigits:
    @pytest.mark.parametrize("base, count", [(1, 1), (1, 3), (2, 4), (3, 3), (4, 3), (7, 2), (10, 3)])
    def test_every_representable_value(self, base, count):
        table = digit_vectors(base, count)
        assert len(table) == base**count  # one digit vector per value
        assert any(value < 0 for value in table) == (base > 1)
        for value, digits in table.items():
            assert _balanced_digits(value, base, count) == digits

    @given(st.integers(1, 10**13).flatmap(lambda base: st.tuples(
        st.just(base), st.lists(st.integers(-(base // 2), (base - 1) // 2), min_size=1, max_size=5))))
    def test_large_bases(self, drawn):
        base, digits = drawn
        value = sum(d * base**i for i, d in enumerate(digits))
        assert _balanced_digits(value, base, len(digits)) == digits

    @pytest.mark.parametrize("base", [1, 3, 7, 11])
    def test_code_monomials_read_every_code_as_unpack_does(self, base):
        """Each code's text, its first coordinates' text from the memo a level down joined to its last
        coordinate's from one memo per coordinate, is the ``_monomial`` of its exponent."""
        low = -(base // 2)
        for rank in (1, 2, 3):
            basis = Basis(tuple(f"x{i}" for i in range(1, rank + 1)))
            memo = _code_monomials(basis, base)
            for exp in product(range(low, low + base), repeat=rank):
                code = _pack(exp, base)
                assert memo[code] == _monomial(basis, exp) == _monomial(basis, _unpack(code, base, rank))

    @given(st.integers(1, 10**13).flatmap(lambda base: st.tuples(
        st.just(base), st.lists(st.integers(-(base // 2), (base - 1) // 2), min_size=1, max_size=4))))
    def test_code_monomials_at_large_bases(self, drawn):
        base, exp = drawn
        basis = Basis(tuple(f"x{i}" for i in range(1, len(exp) + 1)))
        assert _code_monomials(basis, base)[_pack(exp, base)] == _monomial(basis, exp)


class TestInvariants:
    def test_no_zero_coefficients_stored(self, b2):
        p = LaurentPoly(b2, {(0, 0): 3, (1, 1): 0, (2, 0): -3})
        assert dict(p.terms()) == {(0, 0): 3, (2, 0): -3}

    def test_duplicate_exponents_merge_at_construction(self, b1):
        p = LaurentPoly(b1, [((1,), 2), ((1,), 3)])
        assert dict(p.terms()) == {(1,): 5}

    def test_canonical_iteration_order(self, b2):
        p = from_text("m1^2 + m2 + m1^-2 + 1", b2)
        assert [e for e, _ in p.terms()] == sorted(e for e, _ in p.terms())

    def test_hashable_value_semantics(self, b1):
        p = from_text("t - 1", b1)
        q = from_text("-1 + t", b1)
        assert p == q and hash(p) == hash(q)
        assert len({p, q}) == 1

    def test_non_integer_inputs_rejected(self, b1):
        with pytest.raises(StructuralError):
            LaurentPoly(b1, {(1,): 1.5})
        with pytest.raises(StructuralError):
            LaurentPoly(b1, {(1.0,): 1})

    def test_a_polynomial_equals_only_a_polynomial(self, b1):
        p, one = from_text("t - t^-1", b1), LaurentPoly.one(b1)
        for other in (1, 0, True, False, 1.0, "1", None):
            assert p.__eq__(other) is NotImplemented and one.__eq__(other) is NotImplemented
            assert p != other and one != other and not (one == other)
        assert p in [True, p] and [True, p].index(p) == 1
        for other in (1, 0, True, False, 1.0, "1", None):
            for form in (lambda: p + other, lambda: other + p, lambda: p - other, lambda: other - p,
                         lambda: p * other, lambda: other * p):
                with pytest.raises(TypeError):
                    form()
        with pytest.raises(TypeError, match=r"for -: 'bool' and 'LaurentPoly'$"):
            True - p


# -- term invariant (hypothesis) -------------------------------------------
#
# Exponents in {-1, 0, 1}^3 and small coefficients make products, sums,
# folds and non-injective reindexings collide, so cancellations are common.

_dense_terms = st.lists(
    st.tuples(st.tuples(*[st.integers(-1, 1)] * 3), st.integers(-3, 3).filter(bool)),
    max_size=6,
)


def dense_polys():
    return _dense_terms.map(lambda pairs: LaurentPoly(_AXIOM_BASIS, pairs))


def plain_sum(pairs) -> dict:
    """Oracle: sum coefficients per exponent with a plain dict, then drop zeros."""
    out = {}
    for exp, coeff in pairs:
        out[exp] = out.get(exp, 0) + coeff
    return {exp: coeff for exp, coeff in out.items() if coeff != 0}


class TestTermInvariant:
    @given(dense_polys(), dense_polys())
    def test_operations_store_no_zero_coefficient(self, p, q):
        for result in (p + q, p - q, p * q, -p, p.conjugate(), p - p):
            assert 0 not in coefficients(result)
        assert p - p == LaurentPoly.zero(_AXIOM_BASIS)

    @given(_dense_terms, _dense_terms)
    def test_parsed_cancelling_terms(self, kept, cancelled):
        pairs = kept + cancelled + [(exp, -coeff) for exp, coeff in cancelled]
        text = " + ".join(to_text(monomial(_AXIOM_BASIS, c, e)) for e, c in pairs) or "0"
        parsed = from_text(text, _AXIOM_BASIS)
        assert 0 not in coefficients(parsed)
        assert dict(parsed.terms()) == plain_sum(kept)

    @given(dense_polys(), st.tuples(*[st.integers(-2, 2)] * 3).filter(any))
    def test_fold_poly_stores_no_zero_coefficient(self, p, chi):
        folded = fold_poly(p, QuotientLattice(EulerClass(_AXIOM_BASIS, chi)))
        assert 0 not in coefficients(folded)
        assert folded.eval_ones() == p.eval_ones()

    @given(dense_polys(), st.lists(st.tuples(st.integers(-1, 1), st.integers(-1, 1)),
                                   min_size=3, max_size=3))
    def test_reindex_matches_plain_dict(self, p, images):
        target = Basis(("y", "z"))
        mapping = dict(zip(_AXIOM_BASIS.names, images))
        moved = [
            (tuple(sum(e * col[j] for e, col in zip(exp, images)) for j in range(2)), c)
            for exp, c in p.terms()
        ]
        assert dict(p.reindex(target, mapping).terms()) == plain_sum(moved)

    def test_non_injective_reindex_cancels(self, b1):
        p = from_text("x1 - x2 + 3*x3", _AXIOM_BASIS)
        collapsed = p.reindex(b1, {"x1": (1,), "x2": (1,), "x3": (2,)})
        assert dict(collapsed.terms()) == {(2,): 3}
