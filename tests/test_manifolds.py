"""Manifold constructions and fold-hypothesis checks."""

import math
import random
import re
from collections import Counter

import pytest

from swfold.alexander import BUILTIN_KNOTS, knot_from_seifert
from swfold.errors import DomainError, HypothesisError, StructuralError, UnknownVariableError
from swfold.fold import fold
from swfold.laurent import LaurentPoly, from_text
from swfold.manifolds import (
    MAX_ROW_BITS,
    T3_BASIS,
    ThreeManifold,
    fiber_sum,
    require_b_plus,
    surface_times_circle,
    three_torus,
)

NINE_TERM_FIG8 = (
    "m1^-2*m2^-2 - 3*m1^-2 + m1^-2*m2^2 - 3*m2^-2 + 9"
    " - 3*m2^2 + m1^2*m2^-2 - 3*m1^2 + m1^2*m2^2"
)


class TestThreeTorus:
    def test_fields(self):
        t3 = three_torus()
        assert t3.basis == T3_BASIS
        assert t3.b1 == 3
        assert t3.sw3 == LaurentPoly.one(T3_BASIS)
        assert t3.fibered is True

    def test_coefficient_sum(self):
        assert three_torus().sw3.eval_ones() == 1


class TestSurfaceTimesCircle:
    def test_genus_one_is_trivial(self):
        m = surface_times_circle(1)
        assert m.sw3 == LaurentPoly.one(m.basis)
        assert m.b1 == 3

    def test_genus_two(self):
        m = surface_times_circle(2)
        assert m.sw3 == from_text("t^2 - 2 + t^-2", m.basis)
        assert m.b1 == 5

    def test_genus_three(self):
        m = surface_times_circle(3)
        assert m.sw3 == from_text("t^4 - 4*t^2 + 6 - 4*t^-2 + t^-4", m.basis)

    @pytest.mark.parametrize("bad", [0, -1, "2", True, -10**5000], ids=["0", "-1", "2", "True", "-10^5000"])
    def test_bad_genus(self, bad):
        with pytest.raises(DomainError):
            surface_times_circle(bad)

    @pytest.mark.parametrize("genus, bits", [(8193, "268451840"), (10**5000, "about 10^10001")],
                             ids=["8193", "10^5000"])
    def test_row_over_the_bit_limit(self, genus, bits):
        with pytest.raises(DomainError, match=re.escape(f"= {bits} bits, over the limit of {MAX_ROW_BITS}") + "$"):
            surface_times_circle(genus)

    def test_largest_genus_under_the_bit_limit(self):
        assert (2 * 8192 - 1) * (2 * 8192 - 2) <= MAX_ROW_BITS
        assert len(surface_times_circle(8192).sw3) == 2 * 8192 - 1

    @pytest.mark.parametrize("genus", [*range(1, 41), 200])
    def test_row_equals_power_and_binomial_expansion(self, genus):
        """The stepped row against the ring power and against math.comb, term for term."""
        m = surface_times_circle(genus)
        degree = 2 * genus - 2
        assert m.sw3 == from_text("t - t^-1", m.basis) ** degree
        assert m.sw3._terms == {(degree - 2 * j,): (-1) ** j * math.comb(degree, j) for j in range(degree + 1)}

    def test_row_makes_no_ring_products(self, monkeypatch):
        calls = Counter()

        def counting(name):
            original = getattr(LaurentPoly, name)
            return lambda *args: calls.update([name]) or original(*args)

        for name in ("__mul__", "__rmul__", "__pow__"):
            monkeypatch.setattr(LaurentPoly, name, counting(name))
        m = surface_times_circle(200)
        assert len(m.sw3) == 399 and calls == Counter()
        assert m.sw3 ** 1 == m.sw3 and calls["__pow__"] == 1  # the wrappers are in place


class TestFiberSum:
    def test_trefoil_sum(self):
        m = fiber_sum(three_torus(), [(BUILTIN_KNOTS.lookup("3_1"), "m1")])
        expected = from_text("m1^2 - 1 + m1^-2", T3_BASIS)
        assert m.sw3 == expected
        assert m.b1 == 3
        assert m.basis == T3_BASIS
        assert m.fibered is True

    def test_figure_eight_pair(self, fig8_pair):
        assert fig8_pair.sw3 == from_text(NINE_TERM_FIG8, T3_BASIS)
        assert fig8_pair.fibered is True

    def test_unknot_sum_is_identity(self):
        m = fiber_sum(three_torus(), [(knot_from_seifert("unknot", True, ()), "m2")])
        assert m.sw3 == three_torus().sw3

    def test_nonfibered_knot_breaks_fiberedness(self, five2_pair):
        assert five2_pair.fibered is False

    def test_commutes_across_distinct_meridians(self):
        k1, k2 = BUILTIN_KNOTS.lookup("4_1"), BUILTIN_KNOTS.lookup("5_2")
        one_way = fiber_sum(fiber_sum(three_torus(), [(k1, "m1")]), [(k2, "m2")])
        other = fiber_sum(fiber_sum(three_torus(), [(k2, "m2")]), [(k1, "m1")])
        assert one_way.sw3 == other.sw3
        assert one_way.fibered == other.fibered

    def test_unknown_meridian(self):
        with pytest.raises(UnknownVariableError):
            fiber_sum(three_torus(), [(BUILTIN_KNOTS.lookup("3_1"), "m9")])

    def test_coefficient_sum_is_one(self, fig8_pair, five2_pair):
        for m in (fig8_pair, five2_pair):
            assert m.sw3.eval_ones() == 1

    def test_symmetric_under_conjugation(self, fig8_pair, five2_pair):
        for m in (fig8_pair, five2_pair):
            assert m.sw3.conjugate() == m.sw3

    def test_provenance_grows(self, fig8_pair):
        assert fig8_pair.provenance[0] == "t3"
        assert len(fig8_pair.provenance) == 3


def _convolve(a: dict, b: dict) -> dict:
    """Product of two term dicts as a plain double loop, zeros dropped: no LaurentPoly arithmetic."""
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            exp = tuple(x + y for x, y in zip(ea, eb))
            out[exp] = out.get(exp, 0) + ca * cb
    return {exp: c for exp, c in out.items() if c}


TWISTS = tuple(knot_from_seifert(f"twist{k}", abs(k) <= 1, ((1, 1), (0, k))) for k in range(-4, 5))
TOWER_SEEDS = range(40)


def _random_tower(seed: int):
    """A base (T3 for odd seeds, a surface times the circle for even ones) and 1-9 random (knot, meridian) sums."""
    rng = random.Random(seed)
    base = three_torus() if seed % 2 else surface_times_circle(rng.randint(1, 3))
    knots = [BUILTIN_KNOTS.lookup(name) for name in BUILTIN_KNOTS.names()] + list(TWISTS)
    return base, [(rng.choice(knots), rng.choice(base.basis.names)) for _ in range(rng.randint(1, 9))]


class TestFiberSumOracle:
    """``fiber_sum`` against a left-to-right chain of one-pair sums: sw3 by dict convolution, and name,
    provenance and ``fibered`` by texts built here from the base and the pairs."""

    @pytest.mark.parametrize("seed", TOWER_SEEDS)
    def test_random_tower(self, seed):
        base, sums = _random_tower(seed)
        genus = None if base.basis == T3_BASIS else (base.b1 - 1) // 2
        name = "T3" if genus is None else f"S{genus}xS1"
        provenance = ["t3" if genus is None else f"surface_x_s1(genus={genus})"]
        expected, chain = dict(base.sw3._terms), base
        for knot, meridian in sums:
            unit = base.basis.unit(meridian)
            factor = {tuple(2 * e * u for u in unit): c for (e,), c in knot.alexander._terms.items()}
            expected = _convolve(expected, factor)
            name += f"+{knot.name}@{meridian}"
            provenance.append(f"fiber_sum(knot={knot.name}, meridian={meridian})")
            chain = fiber_sum(chain, [(knot, meridian)])
        m = fiber_sum(base, sums)
        assert m.sw3._terms == expected
        assert m.name == name and m.provenance == tuple(provenance)
        assert m.fibered is all(knot.fibered for knot, _ in sums)
        assert (m.basis, m.b1) == (base.basis, base.b1)
        assert m == chain

    def test_towers_cover_lengths_knots_and_repeated_meridians(self):
        towers = [_random_tower(seed) for seed in TOWER_SEEDS]
        assert {len(sums) for _, sums in towers} == set(range(1, 10))
        assert any(max(Counter(m for _, m in sums).values()) >= 3 for base, sums in towers if base.basis.rank == 3)
        used = {knot.name for _, sums in towers for knot, _ in sums}
        assert set(BUILTIN_KNOTS.names()) <= used and used - set(BUILTIN_KNOTS.names())

    @pytest.mark.parametrize("base", [three_torus(), surface_times_circle(2)])
    def test_no_sums_return_the_manifold(self, base):
        assert fiber_sum(base, []) is base

    def test_one_record_is_built_and_checked(self, monkeypatch):
        base, knot, built = three_torus(), BUILTIN_KNOTS.lookup("5_2"), []
        init = ThreeManifold.__init__
        monkeypatch.setattr(ThreeManifold, "__init__", lambda self, *a, **kw: built.append(kw) or init(self, *a, **kw))
        m = fiber_sum(base, [(knot, "m1"), (knot, "m2"), (knot, "m1")])
        assert len(built) == 1 and len(m.sw3) == 15


class TestThreeManifoldInvariants:
    def test_rejects_mismatched_basis(self, b2):
        with pytest.raises(StructuralError):
            ThreeManifold(None, T3_BASIS, 3, LaurentPoly.one(b2))

    def test_rejects_b1_below_rank(self):
        with pytest.raises(StructuralError):
            ThreeManifold(None, T3_BASIS, 2, LaurentPoly.one(T3_BASIS))

    def test_rejects_asymmetric_sw3(self):
        with pytest.raises(StructuralError):
            ThreeManifold(None, T3_BASIS, 3, from_text("m1 + 2", T3_BASIS))


class TestFoldApplicability:
    def test_fig8_pair_with_4m1(self, fig8_pair):
        assert fig8_pair.b1 - 1 == 2
        require_b_plus(fig8_pair)
        assert not fold(fig8_pair, (4, 0, 0)).product_case

    def test_zero_chi_fails(self, fig8_pair):
        # a zero Euler class has no quotient to fold over: the product case
        folded = fold(fig8_pair, "0")
        assert folded.product_case and folded.chi is None
        assert folded.poly == fig8_pair.sw3

    def test_low_b1_fails(self):
        s = surface_times_circle(1)
        pretend = ThreeManifold(s.genus, s.basis, 2, s.sw3)
        with pytest.raises(HypothesisError, match=r"b_\+ = b_1 - 1 = 1 < 2"):
            require_b_plus(pretend)
        with pytest.raises(HypothesisError):
            fold(pretend, (1,))

    def test_length_mismatch(self, fig8_pair):
        with pytest.raises(StructuralError):
            fold(fig8_pair, (1, 0))
