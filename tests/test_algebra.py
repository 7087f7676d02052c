import operator
from fractions import Fraction as QQ

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weldskein.algebra import (INVOLUTIVE_NAMES, NAMES, ORDINARY_NAMES,
                               DeltaFraction, LaurentPoly, Polynomial,
                               PolyParseError, SubstitutionError, delta,
                               divide_by_delta, parse_fraction,
                               parse_polynomial, to_alpha_beta)
from weldskein.skein import CoefficientSystem


def v(name):
    return Polynomial.var(name)


a, b, c, t, r, nu, s = (v(n) for n in ('a', 'b', 'c', 't', 'r', 'nu', 's'))


class TestPolynomialBasics:
    def test_free_sum(self):
        assert (a + b).render() == 'a + b'

    def test_like_terms(self):
        assert r + r == 2 * r

    def test_delta_from_sum(self):
        assert b * b + (-(a * a)) == delta()

    def test_involutive_square_collapses(self):
        assert r * r == Polynomial.one()
        assert nu * nu == Polynomial.one()
        assert (s * s * s) == s

    def test_kink_unit_times_inverse(self):
        omega = a * r - nu * b
        other = -(r * a) - nu * b
        assert omega * other == delta()

    def test_plain_product(self):
        assert (a * b).render() == 'a*b'

    def test_constant_value(self):
        assert Polynomial.const(5).constant_value() == 5
        with pytest.raises(ValueError):
            a.constant_value()

    def test_involutive_exponent_validation(self):
        exp = [0] * len(NAMES)
        exp[NAMES.index('r')] = 2
        with pytest.raises(ValueError):
            Polynomial({tuple(exp): 1})

    def test_exponent_vector_length_checked(self):
        with pytest.raises(ValueError):
            Polynomial({(1, 0): 1})
        with pytest.raises(ValueError):
            Polynomial.var('q')


class TestDivideByDelta:
    def test_delta_itself(self):
        assert divide_by_delta(delta()) == Polynomial.one()

    def test_difference_of_fourth_powers(self):
        p = b ** 4 - a ** 4
        assert divide_by_delta(p) == b * b + a * a

    def test_not_divisible_by_degree(self):
        assert divide_by_delta(a + b) is None

    def test_gap_degrees(self):
        # quotient with no b^1 term; feeds buckets created mid-division
        q = b ** 3 + a * r + nu
        assert divide_by_delta(q * delta()) == q


class TestFractions:
    def test_cancel_to_zero(self):
        u = DeltaFraction(b, 1)
        assert (u + (-u)) == DeltaFraction.from_int(0)
        assert (u - u).delta_power == 0

    def test_reciprocal_pair(self):
        omega = DeltaFraction(a * r - nu * b)
        inverse = DeltaFraction(-(r * a) - nu * b, 1)
        assert omega * inverse == DeltaFraction.from_int(1)

    def test_cancellation_in_product(self):
        u = DeltaFraction(a, 1)
        d = DeltaFraction(delta())
        assert u * d == DeltaFraction(a)

    def test_add_aligns_powers(self):
        u = DeltaFraction(a, 1)
        w = DeltaFraction(b, 2)
        total = u + w
        assert total == DeltaFraction(a * delta() + b, 2)

    def test_equality_against_polynomial_and_int(self):
        assert DeltaFraction(Polynomial.const(4)) == 4
        assert DeltaFraction(a) == a


class TestSubstitute:
    def test_solved_z_simplifies(self):
        # (r a c - b c) / ((ra + b + ct) delta) with c = nu b, t = -2 nu
        # collapses to nu b / delta; checked via cross-multiplied forms.
        z_num = r * a * c - b * c
        z_den_factor = r * a + b + c * t
        sub = {'c': nu * b, 't': Polynomial.const(-2) * nu}
        lhs = z_num.substitute(sub)
        rhs = (nu * b) * z_den_factor.substitute(sub)
        assert lhs == rhs

    def test_zero_numerator_allows_ab_substitution(self):
        x_frac = DeltaFraction(-a, 1)
        assert x_frac.substitute({'a': 0}) == 0

    def test_nonzero_ab_substitution_rejected_under_delta(self):
        x_frac = DeltaFraction(-a, 1)
        with pytest.raises(SubstitutionError):
            x_frac.substitute({'b': 0})

    def test_nu_specialization(self):
        omega = DeltaFraction(a * r - nu * b)
        assert omega.substitute({'nu': 1}) == DeltaFraction(a * r - b)

    def test_involutive_needs_unit(self):
        with pytest.raises(SubstitutionError):
            (a * r).substitute({'r': 2})
        with pytest.raises(SubstitutionError):
            (a * r).substitute({'r': b})

    def test_unknown_symbol_named(self):
        with pytest.raises(SubstitutionError, match="'q'"):
            Polynomial.var('a').substitute({'q': 1})
        with pytest.raises(SubstitutionError, match="'alpha'"):
            DeltaFraction(a, 1).substitute({'alpha': b})


class TestAlphaBeta:
    def test_delta_becomes_alpha_beta(self):
        lp = to_alpha_beta(DeltaFraction(delta()))
        assert lp == LaurentPoly(('alpha', 'beta'), {(1, 1, 0, 0): QQ(1)})

    def test_extended_kink_unit(self):
        # a r - b with a = (alpha-beta)/2, b = (alpha+beta)/2
        lp = to_alpha_beta(DeltaFraction(a * r - b))
        expected = LaurentPoly(('alpha', 'beta'), {
            (1, 0, 1, 0): QQ(1, 2), (0, 1, 1, 0): QQ(-1, 2),
            (1, 0, 0, 0): QQ(-1, 2), (0, 1, 0, 0): QQ(-1, 2)})
        assert lp == expected

    def test_nu_must_be_specialized(self):
        with pytest.raises(SubstitutionError):
            to_alpha_beta(DeltaFraction(nu * b))

    def test_denominator_shifts_exponents(self):
        lp = to_alpha_beta(DeltaFraction(Polynomial.one(), 1))
        assert lp == LaurentPoly(('alpha', 'beta'), {(-1, -1, 0, 0): QQ(1)})

    def test_dehomogenize(self):
        lp = LaurentPoly(('alpha', 'beta'), {(1, -1, 0, 0): QQ(1)})
        assert lp.dehomogenize() == LaurentPoly(('lambda',), {(1, 0, 0): QQ(1)})

    def test_dehomogenize_constant(self):
        assert LaurentPoly.const(4).dehomogenize() == LaurentPoly.const(4, ('lambda',))

    def test_dehomogenize_rejects_degree_two(self):
        lp = LaurentPoly(('alpha', 'beta'), {(1, 1, 0, 0): QQ(1)})
        assert lp.homogeneous_degree() == 2
        with pytest.raises(ValueError):
            lp.dehomogenize()


class TestSharedCore:
    """Polynomial and LaurentPoly share one renderer; only Polynomial computes."""

    def test_laurent_render_negative_and_fractional(self):
        lp = LaurentPoly(('alpha', 'beta'), {(-1, -1, 0, 0): QQ(1, 2)})
        assert lp.render() == '1/2*alpha^-1*beta^-1'

    def test_laurent_render_involutive_tags(self):
        lp = LaurentPoly(('lambda',), {(2, 1, 0): QQ(-3), (0, 0, 1): QQ(1, 4),
                                       (-1, 1, 1): QQ(-5, 2), (-2, 0, 0): 1})
        assert lp.render() == '-3*lambda^2*r + 1/4*s - 5/2*lambda^-1*r*s + lambda^-2'
        assert repr(LaurentPoly.const(QQ(-7, 3))) == 'LaurentPoly(-7/3)'

    @pytest.mark.parametrize('op', [operator.add, operator.mul, operator.sub],
                             ids=['add', 'mul', 'sub'])
    def test_polynomial_and_laurent_do_not_mix(self, op):
        p, lp = Polynomial.one(), LaurentPoly.const(1)
        with pytest.raises(TypeError):
            op(p, lp)
        with pytest.raises(TypeError):
            op(lp, p)

    def test_polynomial_and_laurent_compare_unequal(self):
        p, lp = Polynomial.one(), LaurentPoly.const(1)
        assert p != lp and lp != p
        assert p == 1 and lp == LaurentPoly.const(1)

    def test_laurent_spaces_do_not_mix(self):
        assert LaurentPoly.const(1) != LaurentPoly.const(1, ('lambda',))


class TestHashing:
    """Values that compare equal hash equal, so sets and dicts merge them."""

    def test_constants_hash_like_their_value(self):
        for n in (0, 1, -3):
            for value in (Polynomial.const(n), DeltaFraction.from_int(n)):
                assert value == n and hash(value) == hash(n), value
                assert len({n, value}) == 1

    def test_fraction_without_denominator_hashes_like_numerator(self):
        for p in (a, a * r - nu * b, Polynomial.zero()):
            assert DeltaFraction(p) == p and len({p, DeltaFraction(p)}) == 1
        assert DeltaFraction(delta(), 1) == 1
        assert len({1, DeltaFraction(delta(), 1)}) == 1


# -- property tests -------------------------------------------------------------

def monomials():
    exps = st.tuples(*([st.integers(0, 3)] * len(ORDINARY_NAMES)
                       + [st.integers(0, 1)] * len(INVOLUTIVE_NAMES)))
    return st.tuples(exps, st.integers(-9, 9))


def polynomials():
    return st.lists(monomials(), max_size=5).map(
        lambda items: Polynomial(dict(items)))


@settings(max_examples=150, deadline=None)
@given(polynomials(), polynomials(), polynomials())
def test_ring_axioms(p, q, w):
    assert (p + q) + w == p + (q + w)
    assert p + q == q + p
    assert (p * q) * w == p * (q * w)
    assert p * q == q * p
    assert p * (q + w) == p * q + p * w


@settings(max_examples=100, deadline=None)
@given(polynomials(), st.integers(-10 ** 30, 10 ** 30))
def test_equal_values_hash_equal(p, n):
    assert DeltaFraction(p) == p and hash(DeltaFraction(p)) == hash(p)
    for value in (Polynomial.const(n), DeltaFraction.from_int(n)):
        assert value == n and hash(value) == hash(n)


@settings(max_examples=150, deadline=None)
@given(polynomials())
def test_divide_after_multiply_roundtrip(p):
    assert divide_by_delta(p * delta()) == p


@settings(max_examples=100, deadline=None)
@given(polynomials(), st.integers(0, 2))
def test_fraction_canonicalization_idempotent(p, k):
    f = DeltaFraction(p, k)
    again = DeltaFraction(f.num, f.delta_power)
    assert again.num == f.num and again.delta_power == f.delta_power
    if f.delta_power > 0:
        assert divide_by_delta(f.num) is None


def ab_polynomials():
    exps = st.tuples(st.integers(0, 3), st.integers(0, 3),
                     st.integers(0, 1), st.integers(0, 1))
    def build(items):
        terms = {}
        for (ea, eb, er, es), coeff in items:
            exp = [0] * len(NAMES)
            exp[NAMES.index('a')] = ea
            exp[NAMES.index('b')] = eb
            exp[NAMES.index('r')] = er
            exp[NAMES.index('s')] = es
            exp = tuple(exp)
            terms[exp] = terms.get(exp, 0) + coeff
        return Polynomial(terms)
    return st.lists(st.tuples(exps, st.integers(-9, 9)), max_size=5).map(build)


def ab_points():
    """Rational (a, b, r, s) with b^2 != a^2, so delta does not vanish."""
    q = st.fractions(min_value=-4, max_value=4, max_denominator=5)
    return st.tuples(q, q, q, q).filter(lambda pt: pt[1] ** 2 != pt[0] ** 2)


@settings(max_examples=100, deadline=None)
@given(ab_polynomials(), st.integers(0, 2), ab_points())
def test_alpha_beta_agrees_with_evaluation(p, k, point):
    a_, b_, r_, s_ = point
    f = DeltaFraction(p, k)
    direct = QQ(0)
    for exp, coeff in f.num.terms().items():
        e = dict(zip(NAMES, exp))
        direct += coeff * a_ ** e['a'] * b_ ** e['b'] * r_ ** e['r'] * s_ ** e['s']
    direct /= (b_ ** 2 - a_ ** 2) ** f.delta_power
    alpha, beta = b_ + a_, b_ - a_
    mapped = sum((c * alpha ** ea * beta ** eb * r_ ** er * s_ ** es
                  for (ea, eb, er, es), c in to_alpha_beta(f).terms().items()),
                 QQ(0))
    assert mapped == direct


@settings(max_examples=100, deadline=None)
@given(polynomials())
def test_render_parse_roundtrip(p):
    assert parse_polynomial(p.render()) == p


@settings(max_examples=60, deadline=None)
@given(polynomials(), st.integers(0, 2))
def test_fraction_render_parse_roundtrip(p, k):
    f = DeltaFraction(p, k)
    assert parse_fraction(f.render()) == f


class TestParsing:
    def test_paper_style_fraction(self):
        f = parse_fraction('(4*a^2 - 4*a*b*r) / (b^2 - a^2)')
        assert f == DeltaFraction(4 * a * a - 4 * a * b * r, 1)

    def test_parse_error_reports_symbol(self):
        with pytest.raises(PolyParseError):
            parse_polynomial('a + q')

    def test_parse_error_bad_denominator(self):
        with pytest.raises(PolyParseError):
            parse_fraction('a / (b - a)')


# -- substitution as a ring homomorphism -----------------------------------------

# the solved families' tables: monomial images
SOLVED_TABLES = [CoefficientSystem.welded(nu_value).substitution()
                 for nu_value in (None, 1, -1)]
# non-monomial images
FIXED_IMAGES = [delta(), a + b, nu * b, Polynomial.const(-2) * nu, -a, r * a - nu * b]


def assignments():
    ordinary = st.dictionaries(
        st.sampled_from(ORDINARY_NAMES),
        st.one_of(st.sampled_from(FIXED_IMAGES), st.integers(-3, 3),
                  st.lists(monomials(), max_size=3).map(
                      lambda items: Polynomial(dict(items)))),
        max_size=3)
    involutive = st.dictionaries(st.sampled_from(INVOLUTIVE_NAMES),
                                 st.sampled_from([1, -1]), max_size=3)
    table = st.sampled_from([{}] + SOLVED_TABLES)
    return st.tuples(table, ordinary, involutive).map(
        lambda parts: {**parts[0], **parts[1], **parts[2]})


def points():
    """Integer values for every symbol; the involutive ones are +-1."""
    return st.tuples(st.tuples(*[st.integers(-4, 4)] * len(ORDINARY_NAMES)),
                     st.tuples(*[st.sampled_from([1, -1])] * len(INVOLUTIVE_NAMES))
                     ).map(lambda parts: dict(zip(NAMES, parts[0] + parts[1])))


def evaluate(p, point):
    total = 0
    for exp, coeff in p.terms().items():
        for name, e in zip(NAMES, exp):
            coeff *= point[name] ** e
        total += coeff
    return total


@settings(max_examples=150, deadline=None)
@given(polynomials(), polynomials(), assignments(), st.integers(0, 3))
def test_substitute_is_ring_homomorphism(p, q, sub, n):
    def f(value):
        return value.substitute(sub)
    assert f(p + q) == f(p) + f(q)
    assert f(p * q) == f(p) * f(q)
    assert f(p ** n) == f(p) ** n
    assert f(Polynomial.one()) == 1


@settings(max_examples=150, deadline=None)
@given(polynomials(), assignments(), points())
def test_substitute_agrees_with_evaluation(p, sub, point):
    images = {name: Polynomial.const(v) if isinstance(v, int) else v
              for name, v in sub.items()}
    moved = {name: evaluate(images[name], point) if name in images else value
             for name, value in point.items()}
    assert evaluate(p.substitute(sub), point) == evaluate(p, moved)
