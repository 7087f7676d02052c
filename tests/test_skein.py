import itertools

import pytest

from weldskein import statesum
from weldskein.algebra import (NAMES, DeltaFraction, Polynomial, delta,
                               parse_fraction, to_alpha_beta)
from weldskein.diagram import (Diagram, VirtualCrossing, components,
                               disjoint_union, parse, virtual_writhe,
                               wen_count, writhe)
from weldskein.moves import MoveKind, apply_move, enumerate_sites
from weldskein.skein import (CoefficientSystem, State, WenError, bracket,
                             state_value, y_invariant)

from conftest import CORPUS_TEXT, WEN_FREE

EXT = CoefficientSystem.extended()
WSYM = CoefficientSystem.welded()
WNEG = CoefficientSystem.welded(-1)


def var(n):
    return Polynomial.var(n)


def frac(text):
    return parse_fraction(text)


class TestCoefficientSystem:
    def test_extended_forces_nu(self):
        assert CoefficientSystem.extended().nu == 1
        with pytest.raises(ValueError):
            CoefficientSystem('extended', -1)

    def test_generic_has_no_nu(self):
        with pytest.raises(ValueError):
            CoefficientSystem('generic', 1)

    def test_solved_triples(self):
        sub = WSYM.substitution()
        assert {n: p.render() for n, p in sub.items()} == {
            'c': 'b*nu', 't': '-2*nu', 'x': '-a', 'y': 'b', 'z': 'b*nu'}
        assert CoefficientSystem.generic().substitution() == {}

    def test_omega_reciprocal(self):
        for cs in (WSYM, WNEG, EXT):
            assert DeltaFraction(cs.omega()) * cs.omega_inverse() == 1


class TestStateValue:
    def test_free_loop_empty_state(self):
        d = parse(CORPUS_TEXT['unknot'])
        assert state_value(d, State(()), CoefficientSystem.generic()) \
            == DeltaFraction(var('t'))

    def test_hopf_both_virtualized_matches_component_oracle(self):
        d = parse(CORPUS_TEXT['hopf_pos'])
        # oracle: virtualize both crossings and count components
        all_virtual = Diagram(virtual_x=tuple(
            VirtualCrossing(c.over_in, c.over_out, c.under_in, c.under_out)
            for c in d.classical))
        loops = components(all_virtual)
        assert loops == 2
        got = state_value(d, State(('V', 'V')), CoefficientSystem.generic())
        t, a = var('t'), var('a')
        assert got == DeltaFraction(a * a * t ** loops)   # parity even: no r

    def test_positive_kink_virtualized(self):
        d = parse(CORPUS_TEXT['kink_pos'])
        got = state_value(d, State(('V',)), CoefficientSystem.generic())
        assert got == DeltaFraction(var('a') * var('t') * var('r'))

    def test_total_state_required(self):
        d = parse(CORPUS_TEXT['hopf_pos'])
        with pytest.raises(ValueError):
            state_value(d, State(('V',)), EXT)


class TestBracket:
    def test_single_free_loop(self):
        d = parse(CORPUS_TEXT['unknot'])
        assert bracket(d, WSYM) == DeltaFraction(Polynomial.const(-2) * var('nu'))
        assert bracket(d, EXT) == DeltaFraction(Polynomial.const(-2))

    def test_two_free_loops(self):
        assert bracket(parse(CORPUS_TEXT['unlink2']), WSYM) == 4

    def test_positive_kink_scales_plain_circle(self):
        kink = bracket(parse(CORPUS_TEXT['kink_pos']), WSYM)
        circle = bracket(parse(CORPUS_TEXT['unknot']), WSYM)
        assert kink == DeltaFraction(WSYM.omega()) * circle

    def test_negative_kink_scales_plain_circle(self):
        kink = bracket(parse(CORPUS_TEXT['kink_neg']), WSYM)
        circle = bracket(parse(CORPUS_TEXT['unknot']), WSYM)
        assert kink == WSYM.omega_inverse() * circle

    def test_kink_insertion_scales_bracket_anywhere(self):
        d = parse(CORPUS_TEXT['virtual_hopf'])
        base = bracket(d, WSYM)
        site_pos = enumerate_sites(d, MoveKind.R1A_PLUS)[2]
        assert bracket(apply_move(d, site_pos), WSYM) \
            == DeltaFraction(WSYM.omega()) * base
        site_neg = enumerate_sites(d, MoveKind.R1B_PLUS)[1]
        assert bracket(apply_move(d, site_neg), WSYM) \
            == WSYM.omega_inverse() * base

    def test_matches_direct_state_sum(self):
        # the histogram kernel against the per-state evaluator
        for name in ('hopf_pos', 'virtual_trefoil', 'kink_neg', 'wen_hopf',
                     'welded_mix'):
            d = parse(CORPUS_TEXT[name])
            for cs in (CoefficientSystem.generic(), EXT):
                total = DeltaFraction.from_int(0)
                for digits in itertools.product(range(3),
                                                repeat=len(d.classical)):
                    total = total + state_value(d, State.from_digits(digits), cs)
                assert bracket(d, cs) == total, (name, cs.kind)

    def test_state_count_and_degree(self):
        from weldskein.skein import _kernel_inputs
        d = parse(CORPUS_TEXT['trefoil'])
        n_nodes, nodes, signs, _, _ = _kernel_inputs(d)
        hist = statesum.smoothing_histogram(n_nodes, nodes, signs)
        assert sum(hist.values()) == 3 ** len(d.classical)
        for (vp, ip, vn, inn, _loops), _count in hist.items():
            assert vp + ip <= len(signs) and vn == inn == 0
        # every state contributes a coefficient of total degree n
        gen = bracket(d, CoefficientSystem.generic())
        n = len(d.classical)
        for exp in gen.num.terms():
            degree = sum(exp[NAMES.index(name)] for name in 'abcxyz')
            assert degree == n

    def test_wens_rejected_outside_extended(self):
        d = parse(CORPUS_TEXT['wen_hopf'])
        with pytest.raises(WenError):
            bracket(d, WNEG)
        with pytest.raises(WenError):
            bracket(d, WSYM)
        bracket(d, EXT)                       # fine
        bracket(d, WNEG, check_wens=False)    # explicit bypass for b = 0 work


class TestYInvariant:
    def test_two_component_unlink(self):
        for cs in (EXT, WSYM, WNEG):
            assert y_invariant(parse(CORPUS_TEXT['unlink2']), cs) == 4

    def test_extended_values_collapse_to_component_count(self):
        # The nu = 1 family factors: its bracket is t^comp omega^w r^v, so Y
        # is (-2)^components on every diagram.  See notes in the verifier
        # tests for why nu = -1 is the discriminating family.
        for name, text in CORPUS_TEXT.items():
            d = parse(text)
            expected = DeltaFraction(
                Polynomial.const((-2) ** components(d))
                * var('s') ** (wen_count(d)[0] % 2))
            assert y_invariant(d, EXT) == expected, name

    def test_extended_bracket_factorization(self):
        t = DeltaFraction(Polynomial.const(-2))
        omega = EXT.omega()
        for name, text in CORPUS_TEXT.items():
            d = parse(text)
            w = writhe(d)
            expected = t ** components(d)
            if w >= 0:
                expected = expected * DeltaFraction(omega ** w)
            else:
                expected = expected * EXT.omega_inverse() ** (-w)
            if virtual_writhe(d)[1]:
                expected = expected * var('r')
            if wen_count(d)[1]:
                expected = expected * var('s')
            assert bracket(d, EXT) == expected, name

    def test_welded_negative_hopf(self):
        got = y_invariant(parse(CORPUS_TEXT['hopf_pos']), WNEG)
        expected = frac('(4*a^4 - 8*a^3*b*r + 8*a^2*b^2 - 8*a*b^3*r + 4*b^4)'
                        ' / (b^2 - a^2)^2')
        assert got == expected

    def test_welded_negative_virtual_hopf(self):
        got = y_invariant(parse(CORPUS_TEXT['virtual_hopf']), WNEG)
        assert got == frac('(-4*a^2 + 4*a*b*r) / (b^2 - a^2)')

    def test_welded_family_distinguishes_small_links(self):
        values = [y_invariant(parse(CORPUS_TEXT[n]), WNEG)
                  for n in ('unlink2', 'hopf_pos', 'virtual_hopf')]
        for u, w in itertools.combinations(values, 2):
            assert u != w

    def test_multiplicative_under_disjoint_union(self):
        names = ['kink_pos', 'virtual_hopf', 'trefoil', 'hopf_neg']
        for n1, n2 in itertools.combinations(names, 2):
            d1, d2 = parse(CORPUS_TEXT[n1]), parse(CORPUS_TEXT[n2])
            u = disjoint_union(d1, d2)
            for cs in (WSYM, EXT):
                assert y_invariant(u, cs) \
                    == y_invariant(d1, cs) * y_invariant(d2, cs), (n1, n2)

    def test_generic_mode_has_no_invariant(self):
        with pytest.raises(ValueError):
            y_invariant(parse(CORPUS_TEXT['unknot']), CoefficientSystem.generic())


class TestSpecializations:
    def test_b_zero_collapses_to_wens_and_components(self):
        # with b = 0 and nu = -1 the state sum virtualizes every crossing:
        # Y = s^wens 2^components, checked on cleared numerators
        for name, text in CORPUS_TEXT.items():
            d = parse(text)
            y = y_invariant(d, WNEG, check_wens=False)
            num_at_b0 = y.num.substitute({'b': 0})
            k = y.delta_power
            expected = (Polynomial.const(2 ** components(d))
                        * var('s') ** (wen_count(d)[0] % 2)
                        * Polynomial.const(-1) ** k * var('a') ** (2 * k))
            assert num_at_b0 == expected, name

    def test_alpha_beta_homogeneous_degree_zero(self):
        for name, text in CORPUS_TEXT.items():
            d = parse(text)
            lp = to_alpha_beta(y_invariant(d, EXT))
            assert lp.homogeneous_degree() == 0, name
            lp.dehomogenize()
        for name in WEN_FREE:
            lp = to_alpha_beta(y_invariant(parse(CORPUS_TEXT[name]), WNEG))
            assert lp.homogeneous_degree() == 0, name
