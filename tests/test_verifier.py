import itertools
from fractions import Fraction

import pytest

from weldskein.algebra import (DeltaFraction, Polynomial, delta,
                               parse_polynomial)
from weldskein.diagram import (Tangle, UnionFind, parse, parse_tangle,
                               pass_through)
from weldskein.skein import (SMOOTHINGS, CoefficientSystem, bracket,
                             smoothing_pairs)
from weldskein.verifier import (Constraint, builtin_moves, close,
                                constraints_for, f1_branch_residuals, gram,
                                kink_coefficients, move_constraints,
                                normalize_equation, pairing_tag,
                                perfect_matchings, tangle_bracket,
                                verify_solution)

from conftest import CORPUS_TEXT
from verifier_reference import _cycle_count, reference_move_constraints

GENERIC = CoefficientSystem.generic()
WSYM = CoefficientSystem.welded()


def poly(text):
    return parse_polynomial(text)


def norm(p):
    return normalize_equation(p)


def same_up_to_unit(p, q):
    return norm(p) == norm(q)


class TestEnumeration:
    def test_double_factorial_counts(self):
        assert len(perfect_matchings(list('1234'))) == 3
        assert len(perfect_matchings(list('123456'))) == 15
        assert len(perfect_matchings([])) == 1

    def test_matchings_are_partitions(self):
        for m in perfect_matchings(list('123456')):
            flat = sorted(x for pair in m for x in pair)
            assert flat == list('123456')


class TestTangleBracket:
    def test_single_strand(self):
        t = parse_tangle('end 1 in q\nend 2 out q\n')
        tb = tangle_bracket(t)
        key = frozenset({frozenset({'1', '2'})})
        assert set(tb.entries) == {key}
        assert tb.entries[key] == Polynomial.one()

    def test_single_positive_crossing(self):
        t = parse_tangle('X+ p1 p3 p2 p4\n'
                         'end 1 in p1\nend 2 in p2\nend 3 out p3\nend 4 out p4\n')
        tb = tangle_bracket(t)
        by_pairing = {pairing_tag(k): v for k, v in tb.entries.items()}
        # virtualize keeps the transversal pairing and adds a virtual
        # crossing, parallel the vertical one, cup-cap joins inputs together
        assert by_pairing == {'13:24': poly('a*r'), '14:23': poly('b'),
                              '12:34': poly('c')}

    def test_r2_composite_coefficients(self):
        schema = builtin_moves()['r2']
        tb = tangle_bracket(parse_tangle(schema.lhs))
        tagged = {pairing_tag(k): v for k, v in tb.entries.items()}
        assert same_up_to_unit(tagged['13:24'], poly('a*x + b*y'))
        assert same_up_to_unit(tagged['14:23'], poly('a*y + b*x'))
        assert same_up_to_unit(tagged['12:34'],
                               poly('a*z*r + c*x*r + b*z + c*y + c*z*t'))

    @pytest.mark.parametrize('name', sorted(CORPUS_TEXT))
    def test_tangle_without_endpoints_is_the_bracket(self, name):
        d = parse(CORPUS_TEXT[name])
        tb = tangle_bracket(Tangle(d, ()))
        assert tb.entries == {frozenset(): bracket(d, GENERIC).num}

    def test_close_single_strand_gives_loop(self):
        t = parse_tangle('end 1 in q\nend 2 out q\n')
        tb = tangle_bracket(t)
        assert close(tb, [('1', '2')]) == poly('t')

    def test_close_needs_perfect_matching(self):
        t = parse_tangle('end 1 in q\nend 2 out q\n')
        tb = tangle_bracket(t)
        with pytest.raises(ValueError):
            close(tb, [('1', '1')])


def gram_matrix(labels, t):
    """G[q][p] = t^cycles(p, q) over the perfect matchings, at an integer t."""
    table = gram(tuple(labels))
    return [[Fraction(t) ** c for c in table.row(q)] for q in table.matchings]


def rank_and_det(rows):
    """Rank and determinant by exact Gaussian elimination."""
    rows = [list(r) for r in rows]
    n, rank, det = len(rows), 0, Fraction(1)
    for col in range(n):
        pivot = next((i for i in range(rank, n) if rows[i][col]), None)
        if pivot is None:
            det = Fraction(0)
            continue
        if pivot != rank:
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            det = -det
        det *= rows[rank][col]
        for i in range(rank + 1, n):
            f = rows[i][col] / rows[rank][col]
            if f:
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank, det


class TestGram:
    """The closures of 2k endpoints are rows of the Brauer algebra's Gram
    matrix G[q][p] = t^cycles(p, q)."""

    # det G as a product of (t - root)^multiplicity; deg det = k * (2k-1)!!
    DETERMINANTS = {4: {0: 3, 1: 2, -2: 1},
                    6: {0: 15, 2: 5, 1: 14, -2: 10, -4: 1}}

    @pytest.mark.parametrize('points', sorted(DETERMINANTS))
    def test_determinant(self, points):
        labels = [str(i) for i in range(1, points + 1)]
        factors = self.DETERMINANTS[points]
        degree = sum(factors.values())
        assert degree == len(perfect_matchings(labels)) * points // 2
        # two polynomials of degree <= deg that agree at deg + 1 points
        for t in range(-degree // 2, degree // 2 + 2):
            expected = 1
            for root, mult in factors.items():
                expected *= (t - root) ** mult
            assert rank_and_det(gram_matrix(labels, t))[1] == expected, t

    @pytest.mark.parametrize('points, t, rank', [
        (6, 2, 10), (6, -2, 5), (6, 1, 1), (6, -4, 14),
        (4, 2, 3), (4, -2, 2), (4, 1, 1)])
    def test_rank_at_roots(self, points, t, rank):
        labels = [str(i) for i in range(1, points + 1)]
        assert rank_and_det(gram_matrix(labels, t))[0] == rank

    @pytest.mark.parametrize('name', sorted(builtin_moves()))
    def test_rows_match_per_pairing_walk(self, name):
        schema = builtin_moves()[name]
        pairings = {p for side in (schema.lhs, schema.rhs)
                    for p in tangle_bracket(parse_tangle(side)).entries}
        table = gram(tangle_bracket(parse_tangle(schema.lhs)).labels)
        states = [frozenset(map(frozenset, m)) for m in table.matchings]
        assert pairings <= set(states)
        assert [table.column(p) for p in states] == list(range(len(states)))
        for pairs in table.matchings:
            partner = {}
            for u, v in pairs:
                partner[u], partner[v] = v, u
            assert table.row(pairs) == tuple(_cycle_count(p, partner)
                                             for p in states), pairs

    def test_table_is_immutable(self):
        table = gram(('1', '2', '3', '4'))
        assert isinstance(table.matchings, tuple)
        assert all(isinstance(m, tuple) and all(isinstance(p, tuple) for p in m)
                   for m in table.matchings)
        assert all(isinstance(table.row(q), tuple) for q in table.matchings)
        assert isinstance(table.t_powers, tuple)


class TestMoveConstraints:
    def test_r2_system_matches_displayed_equations(self):
        cset = constraints_for('r2')
        got = {frozenset(norm(c.generic_equation()).terms().items())
               for c in cset.nontrivial()}
        expected = {frozenset(norm(poly(text)).terms().items()) for text in (
            'a*y + b*x',
            'a*x + b*y - 1',
            'a*z*r + c*x*r + b*z + c*y + c*z*t')}
        assert got == expected

    def test_f1_trio_matches_displayed_equations(self):
        cset = constraints_for('f1')
        assert cset.n_closures == 15
        eqs = cset.deduplicated_equations()
        assert len(eqs) == 3
        displayed = (
            '(b^2 + b*c + b*c*t + c^2) - (b^2*t + b*c*t^2 + b*c + c^2*t)',
            '(b^2 + 2*b*c*t + c^2*t^2) - (b^2*t + 2*b*c + c^2)',
            '(b^2*t^2 + 2*b*c*t + c^2) - (b^2 + 2*b*c + c^2*t)')
        got = {frozenset(norm(e).terms().items()) for e in eqs}
        expected = {frozenset(norm(poly(text)).terms().items())
                    for text in displayed}
        assert got == expected

    def test_identical_sides_give_empty_set(self):
        t = parse_tangle('X+ p1 p3 p2 p4\n'
                         'end 1 in p1\nend 2 in p2\nend 3 out p3\nend 4 out p4\n')
        cset = move_constraints(t, t, method='closure')
        assert cset.nontrivial() == []

    def test_label_mismatch_rejected(self):
        t1 = parse_tangle('end 1 in q\nend 2 out q\n')
        t2 = parse_tangle('end 1 in q\nend 3 out q\n')
        with pytest.raises(ValueError):
            move_constraints(t1, t2)

    def test_m_needs_no_constraints(self):
        assert constraints_for('m').nontrivial() == []

    def test_v_and_wen_slides_need_no_constraints(self):
        for name in ('v1', 'v2', 'v3', 't1', 't2', 't3'):
            assert constraints_for(name).nontrivial() == [], name


class TestSolutionBranches:
    def test_f1_branches_satisfied(self):
        b = Polynomial.var('b')
        for subst in ({'c': b, 't': -2}, {'c': -b, 't': 2}, {'t': 1}):
            assert f1_branch_residuals(subst) == []

    def test_f1_fails_off_the_branches(self):
        b = Polynomial.var('b')
        assert f1_branch_residuals({'c': b, 't': 2}) != []

    def test_r3_empties_under_solved_family(self):
        cset = constraints_for('r3')
        assert cset.deduplicated_equations() != []   # nontrivial generically
        for fam in (WSYM, CoefficientSystem.welded(1),
                    CoefficientSystem.welded(-1)):
            assert all(c.residual(fam).is_zero() for c in cset.constraints)


class TestT4:
    def displayed_differences(self):
        nu, a, b, r = (Polynomial.var(n) for n in ('nu', 'a', 'b', 'r'))
        d = delta()
        omega = a * r - nu * b
        w2 = omega * omega
        return (
            d * (a * r - b) - w2 * (-(r * a) - b),
            d * (a * r - nu * b) - w2 * (-(r * a) - nu * b),
            d * (a * nu * -2 + r * b + nu * r * b)
            - w2 * (2 * nu * a + r * b + nu * r * b),
        )

    def test_residuals_match_displayed_equations(self):
        cset = constraints_for('t4')
        assert cset.n_closures == 3
        got = {frozenset(norm(c.residual(WSYM)).terms().items())
               for c in cset.constraints
               if not c.residual(WSYM).is_zero()}
        expected = {frozenset(norm(e).terms().items())
                    for e in self.displayed_differences()
                    if not e.is_zero()}
        assert got <= expected and got

    def test_combined_identity_holds_only_for_nu_one(self):
        a, b, r = (Polynomial.var(n) for n in ('a', 'b', 'r'))
        d = delta()
        for nu_val, expect_zero in ((1, True), (-1, False)):
            omega = a * r - Polynomial.const(nu_val) * b
            w2 = omega * omega
            identity = (d + w2) * r * a + (w2 - d) * b
            assert identity.is_zero() == expect_zero

    def test_t4_satisfied_iff_nu_one(self):
        cset = constraints_for('t4')
        ok = {nu: all(c.residual(CoefficientSystem.welded(nu)).is_zero()
                      for c in cset.constraints) for nu in (1, -1)}
        assert ok == {1: True, -1: False}


class TestVerifySolution:
    def test_welded_nu_one_and_extended_pass_everything(self):
        for fam in (CoefficientSystem.welded(1), CoefficientSystem.extended()):
            report = verify_solution(fam)
            assert report.all_as_expected
            assert report.move_check('t4').satisfied

    def test_welded_nu_minus_one_t4_residual(self):
        report = verify_solution(CoefficientSystem.welded(-1))
        assert report.all_as_expected
        t4 = report.move_check('t4')
        assert not t4.satisfied and t4.residuals
        for name in ('r2', 'f1', 'r3', 'm'):
            assert report.move_check(name).satisfied, name

    def test_symbolic_family_passes_all_but_t4(self):
        report = verify_solution(WSYM)
        assert report.all_as_expected
        assert not report.move_check('t4').satisfied

    def test_kink_coefficients(self):
        kpos, kneg = kink_coefficients(WSYM)
        a, b, r, nu = (Polynomial.var(n) for n in ('a', 'b', 'r', 'nu'))
        assert kpos == DeltaFraction(a * r - nu * b)
        assert kneg == DeltaFraction(-(r * a) - nu * b, 1)
        assert kpos * kneg == DeltaFraction.from_int(1)

    @pytest.mark.parametrize('family', [
        CoefficientSystem.welded(1), CoefficientSystem.welded(-1),
        CoefficientSystem.welded(None), CoefficientSystem.extended()],
        ids=['nu1', 'nu-1', 'nu-sym', 'extended'])
    def test_kinks_match_hand_written_omega(self, family):
        # omega and omega_inverse are written by hand, not read from the
        # substitution table; the kink tangles derive them from the table
        kinks = kink_coefficients(family)
        assert kinks == (DeltaFraction(family.omega()), family.omega_inverse())
        report = verify_solution(family)
        assert (report.kink_positive, report.kink_negative) == kinks

    def test_generic_family_rejected(self):
        with pytest.raises(ValueError):
            verify_solution(GENERIC)


def state_sum_by_pairing(tangle):
    """The generic bracket of a tangle, one smoothing state at a time.

    Each state's strands are traced with a union-find over the edges; the
    state adds coeff * t^loops * r^parity * s^wen to the entry of the
    pairing its strands induce on the endpoints.
    """
    d = tangle.diagram
    t, r, s = (Polynomial.var(n) for n in ('t', 'r', 's'))
    out = {}
    for assignment in itertools.product(SMOOTHINGS, repeat=len(d.classical)):
        uf = pass_through(d)
        for e in d.edges():
            uf.find(e)
        value = Polynomial.one()
        for c, sm in zip(d.classical, assignment):
            for e1, e2 in smoothing_pairs(c, sm):
                uf.union(e1, e2)
            names = 'abc' if c.sign > 0 else 'xyz'
            value = value * Polynomial.var(names[SMOOTHINGS.index(sm)])
        ends = {}
        for label, _, e in tangle.boundary:
            ends.setdefault(uf.find(e), set()).add(label)
        pairing = frozenset(frozenset(labels) for labels in ends.values())
        loops = len(uf.roots() - set(ends)) + d.free_loops
        value = value * t ** loops
        if (len(d.virtual_x) + assignment.count('V')) % 2:
            value = value * r
        if len(d.wens) % 2:
            value = value * s
        out[pairing] = out.get(pairing, Polynomial.zero()) + value
    return {k: v for k, v in out.items() if not v.is_zero()}


@pytest.mark.parametrize('name', sorted(builtin_moves()))
def test_tangle_bracket_matches_per_state_sum(name):
    schema = builtin_moves()[name]
    for side in (schema.lhs, schema.rhs):
        tangle = parse_tangle(side)
        assert len(tangle.diagram.classical) <= 3
        assert tangle_bracket(tangle).entries == state_sum_by_pairing(tangle)


class TestClosureFormula:
    """close against the per-pairing formula

    sum of entry * t^cycles, with the cycles of state pairing plus closure
    counted by a union-find per pairing.
    """

    def reference_close(self, tb, pairs):
        t = Polynomial.var('t')
        total = Polynomial.zero()
        for pairing, value in tb.entries.items():
            uf = UnionFind(tb.labels)
            for group in pairing:
                group = sorted(group)
                for other in group[1:]:
                    uf.union(group[0], other)
            for u, v in pairs:
                uf.union(u, v)
            total = total + value * t ** len(uf.roots())
        return total

    @pytest.mark.parametrize('name', sorted(builtin_moves()))
    def test_every_move_and_matching(self, name):
        schema = builtin_moves()[name]
        for side in (schema.lhs, schema.rhs):
            tb = tangle_bracket(parse_tangle(side))
            for pairs in perfect_matchings(tb.labels):
                assert close(tb, pairs) == self.reference_close(tb, pairs), pairs

    def test_moves_cover_loops_parity_and_wens(self):
        values = [v for m in builtin_moves().values()
                  for text in (m.lhs, m.rhs)
                  for v in tangle_bracket(parse_tangle(text)).entries.values()]
        for name in ('t', 'r', 's'):
            assert any(v.uses(name) for v in values), name

    def test_closure_must_be_perfect_matching(self):
        tb = tangle_bracket(parse_tangle(builtin_moves()['r2'].lhs))
        for pairs in ([('1', '2')], [('1', '2'), ('3', '4'), ('1', '3')],
                      [('1', '2', '3'), ('4',)], [('1', '2'), ('3', '3')]):
            with pytest.raises(ValueError, match='perfect matching'):
                close(tb, pairs)


FAMILIES = {'nu=1': CoefficientSystem.welded(1),
            'nu=-1': CoefficientSystem.welded(-1),
            'nu=sym': CoefficientSystem.welded(None),
            'extended': CoefficientSystem.extended()}

_ENDS4 = 'end 1 in p1\nend 2 in p2\nend 3 out p3\nend 4 out p4\n'

# (lhs, rhs, method, dw, dv): tangle pairs that are not moves, with the
# same endpoint labels; they mix crossing signs, virtual crossings, wens,
# loops and both methods, and shift the writhe both ways.
NON_MOVE_PAIRS = (
    ('X+ p1 p3 p2 p4\n' + _ENDS4, 'X- p1 p3 p2 p4\n' + _ENDS4,
     'closure', 2, 0),
    ('X+ p1 p3 p2 p4\n' + _ENDS4, 'V p1 p3 p2 p4\n' + _ENDS4,
     'pairing', 1, 1),
    ('W p1 m\nX- m p3 p2 p4\n' + _ENDS4, 'X+ p2 p4 p1 p3\n' + _ENDS4,
     'closure', -1, 3),
    ('X- p1 m1 p2 m2\nX- m2 p3 m1 p4\n' + _ENDS4,
     'V p1 p3 p2 p4\nloop\n' + _ENDS4, 'pairing', -2, 0),
    (builtin_moves()['r3'].lhs, builtin_moves()['f1'].rhs, 'closure', 0, 1),
    (builtin_moves()['m'].lhs, builtin_moves()['v3'].rhs, 'pairing', -1, 2),
)


def _assert_matches_reference(cset, reference):
    assert [c.tag for c in cset.constraints] == [c.tag for c in reference]
    for new, old in zip(cset.constraints, reference):
        if old.dw == 0:
            assert new.generic_equation() == old.generic_equation(), new.tag
        else:
            with pytest.raises(ValueError):
                new.generic_equation()
        for label, fam in FAMILIES.items():
            assert new.residual(fam) == old.residual(fam), (new.tag, label)


@pytest.mark.parametrize('name', sorted(builtin_moves()))
def test_constraints_match_close_then_substitute_reference(name):
    schema = builtin_moves()[name]
    reference = reference_move_constraints(
        parse_tangle(schema.lhs), parse_tangle(schema.rhs),
        method=schema.method, dw=schema.dw, dv=schema.dv)
    _assert_matches_reference(constraints_for(name), reference)


@pytest.mark.parametrize('case', range(len(NON_MOVE_PAIRS)))
def test_non_move_pairs_match_close_then_substitute_reference(case):
    lhs, rhs, method, dw, dv = NON_MOVE_PAIRS[case]
    lt, rt = parse_tangle(lhs), parse_tangle(rhs)
    reference = reference_move_constraints(lt, rt, method=method, dw=dw, dv=dv)
    cset = move_constraints(lt, rt, method=method, dw=dw, dv=dv)
    assert any(not c.residual(fam).is_zero()
               for c in reference for fam in FAMILIES.values())
    _assert_matches_reference(cset, reference)


def test_verify_solution_is_repeatable():
    for fam in FAMILIES.values():
        assert verify_solution(fam) == verify_solution(fam)
