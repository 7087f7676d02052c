"""Acceptance criteria, one test per criterion, one printed line each.

Criterion 1 checks the unlink, positive Hopf and one-virtual-one-positive
Hopf values against state tables resolved by hand in this file (1, 9 and 3
states), for the extended family (nu = 1) and the nu = -1 welded family.  It
keeps the two published example formulas verbatim and proves them
unreachable from the solved coefficients c = nu*b, t = -2*nu:
the published positive-Hopf value implies a bracket with b^2-sector 12*b^2,
while the four states without a virtualization give 4*b^2 in every solved
family; the published virtual-Hopf value is -Y(nu = -1), and its implied
nu = 1 bracket keeps a delta in the denominator, so it is no bracket at all.
Criterion 7 checks nontriviality where the method gives it: Y separates the
three links for nu = -1 and for symbolic nu, while for nu = 1 all three
equal 4, the documented collapse Y = (-2)^components * s^(wens mod 2).
"""
import itertools
import time

from weldskein.algebra import (DeltaFraction, Polynomial, parse_fraction,
                               parse_polynomial, to_alpha_beta)
from weldskein.diagram import components, parse, wen_count
from weldskein.moves import scramble
from weldskein.skein import CoefficientSystem, y_invariant
from weldskein.verifier import (constraints_for, f1_branch_residuals,
                                kink_coefficients, normalize_equation)

from conftest import CORPUS_TEXT

EXT = CoefficientSystem.extended()
WSYM = CoefficientSystem.welded()
WNEG = CoefficientSystem.welded(-1)

# The paper's two example evaluations, verbatim.  Criterion 1 proves that
# the solved family cannot produce either of them.
HOPF_PUBLISHED = ('(4*a^2 + 4*a*b*r + 12*b^2) * (a^2 + 2*a*b*r + b^2)'
                  ' / (b^2 - a^2)^2')
VHOPF_PUBLISHED = '(4*a^2 - 4*a*b*r) / (b^2 - a^2)'

# Smoothing states resolved by hand from the conftest corpus; every classical
# crossing there is positive.  Per diagram: writhe, virtual crossing count,
# and one row per state giving the smoothing of each crossing in file order
# ('V' virtualized, 'I' parallel, 'C' cup-cap), the loops it closes and its
# r-parity (virtual crossings plus 'V' smoothings, mod 2).
STATE_TABLES = {
    'unlink2': (0, 0, [('', 2, 0)]),
    'hopf_pos': (2, 0, [
        ('VV', 2, 0), ('VI', 1, 1), ('VC', 1, 1),
        ('IV', 1, 1), ('II', 2, 0), ('IC', 1, 0),
        ('CV', 1, 1), ('CI', 1, 0), ('CC', 2, 0)]),
    'virtual_hopf': (1, 1, [('V', 2, 0), ('I', 1, 1), ('C', 1, 1)]),
}


def report(criterion, ok, detail=''):
    status = 'PASS' if ok else 'FAIL'
    print(f'[criterion {criterion}] {status} {detail}'.rstrip())
    return ok


def norm_terms(p):
    return frozenset(normalize_equation(p).terms().items())


def solved_family(nu):
    """Skein data of the solved family, written out here rather than read
    from the evaluator: positive triple (a, b, nu*b), t = -2*nu and
    omega^-1 = (-a*r - nu*b)/delta.  ``nu=None`` keeps nu symbolic."""
    a, b, r = (Polynomial.var(n) for n in 'abr')
    nu_p = Polynomial.var('nu') if nu is None else Polynomial.const(nu)
    coeff = {'V': a, 'I': b, 'C': nu_p * b}
    return coeff, nu_p * -2, DeltaFraction(-(a * r) - nu_p * b, 1)


def table_bracket(name, nu, *, without_virtualization=False):
    """Sum of coeff * t^loops * r^parity over the rows of STATE_TABLES."""
    coeff, t, _ = solved_family(nu)
    r = Polynomial.var('r')
    total = Polynomial.zero()
    for smoothing, loops, parity in STATE_TABLES[name][2]:
        if without_virtualization and 'V' in smoothing:
            continue
        term = t ** loops * r ** parity
        for sm in smoothing:
            term = term * coeff[sm]
        total = total + term
    return total


def table_y(name, nu):
    """r^v * omega^-w * bracket, from the hand-resolved table alone."""
    writhe, n_virtual, _ = STATE_TABLES[name]
    _, _, omega_inverse = solved_family(nu)
    r = Polynomial.var('r')
    return (DeltaFraction(table_bracket(name, nu) * r ** n_virtual)
            * omega_inverse ** writhe)


def test_criterion_1_golden_values():
    failures = []
    t0 = time.perf_counter()
    expected = {
        1: dict.fromkeys(STATE_TABLES, parse_fraction('4')),
        -1: {'unlink2': parse_fraction('4'),
             'hopf_pos': parse_fraction(
                 '(4*a^4 - 8*a^3*b*r + 8*a^2*b^2 - 8*a*b^3*r + 4*b^4)'
                 ' / (b^2 - a^2)^2'),
             'virtual_hopf': parse_fraction('(-4*a^2 + 4*a*b*r) / (b^2 - a^2)')},
    }
    for nu, cs in ((1, EXT), (-1, WNEG)):
        for name in STATE_TABLES:
            from_table = table_y(name, nu)
            if from_table != expected[nu][name]:
                failures.append(f'state table of {name} gives '
                                f'{from_table.render()} for nu={nu}')
            got = y_invariant(parse(CORPUS_TEXT[name]), cs)
            if got != from_table:
                failures.append(f'{name} gave {got.render()} for nu={nu}, '
                                f'state table {from_table.render()}')

    # The a-free part of a bracket is its b^2-sector: the states without a
    # virtualization.  It is 4*b^2 whatever nu is; the published Hopf value
    # implies 12*b^2.
    a, b, r = (Polynomial.var(n) for n in 'abr')
    omega = DeltaFraction(a * r - b)
    hopf_published = parse_fraction(HOPF_PUBLISHED)
    implied = hopf_published * omega ** 2
    if implied != parse_fraction('4*a^2 + 4*a*b*r + 12*b^2'):
        failures.append(f'published Hopf implies bracket {implied.render()}')
    elif implied.num.substitute({'a': 0}) != b ** 2 * 12:
        failures.append('published Hopf b^2-sector is not 12*b^2')
    for nu in (1, -1, None):
        sector = table_bracket('hopf_pos', nu, without_virtualization=True)
        if sector != b ** 2 * 4:
            failures.append(f'Hopf b^2-sector {sector.render()} for nu={nu}')
        if table_bracket('hopf_pos', nu).substitute({'a': 0}) != sector:
            failures.append(f'Hopf a-free part is not the b^2-sector, nu={nu}')

    # Dividing the published virtual-Hopf value by r * omega^-1 (nu = 1)
    # leaves 4a(a - br)^2/delta: a delta survives, so it is no bracket.
    vhopf_published = parse_fraction(VHOPF_PUBLISHED)
    implied = vhopf_published * r * omega
    if implied.delta_power == 0 or implied != parse_fraction(
            '4*a*(a - b*r)^2 / (b^2 - a^2)'):
        failures.append(f'published virtual Hopf implies nu=1 bracket '
                        f'{implied.render()}')
    if vhopf_published != -table_y('virtual_hopf', -1):
        failures.append('published virtual Hopf is not -Y(nu=-1)')

    elapsed = time.perf_counter() - t0
    if elapsed > 3.0:
        failures.append(f'took {elapsed:.2f}s, budget 3 x 1s')
    ok = report(1, not failures, '; '.join(failures) or
                f'unlink / Hopf / virtual Hopf match their 1/9/3-state tables '
                f'for nu=1 and nu=-1; published Hopf {HOPF_PUBLISHED} '
                f'unreachable (b^2-sector 12, states give 4); published '
                f'virtual Hopf {VHOPF_PUBLISHED} = -Y(nu=-1)')
    assert ok, failures


def test_criterion_2_constraint_reproduction():
    problems = []
    r2 = constraints_for('r2')
    got = {norm_terms(c.generic_equation()) for c in r2.nontrivial()}
    expected = {norm_terms(parse_polynomial(t)) for t in (
        'a*y + b*x', 'a*x + b*y - 1',
        'a*z*r + c*x*r + b*z + c*y + c*z*t')}
    if got != expected:
        problems.append('R2 system mismatch')
    f1 = constraints_for('f1')
    if f1.n_closures != 15:
        problems.append(f'F1 used {f1.n_closures} closures')
    eqs = f1.deduplicated_equations()
    trio = {norm_terms(parse_polynomial(t)) for t in (
        '(b^2 + b*c + b*c*t + c^2) - (b^2*t + b*c*t^2 + b*c + c^2*t)',
        '(b^2 + 2*b*c*t + c^2*t^2) - (b^2*t + 2*b*c + c^2)',
        '(b^2*t^2 + 2*b*c*t + c^2) - (b^2 + 2*b*c + c^2*t)')}
    if len(eqs) != 3 or {norm_terms(e) for e in eqs} != trio:
        problems.append('F1 trio mismatch')
    b = Polynomial.var('b')
    for tag, sub in (('b=c,t=-2', {'c': b, 't': -2}),
                     ('b=-c,t=2', {'c': -b, 't': 2}),
                     ('t=1', {'t': 1})):
        if f1_branch_residuals(sub):
            problems.append(f'branch {tag} fails F1')
    ok = report(2, not problems, '; '.join(problems) or
                'R2 system, F1 trio from 15 closures, solution branches')
    assert ok, problems


def test_criterion_3_derivability():
    problems = []
    r3 = constraints_for('r3')
    if not all(c.residual(WSYM).is_zero() for c in r3.constraints):
        problems.append('R3 constraints nonempty under R2+F1 solution')
    if constraints_for('m').nontrivial():
        problems.append('M constraints nonempty generically')
    ok = report(3, not problems, '; '.join(problems) or
                'R3 empty under R2+F1 family; M empty unconditionally')
    assert ok, problems


def test_criterion_4_normalization_identities():
    problems = []
    kpos, kneg = kink_coefficients(WSYM)
    a, b, r, nu = (Polynomial.var(n) for n in ('a', 'b', 'r', 'nu'))
    if kpos.render() != 'a*r - b*nu':
        problems.append(f'positive kink coefficient {kpos.render()}')
    if kneg != parse_fraction('(-a*r - b*nu) / (b^2 - a^2)'):
        problems.append(f'negative kink coefficient {kneg.render()}')
    if kpos * kneg != 1:
        problems.append('kink coefficients are not reciprocal')
    from weldskein.algebra import delta
    d = delta()
    for nu_val, expect_zero in ((1, True), (-1, False)):
        omega = a * r - Polynomial.const(nu_val) * b
        identity = (d + omega * omega) * r * a + (omega * omega - d) * b
        if identity.is_zero() != expect_zero:
            problems.append(f'T4 identity wrong for nu={nu_val}')
    t4 = constraints_for('t4')
    sat = {nv: all(c.residual(CoefficientSystem.welded(nv)).is_zero()
                   for c in t4.constraints) for nv in (1, -1)}
    if sat != {1: True, -1: False}:
        problems.append(f'T4 closure residual pattern {sat}')
    ok = report(4, not problems, '; '.join(problems) or
                'kink units reciprocal; T4 identity holds iff nu=1')
    assert ok, problems


def test_criterion_5_property_suite():
    t0 = time.perf_counter()
    corpus = {name: parse(text) for name, text in CORPUS_TEXT.items()}
    assert len(corpus) >= 10
    assert all(len(d.classical) <= 8 for d in corpus.values())
    assert any(d.wens for d in corpus.values())
    assert any(components(d) >= 2 for d in corpus.values())
    failures = []
    for name, d in corpus.items():
        wen_moves = bool(d.wens)
        cs = EXT if wen_moves else WSYM
        reference = y_invariant(d, cs)
        for seed in range(200):
            s = scramble(d, seed=seed, n_moves=15, size_cap=12,
                         wen_moves=wen_moves)
            if y_invariant(s, cs) != reference:
                failures.append((name, seed))
                break
    elapsed = time.perf_counter() - t0
    detail = (f'{len(corpus)} diagrams x 200 scrambles in {elapsed:.1f}s'
              if not failures else f'mismatches: {failures}')
    if elapsed > 300:
        failures.append(('runtime', elapsed))
    ok = report(5, not failures, detail)
    assert ok, failures


def test_criterion_6_specializations():
    problems = []
    for name, text in CORPUS_TEXT.items():
        d = parse(text)
        y = y_invariant(d, CoefficientSystem.welded(-1), check_wens=False)
        k = y.delta_power
        expected = (Polynomial.const(2 ** components(d))
                    * Polynomial.var('s') ** (wen_count(d)[0] % 2)
                    * Polynomial.const(-1) ** k
                    * Polynomial.var('a') ** (2 * k))
        if y.num.substitute({'b': 0}) != expected:
            problems.append(f'b=0 specialization wrong on {name}')
        lp = to_alpha_beta(y_invariant(d, EXT))
        if lp.homogeneous_degree() != 0:
            problems.append(f'alpha/beta image inhomogeneous on {name}')
        else:
            lp.dehomogenize()
    ok = report(6, not problems, '; '.join(problems) or
                'b=0 collapse and alpha/beta homogeneity on the corpus')
    assert ok, problems


def test_criterion_7_nontriviality():
    problems = []
    names = ('unlink2', 'hopf_pos', 'virtual_hopf')
    for cs in (WNEG, WSYM):
        values = {name: y_invariant(parse(CORPUS_TEXT[name]), cs)
                  for name in names}
        coincident = [(n1, n2) for (n1, v1), (n2, v2)
                      in itertools.combinations(values.items(), 2) if v1 == v2]
        if coincident:
            problems.append(f'{cs.describe()}: coincident values {coincident}')
    for name in names:
        value = y_invariant(parse(CORPUS_TEXT[name]), EXT)
        if value != 4:
            problems.append(f'extended {name} gave {value.render()}, '
                            f'documented collapse gives 4')
    ok = report(7, not problems, '; '.join(problems) or
                'unlink / Hopf / virtual Hopf pairwise distinct for nu=-1 and '
                'symbolic nu; all equal 4 for nu=1')
    assert ok, problems


def test_criterion_8_scale_check():
    import random
    from weldskein.moves import MoveKind, apply_move, enumerate_sites
    rng = random.Random(20)
    d = parse(CORPUS_TEXT['hopf_pos'])
    while len(d.classical) < 12:
        kind = rng.choice((MoveKind.R1A_PLUS, MoveKind.R1B_PLUS,
                           MoveKind.R2_PLUS, MoveKind.V1_PLUS))
        sites = enumerate_sites(d, kind)
        d = apply_move(d, sites[rng.randrange(len(sites))])
    assert len(d.classical) == 12
    t0 = time.perf_counter()
    y_invariant(d, EXT)
    elapsed = time.perf_counter() - t0
    problems = []
    if elapsed > 60:
        problems.append(f'evaluation took {elapsed:.1f}s')
    ok = report(8, not problems, '; '.join(problems) or
                f'3^12 states in {elapsed:.2f}s (frontier DP kernel, '
                f'single-threaded)')
    assert ok, problems
