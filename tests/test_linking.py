"""Y read from components and linking numbers (docs/linking-numbers.md).

``skein.linking_y`` must equal the state sum ``skein.y_invariant`` in every
solved family; the spin weights that the proof rests on are checked against
the skein triple crossing by crossing.
"""
import itertools
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weldskein.algebra import DeltaFraction, Polynomial
from weldskein.diagram import ClassicalCrossing, parse
from weldskein.skein import (SMOOTHINGS, CoefficientSystem, WenError,
                             linking_y, smoothing_pairs, y_invariant)

from conftest import CORPUS_TEXT

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / 'perfbench'))
import inputs       # noqa: E402
import workloads    # noqa: E402

FAMILIES = (CoefficientSystem.welded(1), CoefficientSystem.welded(-1),
            CoefficientSystem.welded(None), CoefficientSystem.extended())

# Pauli Y as [out spin][in spin]: Y e+ = i e-, Y e- = -i e+
PAULI_Y = {(-1, 1): 1j, (1, -1): -1j}


def assert_same_y(d):
    for cs in FAMILIES:
        try:
            expected = y_invariant(d, cs)
        except WenError:
            with pytest.raises(WenError):
                linking_y(d, cs)
            continue
        got = linking_y(d, cs)
        assert got == expected, (cs, got, expected)
        assert got.render() == expected.render()


@pytest.mark.parametrize('sign', (1, -1))
def test_skein_triple_gives_the_spin_weights(sign):
    # nu = -1: R+ = a*r*1x1 + b*YxY and R- = (-a*r*1x1 + b*YxY)/delta as
    # maps from the (over, under) in-spins to the out-spins
    cs = CoefficientSystem.welded(-1)
    sub = cs.substitution()
    a, b, r = (Polynomial.var(n) for n in 'abr')
    x = ClassicalCrossing(sign, 'oi', 'oo', 'ui', 'uo')
    for spins in itertools.product((1, -1), repeat=4):
        spin = dict(zip(('oi', 'oo', 'ui', 'uo'), spins))
        weight = DeltaFraction.from_int(0)
        for k, sm in enumerate(SMOOTHINGS):
            if all(spin[e1] == spin[e2] for e1, e2 in smoothing_pairs(x, sm)):
                name = ('abc' if sign > 0 else 'xyz')[k]
                coeff = Polynomial.var(name).substitute(sub)
                weight = weight + DeltaFraction(
                    coeff * (r if sm == 'V' else 1), 0 if sign > 0 else 1)
        oi, oo, ui, uo = spins
        yy = PAULI_Y.get((oo, oi), 0) * PAULI_Y.get((uo, ui), 0)
        assert yy.imag == 0
        same = int(oi == oo and ui == uo)
        spin_model = DeltaFraction(a * r * same * sign + b * int(yy.real),
                                   0 if sign > 0 else 1)
        assert weight == spin_model, spins


@pytest.mark.parametrize('name', sorted(CORPUS_TEXT))
def test_corpus(name):
    assert_same_y(parse(CORPUS_TEXT[name]))


@pytest.mark.parametrize('name', sorted(workloads.large_pool()))
def test_eval_large_diagrams(name):
    rows, _ = workloads.large_pool()[name]
    assert_same_y(parse(inputs.rows_to_text(rows)))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 32), st.booleans(), st.integers(1, 7),
       st.integers(0, 3), st.integers(0, 2))
def test_random_braid_closures_and_codes(seed, braid, classical, virtual,
                                         wens):
    rng = random.Random(seed)
    if braid:
        rows = inputs.braid_closure(rng, rng.randint(2, 4), max(classical, 3),
                                    virtual, wens)
    else:
        rows = inputs.random_code(rng, classical, virtual, wens)
    assert_same_y(parse(inputs.rows_to_text(rows)))


def test_linking_values_by_hand():
    # Hopf link (L = 2): 2 + 2*rho^2; virtual Hopf (L = 1): 2 + 2*rho;
    # negative Hopf (L = -2): 2 + 2/rho^2, with rho = -(a*r - b)^2/delta
    ar, b = Polynomial.var('a') * Polynomial.var('r'), Polynomial.var('b')
    rho = DeltaFraction(-(ar - b) ** 2, 1)
    rho_inv = DeltaFraction(-(ar + b) ** 2, 1)
    nu_minus = CoefficientSystem.welded(-1)
    assert rho * rho_inv == 1
    for name, value in (('hopf_pos', 2 + 2 * rho ** 2),
                        ('virtual_hopf', 2 + 2 * rho),
                        ('hopf_neg', 2 + 2 * rho_inv ** 2),
                        ('trefoil', DeltaFraction.from_int(2)),
                        ('hopf_plus_loop', 4 + 4 * rho ** 2)):
        assert linking_y(parse(CORPUS_TEXT[name]), nu_minus) == value, name


def test_generic_family_has_no_invariant():
    with pytest.raises(ValueError):
        linking_y(parse(CORPUS_TEXT['hopf_pos']), CoefficientSystem.generic())


def tree_link(parents, rng):
    """A link whose nonzero linking numbers form a tree (or a forest).

    Component v > 0 is clasped to component parents[v - 1] by one or two
    classical crossings with random signs and over strands; a single
    crossing gets a virtual crossing beside it half the time.  Each
    component is one circle that meets its crossings in a random order.
    """
    n = len(parents) + 1
    events = {u: [] for u in range(n)}      # component -> (row, in-slot)
    rows = []
    for v, u in enumerate(parents, start=1):
        kinds = [rng.choice(('X+', 'X-')) for _ in range(rng.randint(1, 2))]
        if len(kinds) == 1 and rng.random() < 0.5:
            kinds.append('V')
        for kind in kinds:
            first, second = (u, v) if rng.random() < 0.5 else (v, u)
            rows.append([kind, None, None, None, None])
            events[first].append((len(rows) - 1, 1))
            events[second].append((len(rows) - 1, 3))
    for u, evs in events.items():
        rng.shuffle(evs)
        for k, (row, slot) in enumerate(evs):
            rows[row][slot] = f'c{u}e{k}'
            rows[row][slot + 1] = f'c{u}e{(k + 1) % len(evs)}'
    return parse('\n'.join(' '.join(r) for r in rows) + '\n')


@pytest.mark.parametrize('n', (2, 3, 5, 8, 12))
def test_chains(n):
    assert_same_y(tree_link(list(range(n - 1)), random.Random(n)))


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(2, 12))
def test_random_trees(seed, n):
    rng = random.Random(seed)
    assert_same_y(tree_link([rng.randrange(v) for v in range(1, n)], rng))


def test_long_chain_is_linear():
    # the cut loop would sum 2^39 cuts; a tree part is 2 * prod(1 + rho^L)
    d = tree_link(list(range(39)), random.Random(40))
    linking = {}
    for c in d.classical:
        pair = tuple(sorted(int(e[1:e.index('e')]) for e in (c.over_in, c.under_in)))
        linking[pair] = linking.get(pair, 0) + c.sign
    assert sorted(linking) == [(u, u + 1) for u in range(39)]
    ar, b = Polynomial.var('a') * Polynomial.var('r'), Polynomial.var('b')
    rho = DeltaFraction(-(ar - b) ** 2, 1)
    rho_inv = DeltaFraction(-(ar + b) ** 2, 1)
    expected = DeltaFraction.from_int(2)
    for l in linking.values():
        expected = expected * (1 + (rho if l > 0 else rho_inv) ** abs(l))
    assert linking_y(d, CoefficientSystem.welded(-1)) == expected
