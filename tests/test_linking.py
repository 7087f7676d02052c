"""Y read from components and linking numbers (docs/linking-numbers.md).

``skein.linking_y`` must equal the state sum ``skein.y_invariant`` in every
solved family; the spin weights that the proof rests on are checked against
the skein triple crossing by crossing.
"""
import dataclasses
import itertools
import random
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weldskein.algebra import DeltaFraction, Polynomial
from weldskein.diagram import ClassicalCrossing, parse
from weldskein.skein import (SMOOTHINGS, CoefficientSystem, WenError,
                             linking_y, smoothing_pairs, y_invariant)

from conftest import CORPUS_TEXT
from ring_link import ring_rows

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


def graph_link(edges, rng):
    """A link whose pairs of clasped components are the given edges.

    Components are numbered 0 to the largest vertex of ``edges``.  Each
    edge (u, v) clasps u and v by one or two classical crossings with
    random signs and over strands, so half the double clasps have opposite
    signs and L_uv = 0; a single crossing gets a virtual crossing beside
    it half the time.  Each component is one circle that meets its
    crossings in a random order.
    """
    n = 1 + max(max(u, v) for u, v in edges)
    events = {u: [] for u in range(n)}      # component -> (row, in-slot)
    rows = []
    for u, v in edges:
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


def tree_link(parents, rng):
    """A link whose nonzero linking numbers form a tree (or a forest):
    component v > 0 is clasped to component parents[v - 1]."""
    return graph_link([(u, v) for v, u in enumerate(parents, start=1)], rng)


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


def graph_linking(d):
    """The L_uv of a ``graph_link``, read from its edge names (c<u>e<k>),
    so that it stands apart from ``diagram``."""
    linking = {}
    for c in d.classical:
        u, v = (int(e[1:e.index('e')]) for e in (c.over_in, c.under_in))
        pair = (min(u, v), max(u, v))
        linking[pair] = linking.get(pair, 0) + c.sign
    return linking


def assert_cut_sum(d):
    """Hold ``linking_y`` to a brute-force sum over all 2^c spin patterns."""
    linking = graph_linking(d)
    n = 1 + max(max(pair) for pair in linking)
    counts = {}
    for z in range(1 << n):
        e = sum(l for (i, j), l in linking.items() if (z >> i ^ z >> j) & 1)
        counts[e] = counts.get(e, 0) + 1
    ar, b = Polynomial.var('a') * Polynomial.var('r'), Polynomial.var('b')
    rho = DeltaFraction(-(ar - b) ** 2, 1)
    rho_inv = DeltaFraction(-(ar + b) ** 2, 1)
    y_minus = DeltaFraction.from_int(0)
    for e, count in counts.items():
        y_minus = y_minus + count * (rho if e > 0 else rho_inv) ** abs(e)
    y_plus = DeltaFraction.from_int((-2) ** n)
    for cs in FAMILIES:
        got = linking_y(d, cs)
        if cs.nu is None:
            # Y = A + nu*B with A and B free of nu: its two values fix it
            assert got.substitute({'nu': 1}) == y_plus
            assert got.substitute({'nu': -1}) == y_minus
        else:
            assert got == (y_plus if cs.nu == 1 else y_minus), cs


def assert_graph_y(d):
    # the state sum where it is cheap, the brute-force cut sum beyond
    if len(d.classical) <= 14:
        assert_same_y(d)
    else:
        assert_cut_sum(d)


def ring(k):
    return [(u, (u + 1) % k) for u in range(k)]


@pytest.mark.parametrize('k', (3, 4, 5, 7, 10, 14))
def test_rings(k):
    assert_graph_y(graph_link(ring(k), random.Random(k)))


@pytest.mark.parametrize('k', (3, 5, 8))
def test_wheels(k):
    rim = [(u + 1, v + 1) for u, v in ring(k)]
    hub = [(0, u) for u in range(1, k + 1)]
    assert_graph_y(graph_link(rim + hub, random.Random(k)))


@pytest.mark.parametrize('k', (4, 5, 6))
def test_complete_graphs(k):
    edges = list(itertools.combinations(range(k), 2))
    assert_graph_y(graph_link(edges, random.Random(k)))


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(2, 14))
def test_random_graphs(seed, n):
    rng = random.Random(seed)
    p = rng.uniform(0.15, 0.6)
    edges = [(u, v) for u, v in itertools.combinations(range(n), 2)
             if rng.random() < p]
    # keep every component on some edge, so that all n of them exist
    edges += [(u, (u + 1) % n) for u in range(n)
              if not any(u in edge for edge in edges)]
    assert_graph_y(graph_link(edges, rng))


def test_long_ring_is_linear():
    # a ring's cut sum is prod(1 + rho^L) + prod(1 - rho^L): the transfer
    # matrices [[1, x], [x, 1]] share the eigenvectors (1, 1) and (1, -1);
    # every L is +1 here, so Y = (1 + rho)^40 + (1 - rho)^40
    d = parse('\n'.join(ring_rows(40)) + '\n')
    ar, b = Polynomial.var('a') * Polynomial.var('r'), Polynomial.var('b')
    rho = DeltaFraction(-(ar - b) ** 2, 1)
    cs = CoefficientSystem.welded(-1)
    assert linking_y(d, cs) == (1 + rho) ** 40 + (1 + rho * -1) ** 40
    times = []
    for _ in range(3):
        start = time.perf_counter()
        linking_y(d, cs)
        times.append(time.perf_counter() - start)
    assert min(times) < 0.1


def test_wide_tree_is_fast():
    # a random tree, its crossings in random order: with ties in the sweep
    # order going straight to the lowest index the frontier holds many
    # branch points, and this took seconds instead of milliseconds
    rng = random.Random(200)
    d = tree_link([rng.randrange(v) for v in range(1, 200)], rng)
    classical = list(d.classical)
    rng.shuffle(classical)
    d = dataclasses.replace(d, classical=tuple(classical))
    ar, b = Polynomial.var('a') * Polynomial.var('r'), Polynomial.var('b')
    rho = DeltaFraction(-(ar - b) ** 2, 1)
    rho_inv = DeltaFraction(-(ar + b) ** 2, 1)
    expected = DeltaFraction.from_int(2)
    for l in graph_linking(d).values():
        expected = expected * (1 + (rho if l > 0 else rho_inv) ** abs(l))
    start = time.perf_counter()
    assert linking_y(d, CoefficientSystem.welded(-1)) == expected
    assert time.perf_counter() - start < 1
