"""Every coefficient system is blind to which strand of a crossing is over.

``skein.smoothing_pairs`` gives the same joins for V, I and C when a
crossing's over and under strands are exchanged, and the weights read only
the sign.  So exchanging over and under at any crossing, with its sign
kept (Kauffman's virtualization), leaves the bracket and every tangle
bracket entry unchanged, and the forbidden move F2 gives the same closure
equations as the welded move F1.
"""
import dataclasses
import random
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from weldskein.diagram import Tangle, parse, parse_tangle
from weldskein.skein import CoefficientSystem, bracket
from weldskein.verifier import (builtin_moves, constraints_for,
                                move_constraints, tangle_bracket)

from conftest import CORPUS_TEXT

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / 'perfbench'))
import inputs       # noqa: E402

SYSTEMS = (CoefficientSystem.generic(), CoefficientSystem.welded(1),
           CoefficientSystem.welded(-1), CoefficientSystem.welded(None),
           CoefficientSystem.extended())


def exchange(d, chosen):
    """``d`` with over and under exchanged at the chosen classical crossings."""
    classical = tuple(
        dataclasses.replace(c, over_in=c.under_in, over_out=c.under_out,
                            under_in=c.over_in, under_out=c.over_out)
        if k in chosen else c
        for k, c in enumerate(d.classical))
    return dataclasses.replace(d, classical=classical)


def random_rows(rng):
    if rng.random() < 0.5:
        return inputs.braid_closure(rng, rng.randint(2, 3), rng.randint(2, 5),
                                    rng.randint(0, 2), rng.randint(0, 2))
    return inputs.random_code(rng, rng.randint(1, 5), rng.randint(0, 2),
                              rng.randint(0, 2))


def some_crossings(rng, n):
    """A nonempty random set of crossing indices (empty if n == 0)."""
    chosen = {rng.randrange(n)} if n else set()
    return chosen | {k for k in range(n) if rng.random() < 0.3}


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_exchange_keeps_the_bracket(seed):
    rng = random.Random(seed)
    if rng.random() < 0.2:
        d = parse(CORPUS_TEXT[rng.choice(sorted(CORPUS_TEXT))])
    else:
        d = parse(inputs.rows_to_text(random_rows(rng)))
    swapped = exchange(d, some_crossings(rng, len(d.classical)))
    for cs in SYSTEMS:
        assert bracket(swapped, cs, check_wens=False) == \
            bracket(d, cs, check_wens=False), cs


def cut_open(rng, rows):
    """A tangle: one or two edges of a closed diagram cut open.

    The cut edge keeps its name as an 'out' endpoint of the vertex it
    leaves; the vertex it entered reads a fresh edge, an 'in' endpoint.
    """
    rows = [list(row) for row in rows]
    ends = []
    for k, e in enumerate(rng.sample(inputs.edges(rows), rng.randint(1, 2))):
        fresh = f'cut{k}'
        for row in rows:
            for slot in {'W': (1,)}.get(row[0], (1, 3)):
                if row[slot] == e:
                    row[slot] = fresh
        ends += [f'end o{k} out {e}', f'end i{k} in {fresh}']
    return parse_tangle(inputs.rows_to_text(rows) + '\n'.join(ends) + '\n')


def tangles():
    """The two sides of every builtin move."""
    for schema in builtin_moves().values():
        yield parse_tangle(schema.lhs)
        yield parse_tangle(schema.rhs)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_exchange_keeps_the_tangle_bracket_entries(seed):
    rng = random.Random(seed)
    if rng.random() < 0.4:
        t = rng.choice(list(tangles()))
    else:
        t = cut_open(rng, random_rows(rng))
    chosen = some_crossings(rng, len(t.diagram.classical))
    swapped = Tangle(exchange(t.diagram, chosen), t.boundary)
    before, after = tangle_bracket(t), tangle_bracket(swapped)
    assert after.entries == before.entries
    assert after.neg_count == before.neg_count


ENDS = ('end 1 in A\nend 2 in B\nend 3 in S\n'
        'end 4 out AO\nend 5 out BO\nend 6 out SO')
# F1 with over and under exchanged at both classical crossings: the
# forbidden move F2, in which the two under-crossings commute
F2_LHS = 'X+ B b1 A a1\nX+ S s1 a1 AO\nV b1 BO s1 SO\n' + ENDS
F2_RHS = 'V B b1 S s1\nX+ s1 SO A a1\nX+ b1 BO a1 AO\n' + ENDS


def test_f2_gives_the_f1_equations():
    f1 = builtin_moves()['f1']
    for sign in ('X+', 'X-'):
        f1_sides = [parse_tangle(text.replace('X+', sign))
                    for text in (f1.lhs, f1.rhs)]
        f2_sides = [parse_tangle(text.replace('X+', sign))
                    for text in (F2_LHS, F2_RHS)]
        assert f2_sides == [Tangle(exchange(t.diagram, {0, 1}), t.boundary)
                            for t in f1_sides]
        equations = move_constraints(*f1_sides).deduplicated_equations()
        if sign == 'X+':
            assert equations == constraints_for('f1').deduplicated_equations()
        assert len(equations) == 3
        f2 = move_constraints(*f2_sides, move='f2')
        assert set(f2.deduplicated_equations()) == set(equations), sign
        for cs in SYSTEMS[1:]:
            for c in f2.constraints:
                assert c.residual(cs).is_zero(), (sign, cs, c.tag)
