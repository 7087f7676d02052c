"""Cross-module consistency: tangle closures vs. the state-sum evaluator.

Closing a move tangle with a direction-compatible endpoint pairing yields an
honest closed diagram.  The verifier's closure of the tangle expansion must
equal the bracket of that diagram for every builtin move tangle and every
realizable closure.  Both run on the state-sum kernel, so each closure is
also checked against the per-state oracle ``state_value``, summed over all
states of the closed diagram, which shares nothing with the kernel.
"""
import itertools

import pytest

from weldskein.diagram import (ClassicalCrossing, Diagram, VirtualCrossing,
                               Wen, check_valid, parse_tangle)
from weldskein.algebra import DeltaFraction
from weldskein.skein import CoefficientSystem, State, bracket, state_value
from weldskein.verifier import (builtin_moves, close, perfect_matchings,
                                tangle_bracket)

GENERIC = CoefficientSystem.generic()


def close_tangle_to_diagram(tangle, pairs):
    """Realize a closure as a diagram; None when directions clash."""
    info = {lab: (direction, edge) for lab, direction, edge in tangle.boundary}
    rename = {}
    free_loops = tangle.diagram.free_loops
    merged = []
    for l1, l2 in pairs:
        (d1, e1), (d2, e2) = info[l1], info[l2]
        if d1 == d2:
            return None          # two sources or two targets; not realizable
        if d1 == 'out':          # strand leaves at l1, re-enters at l2
            merged.append((e1, e2))
        else:
            merged.append((e2, e1))

    def resolve(e):
        while e in rename:
            e = rename[e]
        return e

    for out_edge, in_edge in merged:
        a, b = resolve(out_edge), resolve(in_edge)
        if a == b:
            free_loops += 1      # the strand closed onto itself
        else:
            rename[b] = a

    def sub(e):
        return resolve(e)

    d = tangle.diagram
    closed = Diagram(
        classical=tuple(ClassicalCrossing(c.sign, sub(c.over_in),
                                          sub(c.over_out), sub(c.under_in),
                                          sub(c.under_out))
                        for c in d.classical),
        virtual_x=tuple(VirtualCrossing(sub(v.a_in), sub(v.a_out),
                                        sub(v.b_in), sub(v.b_out))
                        for v in d.virtual_x),
        wens=tuple(Wen(sub(w.w_in), sub(w.w_out)) for w in d.wens),
        free_loops=free_loops,
    )
    check_valid(closed)
    return closed


@pytest.mark.parametrize('name', sorted(builtin_moves()))
@pytest.mark.parametrize('side', ('lhs', 'rhs'))
def test_closure_values_match_bracket(name, side):
    schema = builtin_moves()[name]
    tangle = parse_tangle(getattr(schema, side))
    tb = tangle_bracket(tangle)
    realizable = 0
    for pairs in perfect_matchings(tb.labels):
        closed = close_tangle_to_diagram(tangle, pairs)
        if closed is None:
            continue
        realizable += 1
        closed_value = close(tb, pairs)
        assert bracket(closed, GENERIC) == closed_value, (name, side, pairs)
        oracle = DeltaFraction.from_int(0)
        for digits in itertools.product(range(3), repeat=len(closed.classical)):
            oracle = oracle + state_value(closed, State.from_digits(digits),
                                          GENERIC)
        assert oracle == closed_value, (name, side, pairs)
    assert realizable >= 1


def test_some_closures_are_direction_incompatible():
    schema = builtin_moves()['r3']
    tangle = parse_tangle(schema.lhs)
    results = [close_tangle_to_diagram(tangle, pairs)
               for pairs in perfect_matchings(tangle.labels())]
    assert any(r is None for r in results)   # e.g. pairing two inputs
    assert any(r is not None for r in results)
