"""Reference oracle for the verifier: close each side, then substitute.

``reference_move_constraints`` closes both tangle brackets of a move with
every perfect matching of the endpoints (or reads both entries of every
state pairing), and ``ReferenceConstraint.residual`` substitutes the
solved family into each closed side separately before multiplying by the
delta, r and omega powers.  ``weldskein.verifier`` combines the two
brackets once per pairing and substitutes each combined entry once per
move instead; the tests hold it to the same tags, generic equations and
residuals.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from weldskein.algebra import Polynomial, delta
from weldskein.diagram import Tangle
from weldskein.skein import CoefficientSystem
from weldskein.verifier import (Pairing, TangleBracket, pairing_tag,
                                perfect_matchings, tangle_bracket)


def _cycle_count(pairing: Pairing, partner: Mapping[str, str]) -> int:
    strand = {}
    for u, v in pairing:
        strand[u], strand[v] = v, u
    cycles = 0
    while strand:
        cycles += 1
        start, end = strand.popitem()
        del strand[end]
        lab = partner[end]
        while lab != start:
            end = strand.pop(lab)
            del strand[end]
            lab = partner[end]
    return cycles


def reference_close(tb: TangleBracket, pairs: Iterable[Iterable[str]]) -> Polynomial:
    """Sum of entry * t^cycles over the state pairings of one side."""
    pairs = [tuple(p) for p in pairs]
    flat = [lab for p in pairs for lab in p]
    if sorted(flat) != sorted(tb.labels) or any(len(p) != 2 for p in pairs):
        raise ValueError('closure must be a perfect matching of the endpoints')
    partner = {}
    for u, v in pairs:
        partner[u], partner[v] = v, u
    powers = [Polynomial.monomial(1, t=k) for k in range(len(pairs) + 1)]
    return Polynomial.sum_of_products(
        (value, powers[_cycle_count(pairing, partner)])
        for pairing, value in tb.entries.items())


@dataclass
class ReferenceConstraint:
    """Both closed sides of one equation, kept apart until the end."""

    tag: str
    lhs: Polynomial
    rhs: Polynomial
    neg_l: int = 0
    neg_r: int = 0
    dw: int = 0
    dv: int = 0

    def generic_equation(self) -> Polynomial:
        if self.dw != 0:
            raise ValueError('writhe-shifting move has no generic equation')
        rhs = self.rhs
        if self.dv % 2:
            rhs = rhs * Polynomial.var('r')
        return self.lhs - rhs

    def residual(self, family: CoefficientSystem) -> Polynomial:
        subst = family.substitution()
        lhs = self.lhs.substitute(subst)
        rhs = self.rhs.substitute(subst)
        d = delta()
        lhs = lhs * d ** self.neg_r
        rhs = rhs * d ** self.neg_l
        if self.dv % 2:
            rhs = rhs * Polynomial.var('r')
        omega = family.omega()
        if self.dw >= 0:
            rhs = rhs * omega ** self.dw
        else:
            lhs = lhs * omega ** (-self.dw)
        return lhs - rhs


def reference_move_constraints(lhs: Tangle, rhs: Tangle, *,
                               method: str = 'closure', dw: int = 0,
                               dv: int = 0) -> list[ReferenceConstraint]:
    """One constraint per closure pairing (or per state pairing)."""
    ltb = tangle_bracket(lhs)
    rtb = tangle_bracket(rhs)
    if ltb.labels != rtb.labels:
        raise ValueError('endpoint labels differ between the sides')
    out = []
    if method == 'pairing':
        for pairing in sorted(set(ltb.entries) | set(rtb.entries),
                              key=pairing_tag):
            out.append(ReferenceConstraint(
                pairing_tag(pairing),
                ltb.entries.get(pairing, Polynomial.zero()),
                rtb.entries.get(pairing, Polynomial.zero()),
                ltb.neg_count, rtb.neg_count, dw, dv))
    elif method == 'closure':
        for pairs in perfect_matchings(ltb.labels):
            out.append(ReferenceConstraint(
                pairing_tag(pairs), reference_close(ltb, pairs),
                reference_close(rtb, pairs),
                ltb.neg_count, rtb.neg_count, dw, dv))
    else:
        raise ValueError(f'unknown method {method!r}')
    return out
