"""Symbolic re-derivation of the coefficient constraints behind invariance.

Each move is a pair of tangles with matching endpoint labels.  A tangle's
bracket is one polynomial per induced endpoint pairing: every state adds
coeff * t^loops * r^parity * s^wen to the entry of its pairing.  Comparing
the two sides per pairing, or closing both with every perfect matching of
the endpoints, yields polynomial constraints on the skein coefficients.
The expansion is ``skein.state_sums``, the same state sum as the
closed-diagram bracket, with the endpoint edges kept open and the generic
coefficients.

A closure multiplies each pairing's entry by t^cycles, where the cycles
are the closed curves that the state's strands form with the closure's
arcs.  So the closures of a bracket with entries D are the rows of
G(t) . D, where G[q][p] = t^cycles(p, q) is the Gram matrix of the
Brauer algebra on the endpoints; it depends only on the labels, and
:func:`gram` keeps one table per label tuple.  A closure is linear in the
entries, so the two sides are combined once per pairing
(:class:`MoveSides`) and every equation is one closure of the combined
entries, or one combined entry for the pairing method.

Verification substitutes a solved coefficient family and checks that every
constraint holds identically.  Substitution is a ring homomorphism, so each
combined entry E is substituted once per move and family, and each closure
residual is a row of G(sigma(t)) . E.

Everything here runs with cleared denominators: generic coefficients x, y,
z are free symbols, and substituting the solved family multiplies the other
side of each equation by the appropriate delta power.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field
from operator import sub
from typing import Iterable, Mapping, Optional, Sequence, Union

from weldskein.algebra import DeltaFraction, Polynomial, delta
from weldskein.diagram import Tangle, check_valid, parse_tangle
from weldskein.skein import CoefficientSystem, state_sums

Pairing = frozenset            # of frozensets of endpoint labels


def perfect_matchings(labels: Sequence[str]) -> list[tuple[tuple[str, str], ...]]:
    """All (2k-1)!! perfect pairings of the labels, deterministically ordered."""
    labels = list(labels)
    if not labels:
        return [()]
    if len(labels) % 2:
        raise ValueError('need an even number of endpoints')
    first, rest = labels[0], labels[1:]
    out = []
    for i, other in enumerate(rest):
        remaining = rest[:i] + rest[i + 1:]
        for sub in perfect_matchings(remaining):
            out.append(((first, other),) + sub)
    return out


def pairing_tag(pairs: Iterable[Iterable[str]]) -> str:
    return ':'.join(sorted(''.join(sorted(p)) for p in pairs))


@dataclass
class TangleBracket:
    """State sum of a tangle: one polynomial per endpoint pairing.

    Each state contributes coeff * t^loops * r^parity * s^wen to the entry
    of the pairing it induces on the endpoints, where loops counts its
    closed curves and parity its virtual crossings, kept and introduced,
    modulo 2.  Entries are nonzero, and denominators are cleared: each
    negative crossing contributed its numerator, and ``neg_count`` records
    the implicit delta power.
    """

    labels: tuple[str, ...]
    entries: dict[Pairing, Polynomial]
    neg_count: int


def tangle_bracket(t: Tangle) -> TangleBracket:
    """Expand a tangle into its smoothing states, grouped by pairing.

    ``skein.state_sums`` keeps the endpoint edges open and groups the states
    by the partition they induce on them; each partition names a pairing.
    Coefficients are the generic symbols; a solved family enters later, by
    substitution.
    """
    d = t.diagram
    check_valid(d, t.boundary)
    edge_of_label = {lab: e for lab, _, e in t.boundary}
    labels = tuple(sorted(edge_of_label))
    sums, neg_count = state_sums(d, CoefficientSystem.generic(),
                                 [edge_of_label[lab] for lab in labels])
    label = labels.__getitem__
    entries = {frozenset(frozenset(map(label, cls)) for cls in part): value
               for part, value in sums.items() if not value.is_zero()}
    return TangleBracket(labels, entries, neg_count)


def _cycle_count(pairing: Pairing, partner: Mapping[str, str]) -> int:
    """Closed curves formed by a state's strands and a closure's arcs.

    Every class of a state pairing holds the two ends of one strand, so the
    curves are the cycles that alternate between the two perfect matchings.
    """
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


class Gram:
    """The Gram matrix G[q][p] = t^cycles(p, q) of one endpoint-label tuple.

    Closures q and state pairings p are both perfect matchings of the
    labels, listed in ``matchings`` (``perfect_matchings`` order).
    ``row(q)`` holds cycles(p, q) for every p in that order, and
    ``column(p)`` is the position of p.  ``t_powers`` is t^0 .. t^k.
    """

    __slots__ = ('matchings', 't_powers', '_columns', '_rows')

    def __init__(self, labels: tuple[str, ...]):
        self.matchings = tuple(perfect_matchings(labels))
        self.t_powers = tuple(Polynomial.monomial(1, t=k)
                              for k in range(len(labels) // 2 + 1))
        arcs: dict[tuple[str, str], frozenset] = {}     # one set per arc
        keys = [frozenset(arcs.setdefault(p, frozenset(p)) for p in m)
                for m in self.matchings]
        self._columns = {p: i for i, p in enumerate(keys)}
        self._rows = {}
        for q, m in zip(keys, self.matchings):
            partner = {u: v for pair in m for u, v in (pair, pair[::-1])}
            self._rows[q] = tuple(_cycle_count(p, partner) for p in keys)

    def column(self, pairing: Pairing) -> int:
        return self._columns[pairing]

    def row(self, pairs: Iterable[Iterable[str]]) -> tuple[int, ...]:
        pairs = [tuple(p) for p in pairs]
        row = self._rows.get(frozenset(map(frozenset, pairs)))
        if (row is None or len(pairs) != len(self.matchings[0])
                or any(len(p) != 2 for p in pairs)):
            raise ValueError('closure must be a perfect matching of the endpoints')
        return row


@functools.cache
def gram(labels: tuple[str, ...]) -> Gram:
    """The Gram table of ``labels``, built on first use and then kept."""
    return Gram(labels)


def close(tb: TangleBracket, pairs: Iterable[Iterable[str]],
          t_powers: Optional[Sequence[Polynomial]] = None) -> Polynomial:
    """One closure of a bracket: row ``pairs`` of G(t) . D.

    The entries are summed per cycle count k and each sum is multiplied
    by ``t_powers[k]`` once (by default t^k; one entry more than the
    closure has arcs).  The implicit delta power is ``tb.neg_count``.
    """
    table = gram(tb.labels)
    row = table.row(pairs)
    groups: dict[int, list[Polynomial]] = {}
    for pairing, value in tb.entries.items():
        groups.setdefault(row[table.column(pairing)], []).append(value)
    if 0 in groups:         # no arcs: the one entry is its own closure
        return Polynomial.sum_of(groups[0])
    t_powers = table.t_powers if t_powers is None else t_powers
    return Polynomial.sum_of_products((Polynomial.sum_of(values), t_powers[k])
                                      for k, values in groups.items())


# -- constraints ----------------------------------------------------------------


def normalize_equation(p: Polynomial) -> Polynomial:
    """Strip sign, integer content and common monomial factors (units)."""
    terms = p.terms()
    if not terms:
        return p
    content = p.content_and_sign()
    common = tuple(map(min, zip(*terms)))
    return Polynomial({tuple(map(sub, e, common)): c // content
                       for e, c in terms.items()})


class FamilyTable:
    """A solved family's substitution, r and powers of delta, omega and
    sigma(t), each formed once per ``verify_solution`` call."""

    __slots__ = ('family', 'sigma', 'r', '_bases', '_powers')

    def __init__(self, family: CoefficientSystem):
        if not family.is_solved:
            raise ValueError('a family table needs a solved family')
        self.family = family
        self.sigma = family.substitution()
        self.r = Polynomial.var('r')
        self._bases = {'delta': delta(), 'omega': family.omega(),
                       't': self.sigma['t']}
        self._powers = {name: [Polynomial.one()] for name in self._bases}

    def power(self, name: str, k: int) -> Polynomial:
        """base^k for the base 'delta', 'omega' or 't' (sigma(t))."""
        powers = self._powers[name]
        while len(powers) <= k:
            powers.append(powers[-1] * self._bases[name])
        return powers[k]


@dataclass
class MoveSides:
    """The brackets of a move's two sides, combined pairing by pairing.

    ``dw``/``dv`` are the writhe and virtual-writhe offsets of lhs relative
    to rhs.  ``generic`` holds D_p = L_p - r^dv * R_p per state pairing p,
    so a closure's generic equation is one row of G(t) . D (:func:`close`).
    Under a solved family sigma, each pairing becomes one entry

        E_p = sigma(L_p) * delta^neg_r * omega^max(0, -dw)
              - sigma(R_p) * delta^neg_l * r^dv * omega^max(0, dw),

    substituted once per family; a closure's residual is then the row of
    G(sigma(t)) . E, because sigma is a ring homomorphism.
    """

    lhs: TangleBracket
    rhs: TangleBracket
    dw: int = 0
    dv: int = 0
    generic: TangleBracket = field(init=False)
    _solved: dict = field(init=False, default_factory=dict, repr=False,
                          compare=False)

    def __post_init__(self):
        if self.lhs.labels != self.rhs.labels:
            raise ValueError('endpoint labels differ between the sides')
        r = Polynomial.var('r') if self.dv % 2 else 1
        entries = dict(self.lhs.entries)
        for pairing, value in self.rhs.entries.items():
            value = value * r
            entries[pairing] = entries[pairing] - value if pairing in entries else -value
        # generic x, y, z are free symbols: no delta power to clear
        self.generic = TangleBracket(
            self.lhs.labels,
            {k: v for k, v in entries.items() if not v.is_zero()}, 0)

    def pairings(self) -> list[Pairing]:
        """State pairings of either side, in tag order."""
        return sorted(set(self.lhs.entries) | set(self.rhs.entries),
                      key=pairing_tag)

    def solved(self, table: FamilyTable) -> tuple[TangleBracket, list[Polynomial]]:
        """The combined entries E_p under ``table``'s family and sigma(t)^k.

        Formed on the first call for a family and kept on this object, so
        every constraint of the move reads the same entries.
        """
        found = self._solved.get(table.family)
        if found is None:
            left = (table.power('delta', self.rhs.neg_count)
                    * table.power('omega', max(0, -self.dw)))
            right = -(table.power('delta', self.lhs.neg_count)
                      * (table.r if self.dv % 2 else 1)
                      * table.power('omega', max(0, self.dw)))
            entries = {}
            for pairing in self.pairings():
                parts = [(side.entries[pairing].substitute(table.sigma), factor)
                         for side, factor in ((self.lhs, left), (self.rhs, right))
                         if pairing in side.entries]
                value = Polynomial.sum_of_products(parts)
                if not value.is_zero():
                    entries[pairing] = value
            solved = TangleBracket(self.lhs.labels, entries,
                                   self.lhs.neg_count + self.rhs.neg_count)
            t_powers = [table.power('t', k)
                        for k in range(len(self.lhs.labels) // 2 + 1)]
            found = self._solved[table.family] = (solved, t_powers)
        return found


@dataclass
class Constraint:
    """One equation of a move: a closure of both sides, or one pairing.

    ``closure`` is a perfect matching of the endpoints; when it is None the
    constraint compares the two sides' entries of the state ``pairing``.
    Both the generic equation and the residual under a solved family are
    read from the move's combined entries (:class:`MoveSides`).
    """

    tag: str
    sides: MoveSides = field(repr=False)
    closure: Optional[tuple[tuple[str, str], ...]] = None
    pairing: Optional[Pairing] = None

    @property
    def dw(self) -> int:
        return self.sides.dw

    def _read(self, tb: TangleBracket,
              t_powers: Optional[Sequence[Polynomial]] = None) -> Polynomial:
        if self.closure is None:
            return tb.entries.get(self.pairing, Polynomial.zero())
        return close(tb, self.closure, t_powers)

    def generic_equation(self) -> Polynomial:
        """lhs - r^dv * rhs as one polynomial; only meaningful when dw == 0.

        Generic x, y, z are free symbols, so no delta clearing happens here;
        the delta powers only materialize under a solved substitution.
        """
        if self.dw != 0:
            raise ValueError('writhe-shifting move has no generic equation')
        return self._read(self.sides.generic)

    def residual(self, family: CoefficientSystem,
                 table: Optional[FamilyTable] = None) -> Polynomial:
        """Substitute a solved family; zero iff the constraint holds.

        ``table`` is the family's :class:`FamilyTable`, which a caller that
        checks many moves builds once; without it, one is built here.
        """
        return self._read(*self.sides.solved(table or FamilyTable(family)))


@dataclass
class ConstraintSet:
    """Constraints from one move, with trivial equations dropped on demand."""

    move: str
    n_closures: int
    constraints: list[Constraint]

    def nontrivial(self) -> list[Constraint]:
        """Constraints whose generic equation is nonzero (dw == 0 moves)."""
        out = []
        for c in self.constraints:
            if c.dw == 0 and c.generic_equation().is_zero():
                continue
            out.append(c)
        return out

    def deduplicated_equations(self) -> list[Polynomial]:
        """Distinct nonzero generic equations up to unit and content.

        ``normalize_equation`` makes the leading coefficient positive, so
        an equation and its negative normalize alike.
        """
        eqs = (normalize_equation(c.generic_equation())
               for c in self.constraints if c.dw == 0)
        return list(dict.fromkeys(eq for eq in eqs if not eq.is_zero()))


# -- the builtin move tangles ------------------------------------------------


@dataclass(frozen=True)
class MoveSchema:
    name: str
    lhs: str
    rhs: str
    dw: int = 0
    dv: int = 0
    method: str = 'pairing'        # 'pairing' | 'closure'


_MOVES = (
    MoveSchema('r1a',
               'X+ e1 m m e2\nend 1 in e1\nend 2 out e2',
               'end 1 in q\nend 2 out q', dw=1),
    MoveSchema('r1b',
               'X- e1 m m e2\nend 1 in e1\nend 2 out e2',
               'end 1 in q\nend 2 out q', dw=-1),
    MoveSchema('v1',
               'V e1 m m e2\nend 1 in e1\nend 2 out e2',
               'end 1 in q\nend 2 out q', dv=1),
    MoveSchema('t1',
               'W e1 m\nW m e2\nend 1 in e1\nend 2 out e2',
               'end 1 in q\nend 2 out q'),
    MoveSchema('r2',
               'X+ p1 m2 p2 m1\nX- m2 p3 m1 p4\n'
               'end 1 in p1\nend 2 in p2\nend 3 out p3\nend 4 out p4',
               'end 1 in q1\nend 3 out q1\nend 2 in q2\nend 4 out q2'),
    MoveSchema('v2',
               'V p1 m1 p2 m2\nV m1 p3 m2 p4\n'
               'end 1 in p1\nend 2 in p2\nend 3 out p3\nend 4 out p4',
               'end 1 in q1\nend 3 out q1\nend 2 in q2\nend 4 out q2', dv=2),
    MoveSchema('r3',
               'X+ A a1 B b1\nX+ a1 AO S s1\nX+ b1 BO s1 SO\n'
               'end 1 in A\nend 2 in B\nend 3 in S\n'
               'end 4 out AO\nend 5 out BO\nend 6 out SO',
               'X+ B b1 S s1\nX+ A a1 s1 SO\nX+ a1 AO b1 BO\n'
               'end 1 in A\nend 2 in B\nend 3 in S\n'
               'end 4 out AO\nend 5 out BO\nend 6 out SO', method='closure'),
    MoveSchema('v3',
               'V A a1 B b1\nV a1 AO S s1\nV b1 BO s1 SO\n'
               'end 1 in A\nend 2 in B\nend 3 in S\n'
               'end 4 out AO\nend 5 out BO\nend 6 out SO',
               'V B b1 S s1\nV A a1 s1 SO\nV a1 AO b1 BO\n'
               'end 1 in A\nend 2 in B\nend 3 in S\n'
               'end 4 out AO\nend 5 out BO\nend 6 out SO'),
    MoveSchema('m',
               'V A a1 B b1\nV a1 AO S s1\nX+ b1 BO s1 SO\n'
               'end 1 in A\nend 2 in B\nend 3 in S\n'
               'end 4 out AO\nend 5 out BO\nend 6 out SO',
               'X+ B b1 S s1\nV A a1 s1 SO\nV a1 AO b1 BO\n'
               'end 1 in A\nend 2 in B\nend 3 in S\n'
               'end 4 out AO\nend 5 out BO\nend 6 out SO', method='closure'),
    MoveSchema('f1',
               'X+ A a1 B b1\nX+ a1 AO S s1\nV b1 BO s1 SO\n'
               'end 1 in A\nend 2 in B\nend 3 in S\n'
               'end 4 out AO\nend 5 out BO\nend 6 out SO',
               'V B b1 S s1\nX+ A a1 s1 SO\nX+ a1 AO b1 BO\n'
               'end 1 in A\nend 2 in B\nend 3 in S\n'
               'end 4 out AO\nend 5 out BO\nend 6 out SO', method='closure'),
    MoveSchema('t2',
               'W p1 m\nV m p3 p2 p4\n'
               'end 1 in p1\nend 2 in p2\nend 3 out p3\nend 4 out p4',
               'V p1 m p2 p4\nW m p3\n'
               'end 1 in p1\nend 2 in p2\nend 3 out p3\nend 4 out p4'),
    MoveSchema('t3',
               'W p2 m\nX+ p1 p3 m p4\n'
               'end 1 in p1\nend 2 in p2\nend 3 out p3\nend 4 out p4',
               'X+ p1 p3 p2 m\nW m p4\n'
               'end 1 in p1\nend 2 in p2\nend 3 out p3\nend 4 out p4'),
    MoveSchema('t4',
               'X+ p1 m1 p2 m2\nW m1 p3\nW m2 p4\n'
               'end 1 in p1\nend 2 in p2\nend 3 out p3\nend 4 out p4',
               'W p1 n1\nW p2 n2\nX- n2 p4 n1 p3\n'
               'end 1 in p1\nend 2 in p2\nend 3 out p3\nend 4 out p4',
               dw=2, method='closure'),
)


def builtin_moves() -> dict[str, MoveSchema]:
    return {m.name: m for m in _MOVES}


def move_constraints(lhs: Tangle, rhs: Tangle,
                     *, method: str = 'closure', move: str = '?',
                     dw: int = 0, dv: int = 0) -> ConstraintSet:
    """One constraint per closure pairing (or per state pairing).

    Both tangles must carry the same endpoint labels.
    """
    sides = MoveSides(tangle_bracket(lhs), tangle_bracket(rhs), dw, dv)
    matchings = gram(sides.lhs.labels).matchings
    if method == 'pairing':
        constraints = [Constraint(pairing_tag(p), sides, pairing=p)
                       for p in sides.pairings()]
    elif method == 'closure':
        constraints = [Constraint(pairing_tag(pairs), sides, closure=pairs)
                       for pairs in matchings]
    else:
        raise ValueError(f'unknown method {method!r}')
    return ConstraintSet(move, len(matchings), constraints)


def constraints_for(move_name: str) -> ConstraintSet:
    schema = builtin_moves()[move_name]
    return move_constraints(parse_tangle(schema.lhs), parse_tangle(schema.rhs),
                            method=schema.method, move=schema.name,
                            dw=schema.dw, dv=schema.dv)


# -- kink expansions and the solved-family report ------------------------------


def _kink(tb: TangleBracket, sigma: Mapping[str, Polynomial]) -> DeltaFraction:
    """A kink tangle's coefficient under the solved family ``sigma``.

    Derived from the tangle bracket, not hardcoded: the kink's one
    strand-pairing value equals coeff * [plain strand].
    """
    [poly] = tb.entries.values()
    return DeltaFraction(poly.substitute(sigma), tb.neg_count)


def kink_coefficients(family: CoefficientSystem) -> tuple[DeltaFraction, DeltaFraction]:
    """Expansion coefficients of the positive and negative kink tangles."""
    moves = builtin_moves()
    sigma = family.substitution()
    return tuple(_kink(tangle_bracket(parse_tangle(moves[name].lhs)), sigma)
                 for name in ('r1a', 'r1b'))


@dataclass
class MoveCheck:
    move: str
    n_closures: int
    n_equations: int
    satisfied: Optional[bool]
    residuals: list[str] = field(default_factory=list)


@dataclass
class SolutionReport:
    family: str
    moves: list[MoveCheck]
    kink_positive: DeltaFraction
    kink_negative: DeltaFraction
    reciprocal_ok: bool
    t4_expected: bool

    def move_check(self, name: str) -> MoveCheck:
        return next(m for m in self.moves if m.move == name)

    @property
    def all_as_expected(self) -> bool:
        for m in self.moves:
            if m.satisfied is None:
                continue
            expected = True if m.move != 't4' else self.t4_expected
            if m.satisfied != expected:
                return False
        return self.reciprocal_ok

    def summary_lines(self) -> list[str]:
        lines = [f'coefficient family: {self.family}']
        lines.append(f'{"move":6} {"closures":>8} {"equations":>9}  result')
        for m in self.moves:
            status = ('n/a' if m.satisfied is None
                      else 'pass' if m.satisfied else 'FAIL')
            if m.move == 't4' and not self.t4_expected:
                status += ' (expected: residual)' if not m.satisfied else ' (UNEXPECTED pass)'
            lines.append(f'{m.move:6} {m.n_closures:>8} {m.n_equations:>9}  {status}')
            for r in m.residuals:
                lines.append(f'       residual {r}')
        lines.append(f'kink+  -> {self.kink_positive.render()}')
        lines.append(f'kink-  -> {self.kink_negative.render()}')
        lines.append(f'kink reciprocal product == 1: {self.reciprocal_ok}')
        return lines


def verify_solution(family: CoefficientSystem) -> SolutionReport:
    """Substitute a solved family into every move's constraints.

    For nu = -1 the wen-flip move is expected to leave a nonzero residual;
    the report records the raw outcome and the expectation.
    """
    if not family.is_solved:
        raise ValueError('verify_solution needs a solved family')
    table = FamilyTable(family)
    checks = []
    kinks = {}
    for name in builtin_moves():
        cset = constraints_for(name)
        if name in ('r1a', 'r1b'):
            kinks[name] = _kink(cset.constraints[0].sides.lhs, table.sigma)
        residuals = []
        for c in cset.constraints:
            res = c.residual(family, table)
            if not res.is_zero():
                residuals.append(f'{c.tag}: {normalize_equation(res).render()}')
        n_eq = len(cset.deduplicated_equations()) if cset.constraints and \
            all(c.dw == 0 for c in cset.constraints) else len(cset.constraints)
        checks.append(MoveCheck(name, cset.n_closures, n_eq,
                                not residuals, residuals))
    kpos, kneg = kinks['r1a'], kinks['r1b']
    reciprocal = (kpos * kneg == DeltaFraction.from_int(1))
    return SolutionReport(family.describe(), checks, kpos, kneg, reciprocal,
                          t4_expected=(family.nu == 1))


def f1_branch_residuals(assignment: Mapping[str, Union[Polynomial, int]]) -> list[Polynomial]:
    """Residuals of the F1 closure equations under a coefficient branch."""
    cset = constraints_for('f1')
    out = []
    for c in cset.nontrivial():
        eq = c.generic_equation().substitute(assignment)
        if not eq.is_zero():
            out.append(eq)
    return out
