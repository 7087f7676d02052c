"""State-sum evaluation of the bracket and the normalized invariant Y.

Every classical crossing is resolved three ways: virtualized, smoothed
parallel to the orientations, or smoothed cup-cap.  A fully resolved state
is a disjoint union of circles carrying virtual crossings and wens, and
evaluates to

    coeff(state) * t^(#circles) * r^(#virtual crossings mod 2) * s^(#wens mod 2).

``state_sums`` sums this over all 3^n states: ``_kernel_inputs`` contracts
the strands through virtual crossings and wens into nodes, the state-sum
kernel (``statesum.smoothing_histogram``) counts the states by coefficient
shape, and the counts become one polynomial per way the states join a set
of boundary edges.  ``bracket`` is the closed case, with no boundary; the
verifier's ``tangle_bracket`` keeps the tangle endpoints open.
``state_value`` evaluates one state on its own, as the state's generic
monomial with the family's substitution applied, and serves as the oracle
for that path.  Y multiplies the bracket by r^(virtual writhe) and by the
inverse writhe power of omega = a*r - nu*b, whose inverse is
(-r*a - nu*b)/delta, in one product.

``linking_y`` gets the same Y with no state sum, from the number of
components and their pairwise linking numbers (docs/linking-numbers.md
proves it); ``eval`` uses it.  ``y_invariant`` stays the state sum, which
``check-invariance`` and the tests hold the moves and ``linking_y`` to.

Coefficient systems:

* generic       positive triple (a, b, c), negative (x, y, z), free t:
                polynomial output, no division anywhere.
* welded(nu)    the solved family of ``CoefficientSystem.substitution``;
                nu may stay symbolic or be +-1.
* extended      welded with nu = 1; the only solved mode that admits wens.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Optional, Sequence

from weldskein import statesum
from weldskein.algebra import DeltaFraction, Polynomial
from weldskein.diagram import (Diagram, check_valid, pass_through, strands,
                               virtual_writhe, writhe)

SMOOTHINGS = ('V', 'I', 'C')


class WenError(ValueError):
    """Wens are only invariant material for nu = 1 (extended mode)."""


@dataclass(frozen=True)
class CoefficientSystem:
    """The nine skein coefficients in generic or solved form."""

    kind: str                       # 'generic' | 'welded' | 'extended'
    nu: Optional[int] = None        # +-1, or None for symbolic (welded only)

    def __post_init__(self):
        if self.kind not in ('generic', 'welded', 'extended'):
            raise ValueError(f'unknown coefficient system kind {self.kind!r}')
        if self.kind == 'extended' and self.nu not in (None, 1):
            raise ValueError('extended mode forces nu = 1')
        if self.kind == 'extended':
            object.__setattr__(self, 'nu', 1)
        if self.kind == 'generic' and self.nu is not None:
            raise ValueError('generic mode carries no nu')
        if self.nu not in (None, 1, -1):
            raise ValueError('nu must be +-1 or symbolic (None)')

    # -- constructors --------------------------------------------------------

    @classmethod
    def generic(cls) -> 'CoefficientSystem':
        return cls('generic')

    @classmethod
    def welded(cls, nu: Optional[int] = None) -> 'CoefficientSystem':
        return cls('welded', nu)

    @classmethod
    def extended(cls) -> 'CoefficientSystem':
        return cls('extended', 1)

    # -- coefficient values ---------------------------------------------------

    @property
    def is_solved(self) -> bool:
        return self.kind != 'generic'

    def nu_poly(self) -> Polynomial:
        if self.nu is None:
            return Polynomial.var('nu')
        return Polynomial.const(self.nu)

    def substitution(self) -> dict[str, Polynomial]:
        """The solved family as images of the generic symbols; {} if generic.

        c = nu*b and t = -2*nu; the negative triple (x, y, z) is
        (-a, b, nu*b)/delta, given here by its numerators.
        """
        if not self.is_solved:
            return {}
        nu = self.nu_poly()
        a, b = Polynomial.var('a'), Polynomial.var('b')
        return {'c': nu * b, 't': nu * -2, 'x': -a, 'y': b, 'z': nu * b}

    def omega(self) -> Polynomial:
        """The kink unit a*r - nu*b (solved modes)."""
        if not self.is_solved:
            raise ValueError('omega is only defined for solved families')
        ar = Polynomial.var('a') * Polynomial.var('r')
        return ar - self.nu_poly() * Polynomial.var('b')

    def omega_inverse(self) -> DeltaFraction:
        """(-r*a - nu*b)/delta; the reciprocal of omega since r^2 = nu^2 = 1."""
        if not self.is_solved:
            raise ValueError('omega is only defined for solved families')
        ra = Polynomial.var('r') * Polynomial.var('a')
        num = -ra - self.nu_poly() * Polynomial.var('b')
        return DeltaFraction(num, 1)

    def describe(self) -> str:
        if self.kind == 'generic':
            return 'generic'
        if self.kind == 'extended':
            return 'extended (nu=1)'
        nu = 'symbolic' if self.nu is None else str(self.nu)
        return f'welded (nu={nu})'


@dataclass(frozen=True)
class State:
    """A total assignment of smoothings to the classical crossings."""

    assignment: tuple[str, ...]

    def __post_init__(self):
        for s in self.assignment:
            if s not in SMOOTHINGS:
                raise ValueError(f'unknown smoothing {s!r}')

    @classmethod
    def from_digits(cls, digits: Sequence[int]) -> 'State':
        return cls(tuple(SMOOTHINGS[d] for d in digits))


def _check_wens(d: Diagram, cs: CoefficientSystem) -> None:
    if d.wens and cs.kind == 'welded' and cs.nu != 1:
        raise WenError(
            'wens require nu = 1 (extended family); the nu = -1 welded family '
            'is not invariant under the wen-flip move')


# -- direct per-state evaluation (kept independent of the histogram kernel) --


def smoothing_pairs(c, smoothing: str):
    """Edge joins a smoothing induces at one classical crossing.

    'V' keeps the transversal strands, 'I' joins the strands parallel to
    their orientations, 'C' joins inputs together and outputs together.
    """
    if smoothing == 'V':
        return ((c.over_in, c.over_out), (c.under_in, c.under_out))
    if smoothing == 'I':
        return ((c.over_in, c.under_out), (c.under_in, c.over_out))
    return ((c.over_in, c.under_in), (c.over_out, c.under_out))


def state_loops(d: Diagram, s: State) -> int:
    """Closed components of the resolved state, including free loops."""
    uf = pass_through(d)
    for c, sm in zip(d.classical, s.assignment):
        for e1, e2 in smoothing_pairs(c, sm):
            uf.union(e1, e2)
    return len(uf.roots()) + d.free_loops


def state_value(d: Diagram, s: State, cs: CoefficientSystem) -> DeltaFraction:
    """Value of one smoothing state: coeff * t^loops * r^parity * s^wens.

    The state's generic monomial, with the solved family's
    ``CoefficientSystem.substitution`` applied and one delta restored per
    negative crossing.
    """
    if len(s.assignment) != len(d.classical):
        raise ValueError('state must assign a smoothing to every classical crossing')
    _check_wens(d, cs)
    powers = {'t': state_loops(d, s),
              'r': (len(d.virtual_x) + s.assignment.count('V')) % 2,
              's': len(d.wens) % 2}
    for c, sm in zip(d.classical, s.assignment):
        name = ('abc' if c.sign > 0 else 'xyz')[SMOOTHINGS.index(sm)]
        powers[name] = powers.get(name, 0) + 1
    value = Polynomial.monomial(1, **powers).substitute(cs.substitution())
    n_neg = sum(1 for c in d.classical if c.sign < 0)
    return DeltaFraction(value, n_neg if cs.is_solved else 0)


# -- state sums via the histogram kernel -------------------------------------


def _kernel_inputs(d: Diagram, boundary_edges: Sequence[str] = ()):
    """Contract virtual/wen incidences; map crossing slots to node ids.

    Returns (n_nodes, crossing_nodes, signs, constant_loops, boundary_nodes).
    Nodes are numbered in crossing-slot order, then the boundary edges that
    no crossing touches get theirs; ``boundary_nodes`` holds one node id per
    boundary edge.  ``constant_loops`` counts circles closed in every state:
    components that meet neither a classical crossing nor the boundary,
    plus free loops.
    """
    uf = pass_through(d)
    for e in d.edges():
        uf.find(e)
    node_of: dict[str, int] = {}

    def node(e: str) -> int:
        root = uf.find(e)
        if root not in node_of:
            node_of[root] = len(node_of)
        return node_of[root]

    crossing_nodes: list[int] = []
    signs: list[int] = []
    for c in d.classical:
        signs.append(c.sign)
        for e in (c.over_in, c.over_out, c.under_in, c.under_out):
            crossing_nodes.append(node(e))
    boundary_nodes = [node(e) for e in boundary_edges]
    constant_loops = len(uf.roots() - set(node_of)) + d.free_loops
    return len(node_of), crossing_nodes, signs, constant_loops, boundary_nodes


def state_sums(d: Diagram, cs: CoefficientSystem,
               boundary_edges: Sequence[str] = ()) -> tuple[dict[tuple, Polynomial], int]:
    """The state sum, one polynomial per way the states join the boundary.

    Every state adds coeff(state) * t^loops * r^parity * s^wen_parity to the
    entry of the partition it induces on ``boundary_edges``, keyed as
    ``statesum.smoothing_histogram`` reports it; a closed diagram has the
    single key ().  Strands that end on the boundary are not loops.

    Returns the entries and the number of negative crossings.  Solved
    families are written out by hand here, as the fast path: c = nu*b,
    t = -2nu and the negative triple's numerators (-a, b, nu*b); the caller
    keeps the delta^n_neg.  Tests hold this against ``state_value``, which
    reads ``CoefficientSystem.substitution``.
    """
    n_nodes, crossing_nodes, signs, const_loops, boundary_nodes = \
        _kernel_inputs(d, boundary_edges)
    hist = statesum.smoothing_histogram(n_nodes, crossing_nodes, signs,
                                        boundary_nodes)
    n_neg = signs.count(-1)
    n_pos = len(signs) - n_neg
    v_d = len(d.virtual_x)
    wen_parity = len(d.wens) % 2
    grouped: dict[tuple, dict[tuple[int, ...], int]] = {}
    for key, count in hist.items():
        vp, ip, vn, inn, loops = key[:5]
        loops += const_loops
        cp = n_pos - vp - ip
        cn = n_neg - vn - inn
        parity = (v_d + vp + vn) % 2
        # exponent slots in algebra.NAMES order: a b c x y z t r nu s
        if not cs.is_solved:
            exp = (vp, ip, cp, vn, inn, cn, loops, parity, 0, wen_parity)
        else:
            nu_bit = (cp + cn + loops) % 2      # nu^2 = 1
            count *= (-1) ** vn * (-2) ** loops
            if cs.nu is not None:
                count *= cs.nu ** nu_bit
            exp = (vp + vn, ip + cp + inn + cn, 0, 0, 0, 0, 0, parity,
                   nu_bit if cs.nu is None else 0, wen_parity)
        terms = grouped.setdefault(key[5] if boundary_edges else (), {})
        terms[exp] = terms.get(exp, 0) + count
    return {k: Polynomial(terms) for k, terms in grouped.items()}, n_neg


def bracket(d: Diagram, cs: CoefficientSystem, *,
            check_wens: bool = True) -> DeltaFraction:
    """The unnormalized state sum over all 3^n smoothing states."""
    check_valid(d)
    if check_wens:
        _check_wens(d, cs)
    sums, n_neg = state_sums(d, cs)
    return DeltaFraction(sums[()], n_neg if cs.is_solved else 0)


def y_invariant(d: Diagram, cs: CoefficientSystem, *,
                check_wens: bool = True) -> DeltaFraction:
    """r^v(L) * omega^(-w(L)) * bracket(L) for a solved coefficient family."""
    if not cs.is_solved:
        raise ValueError('the normalized invariant needs a solved family')
    value = bracket(d, cs, check_wens=check_wens)
    w = writhe(d)
    unit = cs.omega_inverse().num ** w if w >= 0 else cs.omega() ** -w
    if virtual_writhe(d)[1]:
        unit = unit * Polynomial.var('r')
    # one canonicalization of the product: omega^-1 = (-r*a - nu*b)/delta
    return DeltaFraction(value.num * unit, value.delta_power + max(w, 0))


def _cut_histogram(linked: dict[int, dict[int, int]]) -> dict[int, int]:
    """Count the spin patterns of the linked components by cut exponent.

    ``linked`` maps each component index to its neighbours and their
    nonzero L_ij.  A pattern puts each component on side 0 or 1, and its exponent is
    the sum of L_ij over the pairs on opposite sides.  One sweep, as the
    kernel's: the layer holds one {exponent: count} histogram per spin
    pattern of the frontier, one bit per frontier component, and a
    component leaves the frontier after its last neighbour, so the work is
    2^(peak frontier width) per component.  The order is greedy and
    deterministic: next is the component with the most neighbours already
    met, then the one met most recently, so that a branch is finished
    before the next begins, then the one with the fewest neighbours, and
    last the lowest index.  Without the middle two keys a tree's frontier
    can hold every branch point at once.
    """
    # key: neighbours met, the step of the latest one, fewest neighbours
    key = {v: (0, -1, -len(nbrs)) for v, nbrs in linked.items()}
    todo = sorted(linked)
    order = []
    while todo:
        v = max(todo, key=key.__getitem__)      # first maximum: lowest index
        todo.remove(v)
        for u in linked[v]:
            met, _, fewest = key[u]
            key[u] = (met + 1, len(order), fewest)
        order.append(v)
    step_of = {v: step for step, v in enumerate(order)}
    leaving: dict[int, list[int]] = {}
    for v, step in step_of.items():
        gone = max(step, *(step_of[u] for u in linked[v]))
        leaving.setdefault(gone, []).append(v)

    layer: dict[int, dict[int, int]] = {0: {0: 1}}
    bit_of: dict[int, int] = {}
    for step, v in enumerate(order):
        if bit_of:
            spins: tuple[int, ...] = (0, 1)
        else:
            # v starts a new part: z and -z cut alike, so v stays on side 0
            # and every cut counts twice
            layer = {0: {e: 2 * n for e, n in layer[0].items()}}
            spins = (0,)
        bit = min(set(range(len(bit_of) + 1)) - set(bit_of.values()))
        edges = [(bit_of[u], l) for u, l in linked[v].items() if u in bit_of]
        total = sum(l for _, l in edges)
        grown: dict[int, dict[int, int]] = {}
        for pattern, hist in layer.items():
            cut = sum(l for b, l in edges if pattern >> b & 1)
            for spin in spins:
                shift = total - cut if spin else cut
                grown[pattern | spin << bit] = {e + shift: n
                                                for e, n in hist.items()}
        bit_of[v] = bit
        layer = grown
        if step in leaving:
            keep = ~sum(1 << bit_of.pop(u) for u in leaving[step])
            layer = {}
            for pattern, hist in grown.items():
                merged = layer.setdefault(pattern & keep, {})
                for e, n in hist.items():
                    merged[e] = merged.get(e, 0) + n
    return layer[0]


def linking_y(d: Diagram, cs: CoefficientSystem) -> DeltaFraction:
    """Y from the components and their linking numbers; equals ``y_invariant``.

    With c components (free loops included) and L_ij the sum of the signs
    of the classical crossings between components i and j:
    nu = 1 gives (-2)^c * s^(wens mod 2); nu = -1 gives the sum, over the
    2^c ways z of cutting the components in two, of
    rho^(sum of L_ij over the cut pairs), where rho = -(a*r - b)^2/delta
    and 1/rho = -(a*r + b)^2/delta; symbolic nu gives the A + nu*B that
    takes those two values.  docs/linking-numbers.md has the proof.
    ``_cut_histogram`` counts the cuts in one sweep over the graph of
    nonzero L_ij, whose cost is 2^(peak frontier width) per component, and
    the numerator over delta^top is built as one list of integers, with no
    polynomial product or power.
    """
    if not cs.is_solved:
        raise ValueError('the normalized invariant needs a solved family')
    check_valid(d)
    _check_wens(d, cs)
    component = strands(d)
    n_comp = len(set(component.values())) + d.free_loops
    if cs.nu == 1:
        return DeltaFraction(Polynomial.monomial((-2) ** n_comp,
                                                 s=len(d.wens) % 2))
    pairs: dict[tuple[int, int], int] = {}
    for c in d.classical:
        i, j = component[c.over_in], component[c.under_in]
        if i != j:
            pair = (i, j) if i < j else (j, i)
            pairs[pair] = pairs.get(pair, 0) + c.sign
    linked: dict[int, dict[int, int]] = {}
    for (i, j), l in pairs.items():
        if l:
            linked.setdefault(i, {})[j] = l
            linked.setdefault(j, {})[i] = l
    # a component that links no other one adds a factor 2
    hist = {e: n << n_comp - len(linked)
            for e, n in _cut_histogram(linked).items()}
    # One numerator over delta^top, the sum over k of Q_k * delta^(top - k)
    # with Q_k = count_k * up^k + count_-k * down^k, where rho * delta is
    # up = -(a*r - b)^2 and delta / rho is down = -(a*r + b)^2.  Every term
    # is a^i * b^(2*top - i) * r^(i mod 2), so num[i] is its coefficient:
    # up^k has (-1)^(k+i) C(2k, i) and down^k has (-1)^k C(2k, i).  Horner
    # in delta: each step multiplies by b^2 - a^2 and adds the next Q_k.
    top = max(map(abs, hist))
    num = [hist.get(0, 0)]
    for k in range(1, top + 1):
        num = [x - y for x, y in zip(num + [0, 0], [0, 0] + num)]   # * delta
        up, down = hist.get(k, 0), hist.get(-k, 0)
        if up or down:
            for i in range(2 * k + 1):
                num[i] += ((-1) ** k * comb(2 * k, i)
                           * (down - up if i % 2 else down + up))

    def term(i: int, nu: int) -> tuple[int, ...]:
        # exponent slots in algebra.NAMES order: a b c x y z t r nu s
        return (i, 2 * top - i, 0, 0, 0, 0, 0, i % 2, nu, 0)

    if cs.nu == -1:
        return DeltaFraction(Polynomial({term(i, 0): x
                                         for i, x in enumerate(num)}), top)
    # nu^2 = 1, so Y = A + nu*B with A + B = Y(1) and A - B = Y(-1).  Y(1)
    # over delta^top is (-2)^c * delta^top, which has (-2)^c (-1)^j C(top, j)
    # at i = 2j.  The difference halves exactly: with c > 0, (-2)^c and
    # every count above are even, and with c = 0 both values are 1.
    terms = {}
    for i, x in enumerate(num):
        j = i // 2
        plus = 0 if i % 2 else (-2) ** n_comp * (-1) ** j * comb(top, j)
        half = (plus - x) // 2
        terms[term(i, 0)] = x + half
        terms[term(i, 1)] = half
    return DeltaFraction(Polynomial(terms), top)
