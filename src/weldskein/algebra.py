"""Exact arithmetic for the skein coefficient ring.

Values live in the one fixed ring Z[a,b,c,x,y,z,t][r,nu,s] with
r^2 = nu^2 = s^2 = 1, extended by denominators that are powers of
delta = b^2 - a^2.  All arithmetic is exact; polynomials are kept in
canonical form (no zero coefficients), so structural equality coincides with
mathematical equality, and a constant hashes like the integer it equals.

An exponent vector has one slot per name in ``NAMES``: the ordinary symbols
carry natural-number exponents, the involutive symbols (r, nu, s) only
exponent 0 or 1; multiplication reduces involutive exponents modulo 2.

:class:`Polynomial` is the one class that does arithmetic; it combines with
ints and with other polynomials, and :class:`DeltaFraction` adds the
delta-power denominators.  A change of variables alpha = b + a,
beta = b - a turns a delta-power fraction into a Laurent polynomial with
dyadic rational coefficients (:func:`to_alpha_beta`).  That
:class:`LaurentPoly` is an output form: it is compared, rendered and
dehomogenized (:meth:`LaurentPoly.dehomogenize`), never computed with.
"""
from __future__ import annotations

import re
from fractions import Fraction as QQ
from operator import add, xor
from typing import Iterable, Mapping, Optional, Union

ORDINARY_NAMES = ('a', 'b', 'c', 'x', 'y', 'z', 't')
INVOLUTIVE_NAMES = ('r', 'nu', 's')
#: The exponent-vector slots of a :class:`Polynomial`, in order.
NAMES = ORDINARY_NAMES + INVOLUTIVE_NAMES
_N_ORD, _WIDTH = len(ORDINARY_NAMES), len(NAMES)


class SubstitutionError(ValueError):
    """Raised for substitutions that leave the representable ring."""


def _mul_terms(t1, t2, out=None):
    """Product of two term maps, added into ``out`` (a new dict if None).

    The ordinary exponent slots add; the involutive slots after them add
    modulo 2.  Zero coefficients may remain in the result.  This is the one
    place where exponent vectors are multiplied.
    """
    terms = {} if out is None else out
    split = [(e2[:_N_ORD], e2[_N_ORD:], c2) for e2, c2 in t2.items()]
    for e1, c1 in t1.items():
        o1, i1 = e1[:_N_ORD], e1[_N_ORD:]
        for o2, i2, c2 in split:
            exp = tuple(map(add, o1, o2)) + tuple(map(xor, i1, i2))
            terms[exp] = terms.get(exp, 0) + c1 * c2
    return terms


def _render(terms, names) -> str:
    """Canonical text form of a term map: sorted monomials, explicit ^ and *."""
    if not terms:
        return '0'
    parts = []
    for exp in sorted(terms, reverse=True):
        coeff = terms[exp]
        factors = [name if e == 1 else f'{name}^{e}'
                   for name, e in zip(names, exp) if e]
        mag = abs(coeff)
        head = [] if mag == 1 and factors else [str(mag)]
        parts.append(('- ' if coeff < 0 else '+ ') + '*'.join(head + factors))
    text = ' '.join(parts)
    return text[2:] if text.startswith('+ ') else '-' + text[2:]


class Polynomial:
    """Multivariate polynomial with integer coefficients.

    Terms are stored as a map from exponent vectors (one slot per name in
    ``NAMES``, involutive slots restricted to 0/1) to nonzero
    arbitrary-precision integers.  Arithmetic takes polynomials and ints
    and returns NotImplemented for anything else, so a
    :class:`DeltaFraction` operand is handled by the fraction.
    """

    __slots__ = ('_terms', '_hash')

    def __init__(self, terms: Mapping[tuple[int, ...], int]):
        # one pass: check each nonzero term and add it in
        clean: dict[tuple[int, ...], int] = {}
        for exp, coeff in terms.items():
            if coeff == 0:
                continue
            if len(exp) != _WIDTH:
                raise ValueError(f'exponent vector {exp} has wrong length for {NAMES}')
            if min(exp) < 0:
                raise ValueError(f'negative exponent in {exp}')
            if max(exp[_N_ORD:]) > 1:
                raise ValueError(f'involutive exponent above 1 in {exp}')
            exp = tuple(exp)
            if exp in clean:    # keys that differ only in sequence type
                coeff += clean.pop(exp)
                if coeff == 0:
                    continue
            clean[exp] = coeff
        self._terms = clean
        self._hash = None

    @classmethod
    def _new(cls, terms) -> 'Polynomial':
        """A polynomial from terms that are valid by construction.

        Results of arithmetic on valid values skip the per-term checks of
        the public constructor; only zero coefficients are dropped.
        """
        value = object.__new__(cls)
        value._terms = {e: c for e, c in terms.items() if c}
        value._hash = None
        return value

    @classmethod
    def _operand(cls, other) -> Optional['Polynomial']:
        """``other`` as a polynomial, or None if it is not an int or one."""
        if isinstance(other, int):
            return cls._new({(0,) * _WIDTH: other})
        return other if isinstance(other, Polynomial) else None

    def __bool__(self) -> bool:
        return bool(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> dict:
        """Copy of the term map (exponent vector -> coefficient)."""
        return dict(self._terms)

    def __eq__(self, other) -> bool:
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        if self._hash is None:
            terms = self._terms
            if len(terms) <= 1 and not any(next(iter(terms), ())):
                # a constant, zero included: hash like the number it equals
                self._hash = hash(next(iter(terms.values()), 0))
            else:
                self._hash = hash(frozenset(terms.items()))
        return self._hash

    def __add__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        terms = dict(self._terms)
        for exp, c in other._terms.items():
            terms[exp] = terms.get(exp, 0) + c
        return self._new(terms)

    __radd__ = __add__

    def __neg__(self):
        return self._new({e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return self._new({e: c * other for e, c in self._terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._new(_mul_terms(self._terms, other._terms))

    __rmul__ = __mul__

    def render(self) -> str:
        """Canonical text form: sorted monomials, explicit ^ and *."""
        return _render(self._terms, NAMES)

    __str__ = render

    def __repr__(self):
        return f'Polynomial({self.render()})'

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> 'Polynomial':
        return cls({})

    @classmethod
    def const(cls, n: int) -> 'Polynomial':
        return cls({(0,) * _WIDTH: int(n)})

    @classmethod
    def one(cls) -> 'Polynomial':
        return cls.const(1)

    @classmethod
    def var(cls, name: str) -> 'Polynomial':
        return cls.monomial(1, **{name: 1})

    @classmethod
    def monomial(cls, coeff: int, **powers: int) -> 'Polynomial':
        exp = [0] * _WIDTH
        for name, e in powers.items():
            exp[NAMES.index(name)] = e
        return cls({tuple(exp): coeff})

    @classmethod
    def sum_of(cls, values: Iterable['Polynomial']) -> 'Polynomial':
        """The sum of the values, accumulated in one term map."""
        terms: dict = {}
        get = terms.get
        for value in values:
            for exp, c in value._terms.items():
                terms[exp] = get(exp, 0) + c
        return cls._new(terms)

    @classmethod
    def sum_of_products(cls, pairs: Iterable[tuple['Polynomial', 'Polynomial']]) -> 'Polynomial':
        """The sum of p * q over the pairs, accumulated in one term map."""
        terms: dict = {}
        for p, q in pairs:
            _mul_terms(p._terms, q._terms, terms)
        return cls._new(terms)

    def __pow__(self, n: int) -> 'Polynomial':
        if n < 0:
            raise ValueError('negative polynomial power')
        result = None
        base = self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return self._new({(0,) * _WIDTH: 1}) if result is None else result

    # -- structure queries --------------------------------------------------

    def uses(self, name: str) -> bool:
        i = NAMES.index(name)
        return any(e[i] for e in self._terms)

    def constant_value(self) -> int:
        """The integer value of a constant polynomial."""
        if not self._terms:
            return 0
        [(exp, c)] = self._terms.items()
        if any(exp):
            raise ValueError(f'{self} is not constant')
        return c

    def content_and_sign(self) -> int:
        """gcd of coefficients, carrying the sign of the leading term."""
        from math import gcd
        g = 0
        for c in self._terms.values():
            g = gcd(g, abs(c))
        if g == 0:
            return 1
        lead = self._terms[max(self._terms)]
        return g if lead > 0 else -g

    def substitute(self, assignment: Mapping[str, Union['Polynomial', int]]) -> 'Polynomial':
        """Exact substitution of symbols by polynomials or integers.

        Involutive symbols may only be replaced by +1 or -1.  This is a ring
        homomorphism applied to the raw term map: each image power is formed
        once, each term's image is its coefficient and kept symbols times
        those powers, and all terms add into one map.
        """
        values: dict[int, Polynomial] = {}
        for name, val in assignment.items():
            if name not in NAMES:
                raise SubstitutionError(f'unknown symbol {name!r}; the symbols are {NAMES}')
            involutive = name in INVOLUTIVE_NAMES
            if isinstance(val, int):
                if involutive and val not in (1, -1):
                    raise SubstitutionError(f'involutive symbol {name} assigned {val}, need +-1')
                val = Polynomial.const(val)
            elif involutive:
                raise SubstitutionError(f'involutive symbol {name} needs a +-1 value')
            values[NAMES.index(name)] = val
        slots = sorted(values)
        powers: dict[tuple[int, int], dict] = {}
        out: dict = {}
        for exp, coeff in self._terms.items():
            kept = list(exp)
            factors = []
            for i in slots:
                e = exp[i]
                if e:
                    kept[i] = 0
                    if (i, e) not in powers:
                        powers[i, e] = (values[i] ** e)._terms
                    factors.append(powers[i, e])
            kept = tuple(kept)
            if not factors:
                out[kept] = out.get(kept, 0) + coeff
                continue
            image = {kept: coeff}
            for power in factors[:-1]:
                image = _mul_terms(image, power)
            _mul_terms(image, factors[-1], out)
        return self._new(out)


def delta() -> Polynomial:
    """The distinguished denominator b^2 - a^2."""
    return Polynomial.monomial(1, b=2) - Polynomial.monomial(1, a=2)


def divide_by_delta(p: Polynomial) -> Optional[Polynomial]:
    """Exact quotient p / (b^2 - a^2), or None when delta does not divide p.

    Works by long division in b: delta is monic of degree 2 in b, so
    b^k = b^(k-2) * delta + a^2 * b^(k-2) for k >= 2.
    """
    ib = NAMES.index('b')
    ia = NAMES.index('a')
    buckets: dict[int, dict[tuple[int, ...], int]] = {}
    for exp, c in p.terms().items():
        buckets.setdefault(exp[ib], {})[exp] = c
    quotient: dict[tuple[int, ...], int] = {}
    # walk every b-degree downward; reduction at k feeds the k-2 bucket
    for k in range(max(buckets, default=0), 1, -1):
        for exp, c in list(buckets.get(k, {}).items()):
            if c == 0:
                continue
            qexp = list(exp)
            qexp[ib] = k - 2
            qexp = tuple(qexp)
            quotient[qexp] = quotient.get(qexp, 0) + c
            rexp = list(qexp)
            rexp[ia] += 2
            rexp = tuple(rexp)
            lower = buckets.setdefault(k - 2, {})
            lower[rexp] = lower.get(rexp, 0) + c
    for k in (0, 1):
        if any(c != 0 for c in buckets.get(k, {}).values()):
            return None
    return p._new(quotient)


class DeltaFraction:
    """A polynomial divided by a power of delta = b^2 - a^2.

    Canonical form: delta does not divide the numerator unless the power is
    zero.  Equality of canonical forms is structural.
    """

    __slots__ = ('num', 'delta_power')

    def __init__(self, num: Polynomial, delta_power: int = 0):
        if delta_power < 0:
            raise ValueError('delta power must be a natural number')
        if num.is_zero():
            delta_power = 0
        else:
            while delta_power > 0:
                q = divide_by_delta(num)
                if q is None:
                    break
                num = q
                delta_power -= 1
        self.num = num
        self.delta_power = delta_power

    @classmethod
    def from_int(cls, n: int) -> 'DeltaFraction':
        return cls(Polynomial.const(n))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def _lift(self, other) -> Optional['DeltaFraction']:
        """An int, Polynomial or DeltaFraction operand as a fraction."""
        if isinstance(other, int):
            return DeltaFraction.from_int(other)
        if isinstance(other, Polynomial):
            return DeltaFraction(other)
        return other if isinstance(other, DeltaFraction) else None

    def __eq__(self, other) -> bool:
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.delta_power == other.delta_power

    def __hash__(self):
        # without a denominator the fraction equals, so hashes like, its numerator
        if self.delta_power == 0:
            return hash(self.num)
        return hash((self.num, self.delta_power))

    def __add__(self, other) -> 'DeltaFraction':
        other = self._lift(other)
        if other is None:
            return NotImplemented
        k = max(self.delta_power, other.delta_power)
        d = delta()
        num = (self.num * d ** (k - self.delta_power)
               + other.num * d ** (k - other.delta_power))
        return DeltaFraction(num, k)

    __radd__ = __add__

    def __neg__(self) -> 'DeltaFraction':
        return DeltaFraction(-self.num, self.delta_power)

    def __sub__(self, other) -> 'DeltaFraction':
        return self + (-other)

    def __mul__(self, other) -> 'DeltaFraction':
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return DeltaFraction(self.num * other.num,
                             self.delta_power + other.delta_power)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> 'DeltaFraction':
        if n < 0:
            raise ValueError('negative fraction power; invert explicitly')
        return DeltaFraction(self.num ** n, self.delta_power * n)

    def substitute(self, assignment: Mapping[str, Union[Polynomial, int]]) -> 'DeltaFraction':
        """Substitute into the numerator, then re-canonicalize.

        Substituting for a or b would change the meaning of the delta-power
        denominator, so it is refused unless the power is zero or the
        numerator vanishes under the substitution.
        """
        new_num = self.num.substitute(assignment)
        if self.delta_power > 0 and not new_num.is_zero():
            touched = {n for n in assignment if n in ('a', 'b')}
            if touched:
                raise SubstitutionError(
                    f'cannot substitute {sorted(touched)} under a delta denominator')
        return DeltaFraction(new_num, self.delta_power)

    def render(self) -> str:
        num = self.num.render()
        if self.delta_power == 0:
            return num
        denom = '(b^2 - a^2)' if self.delta_power == 1 else f'(b^2 - a^2)^{self.delta_power}'
        if len(self.num._terms) > 1:
            num = f'({num})'
        return f'{num} / {denom}'

    __str__ = render

    def __repr__(self):
        return f'DeltaFraction({self.render()})'


# -- alpha/beta Laurent polynomials -----------------------------------------


class LaurentPoly:
    """Laurent polynomial with rational coefficients, as an output form.

    Ordinary variables take arbitrary integer exponents; the involutive
    variables r and s tag along with exponents 0/1.  ``variables`` is the
    tuple of ordinary variable names: ('alpha', 'beta') or ('lambda',).
    It does no arithmetic: mixing it with a :class:`Polynomial` raises
    TypeError.
    """

    __slots__ = ('variables', '_terms')

    INVOLUTIVE = ('r', 's')

    def __init__(self, variables: tuple[str, ...],
                 terms: Mapping[tuple[int, ...], QQ]):
        self.variables = tuple(variables)
        nvars = len(self.variables) + 2
        clean: dict[tuple[int, ...], QQ] = {}
        for exp, coeff in terms.items():
            coeff = QQ(coeff)
            if coeff == 0:
                continue
            if len(exp) != nvars:
                raise ValueError('exponent vector has wrong length')
            if any(e not in (0, 1) for e in exp[len(self.variables):]):
                raise ValueError('involutive exponent above 1')
            clean[tuple(exp)] = clean.get(tuple(exp), QQ(0)) + coeff
        self._terms = {e: c for e, c in clean.items() if c != 0}

    @classmethod
    def const(cls, value, variables=('alpha', 'beta')) -> 'LaurentPoly':
        return cls(variables, {(0,) * (len(variables) + 2): QQ(value)})

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.variables == other.variables and self._terms == other._terms

    def terms(self) -> dict:
        """Copy of the term map (exponent vector -> coefficient)."""
        return dict(self._terms)

    def render(self) -> str:
        """Canonical text form: sorted monomials, explicit ^ and *."""
        return _render(self._terms, self.variables + self.INVOLUTIVE)

    __str__ = render

    def __repr__(self):
        return f'LaurentPoly({self.render()})'

    def homogeneous_degree(self) -> Optional[int]:
        """Common total degree in the ordinary variables, or None."""
        k = len(self.variables)
        degs = {sum(e[:k]) for e in self._terms}
        if not degs:
            return 0
        return degs.pop() if len(degs) == 1 else None

    def dehomogenize(self) -> 'LaurentPoly':
        """Substitute beta := 1 (lambda := alpha/beta); needs degree 0."""
        if self.variables != ('alpha', 'beta'):
            raise ValueError('dehomogenize expects an alpha/beta Laurent polynomial')
        if self.homogeneous_degree() != 0:
            raise ValueError(f'not homogeneous of degree 0: {self.render()}')
        terms = {}
        for (ea, eb, er, es), c in self._terms.items():
            key = (ea, er, es)
            terms[key] = terms.get(key, QQ(0)) + c
        return LaurentPoly(('lambda',), terms)


def to_alpha_beta(f: DeltaFraction) -> LaurentPoly:
    """Apply a = (alpha - beta)/2, b = (alpha + beta)/2 to a delta fraction.

    delta = b^2 - a^2 factors as alpha * beta, so the delta-power denominator
    becomes a monomial and the result is an honest Laurent polynomial.  The
    symbol nu must already be specialized; r and s are carried along.
    """
    for name in ('c', 'x', 'y', 'z', 't', 'nu'):
        if f.num.uses(name):
            raise SubstitutionError(f'cannot map {name} into the alpha/beta ring')
    ia, ib, ir, is_ = (NAMES.index(n) for n in ('a', 'b', 'r', 's'))
    half = QQ(1, 2)
    # alpha/beta exponent pair for a^i b^j via binomial expansion
    out: dict[tuple[int, int, int, int], QQ] = {}
    k = f.delta_power
    for exp, coeff in f.num.terms().items():
        i, j, er, es = exp[ia], exp[ib], exp[ir], exp[is_]
        # (alpha-beta)^i (alpha+beta)^j / 2^(i+j)
        poly: dict[tuple[int, int], QQ] = {(0, 0): QQ(coeff) * half ** (i + j)}
        for sign, reps in ((-1, i), (1, j)):
            for _ in range(reps):
                nxt: dict[tuple[int, int], QQ] = {}
                for (ea, eb), c in poly.items():
                    nxt[(ea + 1, eb)] = nxt.get((ea + 1, eb), QQ(0)) + c
                    nxt[(ea, eb + 1)] = nxt.get((ea, eb + 1), QQ(0)) + sign * c
                poly = nxt
        for (ea, eb), c in poly.items():
            key = (ea - k, eb - k, er, es)
            out[key] = out.get(key, QQ(0)) + c
    return LaurentPoly(('alpha', 'beta'), out)


# -- parsing -----------------------------------------------------------------

_TOKEN = re.compile(r'\s*(?:(\d+)|([a-zA-Z_][a-zA-Z_0-9]*)|([()^*+-])|(/))')


class PolyParseError(ValueError):
    pass


class _Parser:
    def __init__(self, text: str):
        self.tokens = []
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if not m or m.end() == pos:
                if text[pos:].strip():
                    raise PolyParseError(f'bad character at {pos}: {text[pos:pos+10]!r}')
                break
            self.tokens.append(m.group(m.lastindex))
            pos = m.end()
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect(self, tok):
        got = self.next()
        if got != tok:
            raise PolyParseError(f'expected {tok!r}, got {got!r}')

    def parse_expr(self) -> Polynomial:
        sign = 1
        while self.peek() in ('+', '-'):
            if self.next() == '-':
                sign = -sign
        total = self.parse_term() * sign
        while self.peek() in ('+', '-'):
            sign = 1
            while self.peek() in ('+', '-'):
                if self.next() == '-':
                    sign = -sign
            total = total + self.parse_term() * sign
        return total

    def parse_term(self) -> Polynomial:
        p = self.parse_factor()
        while self.peek() == '*':
            self.next()
            p = p * self.parse_factor()
        return p

    def parse_factor(self) -> Polynomial:
        tok = self.next()
        if tok is None:
            raise PolyParseError('unexpected end of input')
        if tok == '(':
            p = self.parse_expr()
            self.expect(')')
        elif tok.isdigit():
            p = Polynomial.const(int(tok))
        elif tok in NAMES:
            p = Polynomial.var(tok)
        else:
            raise PolyParseError(f'unknown symbol {tok!r}')
        if self.peek() == '^':
            self.next()
            e = self.next()
            if e is None or not e.isdigit():
                raise PolyParseError('exponent must be a natural number')
            p = p ** int(e)
        return p


def parse_polynomial(text: str) -> Polynomial:
    """Parse the canonical rendering back into a polynomial."""
    parser = _Parser(text)
    p = parser.parse_expr()
    if parser.peek() is not None:
        raise PolyParseError(f'trailing input {parser.tokens[parser.i:]!r}')
    return p


def parse_fraction(text: str) -> DeltaFraction:
    """Parse ``poly`` or ``poly / (b^2 - a^2)^k`` into a fraction."""
    if '/' not in text:
        return DeltaFraction(parse_polynomial(text))
    num_text, denom_text = text.split('/', 1)
    denom_text = denom_text.strip()
    m = re.fullmatch(r'\(\s*b\s*\^\s*2\s*-\s*a\s*\^\s*2\s*\)(?:\s*\^\s*(\d+))?', denom_text)
    if not m:
        raise PolyParseError(f'denominator must be a power of (b^2 - a^2): {denom_text!r}')
    power = int(m.group(1) or 1)
    return DeltaFraction(parse_polynomial(num_text), power)
