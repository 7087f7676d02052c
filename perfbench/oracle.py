"""Independent reference evaluator and readers for the program's output.

Nothing here imports weldskein.  The evaluator is a plain state sum: every
one of the 3^n smoothings of the classical crossings is resolved with its
own union-find, and Y is evaluated with exact fractions at fixed integer
points (a, b, r, s, nu).  The skein data are those of the paper's solved
family: positive crossing (a, b, nu*b), negative crossing (-a, b, nu*b)/delta
with delta = b^2 - a^2, loop value t = -2*nu, a virtualized smoothing or a
virtual crossing contributes r (mod 2), a wen contributes s (mod 2), and

    Y = r^(virtual crossings) * (a*r - nu*b)^(-writhe) * [L].

``python3 perfbench/oracle.py`` regenerates ``references.json``, the stored
oracle values for the 12-crossing pool of the eval-large workload.
"""
from __future__ import annotations

import itertools
import json
import random
import re
from fractions import Fraction
from math import gcd
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / 'references.json'

# Points (a, b, r, s) at which values are compared; nu is set per family.
# a, b avoid delta = 0 and are far from small coincidences.
POINTS = ((3, 7, 1, 1), (-5, 2, -1, 1), (4, -9, 1, -1), (11, 6, -1, -1))

# Family name -> the nu values its points take (symbolic nu: both).
FAMILY_NU = {'extended': (1,), 'nu1': (1,), 'nu-1': (-1,), 'sym': (1, -1)}


# -- the state sum ---------------------------------------------------------------


def histogram(rows):
    """Counts of states by (vp, ip, cp, vn, in, cn, loops) and fixed data.

    Virtual crossings and wens never change the loop structure, so their
    strands are joined once; each classical crossing then offers three
    pairings of its four edge classes.
    """
    parent = {}

    def root(e):
        while parent.setdefault(e, e) != e:
            e = parent[e]
        return e

    def join(e1, e2):
        r1, r2 = root(e1), root(e2)
        if r1 != r2:
            parent[r1] = r2

    crossings = [row for row in rows if row[0] in ('X+', 'X-')]
    for row in rows:
        if row[0] == 'V':
            join(row[1], row[2])
            join(row[3], row[4])
        elif row[0] == 'W':
            join(row[1], row[2])
    index = {}
    for row in crossings:
        for e in row[1:]:
            index.setdefault(root(e), len(index))
    fixed_loops = (len({root(e) for e in list(parent)} - set(index))
                   + sum(1 for row in rows if row[0] == 'loop'))
    # per crossing: (sign, ((u, v), (u, v)) for V, I, C)
    choices = []
    for sign, oi, oo, ui, uo in crossings:
        oi, oo, ui, uo = (index[root(e)] for e in (oi, oo, ui, uo))
        choices.append((sign == 'X+', (((oi, oo), (ui, uo)),
                                       ((oi, uo), (ui, oo)),
                                       ((oi, ui), (oo, uo)))))
    n_nodes = len(index)
    hist = {}
    for state in itertools.product(range(3), repeat=len(choices)):
        up = list(range(n_nodes))
        loops = n_nodes
        shape = [0] * 6
        for (positive, pairings), k in zip(choices, state):
            shape[k if positive else 3 + k] += 1
            for u, v in pairings[k]:
                while up[u] != u:
                    u = up[u]
                while up[v] != v:
                    v = up[v]
                if u != v:
                    up[u] = v
                    loops -= 1
        key = (*shape, loops + fixed_loops)
        hist[key] = hist.get(key, 0) + 1
    return hist


def diagram_data(rows):
    """Writhe, virtual crossings, wens and the state histogram."""
    writhe = sum(1 if row[0] == 'X+' else -1
                 for row in rows if row[0] in ('X+', 'X-'))
    n_virtual = sum(1 for row in rows if row[0] == 'V')
    n_wens = sum(1 for row in rows if row[0] == 'W')
    return writhe, n_virtual, n_wens, histogram(rows)


def y_value(data, a, b, r, s, nu):
    """Y of the solved family at one point, as an exact Fraction."""
    writhe, n_virtual, n_wens, hist = data
    a, b = Fraction(a), Fraction(b)
    delta = b * b - a * a
    pos = (a, b, nu * b)
    neg = (-a / delta, b / delta, nu * b / delta)
    t = -2 * nu
    total = Fraction(0)
    for (vp, ip, cp, vn, in_, cn, loops), count in hist.items():
        term = (pos[0] ** vp * pos[1] ** ip * pos[2] ** cp
                * neg[0] ** vn * neg[1] ** in_ * neg[2] ** cn * t ** loops)
        if (n_virtual + vp + vn) % 2:
            term *= r
        total += count * term
    if n_wens % 2:
        total *= s
    if n_virtual % 2:
        total *= r
    return total / (a * r - nu * b) ** writhe


def family_points(family):
    """(a, b, r, s, nu) tuples at which a family's values are compared."""
    return [(a, b, r, s, nu) for nu in FAMILY_NU[family]
            for a, b, r, s in POINTS]


def values(data, family):
    return [y_value(data, *p) for p in family_points(family)]


def self_check():
    """The evaluator against closed forms the method must satisfy.

    The unknot gives t = -2*nu, and for nu = 1 the solved family collapses
    to Y = (-2)^components * s^(wens mod 2).  Raises ValueError on a
    mismatch.
    """
    unknot = diagram_data([['loop']])
    for a, b, r, s, nu in family_points('sym'):
        if y_value(unknot, a, b, r, s, nu) != -2 * nu:
            raise ValueError('reference evaluator: unknot is not -2*nu')
    rng = random.Random(12345)
    for n in range(1, 6):
        for rows in (inputs.random_code(rng, n, n % 3, n % 2 + 1),
                     inputs.braid_closure(rng, 3, n + 1, 2, n % 2)):
            data = diagram_data(rows)
            comps = inputs.components(rows)
            for a, b, r, s, nu in family_points('extended'):
                want = (-2) ** comps * (s if data[2] % 2 else 1)
                if y_value(data, a, b, r, s, nu) != want:
                    raise ValueError('reference evaluator breaks the nu = 1 '
                                     'collapse on ' + repr(rows))


# -- reading the program's output --------------------------------------------------

_TOKEN = re.compile(r'\s*(?:(\d+)|([A-Za-z_]\w*)|(\S))')


def parse_expr(text):
    """Parse the CLI's rendered values into a small expression tree.

    Handles integers, names, + - * / ^, parentheses and negative
    exponents: the forms ``poly``, ``(poly) / (b^2 - a^2)^k`` and the
    alpha/beta and lambda Laurent polynomials with rational coefficients.
    """
    tokens = []
    pos = 0
    text = text.strip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            break
        num, name, sym = m.groups()
        tokens.append(('n', int(num)) if num else ('v', name) if name else
                      ('s', sym))
        pos = m.end()
    if text[pos:].strip():
        raise ValueError(f'cannot read {text!r}')
    tokens.append(('s', None))
    i = 0

    def peek():
        return tokens[i]

    def take():
        nonlocal i
        i += 1
        return tokens[i - 1]

    def expr():
        node = term()
        while peek() in (('s', '+'), ('s', '-')):
            op = take()[1]
            node = (op, node, term())
        return node

    def term():
        node = unary()
        while peek() in (('s', '*'), ('s', '/')):
            op = take()[1]
            node = (op, node, unary())
        return node

    def unary():
        if peek() == ('s', '-'):
            take()
            return ('neg', unary())
        return power()

    def power():
        node = atom()
        if peek() == ('s', '^'):
            take()
            sign = 1
            if peek() == ('s', '-'):
                take()
                sign = -1
            kind, n = take()
            if kind != 'n':
                raise ValueError(f'bad exponent in {text!r}')
            node = ('^', node, sign * n)
        return node

    def atom():
        kind, val = take()
        if kind == 'n':
            return ('const', val)
        if kind == 'v':
            return ('var', val)
        if val == '(':
            node = expr()
            if take() != ('s', ')'):
                raise ValueError(f'unbalanced parentheses in {text!r}')
            return node
        raise ValueError(f'unexpected {val!r} in {text!r}')

    tree = expr()
    if peek() != ('s', None):
        raise ValueError(f'trailing input in {text!r}')
    return tree


def evaluate(tree, env):
    """Exact value of an expression tree; ``env`` maps names to numbers."""
    op = tree[0]
    if op == 'const':
        return Fraction(tree[1])
    if op == 'var':
        return Fraction(env[tree[1]])
    if op == 'neg':
        return -evaluate(tree[1], env)
    if op == '^':
        return evaluate(tree[1], env) ** tree[2]
    x, y = evaluate(tree[1], env), evaluate(tree[2], env)
    if op == '+':
        return x + y
    if op == '-':
        return x - y
    return x * y if op == '*' else x / y


INVOLUTIVE = ('r', 'nu', 's')


def expand(tree):
    """Polynomial of an expression tree: {((name, exp), ...): coeff}.

    r, nu and s square to one, as in the program's coefficient ring.
    """
    op = tree[0]
    if op == 'const':
        return {(): tree[1]} if tree[1] else {}
    if op == 'var':
        return {((tree[1], 1),): 1}
    if op == 'neg':
        return {k: -c for k, c in expand(tree[1]).items()}
    if op == '^':
        out = {(): 1}
        base = expand(tree[1])
        for _ in range(tree[2]):
            out = _mul(out, base)
        return out
    x, y = expand(tree[1]), expand(tree[2])
    if op == '*':
        return _mul(x, y)
    if op in ('+', '-'):
        sign = 1 if op == '+' else -1
        out = dict(x)
        for k, c in y.items():
            out[k] = out.get(k, 0) + sign * c
        return {k: c for k, c in out.items() if c}
    raise ValueError('division in an equation')


def _mul(x, y):
    out = {}
    for kx, cx in x.items():
        for ky, cy in y.items():
            exps = dict(kx)
            for name, e in ky:
                exps[name] = exps.get(name, 0) + e
            key = tuple(sorted((n, e % 2 if n in INVOLUTIVE else e)
                               for n, e in exps.items()
                               if (e % 2 if n in INVOLUTIVE else e)))
            out[key] = out.get(key, 0) + cx * cy
    return {k: c for k, c in out.items() if c}


def normalize(poly):
    """Strip sign, integer content and common monomial factors."""
    if not poly:
        return frozenset()
    names = sorted({n for key in poly for n, _ in key})
    common = {n: min(dict(key).get(n, 0) for key in poly) for n in names}
    content = 0
    for c in poly.values():
        content = gcd(content, c)
    out = {}
    for key, c in poly.items():
        k = tuple((n, e - common[n]) for n, e in key if e - common[n])
        out[k] = c // content
    lead = max(out)
    if out[lead] < 0:
        out = {k: -c for k, c in out.items()}
    return frozenset(out.items())


def equation(text):
    return normalize(expand(parse_expr(text)))


# -- the stored eval-large references ------------------------------------------------


def write_references(pool):
    """Compute every pool diagram's oracle values and store them."""
    out = {'points': [list(p) for p in POINTS], 'diagrams': {}}
    for name, (rows, families) in pool.items():
        data = diagram_data(rows)
        out['diagrams'][name] = {
            'text': inputs.rows_to_text(rows),
            'values': {fam: [str(v) for v in values(data, fam)]
                       for fam in families}}
        print(f'{name}: {len(data[3])} histogram keys', flush=True)
    REFERENCES.write_text(json.dumps(out, indent=1, sort_keys=True) + '\n')


if __name__ == '__main__':
    import workloads
    self_check()
    write_references(workloads.large_pool())
