"""Seeded generators for the benchmark's diagram files.

Everything here is independent of the weldskein package: diagrams are
built as lists of text rows (``['X+', o_in, o_out, u_in, u_out]``,
``['V', a_in, a_out, b_in, b_out]``, ``['W', w_in, w_out]``, ``['loop']``)
and handed to the program only as files.

Two shapes are generated:

* braid closures: a random word in classical letters (sigma_i^+-1) and
  virtual letters (tau_i) on a few strands, closed up.  Few strands means a
  narrow frontier: a sweep over the crossings keeps few open nodes.
* abstract codes: crossings whose out slots are wired to in slots by a
  uniformly random bijection.  Their frontier is wide.

Wens are inserted on edges (``W e m`` with ``m`` fresh), so a ``W e e``
row, which the parser rejects, never arises.
"""
from __future__ import annotations

import random

Row = list


def rows_to_text(rows: list[Row]) -> str:
    return ''.join(' '.join(row) + '\n' for row in rows)


def text_to_rows(text: str) -> list[Row]:
    return [line.split() for line in text.splitlines() if line.strip()]


def _in_slots(row: Row) -> tuple[int, ...]:
    """Positions of the in-edges of a row."""
    return {'W': (1,), 'loop': ()}.get(row[0], (1, 3))


def _out_slots(row: Row) -> tuple[int, ...]:
    return {'W': (2,), 'loop': ()}.get(row[0], (2, 4))


def strand_pairs(row: Row) -> tuple[tuple[str, str], ...]:
    """(in, out) edge pairs joined along the strands through a vertex."""
    if row[0] == 'W':
        return ((row[1], row[2]),)
    if row[0] == 'loop':
        return ()
    return ((row[1], row[2]), (row[3], row[4]))


def components(rows: list[Row]) -> int:
    """Link components: strands traced through every vertex, plus loops."""
    parent: dict[str, str] = {}

    def root(e):
        while parent.setdefault(e, e) != e:
            e = parent[e]
        return e

    for row in rows:
        for e_in, e_out in strand_pairs(row):
            r1, r2 = root(e_in), root(e_out)
            if r1 != r2:
                parent[r1] = r2
    loops = sum(1 for row in rows if row[0] == 'loop')
    return len({root(e) for e in parent}) + loops


class _Names:
    def __init__(self):
        self.n = 0

    def __call__(self) -> str:
        self.n += 1
        return f'e{self.n}'


def insert_wen(rows: list[Row], edge: str, fresh) -> None:
    """Put a wen on ``edge``: its consumer now reads a fresh edge."""
    new = fresh()
    for row in rows:
        ins = _in_slots(row)
        for k in ins:
            if row[k] == edge:
                row[k] = new
                rows.append(['W', edge, new])
                return
    raise ValueError(f'edge {edge} has no consumer')


def edges(rows: list[Row]) -> list[str]:
    return [row[k] for row in rows for k in _out_slots(row)]


def _signs(rng: random.Random, classical: int, negatives) -> list[str]:
    """Crossing signs: random, or exactly ``negatives`` X- rows shuffled in."""
    if negatives is None:
        return [rng.choice(('X+', 'X-')) for _ in range(classical)]
    signs = ['X-'] * negatives + ['X+'] * (classical - negatives)
    rng.shuffle(signs)
    return signs


def braid_closure(rng: random.Random, strands: int, classical: int,
                  virtual: int, wens: int, negatives=None) -> list[Row]:
    """Closure of a random braid word; every strand meets a classical letter."""
    while True:
        letters = ([('X', rng.randrange(strands - 1)) for _ in range(classical)]
                   + [('V', rng.randrange(strands - 1)) for _ in range(virtual)])
        if {i for kind, i in letters if kind == 'X'} == set(range(strands - 1)):
            break
    rng.shuffle(letters)
    signs = None if negatives is None else _signs(rng, classical, negatives)
    fresh = _Names()
    start = [fresh() for _ in range(strands)]
    at = list(start)
    rows: list[Row] = []
    for kind, i in letters:
        left, right = fresh(), fresh()
        if kind == 'X':
            sign = rng.choice(('X+', 'X-')) if signs is None else signs.pop()
            rows.append([sign, at[i], right, at[i + 1], left])
        else:
            rows.append(['V', at[i], right, at[i + 1], left])
        at[i], at[i + 1] = left, right
    close = dict(zip(at, start))
    rows = [[close.get(x, x) for x in row] for row in rows]
    for _ in range(wens):
        insert_wen(rows, rng.choice(edges(rows)), fresh)
    return rows


def random_code(rng: random.Random, classical: int, virtual: int,
                wens: int, negatives=None) -> list[Row]:
    """Crossings wired by a random bijection from out slots to in slots."""
    fresh = _Names()
    rows: list[Row] = ([[sign, '', '', '', '']
                        for sign in _signs(rng, classical, negatives)]
                       + [['V', '', '', '', ''] for _ in range(virtual)])
    outs = [(r, k) for r in range(len(rows)) for k in (2, 4)]
    ins = [(r, k) for r in range(len(rows)) for k in (1, 3)]
    rng.shuffle(ins)
    for (ro, ko), (ri, ki) in zip(outs, ins):
        e = fresh()
        rows[ro][ko] = e
        rows[ri][ki] = e
    for _ in range(wens):
        insert_wen(rows, rng.choice(edges(rows)), fresh)
    return rows


def add_wen_pairs(rng: random.Random, rows: list[Row], pairs: int) -> None:
    """Two wens per pair on random edges of one component.

    Every component then carries an even number of wens, so no sequence of
    moves can leave a one-wen circle (see the wen-circle fault in README).
    """
    fresh = _Names()
    fresh.n = 10_000
    for _ in range(pairs):
        first = rng.choice(edges(rows))
        comp = _component_edges(rows, first)
        insert_wen(rows, first, fresh)
        second = rng.choice(sorted(comp))
        insert_wen(rows, second, fresh)


def _component_edges(rows: list[Row], edge: str) -> set[str]:
    nxt = {}
    for row in rows:
        for e_in, e_out in strand_pairs(row):
            nxt[e_in] = e_out
    seen = {edge}
    e = nxt[edge]
    while e not in seen:
        seen.add(e)
        e = nxt[e]
    return seen


def relabel(rng: random.Random, rows: list[Row]) -> list[Row]:
    """Rename every edge and shuffle the rows; the invariant is unchanged."""
    names = sorted({x for row in rows for x in row[1:]})
    fresh = rng.sample(range(10 * len(names) + 10), len(names))
    mapping = {old: f'k{n}' for old, n in zip(names, fresh)}
    out = [[row[0]] + [mapping[x] for x in row[1:]] for row in rows]
    rng.shuffle(out)
    return out


def corpus_like(rng: random.Random, classical: int, virtual: int,
                wen_pairs: int, braid: bool, negatives: int) -> list[Row]:
    """A small braid closure or code of the kind the property suite uses."""
    if braid:
        rows = braid_closure(rng, 2, classical, virtual, 0, negatives)
    else:
        rows = random_code(rng, classical, virtual, 0, negatives)
    if wen_pairs:
        add_wen_pairs(rng, rows, wen_pairs)
    return rows
