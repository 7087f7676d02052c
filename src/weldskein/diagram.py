"""Combinatorial model of extended welded link diagrams.

A diagram is an abstract 4-valent directed graph: classical crossings carry
a sign and over/under strand data, virtual crossings carry two transversal
strands, wens sit on a single strand, and crossing-free circles are counted
separately.  Edges are opaque string identifiers; each identifier occurs
exactly once as the source (an out slot) and exactly once as the target (an
in slot) of the whole diagram.

No planar embedding is stored.  Evaluation and rewriting only ever use the
incidence structure; see docs/abstract-codes.md for why the resulting
invariant agrees with the one computed from any planar realization.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Union


class DiagramError(ValueError):
    """Raised when a diagram or tangle violates structural invariants."""

    def __init__(self, violations):
        if isinstance(violations, str):
            violations = [violations]
        self.violations = list(violations)
        super().__init__('; '.join(self.violations))


class ParseError(ValueError):
    def __init__(self, line: int, column: int, reason: str):
        self.line = line
        self.column = column
        self.reason = reason
        super().__init__(f'line {line}, column {column}: {reason}')


@dataclass(frozen=True)
class ClassicalCrossing:
    sign: int                       # +1 or -1
    over_in: str
    over_out: str
    under_in: str
    under_out: str

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise DiagramError(f'crossing sign must be +-1, got {self.sign}')

    @property
    def in_slots(self):
        return (self.over_in, self.under_in)

    @property
    def out_slots(self):
        return (self.over_out, self.under_out)


@dataclass(frozen=True)
class VirtualCrossing:
    a_in: str
    a_out: str
    b_in: str
    b_out: str

    @property
    def in_slots(self):
        return (self.a_in, self.b_in)

    @property
    def out_slots(self):
        return (self.a_out, self.b_out)


@dataclass(frozen=True)
class Wen:
    """A wen on one strand; ``W a a`` is the one-wen circle."""

    w_in: str
    w_out: str

    @property
    def in_slots(self):
        return (self.w_in,)

    @property
    def out_slots(self):
        return (self.w_out,)


Vertex = Union[ClassicalCrossing, VirtualCrossing, Wen]


@dataclass(frozen=True)
class Diagram:
    classical: tuple[ClassicalCrossing, ...] = ()
    virtual_x: tuple[VirtualCrossing, ...] = ()
    wens: tuple[Wen, ...] = ()
    free_loops: int = 0

    def vertices(self) -> Iterator[Vertex]:
        yield from self.classical
        yield from self.virtual_x
        yield from self.wens

    def edges(self) -> list[str]:
        seen = []
        mark = set()
        for v in self.vertices():
            for e in v.in_slots + v.out_slots:
                if e not in mark:
                    mark.add(e)
                    seen.append(e)
        return sorted(seen)

    def size(self) -> int:
        """Total vertex count (crossings of both kinds plus wens)."""
        return len(self.classical) + len(self.virtual_x) + len(self.wens)


def validate(d: Diagram, boundary: Iterable[tuple[str, str, str]] = ()) -> list[str]:
    """Check orientation consistency; returns an exhaustive violation list.

    ``boundary`` lists tangle endpoints as (label, direction, edge); an
    inbound endpoint acts as an extra source for its edge, an outbound one
    as an extra target.
    """
    violations = []
    sources: dict[str, int] = {}
    targets: dict[str, int] = {}
    for v in d.vertices():
        for e in v.out_slots:
            sources[e] = sources.get(e, 0) + 1
        for e in v.in_slots:
            targets[e] = targets.get(e, 0) + 1
    labels = set()
    for label, direction, e in boundary:
        if label in labels:
            violations.append(f'duplicate endpoint label {label!r}')
        labels.add(label)
        if direction == 'in':
            sources[e] = sources.get(e, 0) + 1
        elif direction == 'out':
            targets[e] = targets.get(e, 0) + 1
        else:
            violations.append(f'endpoint {label!r} has direction {direction!r}, need in/out')
    for e in sorted(set(sources) | set(targets)):
        ns, nt = sources.get(e, 0), targets.get(e, 0)
        if ns != 1:
            violations.append(f'edge {e!r} used {ns} times as source, need exactly 1')
        if nt != 1:
            violations.append(f'edge {e!r} used {nt} times as target, need exactly 1')
    if d.free_loops < 0:
        violations.append('free_loops must be a natural number')
    return violations


def check_valid(d: Diagram, boundary=()) -> None:
    violations = validate(d, boundary)
    if violations:
        raise DiagramError(violations)


@dataclass(frozen=True)
class Tangle:
    """A diagram with labeled open boundary endpoints.

    Each endpoint is (label, direction, edge) where direction 'in' means the
    strand enters the tangle there (the boundary is the edge's source) and
    'out' means it leaves.
    """

    diagram: Diagram
    boundary: tuple[tuple[str, str, str], ...]

    def labels(self) -> tuple[str, ...]:
        return tuple(lab for lab, _, _ in self.boundary)


# -- statistics ---------------------------------------------------------------


def writhe(d: Diagram) -> int:
    """Signed classical crossing count: positives minus negatives."""
    return sum(c.sign for c in d.classical)


def virtual_writhe(d: Diagram) -> tuple[int, int]:
    """Virtual crossing count and its parity."""
    v = len(d.virtual_x)
    return v, v % 2


def wen_count(d: Diagram) -> tuple[int, int]:
    w = len(d.wens)
    return w, w % 2


class UnionFind:
    """Union-find over string keys; ``find`` adds an unseen key as a singleton."""

    def __init__(self, keys: Iterable[str] = ()):
        self.parent: dict[str, str] = {}
        for key in keys:
            self.find(key)

    def find(self, e: str) -> str:
        parent = self.parent
        parent.setdefault(e, e)
        while parent[e] != e:
            parent[e] = parent[parent[e]]
            e = parent[e]
        return e

    def union(self, e1: str, e2: str) -> None:
        r1, r2 = self.find(e1), self.find(e2)
        if r1 != r2:
            self.parent[r1] = r2

    def roots(self) -> set[str]:
        return {self.find(e) for e in self.parent}


def pass_through(d: Diagram) -> UnionFind:
    """Join the edges a strand passes through virtual crossings and wens."""
    uf = UnionFind()
    for v in d.virtual_x:
        uf.union(v.a_in, v.a_out)
        uf.union(v.b_in, v.b_out)
    for w in d.wens:
        uf.union(w.w_in, w.w_out)
    return uf


def components(d: Diagram) -> int:
    """Number of link components, tracing strands through all vertices."""
    uf = pass_through(d)
    for c in d.classical:
        uf.union(c.over_in, c.over_out)
        uf.union(c.under_in, c.under_out)
    return len(uf.roots()) + d.free_loops


def disjoint_union(d1: Diagram, d2: Diagram) -> Diagram:
    """Place two diagrams side by side, renaming edges to avoid collisions."""

    def rename(v: Vertex, side: str) -> Vertex:
        kwargs = {name: side + val for name, val in
                  [(f.name, getattr(v, f.name)) for f in v.__dataclass_fields__.values()
                   if f.name != 'sign']}
        if isinstance(v, ClassicalCrossing):
            return ClassicalCrossing(sign=v.sign, **kwargs)
        return type(v)(**kwargs)

    return Diagram(
        classical=tuple(rename(c, 'L.') for c in d1.classical)
        + tuple(rename(c, 'R.') for c in d2.classical),
        virtual_x=tuple(rename(v, 'L.') for v in d1.virtual_x)
        + tuple(rename(v, 'R.') for v in d2.virtual_x),
        wens=tuple(rename(w, 'L.') for w in d1.wens)
        + tuple(rename(w, 'R.') for w in d2.wens),
        free_loops=d1.free_loops + d2.free_loops,
    )


# -- text format ---------------------------------------------------------------
#
#   X+ o_in o_out u_in u_out     classical crossing, positive
#   X- o_in o_out u_in u_out     classical crossing, negative
#   V  a_in a_out b_in b_out     virtual crossing
#   W  w_in w_out                wen
#   loop                         one crossing-free circle
#   end LABEL in|out EDGE        tangle endpoint (tangle files only)
#
# '#' starts a comment; blank lines are ignored.


def parse(text: str) -> Diagram:
    d, boundary = parse_tangle_text(text)
    if boundary:
        raise ParseError(1, 1, "diagram file contains 'end' lines; use a tangle parser")
    return d


def parse_tangle(text: str) -> Tangle:
    d, boundary = parse_tangle_text(text)
    return Tangle(d, tuple(boundary))


def parse_tangle_text(text: str) -> tuple[Diagram, list[tuple[str, str, str]]]:
    classical: list[ClassicalCrossing] = []
    virtual_x: list[VirtualCrossing] = []
    wens: list[Wen] = []
    boundary: list[tuple[str, str, str]] = []
    free_loops = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split('#', 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        kw = fields[0]
        col = raw.index(kw) + 1

        def need(n):
            if len(fields) != n + 1:
                raise ParseError(lineno, col,
                                 f'{kw} expects {n} arguments, got {len(fields) - 1}')

        try:
            if kw in ('X+', 'X-'):
                need(4)
                classical.append(ClassicalCrossing(
                    1 if kw == 'X+' else -1, *fields[1:5]))
            elif kw == 'V':
                need(4)
                virtual_x.append(VirtualCrossing(*fields[1:5]))
            elif kw == 'W':
                need(2)
                wens.append(Wen(*fields[1:3]))
            elif kw == 'loop':
                need(0)
                free_loops += 1
            elif kw == 'end':
                need(3)
                label, direction, edge = fields[1:4]
                if direction not in ('in', 'out'):
                    raise ParseError(lineno, col,
                                     f"endpoint direction must be 'in' or 'out', got {direction!r}")
                boundary.append((label, direction, edge))
            else:
                raise ParseError(lineno, col, f'unknown vertex keyword {kw!r}')
        except DiagramError as exc:
            raise ParseError(lineno, col, str(exc)) from exc
    d = Diagram(tuple(classical), tuple(virtual_x), tuple(wens), free_loops)
    violations = validate(d, boundary)
    if violations:
        raise ParseError(1, 1, '; '.join(violations))
    return d, boundary


def serialize(d: Diagram, boundary: Iterable[tuple[str, str, str]] = ()) -> str:
    lines = []
    for c in d.classical:
        kw = 'X+' if c.sign > 0 else 'X-'
        lines.append(f'{kw} {c.over_in} {c.over_out} {c.under_in} {c.under_out}')
    for v in d.virtual_x:
        lines.append(f'V {v.a_in} {v.a_out} {v.b_in} {v.b_out}')
    for w in d.wens:
        lines.append(f'W {w.w_in} {w.w_out}')
    lines.extend(['loop'] * d.free_loops)
    for label, direction, edge in boundary:
        lines.append(f'end {label} {direction} {edge}')
    return '\n'.join(lines) + ('\n' if lines else '')


def serialize_tangle(t: Tangle) -> str:
    return serialize(t.diagram, t.boundary)
