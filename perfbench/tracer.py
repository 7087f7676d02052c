"""Per-layer spans and counts, recorded by wrapping weldskein at run time.

``Tracer.install()`` replaces each traced function with a wrapper that
records a span (name, start, end, parent) and the counts named below, in
every loaded ``weldskein`` module that refers to it, so names imported with
``from ... import`` are traced too.  ``uninstall()`` puts the originals back.
Nothing in ``src/`` is edited.

A layer's self time is its span's duration minus the part its child spans
cover.  Time metrics named as self times use that; the others count the
outermost span of a name only, so recursion and nested calls of one layer
(``DeltaFraction.render`` calling ``Polynomial.render``) count once.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

perf = time.perf_counter


def _nodes(tr, args, result):
    tr.counts['skein.nodes'] += result[0]


def _histogram(tr, args, result):
    tr.counts['statesum.states'] += sum(result.values())
    tr.counts['statesum.keys'] += len(result)


def _sites(tr, args, result):
    tr.counts['moves.enumerate_sites_calls'] += 1
    tr.counts['moves.sites_built'] += len(result)


def _applied(tr, args, result):
    tr.counts['moves.moves_applied'] += 1


def _tangle(tr, args, result):
    tr.counts['verifier.tangle_states'] += 3 ** len(args[0].diagram.classical)


def _closure(tr, args, result):
    tr.counts['verifier.closures'] += 1


def _terms(tr, args, result):
    if tr._depth['algebra.render']:
        return          # a nested render; the outermost one counts
    value = args[0]
    num = getattr(value, 'num', value)
    tr.counts['algebra.out_terms'] += len(num.terms())


# (module, attribute path, span name, count hook).  The '*.other' spans are
# not reported; they keep verifier and algebra work out of cli.self_ms.
TARGETS = (
    ('weldskein.cli', 'main', 'cli', None),
    ('weldskein.cli', 'cmd_eval', 'cli', None),
    ('weldskein.cli', 'cmd_check_invariance', 'cli', None),
    ('weldskein.cli', 'cmd_verify_moves', 'cli', None),
    ('weldskein.diagram', 'parse', 'diagram.parse', None),
    ('weldskein.diagram', 'parse_tangle_text', 'diagram.parse', None),
    ('weldskein.skein', '_kernel_inputs', 'skein.kernel_inputs', _nodes),
    ('weldskein.skein', 'bracket', 'skein.bracket', None),
    ('weldskein.skein', 'y_invariant', 'skein.y_invariant', None),
    ('weldskein.statesum', 'smoothing_histogram', 'statesum.histogram',
     _histogram),
    ('weldskein.algebra', 'DeltaFraction.render', 'algebra.render', _terms),
    ('weldskein.algebra', 'LaurentPoly.render', 'algebra.render', _terms),
    ('weldskein.algebra', 'Polynomial.render', 'algebra.render', _terms),
    ('weldskein.algebra', 'to_alpha_beta', 'algebra.alpha_beta', None),
    ('weldskein.algebra', 'DeltaFraction.substitute', 'algebra.other', None),
    ('weldskein.algebra', 'LaurentPoly.dehomogenize', 'algebra.other', None),
    ('weldskein.moves', 'scramble', 'moves.scramble', None),
    ('weldskein.moves', 'enumerate_sites', 'moves.enumerate_sites', _sites),
    ('weldskein.moves', '_apply_unchecked', 'moves.apply', _applied),
    ('weldskein.verifier', 'tangle_bracket', 'verifier.tangle_bracket',
     _tangle),
    ('weldskein.verifier', 'close', 'verifier.close', _closure),
    ('weldskein.verifier', 'Constraint.residual', 'verifier.residual', None),
    ('weldskein.verifier', 'constraints_for', 'verifier.other', None),
    ('weldskein.verifier', 'verify_solution', 'verifier.other', None),
    ('weldskein.verifier', 'kink_coefficients', 'verifier.other', None),
    ('weldskein.verifier', 'normalize_equation', 'verifier.other', None),
)

# per-layer metric -> (kind, span or count name); 'incl' is outermost span
# time, 'self' is self time; both are reported per operation in ms.
METRICS = {
    'diagram.parse_ms': ('incl', 'diagram.parse'),
    'skein.kernel_inputs_ms': ('incl', 'skein.kernel_inputs'),
    'skein.nodes': ('count', 'skein.nodes'),
    'skein.assembly_ms': ('self', 'skein.bracket'),
    'skein.normalize_ms': ('self', 'skein.y_invariant'),
    'statesum.histogram_ms': ('incl', 'statesum.histogram'),
    'statesum.states': ('count', 'statesum.states'),
    'statesum.keys': ('count', 'statesum.keys'),
    'algebra.render_ms': ('incl', 'algebra.render'),
    'algebra.alpha_beta_ms': ('incl', 'algebra.alpha_beta'),
    'algebra.out_terms': ('count', 'algebra.out_terms'),
    'moves.scramble_ms': ('incl', 'moves.scramble'),
    'moves.enumerate_sites_ms': ('incl', 'moves.enumerate_sites'),
    'moves.enumerate_sites_calls': ('count', 'moves.enumerate_sites_calls'),
    'moves.sites_built': ('count', 'moves.sites_built'),
    'moves.moves_applied': ('count', 'moves.moves_applied'),
    'verifier.tangle_bracket_ms': ('incl', 'verifier.tangle_bracket'),
    'verifier.tangle_states': ('count', 'verifier.tangle_states'),
    'verifier.close_ms': ('incl', 'verifier.close'),
    'verifier.closures': ('count', 'verifier.closures'),
    'verifier.residual_ms': ('incl', 'verifier.residual'),
    'cli.self_ms': ('self', 'cli'),
}


class Tracer:
    """Spans and counts of the weldskein layers, kept in memory."""

    def __init__(self):
        self.recording = True              # keep spans; counts always add up
        self.spans: list[tuple] = []       # (id, parent, name, start, end, op)
        self.self_s = defaultdict(float)
        self.outer_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.op = None
        self._stack: list[list] = []       # [span id, child time]
        self._depth = defaultdict(int)
        self._next_id = 0
        self._saved: list[tuple] = []

    def _wrap(self, fn, name, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            tracer._next_id += 1
            frame = [tracer._next_id, 0.0]
            parent = stack[-1][0] if stack else None
            outermost = tracer._depth[name] == 0
            tracer._depth[name] += 1
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                tracer._depth[name] -= 1
                dur = end - start
                tracer.self_s[name] += dur - frame[1]
                if outermost:
                    tracer.outer_s[name] += dur
                if stack:
                    stack[-1][1] += dur
                if tracer.recording:
                    tracer.spans.append((frame[0], parent, name, start, end,
                                         tracer.op))
            if hook is not None:
                hook(tracer, args, result)
            return result

        return wrapper

    def install(self) -> None:
        for modname, path, name, hook in TARGETS:
            module = sys.modules[modname]
            owner_name, _, attr = path.rpartition('.')
            owner = getattr(module, owner_name) if owner_name else module
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, hook)
            if owner_name:
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for mod in list(sys.modules.values()):
                if not getattr(mod, '__name__', '').startswith('weldskein'):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def per_op(self, ops: int) -> dict[str, float]:
        """Every per-layer metric, divided by the operations traced."""
        out = {}
        for metric, (kind, key) in METRICS.items():
            if kind == 'count':
                out[metric] = self.counts[key] / ops
            else:
                total = self.self_s[key] if kind == 'self' else self.outer_s[key]
                out[metric] = total * 1000 / ops
        out['moves.sites_per_move'] = (
            self.counts['moves.sites_built'] / self.counts['moves.moves_applied']
            if self.counts['moves.moves_applied'] else 0.0)
        return out
