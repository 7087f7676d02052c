"""The four workloads: their operations, inputs and output checks.

An operation is one or more in-process ``weldskein`` CLI calls, each
writing to a file.  ``make_ops(workload, seed, workdir)`` writes the seeded
input files and returns one round of operations; every run repeats whole
rounds, so each run attempts the same operations in the same order.

Every check compares the program's output with the independent evaluator
in ``oracle.py``, with the paper's equations, or with a property the
method must have; none compares with a stored copy of the program's output.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import inputs
import oracle

FAMILY_ARGS = {
    'extended': ['--mode', 'extended'],
    'nu1': ['--mode', 'welded', '--nu', '1'],
    'nu-1': ['--mode', 'welded', '--nu', '-1'],
    'sym': ['--mode', 'welded', '--nu', 'sym'],
}

# eval-large: six 12-crossing diagrams whose oracle values are stored in
# references.json.  A run seed decides which of each pair of wen-free
# diagrams is evaluated with nu = -1 and which with symbolic nu, renames
# every edge and shuffles the rows; none of this changes Y.  Using every
# pool diagram in every round keeps the work of one seed like another's.
# The wen-free pairs are named after their generator seeds, chosen so that
# each has a non-constant welded value (the braid of seed 'a' gives 4).
LARGE_PAIRS = {'braid': ('b', 'c'), 'code': ('a', 'b')}

# invariance: scramble settings, and the wen-circle fault kept measurable.
# The scrambler can grow a diagram past its size cap (see README), so a
# rare trial evaluates 3^10 or more states; a low cap, few moves and many
# trials per round keep such a trial from deciding a run's figures.
TRIALS, MOVES, SIZE_CAP = 10, 10, 6
INVARIANCE_OPS = 200
WEN_CIRCLE = 'W a b\nW b c\nW c a\n'
WEN_CIRCLE_SEED = 0
WEN_CIRCLE_ERROR = 'wen slots must reference distinct edges'

# verify: the paper's equations, verbatim.
PAPER_R2 = ('a*y + b*x', 'a*x + b*y - 1', 'a*z*r + c*x*r + b*z + c*y + c*z*t')
PAPER_F1 = ('(b^2 + b*c + b*c*t + c^2) - (b^2*t + b*c*t^2 + b*c + c^2*t)',
            '(b^2 + 2*b*c*t + c^2*t^2) - (b^2*t + 2*b*c + c^2)',
            '(b^2*t^2 + 2*b*c*t + c^2) - (b^2 + 2*b*c + c^2*t)')


class CheckError(Exception):
    """An output disagrees with the oracle, the paper or a property."""


@dataclass
class Call:
    argv: list
    output: str


@dataclass
class Op:
    """One timed operation and how to judge its outputs.

    ``check(texts, codes, errors)`` raises CheckError on a wrong output and
    returns True when the operation failed in the known, expected way.
    """

    label: str
    calls: list
    check: Callable


def large_pool():
    """The eval-large diagrams: name -> (rows, families)."""
    pool = {}
    for shape, pair in LARGE_PAIRS.items():
        for tag, wens, families in (('wen', 3, ('extended',)),
                                    (pair[0], 0, ('nu-1', 'sym')),
                                    (pair[1], 0, ('nu-1', 'sym'))):
            rng = random.Random(f'pool-{shape}-{tag}')
            rows = (inputs.braid_closure(rng, 4, 12, 4, wens)
                    if shape == 'braid' else inputs.random_code(rng, 12, 3, wens))
            pool[f'{shape}-{tag}'] = (rows, families)
    return pool


def _load_references():
    pool = large_pool()
    stored = json.loads(oracle.REFERENCES.read_text())
    if stored['points'] != [list(p) for p in oracle.POINTS]:
        raise CheckError('references.json was made at other points; '
                         'regenerate it with python3 perfbench/oracle.py')
    refs = {}
    for name, (rows, families) in pool.items():
        entry = stored['diagrams'].get(name)
        if entry is None or entry['text'] != inputs.rows_to_text(rows):
            raise CheckError(f'references.json is stale for {name}; '
                             'regenerate it with python3 perfbench/oracle.py')
        refs[name] = (rows, {fam: [Fraction(v) for v in vals]
                             for fam, vals in entry['values'].items()})
    return refs


# -- checks -------------------------------------------------------------------


def _value_env(form, a, b, r, s, nu):
    if form == 'ab':
        return {'a': a, 'b': b, 'r': r, 's': s, 'nu': nu}
    alpha, beta = Fraction(b + a), Fraction(b - a)
    if form == 'alphabeta':
        return {'alpha': alpha, 'beta': beta, 'r': r, 's': s}
    return {'lambda': alpha / beta, 'r': r, 's': s}


def check_value(text, family, form, expected, sets, rows):
    """Compare a rendered value with oracle values at the family's points.

    ``expected`` lists Y at ``oracle.family_points(family)`` with r and s
    replaced by their --set specializations in ``sets``.
    Property checks ride along: the nu = 1 collapse, the nu = -1 value at
    b = 0, and degree-0 homogeneity of the extended alpha/beta image.
    """
    try:
        tree = oracle.parse_expr(text)
        got = [oracle.evaluate(tree, _value_env(form, a, b, sets.get('r', r),
                                                sets.get('s', s), nu))
               for a, b, r, s, nu in oracle.family_points(family)]
    except (ValueError, KeyError, ZeroDivisionError) as exc:
        raise CheckError(f'unreadable value {text!r}: {exc}')
    if got != expected:
        raise CheckError(f'{family} {form} value {text!r} disagrees with '
                         f'the reference evaluator')
    comps = inputs.components(rows)
    n_wens = sum(1 for row in rows if row[0] == 'W')
    if family in ('extended', 'nu1'):
        for (a, b, r, s, nu), value in zip(oracle.family_points(family), got):
            s = sets.get('s', s)
            if value != (-2) ** comps * (s if n_wens % 2 else 1):
                raise CheckError(f'{text!r} breaks Y = (-2)^components * '
                                 f's^(wens mod 2) for nu = 1')
    if family == 'nu-1' and form == 'ab':
        for a in (3, -7):
            env = {'a': a, 'b': 0, 'r': 1, 's': 1, 'nu': -1}
            if oracle.evaluate(tree, env) != 2 ** comps:
                raise CheckError(f'{text!r} is not 2^components at b = 0')
    if family == 'extended' and form == 'alphabeta':
        env = {'alpha': Fraction(5), 'beta': Fraction(-3), 'r': 1, 's': -1}
        scaled = dict(env, alpha=Fraction(15), beta=Fraction(-9))
        if oracle.evaluate(tree, env) != oracle.evaluate(tree, scaled):
            raise CheckError(f'{text!r} is not homogeneous of degree 0')


def _expect_success(texts, codes, errors):
    if any(codes):
        raise CheckError(f'exit codes {codes}: {"".join(errors).strip()}')
    if None in texts:
        raise CheckError('no output file written')


def _json(text):
    try:
        return json.loads(text)
    except ValueError as exc:
        raise CheckError(f'output is not JSON: {exc}')


def _eval_op(label, path, out, family, form, sets, rows, expected):
    argv = ['eval', str(path), *FAMILY_ARGS[family], '--threads', '1',
            '-o', str(out)]
    if form != 'ab':
        argv[2:2] = ['--form', form]
    for name, val in sets.items():
        argv += ['--set', f'{name}={val}']

    def check(texts, codes, errors):
        _expect_success(texts, codes, errors)
        check_value(texts[0], family, form, expected(), sets, rows)
        return False

    return Op(label, [Call(argv, str(out))], check)


# -- eval-large ------------------------------------------------------------------


def _eval_large(seed, workdir):
    refs = _load_references()
    rng = random.Random(seed)
    out = workdir / 'out.txt'
    ops = []
    for shape, tags in LARGE_PAIRS.items():
        pair = [f'{shape}-{tag}' for tag in tags]
        rng.shuffle(pair)
        for name, family in ((f'{shape}-wen', 'extended'), (pair[0], 'nu-1'),
                             (pair[1], 'sym')):
            rows, values = refs[name]
            path = workdir / f'{name}.wld'
            path.write_text(inputs.rows_to_text(inputs.relabel(rng, rows)))
            ops.append(_eval_op(f'{name}/{family}', path, out, family, 'ab',
                                {}, rows, lambda v=values[family]: v))
    return ops


# -- eval-small ------------------------------------------------------------------

# (family, form, --set) per wen-free and per wen-bearing diagram.
SMALL_PLAIN = (('extended', 'ab', {}), ('extended', 'alphabeta', {}),
               ('extended', 'lambda', {}), ('nu1', 'ab', {'r': -1}),
               ('nu-1', 'ab', {}), ('nu-1', 'alphabeta', {}),
               ('sym', 'ab', {}))
SMALL_WEN = (('extended', 'ab', {}), ('extended', 'alphabeta', {}),
             ('extended', 'lambda', {}), ('nu1', 'ab', {'s': -1}))


def _small_rows(rng, i, wens):
    """Slot i fixes the shape, the crossing counts and the signs; the seed
    draws the wiring, so per-seed costs stay alike."""
    classical = 2 + i % 4
    virtual = i % 3
    negatives = i // 4 % (classical + 1)
    if i % 2:
        return inputs.braid_closure(rng, 2 + i // 2 % 2, classical, virtual,
                                    wens, negatives)
    return inputs.random_code(rng, classical, virtual, wens, negatives)


def _eval_small(seed, workdir):
    rng = random.Random(seed)
    out = workdir / 'out.txt'
    ops = []
    for wens, n, variants in ((0, 48, SMALL_PLAIN), (1, 32, SMALL_WEN)):
        for i in range(n):
            rows = _small_rows(rng, i, wens * (1 + i % 2))
            path = workdir / f'small{wens}-{i}.wld'
            path.write_text(inputs.rows_to_text(rows))
            memo = {}

            def expected(family, sets, rows=rows, memo=memo):
                if 'data' not in memo:
                    memo['data'] = oracle.diagram_data(rows)
                return [oracle.y_value(memo['data'], a, b, sets.get('r', r),
                                       sets.get('s', s), nu)
                        for a, b, r, s, nu in oracle.family_points(family)]

            for family, form, sets in variants:
                ops.append(_eval_op(
                    f'{path.stem}/{family}/{form}', path, out, family, form,
                    sets, rows, lambda f=family, s=sets, e=expected: e(f, s)))
    return ops


# -- invariance ------------------------------------------------------------------


def _invariance_op(label, path, out, family, seed, rows, expect_fault=False):
    argv = ['check-invariance', str(path), *FAMILY_ARGS[family],
            '--trials', str(TRIALS), '--moves', str(MOVES),
            '--size-cap', str(SIZE_CAP), '--seed', str(seed),
            '--threads', '1', '--json', '-o', str(out)]

    def check(texts, codes, errors):
        if expect_fault and codes == [1] and WEN_CIRCLE_ERROR in errors[0]:
            return True
        _expect_success(texts, codes, errors)
        payload = _json(texts[0])
        if not payload['ok'] or payload['failures']:
            raise CheckError(f'{label}: invariance failed: {payload}')
        data = oracle.diagram_data(rows)
        check_value(payload['reference'], family, 'ab',
                    oracle.values(data, family), {}, rows)
        return False

    return Op(label, [Call(argv, str(out))], check)


def _invariance(seed, workdir):
    rng = random.Random(seed)
    out = workdir / 'out.txt'
    ops = []
    for i in range(INVARIANCE_OPS):
        family = ('extended', 'nu-1', 'sym')[i % 3]
        classical = 2 + i % 4
        rows = inputs.corpus_like(rng, classical, i % 3,
                                  1 if family == 'extended' else 0,
                                  braid=i // 3 % 2 == 0,
                                  negatives=i // 2 % (classical + 1))
        path = workdir / f'inv{i}.wld'
        path.write_text(inputs.rows_to_text(rows))
        ops.append(_invariance_op(f'inv{i}/{family}', path, out, family,
                                  rng.randrange(10 ** 6), rows))
    path = workdir / 'wen_circle.wld'
    path.write_text(WEN_CIRCLE)
    ops.append(_invariance_op('wen-circle/extended', path, out, 'extended',
                              WEN_CIRCLE_SEED, inputs.text_to_rows(WEN_CIRCLE),
                              expect_fault=True))
    return ops


# -- verify ----------------------------------------------------------------------


def _check_generic(payload):
    moves = {m['move']: m for m in payload['moves']}
    got_r2 = {oracle.equation(e) for e in moves['r2']['equations']}
    if got_r2 != {oracle.equation(e) for e in PAPER_R2}:
        raise CheckError(f'R2 system differs from the paper: '
                         f'{moves["r2"]["equations"]}')
    f1 = moves['f1']
    if f1['closures'] != 15:
        raise CheckError(f'F1 used {f1["closures"]} closures, the paper 15')
    got_f1 = [oracle.equation(e) for e in f1['equations']]
    if len(got_f1) != 3 or set(got_f1) != {oracle.equation(e)
                                           for e in PAPER_F1}:
        raise CheckError(f'F1 trio differs from the paper: {f1["equations"]}')
    if moves['m']['equations']:
        raise CheckError('the mixed move M gave constraints')


def _check_solved(payload, nu):
    """Every move holds except T4, which needs nu = 1; the kinks are the
    units a*r - nu*b and (-a*r - nu*b)/delta."""
    for m in payload['moves']:
        want = nu == 1 if m['move'] == 't4' else True
        if m['satisfied'] is not want or bool(m['residuals']) == want:
            raise CheckError(f'{m["move"]} under nu={nu}: satisfied='
                             f'{m["satisfied"]}, residuals {m["residuals"]}')
    if not payload['all_as_expected'] or not payload['reciprocal_ok']:
        raise CheckError(f'solved family nu={nu} not as expected')
    kpos = oracle.parse_expr(payload['kink_positive'])
    kneg = oracle.parse_expr(payload['kink_negative'])
    for a, b, r, s, nu_val in oracle.family_points('sym'):
        if nu is not None and nu_val != nu:
            continue
        env = {'a': a, 'b': b, 'r': r, 's': s, 'nu': nu_val}
        omega = Fraction(a * r - nu_val * b)
        if (oracle.evaluate(kpos, env) != omega
                or oracle.evaluate(kneg, env) != 1 / omega):
            raise CheckError(f'kink units wrong for nu={nu}')


def _verify(seed, workdir):
    del seed    # verify-moves reads no input file
    families = (('generic', ['--mode', 'generic'], None),
                ('nu-1', FAMILY_ARGS['nu-1'], -1),
                ('sym', FAMILY_ARGS['sym'], None),
                ('extended', FAMILY_ARGS['extended'], 1))
    calls = [Call(['verify-moves', *args, '--threads', '1', '--json',
                   '-o', str(workdir / f'verify-{name}.json')],
                  str(workdir / f'verify-{name}.json'))
             for name, args, _ in families]

    def check(texts, codes, errors):
        _expect_success(texts, codes, errors)
        for (name, _, nu), text in zip(families, texts):
            payload = _json(text)
            if name == 'generic':
                _check_generic(payload)
            else:
                _check_solved(payload, nu)
        return False

    return [Op('verify-moves x4', calls, check)]


WORKLOADS = {'eval-large': _eval_large, 'eval-small': _eval_small,
             'invariance': _invariance, 'verify': _verify}


def make_ops(workload: str, seed: int, workdir: Path) -> list:
    return WORKLOADS[workload](seed, workdir)
