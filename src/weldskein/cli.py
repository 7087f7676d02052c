"""Command-line front end.

Subcommands: eval, info, scramble, check-invariance, verify-moves.
Exit codes: 0 success, 1 input error, 2 verification or invariance failure.
All output is bit-stable for fixed inputs, flags and seeds.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional

from weldskein import diagram as dg
from weldskein import moves as mv
from weldskein.algebra import SubstitutionError, to_alpha_beta
from weldskein.diagram import DiagramError, ParseError
from weldskein.skein import (CoefficientSystem, WenError, linking_y,
                             y_invariant)
from weldskein.verifier import (builtin_moves, constraints_for,
                                normalize_equation, verify_solution)


class CliError(Exception):
    def __init__(self, message: str, code: int = 1):
        super().__init__(message)
        self.code = code


def _coefficient_system(args) -> CoefficientSystem:
    if args.mode == 'extended':
        if args.nu not in (None, '1'):
            raise CliError('extended mode forces nu = 1')
        return CoefficientSystem.extended()
    nu = {None: None, 'sym': None, '1': 1, '-1': -1}[args.nu]
    return CoefficientSystem.welded(nu)


def _parse_sets(pairs) -> dict[str, int]:
    out = {}
    for item in pairs or ():
        name, _, value = item.partition('=')
        if name not in ('r', 's') or value not in ('1', '-1'):
            raise CliError(f"--set expects r=1|-1 or s=1|-1, got {item!r}")
        if name in out:
            raise CliError(f'--set gives {name} more than once')
        out[name] = int(value)
    return out


def _check_counts(args, *names: str) -> None:
    """Reject negative values of the count options ``names``."""
    for name in names:
        value = getattr(args, name)
        if value < 0:
            option = '--' + name.replace('_', '-')
            raise CliError(f'{option} must be at least 0, got {value}')


def _load(path: str) -> dg.Diagram:
    try:
        with open(path, encoding='utf-8') as fh:
            return dg.parse(fh.read())
    except OSError as exc:
        raise CliError(f'cannot read {path}: {exc}')
    except UnicodeDecodeError as exc:
        raise CliError(f'{path}: not UTF-8 text (byte '
                       f'0x{exc.object[exc.start]:02x} at offset {exc.start})')
    except (ParseError, DiagramError) as exc:
        raise CliError(f'{path}: {exc}')


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        try:
            with open(out, 'w') as fh:
                fh.write(text if text.endswith('\n') else text + '\n')
        except OSError as exc:
            raise CliError(f'cannot write {out}: {exc}')
    else:
        print(text)


def cmd_eval(args) -> int:
    d = _load(args.input)
    cs = _coefficient_system(args)
    sets = _parse_sets(args.set)
    try:
        value = linking_y(d, cs)
    except WenError as exc:
        raise CliError(f'{exc} (extended mode admits wens)', 1)
    if sets:
        value = value.substitute(sets)
    if args.form == 'ab':
        rendered = value.render()
    else:
        if cs.kind != 'extended' and cs.nu is None:
            raise CliError('alpha/beta output needs nu specialized (use extended mode or --nu)')
        try:
            lp = to_alpha_beta(value)
        except SubstitutionError as exc:
            raise CliError(str(exc))
        if args.form == 'lambda':
            if cs.kind != 'extended':
                raise CliError('lambda output requires extended mode')
            try:
                lp = lp.dehomogenize()
            except ValueError as exc:
                raise CliError(str(exc), 2)
        rendered = lp.render()
    if args.json:
        _emit(json.dumps({'command': 'eval', 'input': args.input,
                          'family': cs.describe(), 'form': args.form,
                          'assignments': sets, 'value': rendered},
                         sort_keys=True), args.output)
    else:
        _emit(rendered, args.output)
    return 0


def cmd_info(args) -> int:
    d = _load(args.input)
    v, v_parity = dg.virtual_writhe(d)
    wens, wen_parity = dg.wen_count(d)
    data = {
        'command': 'info', 'input': args.input,
        'writhe': dg.writhe(d),
        'virtual_writhe': v, 'virtual_writhe_parity': v_parity,
        'wens': wens, 'wen_parity': wen_parity,
        'components': dg.components(d),
        'classical_crossings': len(d.classical),
        'positive_crossings': sum(1 for c in d.classical if c.sign > 0),
        'negative_crossings': sum(1 for c in d.classical if c.sign < 0),
        'free_loops': d.free_loops,
    }
    if args.json:
        _emit(json.dumps(data, sort_keys=True), args.output)
    else:
        lines = [f'writhe             {data["writhe"]}',
                 f'virtual writhe     {v} (parity {v_parity})',
                 f'wens               {wens} (parity {wen_parity})',
                 f'components         {data["components"]}',
                 f'classical          {data["classical_crossings"]} '
                 f'({data["positive_crossings"]}+ / {data["negative_crossings"]}-)',
                 f'free loops         {d.free_loops}']
        _emit('\n'.join(lines), args.output)
    return 0


def cmd_scramble(args) -> int:
    _check_counts(args, 'moves', 'size_cap')
    d = _load(args.input)
    out = mv.scramble(d, seed=args.seed, n_moves=args.moves,
                      size_cap=args.size_cap)
    if args.json:
        _emit(json.dumps({'command': 'scramble', 'input': args.input,
                          'seed': args.seed, 'moves': args.moves,
                          'size_cap': args.size_cap,
                          'diagram': dg.serialize(out)}, sort_keys=True),
              args.output)
    else:
        _emit(dg.serialize(out), args.output)
    return 0


def cmd_check_invariance(args) -> int:
    _check_counts(args, 'trials', 'moves', 'size_cap')
    d = _load(args.input)
    cs = _coefficient_system(args)
    try:
        reference = y_invariant(d, cs)
    except WenError as exc:
        raise CliError(str(exc), 1)
    wen_moves = cs.nu == 1
    failures = []
    for trial in range(args.trials):
        scrambled = mv.scramble(d, seed=args.seed + trial, n_moves=args.moves,
                                size_cap=args.size_cap, wen_moves=wen_moves)
        value = y_invariant(scrambled, cs)
        if value != reference:
            failures.append({'trial': trial, 'seed': args.seed + trial,
                             'value': value.render()})
            break
    payload = {'command': 'check-invariance', 'input': args.input,
               'family': cs.describe(), 'trials': args.trials,
               'moves_per_trial': args.moves, 'seed': args.seed,
               'reference': reference.render(),
               'ok': not failures, 'failures': failures}
    if args.json:
        _emit(json.dumps(payload, sort_keys=True), args.output)
    else:
        if failures:
            f = failures[0]
            _emit(f'FAIL: trial {f["trial"]} (seed {f["seed"]}) gave '
                  f'{f["value"]}\nreference: {reference.render()}', args.output)
        else:
            _emit(f'ok: {args.trials} scrambles of {args.moves} moves each '
                  f'preserve Y = {reference.render()}', args.output)
    return 0 if not failures else 2


def cmd_verify_moves(args) -> int:
    if args.mode == 'generic':
        if args.nu is not None:
            raise CliError('generic mode takes no --nu; use --mode welded')
        lines = ['coefficient family: generic', '']
        payload = {'command': 'verify-moves', 'family': 'generic', 'moves': []}
        for name, schema in builtin_moves().items():
            if schema.dw != 0:
                note = 'writhe-shifting; verified under solved families'
                lines.append(f'{name:6} {note}')
                payload['moves'].append({'move': name, 'note': note})
                continue
            cset = constraints_for(name)
            eqs = [normalize_equation(e).render()
                   for e in cset.deduplicated_equations()]
            lines.append(f'{name:6} closures {cset.n_closures:>3}   '
                         f'nontrivial equations {len(eqs)}')
            for e in eqs:
                lines.append(f'         {e} = 0')
            payload['moves'].append({'move': name, 'closures': cset.n_closures,
                                     'equations': eqs})
        ok = True
    else:
        cs = _coefficient_system(args)
        report = verify_solution(cs)
        lines = report.summary_lines()
        ok = report.all_as_expected
        payload = {'command': 'verify-moves', 'family': report.family,
                   'all_as_expected': ok,
                   'moves': [{'move': m.move, 'closures': m.n_closures,
                              'equations': m.n_equations,
                              'satisfied': m.satisfied,
                              'residuals': m.residuals}
                             for m in report.moves],
                   'kink_positive': report.kink_positive.render(),
                   'kink_negative': report.kink_negative.render(),
                   'reciprocal_ok': report.reciprocal_ok}
    if args.json:
        _emit(json.dumps(payload, sort_keys=True), args.output)
    else:
        _emit('\n'.join(lines), args.output)
    return 0 if ok else 2


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog='weldskein',
        description='Skein invariants of welded and extended welded links.')
    sub = parser.add_subparsers(dest='command', required=True)

    def family(p, modes=('welded', 'extended'), default='extended'):
        p.add_argument('--mode', choices=modes, default=default)
        p.add_argument('--nu', choices=('1', '-1', 'sym'), default=None)

    def common(p, evaluates=True):
        if evaluates:
            p.add_argument('--threads', type=int, default=1,
                           help='accepted for compatibility; evaluation is '
                                'single-threaded')
        p.add_argument('--json', action='store_true')
        p.add_argument('-o', '--output', default=None)

    p = sub.add_parser('eval', help='evaluate the invariant of a diagram file')
    p.add_argument('input')
    p.add_argument('--form', choices=('ab', 'alphabeta', 'lambda'),
                   default='ab')
    p.add_argument('--set', action='append', metavar='NAME=VAL',
                   help='specialize r or s to +-1')
    family(p)
    common(p)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser('info', help='diagram statistics')
    p.add_argument('input')
    common(p, evaluates=False)
    p.set_defaults(fn=cmd_info)

    p = sub.add_parser('scramble', help='rewrite a diagram by random moves')
    p.add_argument('input')
    p.add_argument('--seed', type=int, default=0)
    p.add_argument('--moves', type=int, default=20)
    p.add_argument('--size-cap', type=int, default=14)
    common(p, evaluates=False)
    p.set_defaults(fn=cmd_scramble)

    p = sub.add_parser('check-invariance',
                       help='scramble repeatedly and recompute the invariant')
    p.add_argument('input')
    p.add_argument('--seed', type=int, default=0)
    p.add_argument('--trials', type=int, default=20)
    p.add_argument('--moves', type=int, default=20)
    p.add_argument('--size-cap', type=int, default=14)
    family(p)
    common(p)
    p.set_defaults(fn=cmd_check_invariance)

    p = sub.add_parser('verify-moves',
                       help='re-derive and check the coefficient constraints')
    family(p, ('generic', 'welded', 'extended'), 'generic')
    common(p)
    p.set_defaults(fn=cmd_verify_moves)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CliError as exc:
        print(f'error: {exc}', file=sys.stderr)
        return exc.code
    except (ParseError, DiagramError, WenError) as exc:
        print(f'error: {exc}', file=sys.stderr)
        return 1


if __name__ == '__main__':
    sys.exit(main())
