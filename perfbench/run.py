#!/usr/bin/env python3
"""weldskein benchmark: four in-process CLI workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload eval-large --seed 1 --seconds 20 --trace 0

Each operation calls ``weldskein.cli.main([...])`` in this process and
thread, with ``--threads 1`` and its output written to a file.  The inputs
are generated from ``--seed`` and handed to the program only as files.
A run repeats whole rounds of the same operations until ``--seconds`` have
passed, with garbage collected between rounds, never inside a timed call.
Every output is checked (see workloads.py); the last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` first times
untraced rounds, then traced ones, and reports the per-layer metrics, the
tracing overhead, and writes the spans to ``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / 'src'
OUT = HERE / 'out'
SETUP_REPEATS = 3

sys.path.insert(0, str(HERE))

import oracle      # noqa: E402
import workloads   # noqa: E402
from tracer import Tracer   # noqa: E402

perf = time.perf_counter


def import_program():
    """Import weldskein afresh from this checkout's src/ and return its CLI."""
    for name in [m for m in sys.modules if m.split('.')[0] == 'weldskein']:
        del sys.modules[name]
    importlib.invalidate_caches()
    cli = importlib.import_module('weldskein.cli')
    if Path(cli.__file__).resolve().parent != SRC / 'weldskein':
        raise SystemExit(f'weldskein was imported from {cli.__file__}, '
                         f'not from {SRC}')
    return cli


def run_op(cli, op):
    """Run one operation; return (seconds, outputs, exit codes, stderr)."""
    texts, codes, errors = [], [], []
    elapsed = 0.0
    for call in op.calls:
        if os.path.exists(call.output):
            os.remove(call.output)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            t0 = perf()
            code = cli.main(call.argv)
            elapsed += perf() - t0
        codes.append(code)
        errors.append(err.getvalue())
        try:
            with open(call.output) as fh:
                texts.append(fh.read())
        except FileNotFoundError:
            texts.append(None)
    return elapsed, texts, codes, errors


class Rounds:
    """Rounds of one workload's operations, and what they produced."""

    def __init__(self, cli, ops):
        self.cli = cli
        self.ops = ops
        self.first = [None] * len(ops)     # outputs of the first round
        self.fault = [False] * len(ops)    # op failed in the known way
        self.durations = []                # seconds per completed op
        self.round_times = []
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def run(self, seconds, tracer=None):
        start = perf()
        ops_before = self.attempted
        while True:
            round_time = 0.0
            gc.collect()
            gc.disable()
            try:
                for i, op in enumerate(self.ops):
                    if tracer is not None:
                        tracer.op = i
                    dt, texts, codes, errors = run_op(self.cli, op)
                    round_time += dt
                    self._record(i, op, dt, texts, codes, errors)
            finally:
                gc.enable()
            self.round_times.append(round_time)
            if tracer is not None:
                tracer.recording = False   # spans of the first round suffice
            if perf() - start >= seconds:
                return self.attempted - ops_before

    def _record(self, i, op, dt, texts, codes, errors):
        self.attempted += 1
        result = (texts, codes, errors)
        if self.first[i] is None:
            self.first[i] = result
            try:
                self.fault[i] = op.check(texts, codes, errors)
            except workloads.CheckError as exc:
                self.problems.append(f'{op.label}: {exc}')
        elif result != self.first[i]:
            # the CLI promises byte-identical output for fixed inputs
            self.problems.append(f'{op.label}: output changed between rounds')
        if self.fault[i]:
            self.failed += 1
        else:
            self.durations.append(dt)


def setup(workload, seed, workdir):
    """Import, input generation and one warm-up operation."""
    t0 = perf()
    cli = import_program()
    ops = workloads.make_ops(workload, seed, workdir)
    run_op(cli, ops[0])
    return perf() - t0, cli, ops


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split('\n')[0])
    parser.add_argument('--workload', required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument('--seed', type=int, required=True)
    parser.add_argument('--seconds', type=float, required=True)
    parser.add_argument('--trace', type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / 'weldskein' / 'cli.py').is_file():
        print(f'error: no weldskein sources under {SRC}', file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    oracle.self_check()

    workdir = HERE / f'.work-{os.getpid()}'
    workdir.mkdir()
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir):
    setups = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        setup_s, cli, ops = setup(args.workload, args.seed, workdir)
        setups.append(setup_s)
    rounds = Rounds(cli, ops)
    OUT.mkdir(exist_ok=True)
    tag = f'{args.workload}-seed{args.seed}'

    if args.trace:
        rounds.run(args.seconds / 3)
        plain_rounds = list(rounds.round_times)
        tracer = Tracer()
        tracer.install()
        try:
            traced_ops = rounds.run(args.seconds * 2 / 3, tracer)
        finally:
            tracer.uninstall()
        traced_rounds = rounds.round_times[len(plain_rounds):]
        overhead = (statistics.median(traced_rounds)
                    / statistics.median(plain_rounds) - 1) * 100
        values = tracer.per_op(traced_ops)
        values['trace.overhead_pct'] = overhead
        units = {name: 'ms' if name.endswith('_ms') else 'count'
                 for name in values}
        units['moves.sites_per_move'] = 'ratio'
        units['trace.overhead_pct'] = '%'
        trace_file = OUT / f'trace-{tag}.json'
        trace_file.write_text(json.dumps({
            'workload': args.workload, 'seed': args.seed,
            'ops': [op.label for op in rounds.ops],
            'traced_ops': traced_ops, 'overhead_pct': overhead,
            'untraced_round_s': plain_rounds, 'traced_round_s': traced_rounds,
            'span_fields': ['id', 'parent', 'name', 'start', 'end', 'op'],
            'spans': tracer.spans}) + '\n')
    else:
        rounds.run(args.seconds)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values = {
            'ops_per_s': len(rounds.durations) / sum(rounds.durations),
            'op_p50_ms': statistics.median(rounds.durations) * 1000,
            'peak_rss_mb': peak_mb,
            'setup_s': statistics.median(setups),
        }
        units = {'ops_per_s': '1/s', 'op_p50_ms': 'ms', 'peak_rss_mb': 'MB',
                 'setup_s': 's'}

    for problem in rounds.problems:
        print(f'CHECK FAILED: {problem}', file=sys.stderr)
    result = {'correct': not rounds.problems, 'attempted': rounds.attempted,
              'failed': rounds.failed,
              'metrics': {name: {'value': value, 'unit': units[name]}
                          for name, value in values.items()}}
    (OUT / f'result-{tag}-trace{args.trace}.json').write_text(
        json.dumps(result, indent=1) + '\n')
    print(json.dumps(result))
    return 0


if __name__ == '__main__':
    sys.exit(main())
