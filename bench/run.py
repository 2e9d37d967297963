"""Benchmark of the fermatsym command-line interface.

    python3 bench/run.py --workload eliminate|obstruct|sweep --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each operation is one CLI command,
run in this process through fermatsym.cli.main([..., "--json"]) with its
standard output captured.  A run repeats the workload's fixed batch of
operations for about S seconds, then checks the first batch's documents
against independent arithmetic (checks.py) and requires every later batch
to print the same documents up to their elapsed_ms fields.

With --trace 0 the last line of standard output is a JSON object holding
the end-to-end metrics; with --trace 1 the batches alternate between
untraced and traced, and it holds the per-layer metrics.  A summary, and
the files written under bench/out/, are described in README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import time
import zlib
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCHEMA = SRC / "fermatsym" / "schema" / "report.schema.json"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

TAIL_BEYOND = 10  # op_tail_ms is the time with this many slower operations
SETUP_SAMPLES = 11
SETUP_CODE = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import fermatsym.cli\n"
    "fermatsym.cli.build_parser()\n"
    "print(time.perf_counter() - start)\n"
)
_ELAPSED = re.compile(r'"elapsed_ms": \d+')


def measure_setup() -> float:
    """Median time for a fresh interpreter to import fermatsym.cli and build
    its parser; a first, unmeasured start writes the bytecode caches."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    values = []
    for i in range(SETUP_SAMPLES + 1):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        if i:
            values.append(float(done.stdout))
    return statistics.median(values)


class Batch:
    """The results of one pass over a workload's operations.

    Outputs are kept as digests of their text without elapsed_ms, and, for
    the batch that gets checked, compressed: holding every output whole would
    make the harness, not the program, set peak_rss_mb.
    """

    def __init__(self, keep: bool):
        self.keep = keep
        self.times: list[float] = []
        self.digests: list[bytes | None] = []
        self.kept: list[bytes | None] = []
        self.failed = 0
        self.op_stats: list[tuple[dict, dict]] = []

    def add(self, text: str | None) -> None:
        if text is None:
            self.failed += 1
            self.digests.append(None)
            self.kept.append(None)
            return
        self.digests.append(hashlib.sha256(_ELAPSED.sub('"elapsed_ms": 0', text).encode()).digest())
        self.kept.append(zlib.compress(text.encode(), 1) if self.keep else None)

    def texts(self) -> list[str | None]:
        return [t if t is None else zlib.decompress(t).decode() for t in self.kept]

    @property
    def wall(self) -> float:
        return sum(self.times)


def run_batch(cli, ops, tracing: tracer.Tracer | None, keep: bool) -> Batch:
    batch = Batch(keep)
    if tracing is not None:
        tracing.install()
    try:
        for op in ops:
            buf = io.StringIO()
            start = time.perf_counter()
            try:
                with redirect_stdout(buf):
                    code = cli.main([*op.argv, "--json"])
            except (Exception, SystemExit) as e:  # a crash is a failed operation
                print(f"{' '.join(op.argv)}: {type(e).__name__}: {e}", file=sys.stderr)
                code = None
            batch.times.append(time.perf_counter() - start)
            if tracing is not None:
                batch.op_stats.append(tracing.take())
            # 1 is "undecided", an answer; 2 is a usage or data error
            batch.add(buf.getvalue() if code in (0, 1) else None)
    finally:
        if tracing is not None:
            tracing.uninstall()
    return batch


def _sum_stats(op_stats):
    stats: dict[str, list[int]] = {}
    counters: dict[str, int] = {}
    for op_s, op_c in op_stats:
        for name, row in op_s.items():
            total = stats.setdefault(name, [0, 0, 0])
            for i in range(3):
                total[i] += row[i]
        for name, value in op_c.items():
            counters[name] = counters.get(name, 0) + value
    return stats, counters


def _trace_dump(ops, batch: Batch) -> list[dict]:
    return [
        {
            "argv": list(op.argv),
            "ms": t * 1e3,
            "functions": {
                name: {"calls": row[0], "ms": row[1] / 1e6, "self_ms": row[2] / 1e6}
                for name, row in sorted(op_s.items())
            },
            "counters": op_c,
        }
        for op, t, (op_s, op_c) in zip(ops, batch.times, batch.op_stats)
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fermatsym" / "cli.py").is_file() or not SCHEMA.is_file():
        print(f"error: no fermatsym source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from fermatsym import cli

    ops = workloads.WORKLOADS[args.workload](args.seed)
    traced = bool(args.trace)
    setup_s = None if traced else measure_setup()
    tracing = tracer.Tracer() if traced else None

    batches: list[tuple[bool, Batch]] = []
    problems: list[str] = []
    attempted = failed = 0
    deadline = time.perf_counter() + args.seconds
    while True:
        started = time.perf_counter()
        with_trace = traced and len(batches) % 2 == 1
        batch = run_batch(cli, ops, tracing if with_trace else None, keep=not batches)
        attempted += len(ops)
        failed += batch.failed
        if batches:
            reference = batches[0][1].digests
            problems += [
                f"{' '.join(op.argv)}: output differs between batches"
                for op, a, b in zip(ops, reference, batch.digests)
                if a != b and a and b
            ]
        batches.append((with_trace, batch))
        took = time.perf_counter() - started
        if len(batches) >= (2 if traced else 1) and time.perf_counter() + took > deadline:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    first = batches[0][1]
    problems += checks.Checker(SCHEMA, args.seed).check_batch(ops, first.texts())
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)

    plain = [b for t, b in batches if not t]
    if traced:
        with_tr = [b for t, b in batches if t]
        rows = [tracer.layer_metrics(*_sum_stats(b.op_stats)) for b in with_tr]
        values = {name: statistics.mean(r[name] for r in rows) for name in rows[0]}
        values["trace.wall_s"] = statistics.mean(b.wall for b in with_tr)
        values["trace.overhead_s"] = values["trace.wall_s"] - statistics.mean(b.wall for b in plain)
        units = {name: tracer.unit(name) for name in values}
        dump = _trace_dump(ops, with_tr[-1])
    else:
        # Each batch gives its total, median and tail; a run reports their means
        # over its batches.  The speed of the machine switches between levels
        # about 35% apart for tens of seconds at a time: a median over batches
        # snaps to one level, while the mean weighs the mix, and measured the
        # narrower run-to-run spread.
        n = len(ops)
        values = {
            "setup_s": setup_s,
            "wall_s": statistics.mean(b.wall for b in plain),
            "op_p50_ms": statistics.mean(statistics.median(b.times) for b in plain) * 1e3,
            "op_tail_ms": statistics.mean(sorted(b.times)[n - 1 - TAIL_BEYOND] for b in plain) * 1e3,
            "peak_rss_mb": peak_rss_mb,
        }
        units = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms", "peak_rss_mb": "MB"}
        dump = None

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }
    print(
        f"{args.workload} seed {args.seed}: {len(batches)} batches of {len(ops)} operations, "
        f"{failed} of {attempted} failed, {len(problems)} check problems",
        file=sys.stderr,
    )
    wall_ms = values.get("trace.wall_s", 0) * 1e3
    for name, v in values.items():
        share = f"{100 * v / wall_ms:6.1f}% of traced wall_s" if units[name] == "ms" and wall_ms else ""
        print(f"  {name:40s} {v:14.4f} {units[name]:5s} {share}", file=sys.stderr)

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = dict(result, batches=[{"traced": t, "wall_s": b.wall, "times_s": b.times} for t, b in batches])
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if dump is not None:
        (OUT / f"{stem}-ops.json").write_text(json.dumps(dump, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
