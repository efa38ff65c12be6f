"""Benchmark of the ``gysin`` layers, timed from outside the program.

Run from the repository root:

    python3 bench/run.py --workload rank-ladder --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --smoke

One closed loop: a single caller in a single process, no threads.  A run
repeats whole passes over the workload's operations (see
``workloads.py``) while the passes fit in ``--seconds``; it always makes
at least one.  Function caches in ``gysin`` are cleared before each pass,
so every pass starts as cold as a fresh CLI process.  Results are checked
after each pass, outside the timed region; an exception, a nonzero exit
or a mismatch counts the operation as failed.  Operation times are scaled
by reference work timed around them (see ``reference_work``), so that
drift in the machine's speed does not show as a change in the program.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` spends half of ``--seconds`` on untraced passes and half on
passes with spans around every layer's public calls, and prints the
per-layer metrics; it also writes every span to ``bench/results/``.
The last line of standard output is the JSON result; lines before it
starting with ``#`` give the machine, the seed and the sample counts.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import selectors
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = Path(__file__).resolve().parent / "results"
WORKLOADS = ("rank-ladder", "verify-sweep", "general-classes")

SETUP_REPEATS = 7
# Reported times are scaled to a machine on which reference_work() takes
# REF_NOMINAL_S; a timer runs it every REF_EVERY_S, inside operations too.
REF_NOMINAL_S = 0.03
REF_EVERY_S = 0.5
# rank_ceiling: the largest lg rank above BASE whose residue call ends
# within BUDGET seconds, probed rank by rank up to PROBE_TOP.
PROBE_BASE, PROBE_BUDGET_S = 6, 5.0
PROBE_BASE_TINY, PROBE_BUDGET_TINY_S = 4, 3.0
PROBE_TOP = 10

# Child process: import, parser build and a rank-3 call of every method,
# then the reference work.
SETUP_CODE = """
import sys, time, io, contextlib
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import gysin
from gysin import cli
if not gysin.__file__.startswith(sys.argv[1]):
    raise SystemExit("gysin imported from " + gysin.__file__)
cli.build_parser()
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["pushforward", "--space", "lg", "--n", "3", "--lambda", "5,3,1",
                     "--method", "all", "--format", "json"])
if code:
    raise SystemExit("warm-up call exited %d" % code)
setup = time.perf_counter() - start
sys.path.insert(0, sys.argv[2])
from run import reference_work
print(setup, sorted(reference_work() for _ in range(3))[1])
"""

# Child process: lg residue calls with mu = (2,1) at rising rank, one line
# per finished call.
PROBE_CODE = """
import sys, io, contextlib
sys.path.insert(0, sys.argv[1])
from gysin import cli
print("ready", flush=True)
for n in range(int(sys.argv[2]), int(sys.argv[3]) + 1):
    lam = ",".join(str(2 * m + n - i) for i, m in enumerate([2, 1] + [0] * (n - 2)))
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["pushforward", "--space", "lg", "--n", str(n), "--lambda", lam,
                         "--method", "residue", "--format", "json"])
    print(n, code, flush=True)
    if code:
        break
"""


def _child(code: str, *args) -> list:
    return [sys.executable, "-I", "-c", code, str(SRC), *map(str, args)]


def reference_work() -> float:
    """Seconds taken by fixed pure-Python work shaped like the program's
    (Fraction arithmetic, tuple-keyed dicts).

    The machine's speed drifts by tens of percent over minutes when its
    neighbours are busy, in CPU time as much as in wall time.  Dividing an
    operation's time by the reference time measured around it cancels
    most of that drift; the program never runs inside it.
    """
    start = time.perf_counter()
    acc, total = {}, Fraction(0)
    for i in range(1, 3000):
        key = (i % 13, i % 7, i % 5)
        acc[key] = acc.get(key, 0) + Fraction(i, i % 11 + 1)
        total += Fraction(1, i % 97 + 1)
    return time.perf_counter() - start


def measure_setup() -> float:
    """Median over fresh interpreters of import, parser build and warm-up,
    each scaled by the reference work timed in the same interpreter."""
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(_child(SETUP_CODE, Path(__file__).resolve().parent), cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        if done.returncode:
            raise RuntimeError(f"set-up child failed: {done.stderr.strip()}")
        setup, ref = map(float, done.stdout.split()[-2:])
        samples.append(setup * REF_NOMINAL_S / ref)
    return statistics.median(samples)


def probe_rank_ceiling(base: int, budget: float) -> int:
    """Largest rank above ``base`` whose call ends within ``budget`` seconds,
    or ``base`` when none does.  The child is killed at the budget."""
    proc = subprocess.Popen(_child(PROBE_CODE, base + 1, PROBE_TOP), cwd=ROOT,
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    ceiling = base
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            if not sel.select(timeout=60) or proc.stdout.readline().strip() != "ready":
                raise RuntimeError("rank probe did not start")
            while sel.select(timeout=budget):
                line = proc.stdout.readline().split()
                if len(line) != 2 or line[1] != "0":
                    break
                ceiling = int(line[0])
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
    return ceiling


def reset_caches():
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "gysin" or name.startswith("gysin.")):
            for value in list(vars(module).values()):
                clear = getattr(value, "cache_clear", None)
                if callable(clear):
                    clear()


class Pass:
    """One timed pass over the workload's operations.  ``check`` runs
    afterwards, outside the timed region and with no tracer installed.

    In an untraced pass an interval timer runs ``reference_work`` every
    REF_EVERY_S seconds, also in the middle of an operation, so that long
    operations are scaled by the speed the machine had while they ran.
    ``durations`` are wall seconds with the reference work taken out;
    ``scaled`` divides each by the mean reference time within REF_EVERY_S
    of the operation.  A traced pass, whose spans must not contain the
    reference work, is scaled by reference work before and after it.
    ``wall`` excludes the reference work."""

    def __init__(self, workload, tracer=None):
        self.ops = workload.pass_ops()
        self.outputs = []
        self.failures = []
        self.first_op = tracer.op + 1 if tracer is not None else 0
        refs = []  # (start, seconds)
        clock = time.perf_counter

        def sample(*_):
            began = clock()
            refs.append((began, reference_work()))

        spans = []
        reset_caches()
        sample()
        start = clock()
        if tracer is None:
            previous = signal.signal(signal.SIGALRM, sample)
            signal.setitimer(signal.ITIMER_REAL, REF_EVERY_S, REF_EVERY_S)
        try:
            for op in self.ops:
                if tracer is not None:
                    tracer.op += 1
                began = clock()
                try:
                    out = op.call()
                except Exception as exc:  # counted as a failed operation
                    out = exc
                spans.append((began, clock()))
                self.outputs.append(out)
        finally:
            if tracer is None:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
        end = clock()
        sample()
        self.wall = end - start - sum(r for t, r in refs if start <= t < end)
        self.ref_s = statistics.median(r for _, r in refs)
        self.durations, self.scaled = [], []
        for began, ended in spans:
            inside = sum(r for t, r in refs if began <= t < ended)
            near = [r for t, r in refs if began - REF_EVERY_S <= t <= ended + REF_EVERY_S]
            if tracer is not None or not near:
                near = [refs[0][1], refs[-1][1]]
            self.durations.append(ended - began - inside)
            self.scaled.append(self.durations[-1] * REF_NOMINAL_S * len(near) / sum(near))

    def check(self, workload):
        workload.counts.clear()
        for op, out in zip(self.ops, self.outputs):
            try:
                if isinstance(out, Exception):
                    raise out
                op.check(out)
            except Exception as exc:  # counted as a failed operation
                self.failures.append(f"{op.label}: {type(exc).__name__}: {exc}")
        self.outputs = None


def run_passes(workload, budget: float, tracer=None) -> list:
    """Whole passes while the next one is expected to fit in ``budget``.
    Untraced passes are checked at once; traced ones by the caller."""
    passes = []
    while True:
        passes.append(Pass(workload, tracer))
        if tracer is None:
            passes[-1].check(workload)
        spent = sum(p.wall for p in passes)
        if spent + spent / len(passes) > budget:
            return passes


def tail_percentile(per_pass: int) -> int:
    """Highest whole percentile with at least ten of ``per_pass`` samples
    beyond it.  Taken from one pass, so it does not move with the number of
    passes a run makes."""
    return max(0, math.floor(100 * (per_pass - 10) / per_pass))


def percentile(values, pct: int) -> float:
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1]


def median_by_rank(passes, rank: int) -> float:
    times = [d for p in passes for op, d in zip(p.ops, p.scaled) if op.rank == rank]
    return statistics.median(times) if times else 0.0


def end_to_end(passes, tiny: bool, info: list) -> dict:
    setup_s = measure_setup()
    durations = [d for p in passes for d in p.scaled]
    raw = sum(len(p.ops) for p in passes) / sum(p.wall for p in passes)
    per_pass = len(passes[0].ops)
    pct = tail_percentile(per_pass)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    base, budget = (PROBE_BASE_TINY, PROBE_BUDGET_TINY_S) if tiny else (PROBE_BASE, PROBE_BUDGET_S)
    ceiling = probe_rank_ceiling(base, budget)
    info.append(f"samples: {len(durations)} ops in {len(passes)} passes of {per_pass}; "
                f"op_tail_s is p{pct}; setup_s is the median of {SETUP_REPEATS}; "
                f"rank_ceiling budget {budget:g} s per call")
    info.append(f"times scaled to reference work of {REF_NOMINAL_S} s; median reference "
                f"{statistics.median(p.ref_s for p in passes):.4f} s; unscaled ops_per_s {raw:.4f}")
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(durations) / sum(durations), "1/s"),
        "op_p50_s": (statistics.median(durations), "s"),
        "op_tail_s": (percentile(durations, pct), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "rank_ceiling": (ceiling, "rank"),
    }


def per_layer(workload, plain, traced, tracer, info: list) -> dict:
    """Layer times and counts per traced pass; the passes are identical."""
    k = len(traced)
    wall = sum(p.wall for p in traced)
    traced_op_s = sum(sum(p.scaled) for p in traced) / k
    untraced_op_s = sum(sum(p.scaled) for p in plain) / len(plain)
    layer_self = tracer.layer_self()
    uncovered = wall - tracer.covered_time()
    gap = sum(layer_self.values()) + tracer.hook_time + uncovered - wall
    if abs(gap) > 1e-6 * max(wall, 1.0):
        raise RuntimeError(f"span accounting is off by {gap} s")
    ops = [op for p in plain + traced for op in p.ops]
    failed = sum(len(p.failures) for p in plain + traced)
    s, inc = tracer.self_time, tracer.inclusive
    counts = dict(tracer.counts)
    counts.update({f"{kind}_calls": n for kind, n in tracer.calls.items()})
    if any(v % k for v in counts.values()):
        raise RuntimeError("traced passes did not repeat the same work")
    c = {key: v // k for key, v in counts.items()}

    def seconds(value):
        return (value / k, "s")

    def count(key):
        return (c.get(key, 0), "count")

    metrics = {
        "error_rate": (failed / len(ops), "ratio"),
        "push_n5_s": (median_by_rank(plain, 5), "s"),
        "push_n6_s": (median_by_rank(plain, 6), "s"),
        "trace.wall_s": seconds(wall),
        "trace.overhead_pct": (100 * (traced_op_s / untraced_op_s - 1), "%"),
        "trace.hook_s": seconds(tracer.hook_time),
        "bench.uncovered_s": seconds(uncovered),
        "cli.self_s": seconds(layer_self["cli"]),
        "verification.case_self_s": seconds(layer_self["verification"]),
        "verification.oracle_compared": count("verification.oracle_compared"),
        "verification.oracle_skipped": count("verification.oracle_skipped"),
        "pushforward.self_s": seconds(layer_self["pushforward"]),
        "pushforward.residue_self_s": seconds(
            layer_self["pushforward"] - s["pushforward.closed_form"]),
        "pushforward.closed_form_s": seconds(inc["pushforward.closed_form"]),
        "pushforward.w_terms": count("pushforward.w_terms"),
        "pushforward.odd_terms": count("pushforward.odd_terms"),
        "schur.self_s": seconds(layer_self["schur"]),
        "schur.bialternant_s": seconds(inc["schur.bialternant"]),
        "schur.bialternant_calls": count("schur.bialternant_calls"),
        "schur.out_terms": count("schur.out_terms"),
        "poly.self_s": seconds(layer_self["poly"]),
        "poly.mul_s": seconds(s["poly.mul"]),
        "poly.mul_calls": count("poly.mul_calls"),
        "poly.mul_out_terms": count("poly.mul_out_terms"),
        "poly.exact_div_s": seconds(s["poly.exact_div"]),
        "poly.exact_div_calls": count("poly.exact_div_calls"),
        "poly.quotient_terms": count("poly.quotient_terms"),
        "poly.is_symmetric_s": seconds(s["poly.is_symmetric"]),
        "localization.self_s": seconds(layer_self["localization"]),
        "localization.sum_s": seconds(inc["localization.sum"]),
        "localization.sum_calls": count("localization.sum_calls"),
        "localization.fixed_points": count("localization.fixed_points"),
        "localization.monomial_evals": count("localization.monomial_evals"),
        "localization.og_even_disagree": (
            workload.counts["localization.og_even_disagree"], "count"),
        "partitions.self_s": seconds(layer_self["partitions"]),
    }
    info.append(f"traced: {k} passes, {wall:.3f} s wall; untraced: {len(plain)} passes; "
                f"scaled op time per pass {traced_op_s:.3f} s traced, {untraced_op_s:.3f} s "
                f"untraced; layer times and counts are per traced pass, times unscaled")
    if tracer.missing:
        info.append("not wrapped (absent): " + ", ".join(tracer.missing))
    return metrics


def write_trace(name: str, seed: int, machine: dict, metrics: dict, workload, traced, tracer):
    stages = {}
    last = traced[-1]
    for index, op in enumerate(last.ops):
        if name == "rank-ladder" and op.label.startswith("lg:") and op.label not in stages:
            stages[op.label] = dict(tracer.stages(last.first_op + index),
                                    oracle_1pt_s=workload.oracle_1pt_s.get(op.label))
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"trace-{name}-seed{seed}.json"
    payload = {
        "workload": name, "seed": seed, "machine": machine,
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "lg_stages": stages,
        "span_fields": ["id", "parent", "kind", "start", "end", "op"],
        "ops": [op.label for op in traced[-1].ops],
        "spans": tracer.spans,
    }
    path.write_text(json.dumps(payload))
    return path, stages


def run(args) -> int:
    if not (SRC / "gysin" / "__init__.py").is_file():
        print(f"error: no gysin sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gysin
    if not gysin.__file__.startswith(str(SRC)):
        print(f"error: gysin imported from {gysin.__file__}", file=sys.stderr)
        return 2
    import workloads

    machine = {"nproc": os.cpu_count(), "python": platform.python_version(),
               "platform": platform.platform()}
    workload = workloads.BY_NAME[args.workload](args.seed, args.tiny)
    info = [f"machine: nproc={machine['nproc']} python={machine['python']} "
            f"{machine['platform']}",
            f"workload: {args.workload} seed={args.seed} seconds={args.seconds} "
            f"trace={args.trace}{' tiny' if args.tiny else ''}"]
    if args.trace:
        from tracer import Tracer

        plain = run_passes(workload, args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_passes(workload, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        for p in traced:
            p.check(workload)
        passes = plain + traced
        metrics = per_layer(workload, plain, traced, tracer, info)
        path, stages = write_trace(args.workload, args.seed, machine, metrics,
                                   workload, traced, tracer)
        for label, stage in stages.items():
            info.append(f"stages {label}: " + " ".join(
                f"{k}={v:.4f}" for k, v in stage.items() if v is not None))
        info.append(f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")
    else:
        passes = run_passes(workload, args.seconds)
        metrics = end_to_end(passes, args.tiny, info)
    failures = [f for p in passes for f in p.failures]
    for line in failures[:10]:
        print(f"failed: {line}", file=sys.stderr)
    for line in info:
        print(f"# {line}")
    attempted = sum(len(p.ops) for p in passes)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def smoke() -> int:
    """Tiny inputs per workload, both modes; every metric named in
    BENCHMARK.json must be printed with its unit, and nothing else."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload",
                    workload["name"], "--seed", "1", "--seconds", "1", "--trace",
                    str(trace), "--tiny"]
            done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170)
            where = f"{workload['name']} trace={trace}"
            if done.returncode:
                problems.append(f"{where}: exit {done.returncode}: {done.stderr.strip()}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                problems.append(f"{where}: metrics {sorted(got.items())} != {sorted(want.items())}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: {result['failed']} of {result['attempted']} failed")
            print(f"smoke {where}: {len(got)} metrics, {result['attempted']} ops")
    for line in problems:
        print(f"smoke problem: {line}", file=sys.stderr)
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for --smoke")
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload on tiny inputs and check the output")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return run(args)


if __name__ == "__main__":
    raise SystemExit(main())
