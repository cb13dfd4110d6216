"""pathsum benchmark: one closed-loop client, one CLI call at a time.

Run from the repository root:

    python3 perfbench/run.py --workload hidden-shift --seed 1 --seconds 30 --trace 0

``--workload all`` runs the three workloads one after another, each in
its own process, and exits non-zero if any of them fails.

Both modes run whole rounds of calls (see ``workloads.py``), as many
as fit in ``--seconds`` but at least two untraced or one traced, so
every run does the same mix of work.
Every call goes through the front door, ``pathsum.cli.main([... "--json"])``,
in this process, on circuit files that set-up writes under
``perfbench/work/``.  Every answer is checked exactly: recovered shifts
against the instance's shift, probabilities against the statevector
oracle (computed in set-up, outside the timing), confluence reports
against zero failures.  A wrong answer or an unexpected exit code fails
the run; a guard refusal (exit 3) only lowers ``decided_frac``.

Workloads, and the layers they stress and bypass:

* ``hidden-shift``: ``hidden-shift-solve`` on two large (n = 32 by
  default) and four n = 16 instances per round.  The state collapses,
  so interpret and the (0, n) normalization do the work; dense
  evaluation only sees 0-variable sums.
* ``random-measure``: ``measure --max-eval-vars 20`` on
  ``random_circuit(12, 200)`` and ``random_circuit(16, 300)``, two
  n = 12 queries per n = 16 query.  Two n = 16 queries are pinned: one
  keeps 56 variables and is refused, one keeps 17 and is evaluated.
  The only workload where the closed (0, 0) normalization, dense
  evaluation and the guard do real work.
* ``confluence``: ``check-confluence --trials 50 --max-vars 8`` with 40
  fuzz seeds per round.  Thousands of tiny sums through both
  normalizers, the ``find_rewrites`` + ``apply`` loop and
  ``simply_equivalent``; per-call cost shows here, big-sum work does not.

End-to-end metrics (``--trace 0``) are taken with no wrappers installed:
``p50_s`` and ``p90_s`` over the round's answered calls, each timed
best-of-rounds; ``ops_per_s`` (solves, answered queries or fuzz trials
per second); ``decided_frac`` (answered calls over calls); ``setup_s``
(median of several imports of ``pathsum`` plus input generation,
oracle references excluded); ``peak_rss_mb`` of the process.  Times in
seconds are wall times scaled to a reference machine speed (see
``reference_seconds``); the raw wall time and the speed factor of each
round are printed before the result.

``--trace 1`` runs whole rounds; each call runs once bare and twice
traced, the two traced runs must give identical counters, and the
per-layer metrics are per round (mean raw wall seconds, exact counts).
Layer times are inclusive; ``cli.self_s`` and ``sim.self_s`` are self times.
Which per-layer metric should move which end-to-end metric:

* ``sums.interpret_*``: ``p50_s``/``p90_s`` on hidden-shift and
  random-measure, ``peak_rss_mb``;
* ``rewrite.normalize_state_s``: hidden-shift only;
* ``rewrite.normalize_closed_s``: random-measure, and hidden-shift's
  per-qubit sandwiches;
* ``sim.projector_s``, ``sums.compose_s``: hidden-shift;
* ``sums.evaluate_*``: ``p90_s`` and ``decided_frac`` on random-measure;
* ``rewrite.normalize_random_s``, ``find_rewrites_s``, ``apply_s``,
  ``simply_equivalent_s``, ``eval_fallbacks``, ``fuzz.generate_s``:
  ``ops_per_s`` on confluence;
* variable, step and phase-term counts explain the times above;
* ``circuit.parse_s``, ``cli.self_s``, ``sim.self_s`` are floor costs and
  ``trace.overhead_frac`` the cost of tracing.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402
from workloads import FAILED, OK  # noqa: E402

#: set-up repetitions; setup_s is their median
SETUP_REPS = 15
#: seconds the reference loop takes on an uncontended 2.1 GHz Xeon KVM
#: guest under CPython 3.11; times are reported at that speed
REFERENCE_S = 0.0055


def reference_seconds() -> float:
    """Time a fixed pure-Python loop of integer hashing and set toggles.

    On a shared machine other tenants can slow the CPU by up to half for
    seconds to minutes at a time.  The loop does the same kind of work as
    the engine's inner loops, so timing it next to each call measures how
    fast the machine is running at that moment.
    """
    t0 = perf_counter()
    acc: set[int] = set()
    x = 1
    for _ in range(20000):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        m = x >> 20
        if m in acc:
            acc.remove(m)
        else:
            acc.add(m)
    return perf_counter() - t0


def load_pathsum():
    """Import pathsum afresh from this checkout's src/."""
    for name in [m for m in sys.modules if m == "pathsum" or m.startswith("pathsum.")]:
        del sys.modules[name]
    ps = importlib.import_module("pathsum")
    for sub in ("cli", "fuzz", "rewrite", "sim"):
        importlib.import_module("pathsum." + sub)
    if Path(ps.__file__).resolve().parent != SRC / "pathsum":
        raise SystemExit(f"error: imported pathsum from {ps.__file__}, not {SRC}")
    return ps


def set_up(workload: str, seed: int, large_n: int):
    """Import and generate the inputs several times; keep the last."""
    workdir = HERE / "work" / f"{workload}-seed{seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    times = []
    for _ in range(SETUP_REPS):
        speed = REFERENCE_S / reference_seconds()
        t0 = perf_counter()
        ps = load_pathsum()
        ops = workloads.WORKLOADS[workload](ps, seed, workdir, large_n)
        times.append((perf_counter() - t0) * speed)
    return ps, ops, statistics.median(times), workdir


def call(ps, op):
    """One front-door call; returns (seconds, exit code, JSON payload)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        t0 = perf_counter()
        rc = ps.cli.main(op.argv)
        dt = perf_counter() - t0
    text = out.getvalue().strip()
    payload = json.loads(text.splitlines()[-1]) if text else None
    return dt, rc, payload


def rounds(seconds, at_least):
    """Round numbers: at least ``at_least``, then while one more fits."""
    start = perf_counter()
    n = 0
    while n < at_least or (perf_counter() - start) * (n + 1) / n <= seconds:
        yield n
        n += 1


def timed(ps, ops, seconds):
    """Untraced closed loop: whole rounds until the time is up.

    Each call's time is scaled to the reference speed by the median of
    the reference loop timings taken next to the round's calls, and each
    call keeps its best scaled time over the rounds.  The percentiles are
    taken over the round's calls, and throughput is the round's work over
    the sum of its calls' best times.
    """
    best = [float("inf")] * len(ops)
    outcome = [None] * len(ops)
    attempted = failed = 0
    raw = []
    for _ in rounds(seconds, at_least=2):
        refs, times = [], []
        for i, op in enumerate(ops):
            refs.append(reference_seconds())
            dt, rc, payload = call(ps, op)
            times.append(dt)
            result = workloads.check(op, rc, payload)
            attempted += 1
            if result == FAILED or outcome[i] not in (None, result):
                failed += 1
            outcome[i] = result
        speed = REFERENCE_S / statistics.median(refs)
        best = [min(b, t * speed) for b, t in zip(best, times)]
        raw.append((sum(times), speed))
    decided = [t for t, result in zip(best, outcome) if result == OK]
    done = sum(op.units for op, result in zip(ops, outcome) if result == OK)
    for kind in sorted({op.kind for op in ops}):
        times = [t for t, result, op in zip(best, outcome, ops)
                 if op.kind == kind and result == OK]
        print(f"  {kind}: {len(times)} of {sum(op.kind == kind for op in ops)} "
              f"calls decided" + (f", median best {statistics.median(times):.4f} s"
                                  if times else ""))
    print(f"  rounds: {attempted // len(ops)}, calls: {attempted}, failed: {failed}; "
          "per round, wall seconds and machine speed relative to the reference: "
          + ", ".join(f"{t:.3f} s x{v:.3f}" for t, v in raw))
    metrics = {}
    if decided:
        metrics["p50_s"] = (statistics.median(decided), "s")
        p90 = (statistics.quantiles(decided, n=10, method="inclusive")[-1]
               if len(decided) > 1 else decided[0])
        metrics["p90_s"] = (p90, "s")
        metrics["ops_per_s"] = (done / sum(best), "1/s")
    metrics["decided_frac"] = (len(decided) / len(ops), "frac")
    return metrics, attempted, failed, bool(decided)


def traced(ps, ops, seconds, span_path):
    """Whole rounds; each call bare once, then traced twice."""
    tr = tracer.Tracer(ps)
    bare = 0.0
    per_kind = defaultdict(Counter)    # summed seconds and counts per kind
    attempted = failed = 0
    repeatable = True
    for _ in rounds(seconds, at_least=1):
        for op in ops:
            dt, rc, payload = call(ps, op)
            bare += dt
            outcomes = {workloads.check(op, rc, payload)}
            seen = []
            for _ in range(2):
                tr.counts = Counter()
                first = len(tr.spans)
                tr.install()
                try:
                    dt, rc, payload = tr.call("cli.main", call, ps, op)
                finally:
                    tr.uninstall()
                outcomes.add(workloads.check(op, rc, payload))
                if payload and "eval_fallbacks" in payload:
                    tr.counts["rewrite.eval_fallbacks"] += payload["eval_fallbacks"]
                seen.append(tr.counts)
                totals = per_kind[op.kind]
                totals["calls"] += 1
                totals["call_s"] += dt
                totals.update(tr.layer_seconds(first))
                totals.update(tr.counts)
            attempted += 1
            if FAILED in outcomes or len(outcomes) > 1:
                failed += 1
            if seen[0] != seen[1]:
                repeatable = False
                print(f"  counters differ between traced runs of {op.argv}: "
                      f"{dict(seen[0])} != {dict(seen[1])}")
    tr.dump(span_path)

    total = sum(per_kind.values(), Counter())
    executions = 2 * attempted // len(ops)
    metrics = {}
    for name in [n + "_s" for n in tracer.LAYER_SPANS] + ["cli.self_s", "sim.self_s"]:
        metrics[name] = (total[name] / executions, "s")
    for name in tracer.COUNTERS:
        metrics[name] = (total[name] // executions, "count")
    metrics["trace.overhead_frac"] = (total["call_s"] / (2 * bare) - 1, "frac")
    for kind, totals in sorted(per_kind.items()):
        n, call_s = totals.pop("calls"), totals.pop("call_s")
        parts = [f"{name} {value / n:.4g}" + (f" ({value / call_s:.1%})"
                                              if name.endswith("_s") else "")
                 for name, value in sorted(totals.items()) if value]
        print(f"  per {kind} call, {call_s / n:.4g} s: " + "; ".join(parts))
    print(f"  rounds: {attempted // len(ops)}, spans: {len(tr.spans)}")
    return metrics, attempted, failed, repeatable


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS) + ["all"],
                   help="one workload, or 'all' to run each in its own process")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--hs-large", type=int, default=workloads.HS_LARGE_N,
                   help="qubits of the large hidden-shift instance")
    args = p.parse_args(argv)
    if args.workload == "all":
        codes = [subprocess.run([sys.executable, __file__, "--workload", name,
                                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                                 "--trace", str(args.trace), "--hs-large", str(args.hs_large)]
                                ).returncode
                 for name in workloads.WORKLOADS]
        return max(codes)
    if not (SRC / "pathsum" / "__init__.py").is_file():
        print(f"error: no pathsum sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    ps, ops, setup_s, workdir = set_up(args.workload, args.seed, args.hs_large)
    workloads.references(ps, ops)
    print(f"machine: nproc={os.cpu_count()} python={platform.python_version()} "
          f"implementation={platform.python_implementation()}")
    print(f"workload: {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} calls per round={len(ops)}")

    if args.trace:
        metrics, attempted, failed, ok = traced(
            ps, ops, args.seconds, workdir / "spans.jsonl")
    else:
        metrics, attempted, failed, ok = timed(ps, ops, args.seconds)
        metrics["setup_s"] = (setup_s, "s")
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = (rss_kb / 1024, "MB")
    correct = ok and failed == 0
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
