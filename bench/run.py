"""vbraid benchmark: one workload per run, measured from outside the program.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout (the directory holding src/vbraid).
The last line of standard output is one JSON object: correct, attempted,
failed and metrics (the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1).  Result and trace files go to .bench_out/.
See bench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

MIN_ROUNDS = 2
ROUND_BUDGET_S = 120  # no round starts past this much timed work
SETUP_REPEATS = 5
OUT_DIR = Path(".bench_out")

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def per_layer_units(workloads):
    units = {"braidword.parse_word.busy_s": "s"}
    for wl in workloads:
        units.update({name: "s" for name in wl.BUSY})
        units.update({name: "count" for name in wl.COUNTS})
        units.update({name: "ms" for name in getattr(wl, "TIMES_MS", ())})
    return units


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def time_setup(texts_path):
    """Wall time of fresh processes that start, import vbraid and parse the inputs."""
    child = Path(__file__).with_name("setup_child.py")
    walls = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        # no timeout: with one, Popen.wait polls with sleeps of up to 50 ms,
        # which quantizes the measured time
        subprocess.run([sys.executable, str(child), str(texts_path)], check=True)
        walls.append(perf_counter() - t0)
    return statistics.median(walls)


def timed_phase(wl, specs, items, tr, seconds):
    """Whole rounds of every operation until `seconds` of timed work."""
    op_times = [[] for _ in items]
    elapsed, rounds, failed, last = 0.0, 0, 0, 0.0
    bad, errors, counts = set(), {}, {}
    while (rounds < MIN_ROUNDS or elapsed < seconds) and elapsed + last < ROUND_BUDGET_S:
        gc.collect()
        outs, raised = [], set()
        start = perf_counter()
        for i, item in enumerate(items):
            tr.op_id = f"{rounds}:{i}"
            t0 = perf_counter()
            try:
                out = tr.call("op", wl.run, item, tr)
            except Exception as exc:  # an operation that fails is counted, not fatal
                out = exc
                raised.add(i)
            op_times[i].append(perf_counter() - t0)
            if rounds == 0:
                outs.append(out)
        last = perf_counter() - start
        elapsed += last
        if rounds == 0:
            for i, (spec, out) in enumerate(zip(specs, outs)):
                if i in raised:
                    errors[i] = [f"raised {type(out).__name__}: {out}"]
                    continue
                try:
                    errs = wl.check(spec, out)
                except Exception as exc:
                    errs = [f"check raised {type(exc).__name__}: {exc}"]
                if errs:
                    errors[i] = errs
            bad = set(errors)
            if tr.enabled and not bad:
                counts = wl.counts(specs, outs)
            del outs
        failed += len(bad | raised)
        rounds += 1
        if tr.enabled and hasattr(wl, "probe"):
            tr.op_id = f"{rounds - 1}:probe"
            wl.probe(tr)
    return op_times, elapsed, rounds, failed, errors, counts


def end_to_end(op_times, elapsed, rounds, setup_s, peak_rss_kb):
    # An operation's latency is its mean over the run's rounds.  The machine
    # slows down by up to 1.6x for seconds at a time; a mean over rounds
    # spread across the run evens that out, where the least or the median
    # time reads fast in one run and slow in the next.
    per_op = sorted(statistics.mean(ts) for ts in op_times)
    deciles = statistics.quantiles(per_op, n=10)
    values = {
        "setup_s": setup_s,
        "ops_per_s": len(per_op) * rounds / elapsed,
        "latency_p50_ms": 1e3 * statistics.median(per_op),
        "latency_p90_ms": 1e3 * deciles[8],
        "peak_rss_mb": peak_rss_kb / 1024,
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def main(argv=None):
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "vbraid" / "__init__.py").is_file():
        print("error: run from a vbraid checkout root (src/vbraid not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import selftest
    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]()
    rng = random.Random(f"{args.workload}:{args.seed}")
    specs = wl.generate(rng)
    # interleave the strata, so that each one's times are sampled across
    # the whole round rather than in one stretch of it
    rng.shuffle(specs)

    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    texts_path = OUT_DIR / f"inputs-{tag}-{os.getpid()}.json"
    texts_path.write_text(json.dumps(wl.texts(specs)))

    tr = Tracer(bool(args.trace))
    items = wl.prepare(specs, tr)
    op_times, elapsed, rounds, failed, errors, counts = timed_phase(
        wl, specs, items, tr, args.seconds
    )
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    peak_rss_kb = resource.getrusage(who).ru_maxrss
    try:
        setup_s = time_setup(texts_path)
    finally:
        texts_path.unlink()
    selftest_failures = selftest.run()

    e2e = end_to_end(op_times, elapsed, rounds, setup_s, peak_rss_kb)
    attempted = len(items) * rounds
    metrics = e2e
    if tr.enabled:
        metrics = {name: {"value": 0, "unit": unit}
                   for name, unit in per_layer_units(WORKLOADS.values()).items()}
        layer = {"braidword.parse_word.busy_s": tr.total("braidword.parse_word", "setup")}
        layer.update({m: tr.busy_per_round(span) for m, span in wl.BUSY.items()})
        layer.update(counts)
        if hasattr(wl, "layer_metrics"):
            layer.update(wl.layer_metrics(tr))
        for name, value in layer.items():
            metrics[name]["value"] = value

    for i, errs in sorted(errors.items())[:10]:
        print(f"op {i} failed: {'; '.join(errs)}", file=sys.stderr)
    for name in selftest_failures:
        print(f"self-test: planted wrong answer accepted: {name}", file=sys.stderr)
    print(f"{args.workload}: seed {args.seed}, {len(items)} ops x {rounds} rounds "
          f"in {elapsed:.2f} s, {failed} failed")
    for name, m in e2e.items():
        print(f"  {name:16s} {m['value']:.6g} {m['unit']}")
    result = {
        "correct": failed == 0 and not selftest_failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    (OUT_DIR / f"result-{tag}.json").write_text(json.dumps(
        dict(result, end_to_end=e2e, rounds=rounds, ops_per_round=len(items), op_times=op_times), indent=1))
    if tr.enabled:
        (OUT_DIR / f"trace-{tag}.json").write_text(json.dumps(
            {"end_to_end": e2e, "spans": tr.to_json_obj()}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
