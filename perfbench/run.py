"""Benchmark of otsske: end-to-end metrics per workload, or a traced per-layer run.

    python3 perfbench/run.py --workload attest --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # the three in turn
    python3 perfbench/run.py --compare A.json B.json          # two saved results
    python3 perfbench/selfcheck.py                            # toy-size self-check

With ``--trace 0`` the workload runs untraced for ``--seconds``, and for
at least one batch, and the result holds the end-to-end metrics.  With
``--trace 1`` one fixed, seed-determined batch runs twice, untraced and
then traced, so that call counts repeat exactly for a seed; the result
holds the per-layer metrics and the traced-to-untraced time ratio.  Times
are wall-clock times scaled to a reference host speed (see speed.py); the
raw ones are printed beside them.  The package is imported from the
checkout's ``src``; the backend is the one it selects by default, recorded
in the fingerprint.
The last line of standard output is the result as JSON; results and spans
are also saved under ``.perfbench/``.  The exit code is 1 when any verdict
is wrong, 2 when the package is missing.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import traceback

import env
from speed import Speed

REFERENCE_DIMS = (4, 32)  # radix t, symbols n
TOY_DIMS = (2, 2)
SETUP_PROBES = 2  # fresh-process set-ups besides the run's own; median of 3
# One batch covers every item kind once: a replayed quote, the verify mix
# block, a few store round trips.  A traced run is exactly one batch; an
# untraced run is at least one batch and lasts --seconds.
BATCH = {"attest": 8, "verify": 16, "provision": 3}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=("attest", "verify", "provision", "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="t=2, n=2 instead of t=4, n=32")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--compare", nargs=2, metavar="RESULT")
    return parser.parse_args(argv)


def _dims(args):
    return TOY_DIMS if args.toy else REFERENCE_DIMS


def _setup(name: str, seed: int, dims):
    """Import the package and build the workload's state.

    Returns the workload and the set-up time, raw and at reference speed.
    """
    speed = Speed()
    with speed:
        start = speed.now()
        env.import_package()
        import workloads

        workload = workloads.WORKLOADS[name](seed, dims)
        took = speed.now() - start
    return workload, took, took * speed.factor


def _probe_setups(args) -> list[tuple[float, float]]:
    """Set-up times of fresh interpreters, so that import-time work counts too."""
    cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
           "--setup-probe"] + (["--toy"] if args.toy else [])
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=True)
        raw, scaled = out.stdout.split()[-2:]
        times.append((float(raw), float(scaled)))
    return times


def _untraced(args, dims):
    setups = _probe_setups(args)
    workload, raw, scaled = _setup(args.workload, args.seed, dims)
    setups.append((raw, scaled))
    from workloads import ROLES, Recorder, closed_loop

    rec = closed_loop(workload, Recorder(), BATCH[args.workload], seconds=args.seconds)
    s, roles = rec.samples, ROLES[args.workload]
    raw = {
        "setup_s": statistics.median(t for t, _ in setups),
        "latency_ms.p50": statistics.median(s["latency"]) * 1e3,
        "prepare_ms.p50": statistics.median(s["prepare"]) * 1e3,
        "throughput_per_s": rec.done / rec.elapsed,
    }
    factor = rec.speed.factor
    metrics = {
        "setup_s": (statistics.median(t for _, t in setups), "s"),
        "latency_ms.p50": (raw["latency_ms.p50"] * factor, "ms"),
        "prepare_ms.p50": (raw["prepare_ms.p50"] * factor, "ms"),
        "throughput_per_s": (raw["throughput_per_s"] / factor, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setups)} fresh-process set-ups",
        "latency_ms.p50": f"{roles['latency']}, n={len(s['latency'])}",
        "prepare_ms.p50": f"{roles['prepare']}, n={len(s['prepare'])}",
        "throughput_per_s": f"{roles['throughput']}, {rec.done} in {rec.elapsed:.2f} s",
        "peak_rss_mb": "max resident set of this process",
    }
    for name, value in raw.items():
        notes[name] = f"raw {value:.4f}; {notes[name]}"
    # Encoding takes 0.05-0.5 ms and its median spreads by 0.14-0.20
    # between processes on the defining host, which leaves no margin under
    # a bound: it is printed, not part of the result.
    encode = statistics.median(s["encode"]) * 1e3
    extra = {f"{roles['encode']} (not in the result)":
             (encode * factor, "ms", f"raw {encode:.4f}; n={len(s['encode'])}")}
    return workload, rec, metrics, notes, extra, []


def traced_batch(name: str, seed: int, dims, items: int):
    """Set up afresh and run ``items`` items under the tracer."""
    workload, _, _ = _setup(name, seed, dims)
    import tracing
    from workloads import Recorder, closed_loop

    rec = Recorder()
    with tracing.Tracer(workload.group.backend, clock=rec.clock) as tracer:
        closed_loop(workload, rec, items, tracer=tracer)
    return workload, rec, tracer


def _traced(args, dims):
    items = BATCH[args.workload]
    workload, _, _ = _setup(args.workload, args.seed, dims)
    import tracing
    from workloads import Recorder, closed_loop

    plain = closed_loop(workload, Recorder(), items)
    workload, rec, tracer = traced_batch(args.workload, args.seed, dims, items)
    tracer.write(env.OUT / f"spans-{args.workload}-seed{args.seed}.json")
    rec.attempted += plain.attempted
    rec.failed += plain.failed
    rec.errors += plain.errors
    summary = tracing.summarize(tracer.spans)
    ratio = (rec.elapsed * rec.speed.factor) / (plain.elapsed * plain.speed.factor)
    metrics = tracing.per_layer_metrics(summary, ratio, rec.speed.factor)
    notes = {name: "moves " + tracing.MOVES[name.rsplit(".", 1)[0]]
             for name in metrics if name.rsplit(".", 1)[0] in tracing.MOVES}
    notes["trace.overhead_ratio"] = (
        f"raw {rec.elapsed:.2f} s traced / {plain.elapsed:.2f} s untraced, {items} items")
    problems = tracing.span_tree_errors(tracer.spans) + tracing.structural_errors(summary)
    return workload, rec, metrics, notes, {}, problems


def run_one(args) -> int:
    dims = _dims(args)
    workload, rec, metrics, notes, extra, problems = (
        (_traced if args.trace else _untraced)(args, dims))
    fingerprint = env.fingerprint(workload.group.backend_name)
    problems = rec.errors + problems
    result = {
        "correct": not problems,
        "attempted": rec.attempted,
        "failed": rec.failed + (len(problems) - len(rec.errors)),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    speed = {"reference_ms": rec.speed.reference_ms, "factor": rec.speed.factor}
    print(f"# {args.workload}  seed={args.seed}  t,n={dims}  trace={args.trace}  "
          f"closed loop, 1 client, {rec.items} items; times at reference speed: "
          f"raw x {speed['factor']:.4f} (reference loop {speed['reference_ms']:.3f} ms)")
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:14.4f} {unit:6s} {notes.get(name, '')}")
    for name, (value, unit, note) in extra.items():
        print(f"{name:48s} {value:14.4f} {unit:6s} {note}")
    print(f"{'failed_ratio':48s} {rec.failed / max(rec.attempted, 1):14.4f} {'':6s} "
          f"{rec.failed} of {rec.attempted} verdicts wrong or raised")
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print("env " + json.dumps(fingerprint))
    env.OUT.mkdir(exist_ok=True)
    saved = env.OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    saved.write_text(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                                 "env": fingerprint, "speed": speed, "notes": notes,
                                 "result": result}, indent=1))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Each workload in a fresh process, so memory and state stay per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in ("attest", "verify", "provision"):
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd + (["--toy"] if args.toy else []), stdout=subprocess.PIPE, text=True)
        lines = out.stdout.splitlines()
        print("\n".join(lines[:-1]))
        part = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {"correct": False}
        merged["correct"] = merged["correct"] and part["correct"] and out.returncode == 0
        merged["attempted"] += part.get("attempted", 0)
        merged["failed"] += part.get("failed", 0)
        for metric, value in part.get("metrics", {}).items():
            merged["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def compare(paths) -> int:
    """Print B/A for every metric of two saved results; refuse mixed backends."""
    a, b = (json.loads(open(path, encoding="utf-8").read()) for path in paths)
    if a["env"]["backend"] != b["env"]["backend"]:
        print(f"refusing to compare a {a['env']['backend']!r} result with a "
              f"{b['env']['backend']!r} result", file=sys.stderr)
        return 3
    if (a["workload"], a["trace"]) != (b["workload"], b["trace"]):
        print("refusing to compare results of different workloads or trace modes", file=sys.stderr)
        return 3
    print(f"# {a['workload']}  backend={a['env']['backend']}  B/A")
    for name, ma in a["result"]["metrics"].items():
        mb = b["result"]["metrics"].get(name)
        if mb is None:
            continue
        ratio = mb["value"] / ma["value"] if ma["value"] else float("nan")
        print(f"{name:48s} {ma['value']:14.4f} {mb['value']:14.4f} {ratio:8.3f} {ma['unit']}")
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if args.compare:
        return compare(args.compare)
    try:
        env.check_sources()
        if args.setup_probe:
            _, raw, scaled = _setup(args.workload, args.seed, _dims(args))
            print(raw, scaled)
            return 0
        if args.workload == "all":
            return run_all(args)
        return run_one(args)
    except env.MissingSourceError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    except Exception:  # report and fail without printing a result
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
