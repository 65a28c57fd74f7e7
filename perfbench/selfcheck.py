"""Fast self-check of the benchmark at toy size (t=2, n=2).

    python3 perfbench/selfcheck.py

Runs every workload once untraced and once traced through ``run.py``,
checks that the printed metrics are exactly the ones ``BENCHMARK.json``
names, that every verdict is right, that the saved spans form a tree, that
a second traced batch with the same seed repeats every call count, and
that the tracer restores every patched name.  It also checks that the
benchmark fails without printing a result when the package is missing.
Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import env


def _run(*args: str, cwd=env.ROOT) -> tuple[int, list[str]]:
    out = subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args], cwd=cwd,
                         capture_output=True, text=True, timeout=170)
    return out.returncode, out.stdout.splitlines()


def _check(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        sys.exit(1)


def check_restore() -> None:
    import tracing
    from otsske import groups

    targets = tracing.targets(groups.setup(256).backend)

    def snapshot():
        return [tracing.current(owner, attr) for owner, attr, _, _ in targets]

    before = snapshot()
    with tracing.Tracer(groups.setup(256).backend):
        inside = snapshot()
    after = snapshot()
    _check(all(a is not b for a, b in zip(before, inside)), f"tracer patches all {len(targets)} names")
    _check(all(a is b for a, b in zip(before, after)), "tracer restores every patched name")


def check_workload(name: str, spec: dict) -> None:
    import run
    import tracing

    code, lines = _run("--workload", name, "--seed", "5", "--seconds", "1", "--trace", "0", "--toy")
    result = json.loads(lines[-1]) if lines else {}
    _check(code == 0 and result.get("correct") is True and result["failed"] == 0,
           f"{name}: untraced run correct, {result.get('attempted')} verdicts")
    wanted = [m["name"] for m in spec["end_to_end"]]
    _check(list(result["metrics"]) == wanted, f"{name}: end-to-end metrics match BENCHMARK.json")

    code, lines = _run("--workload", name, "--seed", "5", "--trace", "1", "--toy")
    result = json.loads(lines[-1]) if lines else {}
    _check(code == 0 and result.get("correct") is True, f"{name}: traced run correct")
    wanted = [m["name"] for m in spec["per_layer"]]
    _check(list(result["metrics"]) == wanted, f"{name}: per-layer metrics match BENCHMARK.json")
    spans = json.loads((env.OUT / f"spans-{name}-seed5.json").read_text())
    tree = [[s["name"], s["start"], s["end"], s["parent"], s["request"]] for s in spans]
    errors = tracing.span_tree_errors(tree)
    _check(bool(spans) and not errors, f"{name}: {len(spans)} saved spans form a tree {errors[:3]}")
    _check({s["request"] for s in spans} == set(range(run.BATCH[name])),
           f"{name}: every span belongs to one of the batch's requests")

    _, rec, tracer = run.traced_batch(name, 5, run.TOY_DIMS, run.BATCH[name])
    again = tracing.per_layer_metrics(tracing.summarize(tracer.spans), 1.0, 1.0)
    counts = {k: v for k, v in result["metrics"].items() if k.endswith(".calls") or k.startswith(
        ("attest.", "verify.", "sign."))}
    repeat = {k: again[k][0] for k in counts}
    _check(rec.failed == 0 and repeat == {k: v["value"] for k, v in counts.items()},
           f"{name}: {len(counts)} counts repeat exactly for the same seed")


def check_bare_directory() -> None:
    """Only BENCHMARK.json and perfbench/: the run must fail without a result."""
    bare = env.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(env.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(env.ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = _run("--workload", "verify", "--seed", "1", "--seconds", "1", "--trace", "0",
                       cwd=bare)
    shutil.rmtree(bare)
    _check(code == 2 and not any(line.startswith("{") for line in lines),
           f"without src/ the run exits {code} and prints no result")


def main() -> int:
    env.import_package()
    spec = json.loads((env.ROOT / "BENCHMARK.json").read_text())
    check_bare_directory()
    check_restore()
    for name in ("attest", "verify", "provision"):
        check_workload(name, spec)
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
