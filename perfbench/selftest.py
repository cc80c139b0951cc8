"""Self-test of the benchmark's tracing, on an instance that runs in well
under a second.

    python3 perfbench/selftest.py

Checks that the tracer wraps every by-name binding of a traced function,
that traced reports are byte-identical to untraced ones, that every count
repeats exactly across traced runs, that the layers' self times add up to
each traced run's ``compute_s``, and that tracing adds less than half of
the untraced ``compute_s``.  Exits 1 if any check fails.
"""

from __future__ import annotations

import statistics
import sys
import tempfile
import time

import layertrace
import run

ARGV = ("depth-report", "--p", "2", "--blocks", "2,2", "--max-degree", "6")
SHA256 = "1c1d7b8d39409b4faef61862ce59965466ea757f23fa22538c698ae0d18c92cb"
ROUNDS = 5

# Functions that modules import by name from another layer: (module, name).
BY_NAME = (
    ("depthlab", "invariant_slice"), ("depthlab", "transfer_slice"),
    ("cli", "invariant_slice"), ("cli", "transfer_slice"),
    ("depthlab", "ideal_slice"),
    ("invariants", "is_invariant"), ("depthlab", "is_invariant"), ("cli", "is_invariant"),
)


def untraced_bindings() -> list[str]:
    """Install the tracer in this process; name every by-name binding that
    still refers to an untraced function."""
    sys.path.insert(0, run.SRC)
    import importlib

    layertrace.install(layertrace.Recorder("selftest"))
    return [f"modinv.{module}.{name}" for module, name in BY_NAME
            if not hasattr(getattr(importlib.import_module(f"modinv.{module}"), name),
                           "__layertrace_original__")]


def main() -> int:
    problems = [f"{name} is not traced" for name in untraced_bindings()]
    deadline = time.monotonic() + run.HARD_LIMIT_S
    plain, traced = [], []
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as tmp:
        for i in range(ROUNDS):
            plain.append(run.spawn("plain", ARGV, tmp, f"selftest/{i}", deadline))
            traced.append(run.spawn("trace", ARGV, tmp, f"selftest/trace{i}", deadline))
    for inv in plain + traced:
        problem = inv.problem(SHA256)
        if problem:
            problems.append(f"{inv.mode} run: {problem}")
    if not problems:
        if any(inv.stdout != plain[0].stdout for inv in traced):
            problems.append("traced report bytes differ from untraced ones")
        _, units = run.declared_metrics()
        metrics = [layertrace.layer_metrics(inv.info["trace"]["spans"]) for inv in traced]
        for name, value in metrics[0].items():
            if units[name] != "s" and any(m[name] != value for m in metrics[1:]):
                problems.append(f"count {name} differs: {[m[name] for m in metrics]}")
        # Spans must tile each traced run: the layers' self times add up to
        # the compute_s that the child timed around the whole CLI run.
        for inv in traced:
            self_total = layertrace.self_time_total(inv.info["trace"]["spans"])
            if abs(self_total - inv.compute) > 0.01 * inv.compute + 0.001:
                problems.append(f"self times sum to {self_total} s, the traced run's "
                                f"compute_s is {inv.compute} s")
        # Against untraced runs they differ by the tracing overhead.  Each
        # traced run is compared with the untraced run next to it, because
        # host speed drifts; the median overhead must stay a minor share.
        compute = statistics.median(inv.compute for inv in plain)
        overhead = statistics.median(t.compute - u.compute for t, u in zip(traced, plain))
        print(f"compute_s {compute:.4f} s untraced; tracing adds {overhead:.4f} s (median of "
              f"{ROUNDS} pairs)")
        if overhead > 0.5 * compute:
            problems.append(f"tracing adds {overhead} s to a compute_s of {compute} s")
    for problem in problems:
        print(f"FAILED: {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
