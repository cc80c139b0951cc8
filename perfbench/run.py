"""The modinv benchmark: closed-loop CLI runs, each in a fresh process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  One client runs one ``python -m modinv``
invocation at a time, for ``--seconds`` seconds (at least one invocation),
because every user run pays the cold ``lru_cache``s and the numpy import.
Each invocation's report must hash to the bytes the parent commit produced,
exit 0 and say ``summary.all_passed: true``; any mismatch or timeout counts
as failed and makes the command exit 1.

With ``--trace 0`` every invocation is paired with a set-up probe, a
process that imports ``modinv.cli`` (a ``setup_s`` sample) and then times a
fixed reference job.  The last stdout line holds the gated metrics: wall,
compute and CPU time relative to the paired reference job, ``setup_s`` and
``peak_rss_mb``; the lines before it print the raw times, the tail and the
failed ratio too.  With ``--trace 1`` the last line holds the per-layer
metrics of traced invocations (spans recorded by ``layertrace``), which
alternate with untraced ones so the tracing overhead is measured too.

The workloads are exact and deterministic, so ``--seed`` only sets the order
in which each invocation and its probe (or its traced partner) run; the
report hashes are the same for every seed.

Why these workloads (timed on a shared 2-core x86-64 VM):
- depth-p2: depthlab on the p=2 bit-packed path; the 13 bounded_depth jobs
  (socle and greedy regular-element searches) take about 90% of a 2-3.5 s
  run, the same job mix as at D=8.
- tq-p3: odd-p blocked elimination with float64 products on the BLAS
  threads (about 80% of a 3-4 s run), invariant and transfer slice
  construction (about 60%, and most of the peak RSS), plus depthlab
  verifying a regular norm sequence.
Each is sized so that a 55 s run holds well over ten rounds: CPU speed on
a shared host drifts by up to 2x for minutes, so steady figures need many
short invocations, each next to its own reference timing.
Left out: a p=2 slice workload (hilbert --p 2 --blocks 2,2,2), because
three workloads leave too little run time each for steady figures and
tq-p3 already exercises slice construction; the monoalg presets, which
spend about 0.01 s computing against 0.2 s of interpreter and numpy
start-up, so they would time Python, not modinv; and the five acceptance
instances, which each finish in under 3 s and tier-1 tests cover.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import layertrace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")

# argv and the SHA-256 of the report bytes the parent commit printed.
WORKLOADS = {
    "depth-p2": (("depth-report", "--p", "2", "--blocks", "2,2,2", "--max-degree", "6"),
                 "943f0fc75b09bea4429a45aaa4ca2fc41c198c56058ba4a27a7f350548fca7b1"),
    "tq-p3": (("transfer-quotient", "--p", "3", "--blocks", "2,3", "--max-degree", "10"),
              "b4fc169644dcedd0a7f1eb1cff218f4a5e6b1adaa37ef2703bdf1304a94e45e3"),
}

# No invocation may run past this many seconds after the command started,
# so the whole command ends well inside three minutes.
HARD_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class Invocation:
    """One finished child process and what it reported."""

    def __init__(self, mode, wall, cpu, rss_mb, code, stdout, stderr, info):
        self.mode = mode
        self.wall = wall
        self.cpu = cpu
        self.rss_mb = rss_mb
        self.code = code
        self.stdout = stdout
        self.stderr = stderr
        self.info = info
        self.setup = None
        self.compute = None
        self.reference = None
        if info is not None:
            started = info.get("run_start", info["imported"])
            self.setup = started - info["spawned"]
            if "run_end" in info:
                self.compute = info["run_end"] - info["run_start"]

    def problem(self, sha256: str) -> str | None:
        """Why the invocation counts as failed, or None."""
        if self.code != 0:
            return f"exit code {self.code}: {self.stderr[-400:]!r}"
        if self.info is None:
            return "the child wrote no result"
        if hashlib.sha256(self.stdout).hexdigest() != sha256:
            return "report bytes differ from the parent commit's"
        if json.loads(self.stdout)["summary"]["all_passed"] is not True:
            return "summary.all_passed is not true"
        return None


def child_env() -> dict:
    """The user's environment without MODINV_THREADS, which the report
    echoes as config.workers and which selects another code path."""
    env = dict(os.environ)
    env.pop("MODINV_THREADS", None)
    return env


def spawn(mode: str, argv, tmp: str, run_id: str, deadline: float) -> Invocation:
    """Run child.py once and wait for it, killing it at ``deadline``.
    CPU time and peak RSS come from wait4 on this child alone."""
    out_path, err_path, res_path = (os.path.join(tmp, name) for name in ("out", "err", "res"))
    if os.path.exists(res_path):
        os.remove(res_path)
    cmd = [sys.executable, CHILD, SRC, res_path, mode, run_id, *argv]
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        timer = threading.Timer(max(deadline - start, 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        end = time.monotonic()
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    if end >= deadline:
        code = "timeout"
    info = None
    if os.path.exists(res_path):
        with open(res_path, encoding="utf-8") as handle:
            info = json.load(handle)
        info["spawned"] = start
    with open(out_path, "rb") as handle:
        stdout = handle.read()
    with open(err_path, "rb") as handle:
        stderr = handle.read().decode("utf-8", "replace")
    return Invocation(mode, end - start, usage.ru_utime + usage.ru_stime,
                      usage.ru_maxrss / 1024.0, code, stdout, stderr, info)


def tail(values: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten samples beyond it, and a
    label saying which; when that percentile would not lie above the
    median (fewer than 21 samples), the maximum."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 21:
        return ordered[-1], f"max of {n} samples"
    rank = n - 11
    return ordered[rank], f"p{100.0 * (rank + 1) / n:.1f} of {n} samples"


def declared_metrics() -> tuple[dict, dict]:
    """End-to-end and per-layer metric units, as BENCHMARK.json declares."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def environment(numpy_version: str | None) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "threads_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
    }


def run_loop(workload: str, seed: int, seconds: float, trace: bool, tmp: str):
    """Closed loop: rounds of one invocation each until ``seconds`` have
    passed.  An untraced round pairs the invocation with a set-up probe,
    which also times the reference job; a traced round pairs a traced
    invocation with an untraced one.  The seed orders each pair.  Returns
    (invocations, set-up probes, failure messages)."""
    argv, sha256 = WORKLOADS[workload]
    rng = random.Random(seed)
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    invocations: list[Invocation] = []
    probes: list[Invocation] = []
    failures: list[str] = []
    while True:
        pair = ["plain", "trace"] if trace else ["probe", "plain"]
        rng.shuffle(pair)
        for mode in pair:
            if mode == "probe":
                inv = spawn(mode, (), tmp, f"{workload}/{seed}/probe{len(probes)}", deadline)
                if inv.code != 0 or inv.info is None:
                    raise SystemExit(f"error: cannot start modinv from {SRC}: "
                                     f"exit {inv.code}: {inv.stderr[-400:]}")
                probes.append(inv)
                continue
            inv = spawn(mode, argv, tmp, f"{workload}/{seed}/{len(invocations)}", deadline)
            invocations.append(inv)
            problem = inv.problem(sha256)
            if problem:
                failures.append(f"{mode} invocation {len(invocations)}: {problem}")
                return invocations, probes, failures
        if not trace:
            invocations[-1].reference = probes[-1].info["reference"]
        elapsed = time.monotonic() - start
        longest = max(inv.wall for inv in invocations) * 2
        if elapsed >= seconds or elapsed + longest > HARD_LIMIT_S:
            return invocations, probes, failures


def end_to_end(invocations: list[Invocation], probes: list[Invocation],
               units: dict) -> tuple[dict, list[str]]:
    """Gated metric values, and lines that print them with the raw times.

    Times are gated relative to the reference job timed in the same round.
    On a shared 2-core x86-64 VM, CPU speed drifted by up to 2x for minutes
    at a time, so run medians of raw seconds spread 15-33% (interquartile
    range over median) between runs, near or above any allowed bound, while
    the ratios spread roughly half as much.  The tail is printed but not
    gated: at under 21 invocations a run it is a maximum."""
    n = len(invocations)

    def median(field):
        return statistics.median(getattr(inv, field) for inv in invocations)

    def relative(field):
        return statistics.median(getattr(inv, field) / inv.reference for inv in invocations)

    values = {
        "wall_rel": relative("wall"),
        "compute_rel": relative("compute"),
        "cpu_rel": relative("cpu"),
        "setup_s": statistics.median(inv.setup for inv in probes + invocations),
        "peak_rss_mb": median("rss_mb"),
    }
    wall_tail, tail_note = tail([inv.wall for inv in invocations])
    lines = [f"{name} = {value} {units[name]} (median of {n} rounds)"
             for name, value in values.items() if name.endswith("_rel")]
    lines += [
        f"setup_s = {values['setup_s']} s (median of {n + len(probes)})",
        f"peak_rss_mb = {values['peak_rss_mb']} MB (median of {n})",
        f"reference job = {median('reference')} s (median of {n}, not gated)",
        f"wall_s = {median('wall')} s (median of {n}, not gated)",
        f"wall_s_tail = {wall_tail} s ({tail_note}, not gated)",
        f"compute_s = {median('compute')} s (median of {n}, not gated)",
        f"cpu_s = {median('cpu')} s (median of {n}, not gated)",
    ]
    return values, lines


def per_layer(invocations: list[Invocation], units: dict) -> tuple[dict, list[str]]:
    """Layer figures of the traced invocations: times as medians, counts
    from the first, after checking that every count repeats exactly."""
    traced = [layertrace.layer_metrics(inv.info["trace"]["spans"])
              for inv in invocations if inv.mode == "trace"]
    problems = []
    values = {}
    for name, first in traced[0].items():
        if units[name] == "s":
            values[name] = statistics.median(m[name] for m in traced)
        else:
            values[name] = first
            if any(m[name] != first for m in traced[1:]):
                problems.append(f"count {name} differs between traced runs: "
                                f"{[m[name] for m in traced]}")
    plain = [inv.wall for inv in invocations if inv.mode == "plain"]
    traced_walls = [inv.wall for inv in invocations if inv.mode == "trace"]
    values["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(plain)
    return values, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "modinv", "cli.py")):
        print(f"error: no modinv sources under {SRC}", file=sys.stderr)
        return 2
    e2e_units, layer_units = declared_metrics()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        invocations, probes, failures = run_loop(args.workload, args.seed, args.seconds,
                                                 bool(args.trace), tmp)
    attempted, failed = len(invocations), len(failures)
    numpy_version = next((inv.info["numpy"] for inv in probes + invocations if inv.info), None)
    print(f"workload {args.workload} ({' '.join(WORKLOADS[args.workload][0])}), "
          f"seed {args.seed}, trace {args.trace}")
    print(f"environment: {json.dumps(environment(numpy_version))}")
    print(f"failed_ratio = {failed / attempted} ratio ({failed} of {attempted} invocations)")
    values, units = {}, {}
    if not failures and args.trace:
        values, problems = per_layer(invocations, layer_units)
        units = layer_units
        failures.extend(problems)
    elif not failures:
        units = e2e_units
        values, lines = end_to_end(invocations, probes, units)
        print("\n".join(lines))
    for message in failures:
        print(f"FAILED: {message}", file=sys.stderr)
    if values and set(values) != set(units):
        raise SystemExit(f"error: metrics {sorted(set(values) ^ set(units))} "
                         "do not match BENCHMARK.json")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
