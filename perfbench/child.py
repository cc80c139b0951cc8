"""One benchmarked modinv invocation, run as its own process.

    python3 child.py SRC RESULT MODE RUN_ID [MODINV ARGS...]

MODE is ``probe`` (import ``modinv.cli``, which is a set-up sample, then
time the fixed reference job instead of running modinv),
``plain`` (do what ``python -m modinv ARGS`` does) or ``trace`` (the same,
with per-layer spans).  The report goes to stdout exactly as the CLI writes
it.  Timestamps on the system-wide monotonic clock, and the spans, go as
JSON to the file RESULT.  The exit code is the CLI's.
"""

import json
import os
import sys
import time


def reference_work(numpy) -> float:
    """Seconds taken by a fixed job that shares no code with modinv: dict
    and tuple work in the interpreter, float64 products on the BLAS threads
    and bit-packed row XORs, the kinds of work modinv does."""
    start = time.monotonic()
    table = {}
    for i in range(600_000):
        key = (i % 251, i % 241)
        table[key] = (table.get(key, 0) + i) % 7
    a = (numpy.arange(300 * 300, dtype=numpy.int64).reshape(300, 300) * 7919) % 3
    for _ in range(16):
        a = numpy.rint(a.astype(numpy.float64) @ a.astype(numpy.float64)).astype(numpy.int64) % 3
    packed = numpy.packbits((a % 2).astype(numpy.uint8), axis=1)
    for _ in range(3):
        for row in range(len(packed)):
            packed[row + 1:] ^= packed[row]
    return time.monotonic() - start


def main() -> int:
    src, result_path, mode, run_id = sys.argv[1:5]
    argv = sys.argv[5:]
    sys.path.insert(0, src)
    import modinv.cli as cli
    imported = time.monotonic()
    import numpy

    if os.path.dirname(os.path.abspath(cli.__file__)) != os.path.join(src, "modinv"):
        print(f"modinv was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 3
    info = {"imported": imported, "numpy": numpy.__version__}
    code = 0
    recorder = None
    try:
        if mode == "probe":
            info["reference"] = reference_work(numpy)
            return code
        if mode == "trace":
            import layertrace

            recorder = layertrace.Recorder(run_id)
            layertrace.install(recorder)
        run = cli.run

        def timed_run(*args, **kwargs):
            info["run_start"] = time.monotonic()
            try:
                return run(*args, **kwargs)
            finally:
                info["run_end"] = time.monotonic()

        cli.run = timed_run
        sys.argv = ["modinv", *argv]
        try:
            cli.main()
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        sys.stdout.flush()
        return code
    finally:
        if recorder is not None:
            info["trace"] = recorder.to_json()
        with open(result_path, "w", encoding="utf-8") as handle:
            json.dump(info, handle)


if __name__ == "__main__":
    sys.exit(main())
