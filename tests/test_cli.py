import ast
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import modinv
from modinv import depthlab, invariants
from modinv.cli import build_parser, run
from modinv.gradedla import MatFp
from modinv.rep import top_norms

DOCUMENT_KEYS = ["tool", "version", "config", "checks", "summary"]
CHECK_KEYS = ["name", "params", "pass", "degrees_checked", "witnesses", "notes", "millis"]


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def test_document_schema():
    # hilbert checks the growth window from p*dim on, which is empty above the bound
    for p, blocks, bound, checked, vacuous in (
        (2, "2", 6, [4, 5, 6], []),
        (3, "2,3", 8, [], ["vacuous: no degree from p*dim = 15 on lies inside the bound 8"]),
        (2, "2,2", 12, [8, 9, 10, 11, 12], []),
    ):
        code, out, err = invoke(["hilbert", "--p", str(p), "--blocks", blocks, "--max-degree", str(bound)])
        assert code == 0
        doc = json.loads(out)
        assert list(doc.keys()) == DOCUMENT_KEYS
        assert doc["tool"] == "modinv"
        for check in doc["checks"]:
            assert list(check.keys()) == CHECK_KEYS
            assert check["millis"] == 0
        assert doc["summary"]["total"] == len(doc["checks"])
        assert doc["summary"]["all_passed"]
        assert doc["config"]["p"] == p
        assert doc["config"]["blocks"] == blocks
        assert doc["config"]["workers"] == 1
        assert doc["checks"][0]["degrees_checked"] == checked
        assert [n for n in doc["checks"][0]["notes"] if n.startswith("vacuous:")] == vacuous


def test_reports_are_byte_identical():
    argv = ["regseq", "--p", "2", "--blocks", "2", "--max-degree", "8"]
    first = invoke(argv)
    second = invoke(argv)
    assert first == second
    assert first[0] == 0


PINNED_REPORTS = {
    "depth-report --p 2 --blocks 2,2,2 --max-degree 6":
        "943f0fc75b09bea4429a45aaa4ca2fc41c198c56058ba4a27a7f350548fca7b1",
    "transfer-quotient --p 3 --blocks 2,3 --max-degree 10":
        "b4fc169644dcedd0a7f1eb1cff218f4a5e6b1adaa37ef2703bdf1304a94e45e3",
    "regseq --p 2 --blocks 2,2,2 --max-degree 8 --sequence canonical --socle":
        "c03dfd2bb9bcd141f02c285a55e04a0a48985e77879c37a0afaac41f3523f31c",
    "depth-report --p 3 --blocks 3 --max-degree 9":
        "57c180d6baeda7b8031df1a0495a24661854f440db39e617919a64bfe617c372",
    "transfer-quotient --p 2 --blocks 2,2,2 --max-degree 8":
        "bbe7827f8f4de0af2b53c48baebd4d42bc05c9ccb1e0220265a3d2ce561658a1",
    "hilbert --p 3 --blocks 2,3 --max-degree 8":
        "1d881b8a89bd7aa9b18fef3783f2e123a0ddae60624bf9560ea9401a18cf3a49",
    "grade --p 3 --blocks 2,2 --max-degree 8":
        "43d85ec6f4b9a6c07a6579b74612a014f6c33d4ed80fd413f8e18cb20a78b218",
    "depth-report --p 2 --blocks 2,2 --max-degree 6":
        "1c1d7b8d39409b4faef61862ce59965466ea757f23fa22538c698ae0d18c92cb",
    "depth-report --p 2 --blocks 2,2,2 --max-degree 8":
        "488a4ea6edc0e4b6f50aa4e6735a678498b78954d72aa24cce22ec908d7381e6",
    "transfer-quotient --p 3 --blocks 2,3 --max-degree 12":
        "e88c10d8503d5d2de8fc793bf532939d6a8b33af388b9c5469502c637eddb7aa",
    # p >= 5: where the orbit sum and a (sigma - 1) product chain differ most
    "transfer-quotient --p 5 --blocks 2,2 --max-degree 10":
        "ebcdfe500d79b7933e336031768ba86b77d5f7853ef1dac4c0179985c376df4c",
    "hilbert --p 7 --blocks 3,4 --max-degree 6":
        "6c065eb4c802dfaa7b8c5cbcc172122c86b3bcaea8b8d9cf6eac8a6f732c401e",
    # odd p with several blocks: the prefix-ideal quotient chain at odd p
    "depth-report --p 3 --blocks 2,2 --max-degree 8":
        "a98b918ae25ad88e03de841df60f09e576fea46891dbf5e8927db014ee3857e5",
    # a size-1 block, whose positions are ranked over one variable
    "hilbert --p 3 --blocks 1,2 --max-degree 8":
        "e98da7967e40cee5555bb470ab8b02db7b240836fbb4843abecc01f9d9766b03",
    # slice pieces built along a block of size 1 and along one of size 3
    "hilbert --p 5 --blocks 1,3,2 --max-degree 7":
        "ccbcf582f8d20c5ab77746fe9ba6a2736b4ac9d9ddd78c66a4db6dd18c28cf6c",
    # odd p, three blocks: the longest prefix chain, shared by the most jobs
    "depth-report --p 3 --blocks 2,2,2 --max-degree 7":
        "fd89a26de8804292cebae399614c30aa9c5698cf60e2edf25783751bb241e86b",
    # p = 5 depth evidence: rank tests, left-kernel witnesses and generator seeds
    "depth-report --p 5 --blocks 2,2 --max-degree 12":
        "a903f29ff31907a92e4c00e0ba4e117313fd3769fff34d2434a3b2863f3f82f9",
    # p = 2 reach: transposed products, reductions and left kernels at width
    "depth-report --p 2 --blocks 2,2,2 --max-degree 10":
        "5056b0f647a8ea4dba77e7b59bcd93e207db7ce8a6091e28672fe114f246a6b7",
    # four blocks at p = 2: the widest merged slices
    "hilbert --p 2 --blocks 2,2,2,2 --max-degree 7":
        "652915401adeab358adc272e26f8089af194aa750acd87a67358e9c99fe47d7d",
    # the largest supported prime: products and reductions of uint8 entries up to 250
    "hilbert --p 251 --blocks 3 --max-degree 3":
        "060431cd4fa90000b62fba3ac8efe9ac885cce60e2cb3e6a5fa4422d43bdde35",
    # p = 251 over two blocks: more block matrices than a bounded cache would hold
    "hilbert --p 251 --blocks 2,3 --max-degree 6":
        "2a65b892ff034579714d9f99eeb17b3504c34af0a82be05f08242387489a69c6",
    # an audit that mixes open bounds (>=2) with closed ones, 16 notes inconclusive
    "depth-report --p 2 --blocks 2,2 --max-degree 8 --search-cap 1":
        "1427b0c0e5029f6db83e1eba658a729fe6872acbadf6e35c44b42644238d0433",
    # the monomial examples: free decompositions, Hilbert counts, height and atoms
    "monomial-example --name example-1":
        "b797eae4504aed7be52a9a7d9f261fa86cf4b65734b3ce1f63310b3a291e0ade",
    "monomial-example --name example-2":
        "15a3c3192afc0e5614869eb01d85ee0f47786b6e1631d8cc7a7f9857a908267b",
}


def test_default_reports_are_pinned():
    # default report bytes are the behaviour contract every optimisation keeps
    for argv, digest in PINNED_REPORTS.items():
        code, out, _ = invoke(argv.split())
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, argv


def benchmark_workloads() -> dict:
    """``WORKLOADS`` of perfbench/run.py, read from its source without
    running it: each name maps to (argv, SHA-256 of the report bytes)."""
    source = (Path(__file__).resolve().parents[1] / "perfbench" / "run.py").read_text()
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "WORKLOADS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/run.py defines no WORKLOADS")


def test_benchmark_workload_reports_are_pinned():
    # a report drift fails here before the benchmark refuses the runs
    workloads = benchmark_workloads()
    assert workloads
    for name, (argv, digest) in workloads.items():
        code, out, _ = invoke(list(argv))
        assert code == 0, name
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, name


def python_in_src(args, blas_threads):
    """Run the interpreter on ``args`` with ``src`` on the path and
    OPENBLAS_NUM_THREADS set to ``blas_threads``, or removed when None:
    OpenBLAS reads it once per process, when numpy loads."""
    env = dict(os.environ)
    env.pop("OPENBLAS_NUM_THREADS", None)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, check=True).stdout


# the process's thread count after `import modinv`, the variable as it
# then reads, and whether the environment is what it was before the import
THREAD_PROBE = ("import os; before = dict(os.environ); import modinv; "
                "print(len(os.listdir('/proc/self/task')), "
                "os.environ.get('OPENBLAS_NUM_THREADS'), dict(os.environ) == before)")
needs_proc_tasks = pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                                      reason="counts threads through /proc/self/task")


@needs_proc_tasks
def test_openblas_loads_with_one_thread_unless_the_user_chooses():
    assert python_in_src(["-c", THREAD_PROBE], None).split() == [b"1", b"None", b"True"]


@needs_proc_tasks
@pytest.mark.skipif(not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="a second BLAS thread needs a second core")
def test_a_chosen_openblas_thread_count_is_kept():
    assert python_in_src(["-c", THREAD_PROBE], "2").split() == [b"2", b"2", b"True"]


def test_workload_reports_do_not_depend_on_blas_threads():
    for name, (argv, digest) in benchmark_workloads().items():
        out = python_in_src(["-m", "modinv", *argv], "2")
        assert hashlib.sha256(out).hexdigest() == digest, name


def test_output_file(tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = invoke(["hilbert", "--p", "2", "--blocks", "2",
                           "--max-degree", "4", "--output", str(target)])
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["summary"]["all_passed"]


def test_failing_check_exits_one(tmp_path):
    seq = tmp_path / "seq.txt"
    seq.write_text("x[1,1]\nx[1,1]\n")
    code, out, _ = invoke(["regseq", "--p", "2", "--blocks", "2,2",
                           "--sequence", str(seq), "--max-degree", "6"])
    assert code == 1
    doc = json.loads(out)
    assert not doc["summary"]["all_passed"]
    failing = [c for c in doc["checks"] if not c["pass"]]
    assert failing and failing[0]["witnesses"]


def test_socle_flag_appends_search():
    code, out, _ = invoke(["regseq", "--p", "2", "--blocks", "2",
                           "--sequence", "canonical", "--max-degree", "8", "--socle"])
    assert code == 0
    doc = json.loads(out)
    assert doc["checks"][-1]["name"] == "socle-search"


def test_config_errors_exit_two():
    for argv in (
        ["regseq", "--p", "4", "--blocks", "2"],
        ["regseq", "--p", "3", "--blocks", "4"],
        ["regseq", "--p", "2", "--blocks", "nope"],
        ["transfer-quotient", "--p", "2", "--blocks", "2,2", "--max-degree", "3"],
        ["norm-decompose", "--p", "2", "--blocks", "2"],
        ["norm-decompose", "--p", "2", "--blocks", "2", "--poly", "x[9,9]"],
        ["regseq", "--p", "2", "--blocks", "2", "--sequence", "/nonexistent/path"],
        # an empty candidate pool or enumeration would read as failed or
        # passed checks, so these caps are refused before computing
        ["depth-report", "--p", "2", "--blocks", "2,2", "--max-degree", "4", "--search-cap", "0"],
        ["depth-report", "--p", "2", "--blocks", "2,2", "--max-degree", "4", "--search-cap", "-1"],
        ["grade", "--p", "2", "--blocks", "2", "--max-degree", "6", "--search-cap", "0"],
        ["monomial-example", "--name", "example-1", "--degree-cap", "-1"],
        # a socle search's witness-degree cap is D - 2, so at D <= 1 it has
        # no degree to search: refused, not reported as inconclusive
        ["regseq", "--p", "2", "--blocks", "2", "--max-degree", "0", "--socle"],
        ["grade", "--p", "2", "--blocks", "2", "--max-degree", "0"],
        ["depth-report", "--p", "2", "--blocks", "2", "--max-degree", "1"],
    ):
        code, out, err = invoke(argv)
        assert code == 2, argv
        assert "error:" in err
        assert out == ""


def test_smallest_caps_are_accepted():
    code, out, _ = invoke("grade --p 2 --blocks 2 --max-degree 6 --search-cap 1".split())
    assert code in (0, 1)
    assert json.loads(out)["config"]["search_cap"] == 1
    code, out, _ = invoke("monomial-example --name example-1 --degree-cap 0".split())
    assert code == 0
    assert json.loads(out)["config"]["degree_cap"] == 0


def test_public_exports_resolve():
    assert [name for name in modinv.__all__ if not hasattr(modinv, name)] == []


def test_prime_above_251_exits_two():
    code, out, err = invoke(["hilbert", "--p", "257", "--blocks", "2", "--max-degree", "2"])
    assert code == 2
    assert out == ""
    assert "largest supported prime is 251" in err


def test_internal_error_exits_three(monkeypatch):
    # a quotient that forgets to divide breaks the dimension bookkeeping
    # inside verify_regular_sequence, which is a defect, not a failed check;
    # the sequence is validated already, so it takes the unchecked step
    monkeypatch.setattr(depthlab.GradedModuleView, "_quotient_by", lambda self, f, label=None: self)
    code, out, err = invoke(["regseq", "--p", "2", "--blocks", "2", "--max-degree", "6"])
    assert code == 3
    assert out == ""
    assert err.startswith("internal error: dimension bookkeeping broke")


def test_unexpected_exception_exits_three(monkeypatch):
    # an exception no handler expects is a defect too, never "a check failed"
    def broken(rep, max_degree):
        raise IndexError("index 7 is out of bounds")

    monkeypatch.setattr(depthlab, "transfer_quotient_check", broken)
    code, out, err = invoke(["transfer-quotient", "--p", "3", "--blocks", "2", "--max-degree", "4"])
    assert code == 3
    assert out == ""
    first, rest = err.split("\n", 1)
    assert first == "internal error: IndexError: index 7 is out of bounds"
    assert rest.startswith("Traceback (most recent call last):") and "in broken" in rest


def fail_the_first_top_norm(monkeypatch):
    """Make every passing rank test of the first top norm fail: its left
    kernel becomes the first unit vector, as if the norm annihilated the
    first quotient row."""
    real = depthlab._rank_test

    def rank_test(view, f, e, d):
        r, left = real(view, f, e, d)
        if left is None and f == top_norms(view.rep)[0]:
            left = MatFp(view.num.p, np.eye(1, view.dim(d), dtype=np.uint8), (0,))
        return r, left

    monkeypatch.setattr(depthlab, "_rank_test", rank_test)


def test_transfer_quotient_with_a_norm_that_is_not_regular_exits_one(monkeypatch):
    fail_the_first_top_norm(monkeypatch)
    code, out, _ = invoke(["transfer-quotient", "--p", "3", "--blocks", "2", "--max-degree", "4"])
    assert code == 1
    checks = json.loads(out)["checks"]
    assert checks[0]["name"] == "regular-element" and not checks[0]["pass"]
    vanishing = checks[1]
    assert vanishing["name"] == "transfer-quotient-vanishing" and not vanishing["pass"]
    assert vanishing["notes"] == ["norm sequence failed; vanishing not evaluated on the full quotient"]


def test_grade_with_a_norm_that_is_not_regular_reports_the_failed_reduction(monkeypatch):
    fail_the_first_top_norm(monkeypatch)
    code, out, _ = invoke(["grade", "--p", "2", "--blocks", "2", "--max-degree", "8"])
    assert code == 1
    checks = json.loads(out)["checks"]
    assert [(c["name"], c["pass"]) for c in checks] == [("regular-element", False),
                                                         ("norm-reduction", False)]
    assert checks[1]["params"] == {"module": "invariant ring"}
    assert checks[1]["notes"] == ["the top-variable norms are not a regular sequence on the "
                                  "module; the depth-grade relation was not evaluated"]


@pytest.mark.parametrize("command", ["transfer-quotient", "hilbert"])
def test_corrupted_transfer_piece_exits_three(monkeypatch, command):
    # an orbit sum that is the identity spans every slab, so the degree-1
    # transfer piece leaves the invariants: a defect, not a user error
    def identity(p, blocks, multidegree, peel, slab, sig):
        return np.eye(sig.shape[1], dtype=np.int64)[slab]

    invariants._slices.cache_clear()
    monkeypatch.setattr(invariants, "_slab_transfer", identity)
    try:
        code, out, err = invoke([command, "--p", "3", "--blocks", "2,3", "--max-degree", "6"])
    finally:
        invariants._slices.cache_clear()
    assert code == 3
    assert out == ""
    assert err == ("internal error: the degree-1 transfer piece of block multidegree "
                   "(1, 0) is not inside the invariants\n")


def test_usage_errors_exit_two(capsys):
    assert invoke(["bogus"])[0] == 2
    assert invoke(["regseq"])[0] == 2  # missing required flags
    assert invoke([])[0] == 2
    capsys.readouterr()  # argparse wrote usage to the real stderr; swallow it
    # norm-decompose builds no slices, so it takes no degree bound
    argv = ["norm-decompose", "--p", "2", "--blocks", "2", "--poly", "x[1,1]", "--max-degree", "4"]
    assert invoke(argv)[:2] == (2, "")
    assert "unrecognized arguments: --max-degree 4" in capsys.readouterr().err


def test_timings_flag_is_refused(capsys):
    # every subcommand refuses --timings before computing anything
    rep = ["--p", "2", "--blocks", "2,2", "--max-degree", "4"]
    for argv in (["hilbert", *rep], ["regseq", *rep], ["transfer-quotient", *rep],
                 ["norm-decompose", *rep[:4], "--poly", "x[1,1]"], ["grade", *rep],
                 ["depth-report", *rep], ["monomial-example", "--name", "example-2"]):
        assert invoke([*argv, "--timings"])[:2] == (2, ""), argv[0]
        assert "unrecognized arguments: --timings" in capsys.readouterr().err


def test_thread_env_validation(monkeypatch):
    # MODINV_THREADS is read by nothing, so no value of it is refused
    # and the report echoes the constant worker count
    for value in ("3", "zero", "0"):
        monkeypatch.setenv("MODINV_THREADS", value)
        code, out, _ = invoke(["hilbert", "--p", "2", "--blocks", "2", "--max-degree", "4"])
        assert code == 0, value
        assert json.loads(out)["config"]["workers"] == 1, value


def test_workers_do_not_change_output(monkeypatch):
    # no value of MODINV_THREADS changes the bytes or the exit code
    argv = ["regseq", "--p", "2", "--blocks", "2,2", "--max-degree", "8"]
    monkeypatch.delenv("MODINV_THREADS", raising=False)
    unset = invoke(argv)
    assert unset[0] == 0
    assert json.loads(unset[1])["config"]["workers"] == 1
    for value in ("4", "zero"):
        monkeypatch.setenv("MODINV_THREADS", value)
        assert invoke(argv) == unset, value


def test_norm_decompose_command(tmp_path):
    code, out, _ = invoke(["norm-decompose", "--p", "2", "--blocks", "2,2",
                           "--poly", "x[2,1]^2*x[2,2] + x[1,1]"])
    assert code == 0
    doc = json.loads(out)
    check = doc["checks"][0]
    assert check["pass"]
    assert check["witnesses"][0]["quotients"] == ["x[2,2]", "0"]
    # file input and an explicit block subset
    source = tmp_path / "polys.txt"
    source.write_text("x[2,1]^4\nx[1,1]*x[2,2]\n")
    code, out, _ = invoke(["norm-decompose", "--p", "2", "--blocks", "2,2",
                           "--input", str(source), "--blocks-used", "1"])
    assert code == 0
    doc = json.loads(out)
    assert len(doc["checks"]) == 2
    assert all(c["params"]["block_indices"] == [1] for c in doc["checks"])


def test_polynomial_files_are_refused_by_file_and_line(tmp_path):
    # regseq --sequence and norm-decompose --input read files the same way
    empty = tmp_path / "empty.txt"
    empty.write_text("\n  \n")
    bad = tmp_path / "bad.txt"
    bad.write_text("x[1,1]\nx[1,1] +\n")
    for command in (["regseq", "--max-degree", "4", "--sequence"], ["norm-decompose", "--input"]):
        base = [command[0], "--p", "3", "--blocks", "2,2", *command[1:]]
        code, out, err = invoke(base + [str(empty)])
        assert (code, out) == (2, ""), command
        assert f"{str(empty)!r} contains no polynomials" in err, command
        code, out, err = invoke(base + [str(bad)])
        assert (code, out) == (2, ""), command
        assert f"{bad}:2: " in err, command
        code, out, err = invoke(base + [str(tmp_path / "missing.txt")])
        assert (code, out) == (2, ""), command
        assert "cannot read polynomial file" in err, command


def test_polynomial_refusals_read_the_same_from_option_and_file(tmp_path):
    # --poly and a file line name the same refusal after their own location;
    # a file line is parsed as written, so leading blanks count in both
    source = tmp_path / "polys.txt"
    base = ["--p", "3", "--blocks", "2,2"]
    for text in ("3*4", "x[1,1] +", "x[9,9]", "x[1,1]^0", "   3*4", "  x[1,1] + x[9,9]"):
        source.write_text(f"x[1,1]\n{text}\n")
        code, out, by_option = invoke(["norm-decompose", *base, "--poly", text])
        assert (code, out) == (2, ""), text
        assert by_option.startswith(f"error: bad polynomial {text!r}: "), text
        message = by_option[len(f"error: bad polynomial {text!r}: "):]
        assert "(at position" in message, text
        for command in (["norm-decompose", *base, "--input"],
                        ["regseq", *base, "--max-degree", "4", "--sequence"]):
            code, out, by_file = invoke(command + [str(source)])
            assert (code, out) == (2, ""), (text, command)
            assert by_file == f"error: {source}:2: {message}", (text, command)


def test_block_lists_are_refused_by_option_name():
    base = ["norm-decompose", "--p", "3", "--blocks", "2,2", "--poly", "x[1,1]"]
    for value in ("", "a", "1,"):
        code, out, err = invoke(base + [f"--blocks-used={value}"])
        assert (code, out) == (2, ""), value
        assert err == f"error: --blocks-used must be comma-separated integers, got {value!r}\n"
    code, out, err = invoke(["hilbert", "--p", "3", "--blocks", "2,", "--max-degree", "4"])
    assert (code, out) == (2, "")
    assert err == "error: --blocks must be comma-separated integers, got '2,'\n"


def test_grade_command():
    code, out, _ = invoke(["grade", "--p", "2", "--blocks", "2", "--max-degree", "8"])
    assert code == 0
    doc = json.loads(out)
    assert doc["checks"][-1]["name"] == "norm-reduction"
    assert doc["checks"][-1]["pass"]


def test_grade_disagreement_on_bounded_evidence_is_inconclusive():
    # the grade lower bound 3 holds only up to degree 10; at --max-degree 12
    # it is 2 and the sides agree, so the disagreement is no failure
    code, out, _ = invoke(["grade", "--p", "5", "--blocks", "2,3", "--max-degree", "10"])
    assert code == 0
    summary = json.loads(out)["checks"][-1]
    assert summary["name"] == "norm-reduction" and summary["pass"]
    assert (summary["params"]["depth_lower"], summary["params"]["grade_lower"]) == (4, 3)
    assert summary["notes"] == ["inconclusive: depth evidence 4 vs grade evidence 3 + 2 blocks "
                                "disagree; both sides are verified only up to degree 10"]


def test_depth_report_command():
    code, out, _ = invoke(["depth-report", "--p", "2", "--blocks", "2",
                           "--max-degree", "8"])
    assert code == 0
    doc = json.loads(out)
    assert doc["checks"][-1]["name"] == "depth-inequality-audit"
    assert doc["summary"]["all_passed"]
    # below D = p the norms check no degree, yet count as verified steps, and
    # the sequence summary says so; at D = p every step checks a degree
    for command, name, p, bound in (("depth-report", "canonical-sequence", 3, 2),
                                    ("regseq", "regular-sequence", 5, 4),
                                    ("regseq", "regular-sequence", 5, 5)):
        code, out, _ = invoke([command, "--p", str(p), "--blocks", "2,2", "--max-degree", str(bound)])
        assert code == 0
        summary = next(c for c in json.loads(out)["checks"] if c["name"] == name)
        assert summary["pass"] and summary["params"]["verified_length"] == 4
        norms = ", ".join(f"{p - 1}*x[1,{j}]^{p - 1}*x[2,{j}] + x[2,{j}]^{p}" for j in (1, 2))
        vacuous = [f"vacuous: nothing was checkable up to the bound {bound} for {norms}"]
        assert [n for n in summary["notes"] if n.startswith("vacuous:")] == (vacuous if bound < p else [])


def test_regular_sequence_longer_than_dimension_exits_two():
    # at D=4 the ideal (x[1,1]) yields a "regular" sequence of length 5 while
    # n = 4: the evidence is too short, so the run is refused, not failed
    code, out, err = invoke(["depth-report", "--p", "2", "--blocks", "2,2",
                             "--max-degree", "4"])
    assert code == 2
    assert out == ""
    assert "ideal (x[1,1])" in err
    assert "length 5" in err and "n = 4" in err


def test_monomial_example_command():
    for name, count in (("example-1", 6), ("example-2", 4)):
        code, out, _ = invoke(["monomial-example", "--name", name])
        assert code == 0
        doc = json.loads(out)
        assert doc["summary"]["total"] == count
        assert doc["summary"]["all_passed"]
        assert doc["config"]["name"] == name
    assert invoke(["monomial-example", "--name", "example-9"])[0] == 2


def test_version_flag(capsys):
    assert invoke(["--version"])[0] == 0
    capsys.readouterr()


def test_parser_lists_all_subcommands():
    parser = build_parser()
    text = parser.format_help()
    for name in ("hilbert", "regseq", "transfer-quotient", "norm-decompose",
                 "grade", "depth-report", "monomial-example"):
        assert name in text
