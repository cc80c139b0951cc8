import io
import json

import pytest

from modinv.cli import build_parser, run

DOCUMENT_KEYS = ["tool", "version", "config", "checks", "summary"]
CHECK_KEYS = ["name", "params", "pass", "degrees_checked", "witnesses", "notes", "millis"]


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def test_document_schema():
    code, out, err = invoke(["hilbert", "--p", "2", "--blocks", "2", "--max-degree", "6"])
    assert code == 0
    doc = json.loads(out)
    assert list(doc.keys()) == DOCUMENT_KEYS
    assert doc["tool"] == "modinv"
    for check in doc["checks"]:
        assert list(check.keys()) == CHECK_KEYS
        assert check["millis"] == 0
    assert doc["summary"]["total"] == len(doc["checks"])
    assert doc["summary"]["all_passed"]
    assert doc["config"]["p"] == 2
    assert doc["config"]["blocks"] == "2"
    assert doc["config"]["workers"] == 1


def test_reports_are_byte_identical():
    argv = ["regseq", "--p", "2", "--blocks", "2", "--max-degree", "8"]
    first = invoke(argv)
    second = invoke(argv)
    assert first == second
    assert first[0] == 0


def test_timings_flag_unzeroes_millis():
    code, out, _ = invoke(["regseq", "--p", "2", "--blocks", "2,2",
                           "--max-degree", "8", "--timings"])
    assert code == 0
    doc = json.loads(out)
    assert all(isinstance(c["millis"], (int, float)) for c in doc["checks"])
    assert any(c["millis"] != 0 for c in doc["checks"])


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
    ):
        code, out, err = invoke(argv)
        assert code == 2, argv
        assert "error:" in err
        assert out == ""


def test_prime_above_251_exits_two():
    code, out, err = invoke(["hilbert", "--p", "257", "--blocks", "2", "--max-degree", "2"])
    assert code == 2
    assert out == ""
    assert "largest supported prime is 251" in err


def test_usage_errors_exit_two(capsys):
    assert invoke(["bogus"])[0] == 2
    assert invoke(["regseq"])[0] == 2  # missing required flags
    assert invoke([])[0] == 2
    capsys.readouterr()  # argparse wrote usage to the real stderr; swallow it


def test_thread_env_validation(monkeypatch):
    monkeypatch.setenv("MODINV_THREADS", "3")
    code, out, _ = invoke(["hilbert", "--p", "2", "--blocks", "2", "--max-degree", "4"])
    assert code == 0
    assert json.loads(out)["config"]["workers"] == 3
    monkeypatch.setenv("MODINV_THREADS", "zero")
    assert invoke(["hilbert", "--p", "2", "--blocks", "2"])[0] == 2
    monkeypatch.setenv("MODINV_THREADS", "0")
    assert invoke(["hilbert", "--p", "2", "--blocks", "2"])[0] == 2


def test_workers_do_not_change_output(monkeypatch):
    argv = ["regseq", "--p", "2", "--blocks", "2,2", "--max-degree", "8"]
    monkeypatch.setenv("MODINV_THREADS", "1")
    solo = invoke(argv)
    monkeypatch.setenv("MODINV_THREADS", "4")
    multi = invoke(argv)
    # workers are echoed in the config but must not alter any check
    solo_doc, multi_doc = json.loads(solo[1]), json.loads(multi[1])
    assert solo_doc["checks"] == multi_doc["checks"]
    assert multi_doc["config"]["workers"] == 4


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


def test_grade_command():
    code, out, _ = invoke(["grade", "--p", "2", "--blocks", "2", "--max-degree", "8"])
    assert code == 0
    doc = json.loads(out)
    assert doc["checks"][-1]["name"] == "norm-reduction"
    assert doc["checks"][-1]["pass"]


def test_depth_report_command():
    code, out, _ = invoke(["depth-report", "--p", "2", "--blocks", "2",
                           "--max-degree", "8"])
    assert code == 0
    doc = json.loads(out)
    assert doc["checks"][-1]["name"] == "depth-inequality-audit"
    assert doc["summary"]["all_passed"]


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
