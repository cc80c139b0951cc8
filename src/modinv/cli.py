"""Command-line frontend: argument parsing, configuration validation,
deterministic JSON reports, exit codes.

Exit codes: 0 all checks passed, 1 at least one check failed (the report
carries the witnesses), 2 usage or configuration error, 3 internal error
(a consistency check inside the computation broke, or any other unexpected
exception escaped it; no report).  Reports are byte-identical for identical
configurations: no wall-clock time and no shell variable reaches them.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence, TextIO

from . import __version__, depthlab, monoalg
from .depthlab import DEFAULT_MAX_DEGREE
from .invariants import dimension_growth_check, invariant_slice, transfer_slice
from .poly import Poly, PolyParseError, parse, render
from .rep import CpRep, is_invariant, norm_decompose
from .report import CheckReport, dumps_report

TOOL_NAME = "modinv"
TOOL_VERSION = __version__


class ConfigError(ValueError):
    """Bad configuration that was caught before any computation ran."""


def _parse_blocks(text: str) -> tuple[int, ...]:
    try:
        blocks = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ConfigError(f"blocks must be comma-separated integers, got {text!r}")
    if not blocks:
        raise ConfigError("blocks must be nonempty")
    return blocks


def _require_at_least(option: str, value: int | None, least: int) -> None:
    if value is not None and value < least:
        raise ConfigError(f"{option} must be at least {least}, got {value}")


def _make_rep(args: argparse.Namespace) -> CpRep:
    return CpRep.make(args.p, _parse_blocks(args.blocks))


def _load_sequence(rep: CpRep, source: str) -> list[Poly]:
    """Either the built-in canonical sequence or one polynomial per
    nonempty line of a file, in the normal polynomial grammar."""
    if source == "canonical":
        return depthlab.canonical_sequence(rep)
    try:
        with open(source, encoding="utf-8") as handle:
            lines = [line.strip() for line in handle]
    except OSError as exc:
        raise ConfigError(f"cannot read sequence file {source!r}: {exc}")
    seq = []
    for lineno, line in enumerate(lines, start=1):
        if not line:
            continue
        try:
            seq.append(parse(line, rep.varnames, rep.p))
        except PolyParseError as exc:
            raise ConfigError(f"{source}:{lineno}: {exc}")
    if not seq:
        raise ConfigError(f"sequence file {source!r} contains no polynomials")
    return seq


def _cmd_hilbert(args: argparse.Namespace) -> list[CheckReport]:
    rep = _make_rep(args)
    bound = args.max_degree
    # the differences exist only from degree p*dim on
    start = rep.p * rep.nvars
    report = CheckReport(
        name="hilbert-dimensions",
        params={"max_degree": bound},
        passed=True,
        degrees_checked=list(range(start, bound + 1)),
        notes=["invariant ring, transfer ideal, and quotient dimensions per degree",
               "pass means the p-step finite differences of order dim vanish "
               "inside the bound (quasi-polynomial growth)"],
    )
    if start > bound:
        report.notes.append(f"vacuous: no degree from p*dim = {start} on lies inside the bound {bound}")
    inv = invariant_slice(rep, bound)
    tra = transfer_slice(rep, bound)
    growth_ok, offenders = dimension_growth_check(
        inv.dims(), order=rep.nvars, step=rep.p, window_start=start)
    report.params["invariant_dims"] = inv.dims()
    report.params["transfer_ideal_dims"] = tra.dims()
    # the transfer ideal lies in the invariants, degree by degree
    report.params["quotient_dims"] = [i - t for i, t in zip(inv.dims(), tra.dims())]
    report.passed = growth_ok
    report.witnesses.extend({"degree": d, "problem": "dimension growth difference not zero"}
                            for d in offenders)
    return [report]


def _cmd_regseq(args: argparse.Namespace) -> list[CheckReport]:
    rep = _make_rep(args)
    seq = _load_sequence(rep, args.sequence)
    ring = depthlab.ring_module(rep, args.max_degree)
    cert = depthlab.verify_regular_sequence(ring, seq)
    reports = list(cert.steps)
    reports.append(CheckReport(
        name="regular-sequence",
        params={
            "sequence": list(cert.rendered),
            "verified_length": cert.verified_length,
            "requested_length": len(seq),
            "max_degree": args.max_degree,
        },
        passed=cert.passed,
        notes=["every step regular up to the degree bound" if cert.passed
               else "a step failed; its report carries the witness", *cert.vacuity_notes],
    ))
    if args.socle:
        reports.append(depthlab.socle_search(cert.final_view)[1])
    return reports


def _cmd_transfer_quotient(args: argparse.Namespace) -> list[CheckReport]:
    rep = _make_rep(args)
    return depthlab.transfer_quotient_check(rep, args.max_degree)


def _cmd_norm_decompose(args: argparse.Namespace) -> list[CheckReport]:
    rep = _make_rep(args)
    texts: list[str] = []
    if args.poly:
        texts.extend(args.poly)
    if args.input:
        try:
            with open(args.input, encoding="utf-8") as handle:
                texts.extend(line.strip() for line in handle if line.strip())
        except OSError as exc:
            raise ConfigError(f"cannot read input file {args.input!r}: {exc}")
    if not texts:
        raise ConfigError("norm-decompose needs --poly or --input")
    block_indices = None
    if args.blocks_used:
        block_indices = _parse_blocks(args.blocks_used)
    reports = []
    for text in texts:
        try:
            f = parse(text, rep.varnames, rep.p)
        except PolyParseError as exc:
            raise ConfigError(f"bad polynomial {text!r}: {exc}")
        result = norm_decompose(rep, f, block_indices)
        ok = result.reconstruct(rep) == f
        p = rep.p
        bound_ok = all(
            result.remainder.degree_in(rep.var_index(rep.blocks[j - 1], j)) < p
            for j in result.block_indices)
        report = CheckReport(
            name="norm-decomposition",
            params={
                "input": render(f, rep.varnames),
                "block_indices": list(result.block_indices),
            },
            passed=ok and bound_ok,
            witnesses=[{
                "quotients": [render(q, rep.varnames) for q in result.quotients],
                "remainder": render(result.remainder, rep.varnames),
            }],
            notes=["reconstruction and remainder degree bounds re-checked"],
        )
        if is_invariant(rep, f):
            parts_invariant = all(is_invariant(rep, q) for q in result.quotients) \
                and is_invariant(rep, result.remainder)
            report.passed = report.passed and parts_invariant
            report.notes.append("input is invariant; all quotients and the remainder "
                                + ("stay invariant" if parts_invariant else "FAIL to stay invariant"))
        reports.append(report)
    return reports


def _cmd_grade(args: argparse.Namespace) -> list[CheckReport]:
    _require_at_least("--search-cap", args.search_cap, 1)
    rep = _make_rep(args)
    ring = depthlab.ring_module(rep, args.max_degree)
    return depthlab.norm_reduction_check(ring, search_degree_cap=args.search_cap)


def _cmd_depth_report(args: argparse.Namespace) -> list[CheckReport]:
    _require_at_least("--search-cap", args.search_cap, 1)
    rep = _make_rep(args)
    return depthlab.depth_report(rep, args.max_degree, search_degree_cap=args.search_cap)


def _cmd_monomial_example(args: argparse.Namespace) -> list[CheckReport]:
    _require_at_least("--degree-cap", args.degree_cap, 0)
    return monoalg.run_preset(args.name, degree_cap=args.degree_cap)


def _add_rep_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--p", type=int, required=True, help="prime characteristic / group order")
    sub.add_argument("--blocks", required=True,
                     help="comma-separated block sizes, e.g. 2,2, each between 1 and p; "
                          "depth-report, grade, transfer-quotient and canonical regseq "
                          "need sizes of at least 2")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=TOOL_NAME,
        description="Bounded exact verification for modular invariant rings of "
                    "cyclic prime-order groups, plus monomial-algebra examples.")
    parser.add_argument("--version", action="version", version=f"{TOOL_NAME} {TOOL_VERSION}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", help="write the JSON report to this path instead of stdout")
    bounded = argparse.ArgumentParser(add_help=False)
    bounded.add_argument("--max-degree", type=int, default=DEFAULT_MAX_DEGREE,
                         help=f"degree bound for all slices (default {DEFAULT_MAX_DEGREE})")
    commands = parser.add_subparsers(dest="subcommand", required=True)

    sub = commands.add_parser("hilbert", parents=[common, bounded],
                              help="dimension tables for invariants, transfer ideal, quotient")
    _add_rep_arguments(sub)
    sub.set_defaults(handler=_cmd_hilbert)

    sub = commands.add_parser("regseq", parents=[common, bounded],
                              help="verify a regular sequence on the invariant ring")
    _add_rep_arguments(sub)
    sub.add_argument("--sequence", default="canonical",
                     help="'canonical' or a file with one polynomial per line")
    sub.add_argument("--socle", action="store_true",
                     help="after the sequence, search the quotient for a socle witness")
    sub.set_defaults(handler=_cmd_regseq)

    sub = commands.add_parser("transfer-quotient", parents=[common, bounded],
                              help="norm sequence, vanishing, and series checks on "
                                   "invariants mod the transfer ideal")
    _add_rep_arguments(sub)
    sub.set_defaults(handler=_cmd_transfer_quotient)

    sub = commands.add_parser("norm-decompose", parents=[common],
                              help="decompose polynomials along top-variable norms")
    _add_rep_arguments(sub)
    sub.add_argument("--poly", action="append",
                     help="polynomial to decompose (repeatable)")
    sub.add_argument("--input", help="file with one polynomial per line")
    sub.add_argument("--blocks-used", help="comma-separated block indices to divide by "
                                           "(default: all)")
    sub.set_defaults(handler=_cmd_norm_decompose)

    sub = commands.add_parser("grade", parents=[common, bounded],
                              help="depth vs grade-plus-blocks comparison on the invariant ring")
    _add_rep_arguments(sub)
    sub.add_argument("--search-cap", type=int, default=None,
                     help="degree cap for candidate search pools, at least 1 (default: p)")
    sub.set_defaults(handler=_cmd_grade)

    sub = commands.add_parser("depth-report", parents=[common, bounded],
                              help="canonical sequence, prefix ideal depths, transfer ideal "
                                   "depth, and the inequality audit in one run")
    _add_rep_arguments(sub)
    sub.add_argument("--search-cap", type=int, default=None,
                     help="degree cap for candidate search pools, at least 1 (default: p)")
    sub.set_defaults(handler=_cmd_depth_report)

    sub = commands.add_parser("monomial-example", parents=[common],
                              help="verify a bundled two-variable monomial algebra example")
    sub.add_argument("--name", required=True, choices=sorted(monoalg.PRESETS),
                     help="which bundled example to run")
    sub.add_argument("--degree-cap", type=int, default=monoalg.DEFAULT_DEGREE_CAP,
                     help="bound for the brute-force enumeration identity, at least 0 "
                          f"(default {monoalg.DEFAULT_DEGREE_CAP})")
    sub.set_defaults(handler=_cmd_monomial_example)
    return parser


def _document(args: argparse.Namespace, checks: Sequence[CheckReport]) -> dict:
    """The report: the subcommand and its options as given, every check,
    and a summary."""
    options = {key: value for key, value in sorted(vars(args).items())
               if key not in ("handler", "output", "subcommand") and value is not None}
    failed = sum(1 for c in checks if not c.passed)
    return {
        "tool": TOOL_NAME,
        "version": TOOL_VERSION,
        # "workers" is a pinned-format constant; it goes when a benchmark change re-pins the hashes
        "config": {"subcommand": args.subcommand, **options, "workers": 1},
        "checks": [c.to_json_dict() for c in checks],
        "summary": {
            "total": len(checks),
            "passed": len(checks) - failed,
            "failed": failed,
            "all_passed": failed == 0,
        },
    }


def run(argv: Sequence[str], stdout: TextIO | None = None, stderr: TextIO | None = None) -> int:
    out = sys.stdout if stdout is None else stdout
    err = sys.stderr if stderr is None else stderr
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        checks = args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=err)
        return 2
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=err)
        return 3
    except Exception as exc:
        # an exception nothing here expects is a defect: name it and keep its
        # traceback (imported only here: a normal run does not load it)
        import traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=err)
        traceback.print_exc(file=err)
        return 3
    text = dumps_report(_document(args, checks))
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"error: cannot write report to {args.output!r}: {exc}", file=err)
            return 2
    else:
        out.write(text)
    return 0 if all(c.passed for c in checks) else 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))
