"""Command-line interface for intensity analysis and recovery.

Subcommands:
    analyze         full ambiguity report for a signal file
    enumerate       all solution classes of a signal, autocorrelation or
                    sampled-intensity file
    recover         constrained recovery with uniqueness exit codes
    counterexample  build and verify one of the ambiguity constructions

Exit codes: 0 success (recover: exactly one class), 2 malformed input or
domain error, 3 no solution class survived, 4 more than one class survived.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import os
import sys

import numpy as np

from . import serialization as ser
from .config import DEFAULT_CONFIG, ToleranceConfig
from .counterexamples import (magnitude_counterexample, phase_counterexample,
                              _probe_grid, _verify_family)
from .criteria import (check_all_moduli_uniqueness, check_magnitude_uniqueness,
                       check_phase_uniqueness_endpoint,
                       check_phase_uniqueness_two_points)
from .enumeration import enumerate_solutions, recover
from .factorization import cluster_roots, pairs_from_zeros
from .signals import autocorrelation

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INCONSISTENT = 3
EXIT_AMBIGUOUS = 4

ENV_TOL_ABS = "PHASE_TOOLKIT_TOL_ABS"


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol-abs", type=float, default=None,
                        help=f"absolute tolerance (default 1e-9, or ${ENV_TOL_ABS})")
    common.add_argument("--tol-rel", type=float, default=None,
                        help="relative tolerance (default 1e-9)")
    common.add_argument("--circle-tol", type=float, default=None,
                        help="unit-circle snapping band (default 1e-8)")
    common.add_argument("--out", default=None,
                        help="write the result to this path instead of stdout")
    formatted = argparse.ArgumentParser(add_help=False)
    formatted.add_argument("--format", choices=("json", "csv"), default="json",
                           help="output format for signal-bearing results")

    parser = argparse.ArgumentParser(
        prog="phase-toolkit",
        description="Ambiguity analysis for one-dimensional discrete phase retrieval")
    sub = parser.add_subparsers(dest="command", required=True)

    # each subcommand accepts only the flags it reads
    analyze = sub.add_parser("analyze", parents=[common],
                             help="report zero pairs, class count and uniqueness verdicts")
    analyze.add_argument("--criterion-tol", type=float, default=None,
                         help="criterion equality band (default 1e-8)")
    analyze.add_argument("signal_file", help="signal JSON (use - for stdin)")

    enumerate_cmd = sub.add_parser("enumerate", parents=[common, formatted],
                                   help="enumerate all solution classes")
    enumerate_cmd.add_argument("input_file",
                               help="signal, autocorrelation or samples JSON (- for stdin)")
    enumerate_cmd.add_argument("--modulo-reflection", action="store_true",
                               help="merge conjugate-reflected classes")

    recover_cmd = sub.add_parser("recover", parents=[common, formatted],
                                 help="filter the solution classes by constraints")
    recover_cmd.add_argument("input_file", metavar="intensity_file",
                             help="signal, autocorrelation or samples JSON (- for stdin)")
    recover_cmd.add_argument("constraints_file",
                             help="JSON list of constraints (- for stdin)")
    recover_cmd.add_argument("--modulo-reflection", action="store_true",
                             help="merge conjugate-reflected classes before filtering")

    counter = sub.add_parser("counterexample", parents=[common, formatted],
                             help="build and verify an ambiguity construction")
    counter.add_argument("kind", choices=("modulus", "phase"))
    counter.add_argument("--seed", type=int, default=None,
                         help="seed for extra randomized verification probes")
    counter.add_argument("--support", type=int, default=None,
                         help="support length N")
    counter.add_argument("--split-radius", type=float, default=2.0,
                         help="radius of the reciprocal real zero pair (modulus kind)")
    counter.add_argument("--repeated-radius", type=float, default=2.0,
                         help="radius of the repeated imaginary zero (modulus kind)")
    counter.add_argument("--zeros", default=None,
                         help="comma-separated negative real zeros (phase kind)")
    return parser


def _config_from(args) -> ToleranceConfig:
    atol, raw = args.tol_abs, os.environ.get(ENV_TOL_ABS)
    if atol is None and raw is not None:
        try:
            atol = float(raw)
        except ValueError as exc:
            raise ValueError(f"bad {ENV_TOL_ABS} value {raw!r}") from exc
    flags = {"atol": atol, "rtol": args.tol_rel, "circle_tol": args.circle_tol,
             "criterion_tol": getattr(args, "criterion_tol", None)}
    overrides = {name: value for name, value in flags.items() if value is not None}
    return dataclasses.replace(DEFAULT_CONFIG, **overrides)


def _read_json(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed JSON in {path}: {exc}") from exc


def _read_source(document, cfg: ToleranceConfig):
    """The `Signal` or `Autocorrelation` a document describes, samples fitted."""
    if not isinstance(document, dict):
        raise ValueError("expected a JSON object describing the input")
    if "values" in document:
        return ser.signal_from_dict(document)
    if "coeffs" in document:
        return ser.acf_from_dict(document)
    if "samples" in document:
        return ser.acf_from_samples_dict(document, cfg)
    raise ValueError("input needs 'values', 'coeffs' or 'samples'")


def _write_result(text: str, path) -> None:
    """Write text to path, or newline-terminated to stdout when path is None."""
    if path is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
        return
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc}") from exc


def _solution_text(solutions, args) -> str:
    if args.format == "csv":
        return ser.signals_to_csv(solutions.classes)
    return ser.dumps(ser.solution_set_to_dict(solutions))


def _verification_probes(seed):
    probes = _probe_grid()
    if seed is not None:
        probes = np.concatenate([probes, np.random.default_rng(seed).uniform(-np.pi, np.pi, 32)])
    return probes


def _cmd_analyze(args, cfg: ToleranceConfig) -> int:
    signal = ser.signal_from_dict(_read_json(args.signal_file))
    n = signal.support_len
    acf = autocorrelation(signal)
    zeros = [root for root, mult in cluster_roots(signal.values) for _ in range(mult)]
    pairs = pairs_from_zeros(zeros, acf[n - 1], cfg)
    classes_rot = enumerate_solutions(pairs, modulo_reflection=False)
    classes_refl = enumerate_solutions(pairs, modulo_reflection=True)

    # (family, position, label, report), in the order the verdicts are printed
    inner = range(1, n - 1)
    checks = [("magnitude", {"end_offset": off}, f"modulus of x[{n - 1 - off}]",
               check_magnitude_uniqueness(zeros, off, n, cfg)) for off in range(n)]
    checks.append(("all_moduli", None, "all moduli", check_all_moduli_uniqueness(zeros, n, cfg)))
    checks += [("phase_endpoint", {"end_offset": off}, f"phases of x[{n - 1}], x[{n - 1 - off}]",
                check_phase_uniqueness_endpoint(zeros, off, n, cfg)) for off in inner]
    checks += [("phase_two_points", {"end_offsets": [a, b]},
                f"phases of x[{n - 1 - a}], x[{n - 1 - b}]",
                check_phase_uniqueness_two_points(zeros, a, b, n, cfg))
               for a, b in itertools.combinations(inner, 2)]

    lines = [f"support length: {n}",
             f"zero pairs: {len(pairs.pairs)}"
             f" (on circle: {sum(1 for p in pairs.pairs if p.on_circle)},"
             f" snapped roots: {pairs.snapped})",
             f"solution classes: {len(classes_rot)} up to rotation/shift,"
             f" {len(classes_refl)} up to reflection as well"]
    for _, _, label, report in checks:
        state = "unique" if report.unique else "ambiguous"
        extra = " [borderline]" if report.borderline else ""
        lines.append(f"{label}: {state} ({report.equivalence_kind}){extra}")
    if args.out is not None:
        verdicts = {"magnitude": [], "phase_endpoint": [], "phase_two_points": [],
                    "all_moduli": None}
        for family, position, _, report in checks:
            entry = ser.report_to_dict(report)
            if position is None:
                verdicts[family] = entry
            else:
                verdicts[family].append({**position, "report": entry})
        document = {
            "n": n,
            "autocorrelation": ser.acf_to_dict(acf),
            "zero_pairs": ser.zero_pairs_to_dict(pairs),
            "class_count": len(classes_rot),
            "class_count_modulo_reflection": len(classes_refl),
            "criteria": verdicts,
        }
        _write_result(ser.dumps(document), args.out)
    _write_result("\n".join(lines), None)
    return EXIT_OK


def _cmd_recover(args, cfg: ToleranceConfig) -> int:
    """`recover`; `enumerate` is the same pipeline without constraints or verdict codes."""
    source = _read_source(_read_json(args.input_file), cfg)
    constraints = (() if args.command == "enumerate"
                   else ser.constraints_from_list(_read_json(args.constraints_file)))
    solutions = recover(source, constraints, cfg, args.modulo_reflection)
    _write_result(_solution_text(solutions, args), args.out)
    if args.command == "enumerate" or len(solutions) == 1:
        return EXIT_OK
    return EXIT_INCONSISTENT if len(solutions) == 0 else EXIT_AMBIGUOUS


def _cmd_counterexample(args, cfg: ToleranceConfig) -> int:
    if args.kind == "modulus":
        if args.support is None:
            raise ValueError("modulus construction needs --support")
        pairs = [magnitude_counterexample(args.support, args.split_radius,
                                          args.repeated_radius, cfg)]
    else:
        if args.zeros is None:
            raise ValueError("phase construction needs --zeros")
        try:
            zeros = [float(part) for part in args.zeros.split(",") if part.strip()]
        except ValueError as exc:
            raise ValueError(f"bad --zeros list: {exc}") from exc
        pairs = phase_counterexample(zeros, args.support, cfg)
    documents = [ser.counterexample_to_dict(p) for p in pairs]
    text = (ser.dumps(documents[0] if args.kind == "modulus" else documents)
            if args.format == "json" else ser.signals_to_csv([pairs[0].x] + [p.y for p in pairs]))
    if pairs:
        gaps = _verify_family(pairs[0].x, [p.y for p in pairs], _verification_probes(args.seed))
        for idx, row in enumerate(zip(*gaps.values())):
            sys.stderr.write(f"pair {idx}: " + ", ".join(
                f"{key.replace('_', ' ')} {gap:.3e}" for key, gap in zip(gaps, row)) + "\n")
    _write_result(text, args.out)
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from(args)
        if args.command == "analyze":
            return _cmd_analyze(args, cfg)
        if args.command in ("enumerate", "recover"):
            return _cmd_recover(args, cfg)
        return _cmd_counterexample(args, cfg)
    except (ValueError, ArithmeticError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
