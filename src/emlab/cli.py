"""Command-line front end around the scenario pipeline."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import EmlabError, ScenarioValidationError
from .scenario import (
    VERIFY_CHECKS,
    Pipeline,
    parse_scenario,
    report_json,
    run_scenario,
    validate_options,
    verify_suite,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emlab",
        description="Singular electromagnetic Schrodinger laboratory: spectra, "
                    "radial solves, frequency traces, asymptotic profiles.",
    )
    parser.add_argument("--config", metavar="PATH", required=True,
                        help="scenario JSON file")
    parser.add_argument("--out", metavar="DIR", default=None,
                        help="directory for report.json / trace.csv")
    parser.add_argument("--tol-scale", metavar="FACTOR", type=float, default=1.0,
                        help="multiply every check tolerance by FACTOR")
    parser.add_argument("--seed", metavar="N", type=int, default=None,
                        help="override the scenario sweep seed")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("spectrum", help="angular eigenvalues and blocks")
    sub.add_parser("solve", help="modal solve, convergence summary")
    sub.add_parser("frequency", help="frequency trace and fitted limit")
    sub.add_parser("asymptotics", help="leading profile and coefficients")
    sub.add_parser("kelvin", help="inversion conjugacy residuals")
    verify = sub.add_parser("verify", help="inequality / identity sweeps")
    verify.add_argument("--check", default=None,
                        help="comma-separated subset of: " + ", ".join(VERIFY_CHECKS))
    sub.add_parser("run", help="full pipeline with every enabled check")
    return parser


def _emit(doc: dict, out_dir, name: str) -> None:
    text = report_json(doc)
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / name).write_text(text)
    sys.stdout.write(text)


def _status_code(doc: dict) -> int:
    return 0 if doc.get("status", "pass") == "pass" else 1


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        scn = parse_scenario(args.config)
        validate_options(args.tol_scale, args.seed, args.out)
    except (OSError, ScenarioValidationError) as exc:
        parser.exit(2, f"emlab: {exc}\n")

    try:
        if args.command in ("run", "verify"):
            if args.command == "run":
                report = run_scenario(scn, out_dir=args.out, tol_scale=args.tol_scale,
                                      seed=args.seed)
            else:
                names = None
                if args.check is not None:
                    names = [n.strip() for n in args.check.split(",") if n.strip()]
                report = verify_suite(scn, names=names, out_dir=args.out,
                                      tol_scale=args.tol_scale, seed=args.seed)
            sys.stdout.write(report_json(report))
            return _status_code(report)

        pipe = Pipeline(scn)
        if args.command == "spectrum":
            _emit(pipe.spectrum.to_json(), args.out, "spectrum.json")
        elif args.command == "solve":
            field, info = pipe.solution
            doc = {
                "converged": info["converged"],
                "iterations": info["iterations"],
                "residuals": [float(v) for v in info["residuals"]],
                "modes": list(field.modes),
            }
            _emit(doc, args.out, "solve.json")
            return 0 if info["converged"] else 1
        elif args.command == "frequency":
            _emit(pipe.trace.fit_summary(), args.out, "frequency.json")
            if args.out is not None:
                pipe.trace.to_csv(Path(args.out) / "trace.csv")
        elif args.command == "asymptotics":
            _emit(pipe.profile(scn.boundary_radius).to_json(), args.out, "profile.json")
        else:
            inv, conj = pipe.kelvin
            _emit({"involution_residual": inv, "conjugacy_residual": conj},
                  args.out, "kelvin.json")
        return 0
    except ScenarioValidationError as exc:  # a bad --check
        parser.exit(2, f"emlab: {exc}\n")
    except EmlabError as exc:
        sys.stderr.write(f"emlab: {type(exc).__name__}: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
