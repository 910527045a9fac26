"""Command-line entry points.

Three subcommands mirror the pipeline module:

- ``holomoser inspect --family su --p 2 --q 1`` prints the structural report
  of one algebra (dimensions, roots, z0 certificates).
- ``holomoser lemmas --config <file>`` runs the supporting-inequality suite
  for the configured scenario and prints its JSON report.
- ``holomoser theorem --config <file> [--out <dir>]`` runs the full
  certification pipeline; with ``--out`` the JSON report is written to
  ``<dir>/theorem_report.json`` and a verdict line goes to stdout, otherwise
  the report itself is printed.

``--seed/--steps/--delta-mult/--samples/--eps`` override the corresponding
config entries.  Exit status: 0 verdict pass, 1 verdict fail or a run that
stopped on a numerical failure (RuntimeError: chamber sampling exhausted, a
degenerate form along a flow, a flow past its fiber ceiling; LinAlgError: a
linear-algebra routine that did not converge; the message goes to stderr),
2 refused or invalid input.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .pipeline import (
    ChamberError,
    DeltaError,
    inspect_model,
    run_lemma_suite,
    run_theorem_pipeline,
)
from .report import load_scenario, render_report, write_report


def build_parser():
    parser = argparse.ArgumentParser(
        prog="holomoser",
        description=(
            "Certify symplectomorphisms between holomorphic coadjoint orbits "
            "and their normal-form models by numerical Moser flows."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_inspect = sub.add_parser(
        "inspect", help="report dimensions, roots and z0 certificates"
    )
    p_inspect.add_argument("--family", required=True, choices=("su", "sp"))
    p_inspect.add_argument("--p", type=int, default=None)
    p_inspect.add_argument("--q", type=int, default=None)
    p_inspect.add_argument("--n", type=int, default=None)

    def add_overrides(sp):
        sp.add_argument("--config", required=True, help="flat key = value file")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--steps", type=int, default=None)
        sp.add_argument("--delta-mult", type=float, default=None)
        sp.add_argument("--samples", type=int, default=None)
        sp.add_argument("--eps", type=float, default=None)

    p_lemmas = sub.add_parser(
        "lemmas", help="run the supporting-inequality suite for a scenario"
    )
    add_overrides(p_lemmas)

    p_theorem = sub.add_parser(
        "theorem", help="run the full pullback certification pipeline"
    )
    add_overrides(p_theorem)
    p_theorem.add_argument(
        "--out", default=None, help="directory to write theorem_report.json into"
    )
    return parser


def _scenario_from_args(args, samples_key):
    overrides = {
        "seed": args.seed,
        "steps": args.steps,
        "delta_mult": args.delta_mult,
        samples_key: args.samples,
        "eps": args.eps,
    }
    return load_scenario(args.config, **overrides)


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "inspect":
            report = inspect_model(args.family, p=args.p, q=args.q, n=args.n)
            sys.stdout.write(render_report(report))
            return 0 if report["verdict"] == "pass" else 1

        if args.command == "lemmas":
            scenario = _scenario_from_args(args, "lemma_samples")
            report = run_lemma_suite(scenario)
            sys.stdout.write(render_report(report))
            return 0 if report["verdict"] == "pass" else 1

        scenario = _scenario_from_args(args, "samples")
        report = run_theorem_pipeline(scenario)
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            path = os.path.join(args.out, "theorem_report.json")
            write_report(report, path)
            sys.stdout.write(f"verdict: {report['verdict']}\nreport: {path}\n")
        else:
            sys.stdout.write(render_report(report))
        return 0 if report["verdict"] == "pass" else 1

    except (ChamberError, DeltaError) as exc:
        sys.stderr.write(f"refused: {exc}\n")
        return 2
    # LinAlgError subclasses ValueError, so it is caught first
    except (RuntimeError, np.linalg.LinAlgError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
