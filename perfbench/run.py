"""holomoser benchmark: closed-loop certification runs with end-to-end metrics.

    python3 perfbench/run.py --workload wide-su21 --seed 0 --seconds 30 --trace 0

Run from the repository root (any checkout holding ``src/holomoser``).  One
caller runs the workload's pipeline call (``run_theorem_pipeline`` or
``run_lemma_suite`` followed by ``render_report``) again and again until
``--seconds`` have passed.  The first call of an untraced run is the
workload's reference scenario (scenario seed 0); the rest use scenario seeds
drawn from ``--seed``.  Every call is checked: verdict ``pass`` and every gate
boolean equal to ``reference.json``; the reference call's accuracy digits
(-log10 of its residual) must also be within DIGITS_TOLERANCE of the stored
ones.  A call that fails or raises keeps its time in the sample.

``--trace 1`` alternates untraced and traced calls on one seeded scenario and
reports the per-layer metrics of bench_trace.py instead, after checking that
the traced report equals the untraced one byte for byte (timing stripped),
that the per-layer counts repeat exactly, and that every patched attribute
was restored.  ``--tiny`` selects the small sizes the smoke tests use.

The last line of stdout is the result object; the line before it holds the
machine facts.  Details (every call, machine facts, and for traced runs every
span) go to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gzip
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import bench_trace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
SU21_CONFIG = ROOT / "configs" / "su21_generic.cfg"

REFERENCE_SEED = 0
# the reference call's accuracy digits may fall short of the stored ones by
# this share; it equals the residual_digits bound in BENCHMARK.json
DIGITS_TOLERANCE = 0.05
SETUP_REPEATS = 3
COUNT_METRICS = [k for k, u in bench_trace.LAYER_UNITS.items() if u == "count"]
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    kind: str  # "theorem" or "lemmas"
    config: Path | None  # config file the scenario starts from, if any
    params: dict  # Scenario fields when there is no config file
    sizes: dict  # Scenario overrides per size ("full", "tiny")


END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "residual_digits": "digits",
    "pass_ratio": "ratio",
}


# Why each workload exists is recorded in README.md.
WORKLOADS = {
    "wide-su21": Workload(
        "theorem", SU21_CONFIG, {},
        {"full": {"steps": 10, "samples": 6, "stage_samples": 1, "lemma_samples": 40},
         "tiny": {"steps": 10, "samples": 1, "stage_samples": 1, "lemma_samples": 4}},
    ),
    "deep-su21": Workload(
        "theorem", SU21_CONFIG, {},
        {"full": {"steps": 30, "samples": 1, "stage_samples": 1, "lemma_samples": 40},
         "tiny": {"steps": 12, "samples": 1, "stage_samples": 1, "lemma_samples": 4}},
    ),
    "lemmas-su22": Workload(
        "lemmas", None, {"family": "su", "p": 2, "q": 2},
        {"full": {"lemma_samples": 2000}, "tiny": {"lemma_samples": 20}},
    ),
}

# Measured in a fresh interpreter: import, then the workload's model set-up.
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import holomoser
import json
import numpy as np
from holomoser.forms import OrbitGeometry
from holomoser.roots import ChamberWeight, compute_root_datum
spec = json.loads(sys.argv[2])
alg = holomoser.build_algebra(**spec["algebra"])
datum = compute_root_datum(alg)
lam = spec["lam"]
weight = datum.lambda0 if lam is None else ChamberWeight(np.asarray(lam, float))
OrbitGeometry(alg, datum, weight)
print(time.perf_counter() - t0)
"""


def fail_setup(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_holomoser():
    if not (SRC / "holomoser" / "__init__.py").is_file():
        fail_setup(f"no holomoser sources under {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import holomoser  # noqa: F401  (imported for its submodules)
    from holomoser import algebra, forms, moser, pipeline, report, roots

    if Path(holomoser.__file__).resolve().parent != (SRC / "holomoser").resolve():
        fail_setup(f"imported holomoser from {holomoser.__file__}, not {SRC}")
    return {"pipeline": pipeline, "moser": moser, "forms": forms,
            "roots": roots, "algebra": algebra, "report": report}


def machine_facts():
    import numpy
    import scipy

    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps["blas"].get(k) for k in ("name", "version")}
    except (TypeError, KeyError):
        blas = {"name": None, "version": None}
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def make_scenario(mods, name, size, seed):
    wl = WORKLOADS[name]
    report = mods["report"]
    if wl.config is not None:
        return report.load_scenario(wl.config, seed=seed, **wl.sizes[size])
    return report.Scenario(seed=seed, **wl.params, **wl.sizes[size])


def scenario_seeds(seed):
    rng = random.Random(seed)
    while True:
        yield rng.randrange(1, 2**31)


def gates(report):
    """Every gate boolean of a report, keyed by its path."""
    out = {}

    def walk(node, path):
        if isinstance(node, dict):
            for key, value in node.items():
                if key == "checks" and isinstance(value, dict):
                    for gate, ok in value.items():
                        out[f"{path}checks.{gate}"] = bool(ok)
                else:
                    walk(value, f"{path}{key}.")
        elif isinstance(node, list):
            for i, value in enumerate(node):
                walk(value, f"{path}{i}.")

    walk(report, "")
    return out


def residual(report):
    """The report's headline residual (a max-abs difference of forms)."""
    if report["kind"] == "theorem":
        return float(report["composite"]["pullback_residual"])
    return float(max(report["lemmas"]["moment_identity_residuals"].values()))


def digits(res):
    return -math.log10(res)


def check_report(report, reference, is_reference_call):
    """Problems with one report; an empty list means it is correct."""
    problems = []
    if report["verdict"] != "pass":
        problems.append(f"verdict {report['verdict']!r}")
    got = gates(report)
    if got != reference["gates"]:
        diff = sorted(k for k in set(got) | set(reference["gates"])
                      if got.get(k) != reference["gates"].get(k))
        problems.append(f"gates differ from the reference: {diff}")
    if is_reference_call:
        least = digits(reference["residual"]) * (1.0 - DIGITS_TOLERANCE)
        got_digits = digits(residual(report))
        if not got_digits >= least:
            problems.append(f"accuracy {got_digits:.3f} digits, below {least:.3f}")
    return problems


def run_call(mods, kind, scenario, tracer=None):
    """One pipeline call plus rendering; returns (seconds, report, text, error)."""
    pipeline, report_mod = mods["pipeline"], mods["report"]
    fn = pipeline.run_theorem_pipeline if kind == "theorem" else pipeline.run_lemma_suite

    def call():
        rep = fn(scenario)
        return rep, report_mod.render_report(rep)

    t0 = perf_counter()
    try:
        if tracer is None:
            rep, text = call()
        else:
            rep, text = tracer.call(bench_trace.ROOT_SPAN, call, None, (), {})
        error = None
    except Exception:  # a failed call still counts, with its time
        rep, text, error = None, None, traceback.format_exc()
    return perf_counter() - t0, rep, text, error


def measure_setup(mods, name):
    """Median over SETUP_REPEATS fresh interpreters of import plus model set-up."""
    scenario = make_scenario(mods, name, "full", REFERENCE_SEED)
    spec = json.dumps({
        "algebra": {"family": scenario.family, **scenario.algebra_params()},
        "lam": None if scenario.lam is None else list(scenario.lam),
    })
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), spec],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times), times


def untraced_run(mods, name, size, seed, seconds, reference):
    kind = WORKLOADS[name].kind
    seeds = scenario_seeds(seed)
    calls = []
    ref_residual = None
    start = perf_counter()
    while not calls or perf_counter() - start < seconds:
        is_ref = not calls
        scen_seed = REFERENCE_SEED if is_ref else next(seeds)
        scenario = make_scenario(mods, name, size, scen_seed)
        dt, rep, _, error = run_call(mods, kind, scenario)
        problems = [error] if error else check_report(rep, reference, is_ref)
        if is_ref and rep is not None:
            ref_residual = residual(rep)
        calls.append({"scenario_seed": scen_seed, "seconds": dt,
                      "residual": residual(rep) if rep else None,
                      "problems": problems})
    failed = sum(1 for c in calls if c["problems"])
    setup_s, setup_samples = measure_setup(mods, name)
    metrics = {
        "wall_s": statistics.median(c["seconds"] for c in calls),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        # a reference call that raised has no residual; it already failed
        "residual_digits": 0.0 if ref_residual is None else digits(ref_residual),
        "pass_ratio": (len(calls) - failed) / len(calls),
    }
    detail = {"calls": calls, "setup_samples": setup_samples}
    return metrics, len(calls), failed, detail


def traced_run(mods, name, size, seed, seconds, reference, span_path):
    kind = WORKLOADS[name].kind
    scenario = make_scenario(mods, name, size, next(scenario_seeds(seed)))
    tracer = bench_trace.Tracer()
    patches = bench_trace.layer_patches(
        mods["pipeline"], mods["moser"], mods["forms"], mods["roots"],
        mods["algebra"], mods["report"],
    )
    pairs = []
    start = perf_counter()
    with gzip.open(span_path, "wt", encoding="utf-8") as span_file:
        while not pairs or perf_counter() - start < seconds:
            plain_s, plain_rep, plain_text, plain_err = run_call(mods, kind, scenario)
            restore_failures = []
            tracer.begin(len(pairs))
            with tracer.installed(patches, restore_failures):
                traced_s, traced_rep, traced_text, traced_err = run_call(
                    mods, kind, scenario, tracer
                )
            problems = []
            for err, rep in ((plain_err, plain_rep), (traced_err, traced_rep)):
                problems += [err] if err else check_report(rep, reference, False)
            if restore_failures:
                problems.append(f"attributes not restored: {restore_failures}")
            strip = mods["report"].strip_timing
            if plain_text and traced_text and strip(plain_text) != strip(traced_text):
                problems.append("traced report differs from the untraced one")
            pairs.append({"plain_s": plain_s, "traced_s": traced_s,
                          "layers": bench_trace.layer_metrics(tracer.spans),
                          "problems": problems})
            tracer.write(span_file)
    counts = {k: {p["layers"][k] for p in pairs} for k in COUNT_METRICS}
    unsteady = sorted(k for k, vals in counts.items() if len(vals) > 1)
    if unsteady:
        pairs[-1]["problems"].append(f"counts differ between traced calls: {unsteady}")
    failed = sum(1 for p in pairs if p["problems"])
    metrics = {
        key: statistics.median(p["layers"][key] for p in pairs)
        for key in bench_trace.LAYER_UNITS if key != "trace.overhead_ratio"
    }
    metrics["trace.overhead_ratio"] = (
        statistics.median(p["traced_s"] for p in pairs)
        / statistics.median(p["plain_s"] for p in pairs)
    )
    return metrics, len(pairs), failed, {"pairs": pairs}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes instead of the benchmark sizes")
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    mods = import_holomoser()
    size = "tiny" if args.tiny else "full"
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        reference = json.load(fh)[args.workload][size]
    facts = machine_facts()
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-{size}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics, attempted, failed, detail = traced_run(
            mods, args.workload, size, args.seed, args.seconds, reference,
            OUT_DIR / f"{stem}.spans.jsonl.gz",
        )
        units = bench_trace.LAYER_UNITS
    else:
        metrics, attempted, failed, detail = untraced_run(
            mods, args.workload, size, args.seed, args.seconds, reference
        )
        units = END_TO_END_UNITS
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    with open(OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"args": vars(args), "machine": facts, "result": result,
                   **detail}, fh, indent=1, default=str)
    for item in detail.get("calls", detail.get("pairs", [])):
        for problem in item["problems"]:
            print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps({"machine": facts}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
