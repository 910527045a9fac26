"""In-memory span tracer for the benchmark, and the per-layer metrics it yields.

Spans are recorded by wrappers that the benchmark installs around calls into
each holomoser module, on the namespace that makes the call: a function that
``pipeline.py`` imported by name is wrapped in ``holomoser.pipeline``, a method
is wrapped on its class.  Each span is ``[name, start, end, parent, run_id,
counts]``; ``parent`` is the index of the enclosing span within the same
run, so a span's self time is its duration minus the durations of its
children.  Spans are kept in memory for one traced call, then written out.
``installed()`` restores every patched attribute on exit and reports any it
could not.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import inspect
import json
from time import perf_counter

ROOT_SPAN = "bench.call"

BLOCK_SPANS = (
    "forms.pullback_blocks",
    "forms.delta_blocks",
    "forms.hermitian_blocks",
    "forms.hermitian_dt_blocks",
)

# unit of every per-layer metric, in report order
LAYER_UNITS = {
    "pipeline.lemmas_s": "s",
    "pipeline.witness_s": "s",
    "pipeline.hypotheses_s": "s",
    "pipeline.stages_s": "s",
    "pipeline.composite_s": "s",
    "moser.field_calls": "count",
    "moser.field_lanes": "count",
    "moser.field_s": "s",
    "moser.field_self_s": "s",
    "moser.primitive_s": "s",
    "moser.us_per_lane_eval": "us",
    "moser.flow_self_s": "s",
    "moser.verify_self_s": "s",
    "moser.rk_steps": "count",
    "moser.reprojections": "count",
    "moser.reproject_ratio": "ratio",
    "forms.block_calls": "count",
    "forms.block_lane_nodes": "count",
    "forms.block_out_mb": "MB",
    "forms.pullback_blocks_s": "s",
    "forms.delta_blocks_s": "s",
    "forms.hermitian_blocks_s": "s",
    "forms.hermitian_dt_blocks_s": "s",
    "forms.fiber_eig_s": "s",
    "forms.kappa_s": "s",
    "forms.moment_s": "s",
    "algebra.build_s": "s",
    "algebra.group_exp_s": "s",
    "algebra.adjoint_group_matrix_s": "s",
    "algebra.group_residual_s": "s",
    "algebra.group_project_s": "s",
    "roots.datum_s": "s",
    "roots.chamber_tests": "count",
    "roots.chamber_accept_ratio": "ratio",
    "roots.chamber_test_s": "s",
    "operators.chi_checks": "count",
    "operators.chi_check_s": "s",
    "report.render_s": "s",
    "trace.overhead_ratio": "ratio",
}


def _lanes(args, out):
    # moser_field(family, ks, zs, t)
    return {"lanes": len(args[2])}


def _flow(args, out):
    return {"steps": out.trace.steps, "reprojections": out.trace.reprojections}


def _block(args, out):
    # (B, S, T, T) form matrices at B lanes and S fiber-scaling nodes
    return {"lane_nodes": out.shape[0] * out.shape[1], "bytes": out.nbytes}


def _accepted(args, out):
    return {"accepted": int(bool(out[0]))}


def layer_patches(pipeline, moser, forms, roots, algebra, report):
    """(owner, attribute, span name, counter) for every wrapped call site."""
    geo = forms.OrbitGeometry
    alg = algebra.MatrixLieAlgebra
    patches = [
        (pipeline, "_lemma_block", "pipeline.lemmas", None),
        (pipeline, "_segment_witness", "pipeline.witness", None),
        (pipeline, "check_hypotheses", "pipeline.hypotheses", None),
        (pipeline, "_stage_report", "pipeline.stage", None),
        (pipeline, "verify_pullback", "moser.verify", None),
        (pipeline, "build_algebra", "algebra.build", None),
        (pipeline, "compute_root_datum", "roots.datum", None),
        (pipeline, "chi_spectrum_check", "operators.chi_check", None),
        (moser, "moser_field", "moser.field", _lanes),
        (moser, "homotopy_primitive", "moser.primitive", None),
        (moser, "integrate_flow", "moser.flow", _flow),
        (geo, "fiber_eig", "forms.fiber_eig", None),
        (geo, "kappa", "forms.kappa", None),
        (alg, "group_exp", "algebra.group_exp", None),
        (alg, "adjoint_group_matrix", "algebra.adjoint_group_matrix", None),
        (alg, "group_residual", "algebra.group_residual", None),
        (alg, "group_project", "algebra.group_project", None),
        (report, "render_report", "report.render", None),
    ]
    for span in BLOCK_SPANS:
        patches.append((geo, span.split(".")[1], span, _block))
    for owner in (pipeline, forms, roots):
        patches.append(
            (owner, "in_holomorphic_chamber", "roots.chamber_test", _accepted)
        )
    # single-point moment functions (called from pipeline) and the batched
    # OrbitGeometry moment methods they delegate to
    for attr in ("moment_pullback", "moment_delta", "moment_segment",
                 "moment_flat", "moment_product", "moment_hermitian"):
        patches.append((pipeline, attr, "forms.moment", None))
        patches.append((geo, attr, "forms.moment", None))
    return patches


class Tracer:
    """Records nested spans of one traced call at a time (single thread)."""

    def __init__(self):
        self.spans = []
        self.run_id = 0
        self._stack = []

    def begin(self, run_id):
        """Drop the previous call's spans and record the next call's."""
        self.spans = []
        self.run_id = run_id

    def call(self, name, fn, counter, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        rec = [name, 0.0, 0.0, parent, self.run_id, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            rec[2] = perf_counter()
            self._stack.pop()
        if counter is not None:
            rec[5] = counter(args, out)
        return out

    def _wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, counter, args, kwargs)

        return wrapper

    @contextlib.contextmanager
    def installed(self, patches, restore_failures):
        """Install the wrappers; on exit restore them, appending any attribute
        that does not hold its original object again to restore_failures."""
        saved = []
        try:
            for owner, attr, name, counter in patches:
                original = vars(owner)[attr]
                if not inspect.isfunction(original):
                    raise TypeError(f"{owner.__name__}.{attr} is not a function")
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, counter))
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
            for owner, attr, original in saved:
                if vars(owner)[attr] is not original:
                    restore_failures.append(f"{owner.__name__}.{attr}")

    def write(self, fh):
        """Append the recorded spans to a text file, one JSON object a line."""
        for name, start, end, parent, run_id, counts in self.spans:
            row = {"name": name, "start": start, "end": end,
                   "parent": parent, "run_id": run_id}
            if counts:
                row["counts"] = counts
            fh.write(json.dumps(row) + "\n")


def layer_metrics(spans):
    """Per-layer metrics of one traced call from its spans.

    Times of a span name are summed over outermost occurrences only, so a
    nested call of the same layer (a moment method delegating to another)
    is not counted twice.  trace.overhead_ratio is filled in by the caller.
    """
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    by_name = collections.defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s[0]].append(i)
        if s[3] is not None:
            child[s[3]] += dur[i]

    def has_ancestor(i, name):
        p = spans[i][3]
        while p is not None:
            if spans[p][0] == name:
                return True
            p = spans[p][3]
        return False

    def select(name):
        return by_name.get(name, [])

    def total(name):
        return sum(dur[i] for i in select(name) if not has_ancestor(i, name))

    def self_time(name):
        return sum(dur[i] - child[i] for i in select(name))

    def count_sum(name, key):
        return sum(spans[i][5][key] for i in select(name))

    roots = set(select(ROOT_SPAN))
    field_s = total("moser.field")
    lanes = count_sum("moser.field", "lanes")
    steps = count_sum("moser.flow", "steps")
    reproj = count_sum("moser.flow", "reprojections")
    tests = len(select("roots.chamber_test"))
    blocks = [i for name in BLOCK_SPANS for i in select(name)]
    m = {
        "pipeline.lemmas_s": total("pipeline.lemmas"),
        "pipeline.witness_s": total("pipeline.witness"),
        "pipeline.hypotheses_s": total("pipeline.hypotheses"),
        "pipeline.stages_s": total("pipeline.stage"),
        "pipeline.composite_s": sum(
            dur[i] for i in select("moser.verify") if spans[i][3] in roots
        ),
        "moser.field_calls": len(select("moser.field")),
        "moser.field_lanes": lanes,
        "moser.field_s": field_s,
        "moser.field_self_s": self_time("moser.field"),
        "moser.primitive_s": total("moser.primitive"),
        "moser.us_per_lane_eval": 1e6 * field_s / lanes if lanes else 0.0,
        "moser.flow_self_s": self_time("moser.flow"),
        "moser.verify_self_s": self_time("moser.verify"),
        "moser.rk_steps": steps,
        "moser.reprojections": reproj,
        "moser.reproject_ratio": reproj / steps if steps else 0.0,
        "forms.block_calls": len(blocks),
        "forms.block_lane_nodes": sum(spans[i][5]["lane_nodes"] for i in blocks),
        "forms.block_out_mb": sum(spans[i][5]["bytes"] for i in blocks) / 1e6,
    }
    for name in BLOCK_SPANS:
        m[name + "_s"] = total(name)
    m.update({
        "forms.fiber_eig_s": total("forms.fiber_eig"),
        "forms.kappa_s": total("forms.kappa"),
        "forms.moment_s": total("forms.moment"),
        "algebra.build_s": total("algebra.build"),
        "algebra.group_exp_s": total("algebra.group_exp"),
        "algebra.adjoint_group_matrix_s": total("algebra.adjoint_group_matrix"),
        "algebra.group_residual_s": total("algebra.group_residual"),
        "algebra.group_project_s": total("algebra.group_project"),
        "roots.datum_s": total("roots.datum"),
        "roots.chamber_tests": tests,
        "roots.chamber_accept_ratio": (
            count_sum("roots.chamber_test", "accepted") / tests if tests else 0.0
        ),
        "roots.chamber_test_s": total("roots.chamber_test"),
        "operators.chi_checks": len(select("operators.chi_check")),
        "operators.chi_check_s": total("operators.chi_check"),
        "report.render_s": total("report.render"),
    })
    return m
