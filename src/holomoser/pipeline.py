"""Certification pipelines over the orbit models.

Three entry points, mirrored by the CLI:

- ``inspect_model`` reports the structural data of one algebra: dimensions,
  the root system with compactness tags, the distinguished central element
  z0 and its weight, and the certificates tying them together.
- ``run_lemma_suite`` certifies the supporting spectral and growth facts on
  large seeded samples: the chi-operator contraction spectrum, quadratic
  growth of the pullback moment, the exact flat pairing, positivity of the
  bracket pairing for chamber weight pairs, the moment/form compatibility of
  all five families, and linearity of the chamber constants.
- ``run_theorem_pipeline`` certifies the main pullback statement: it gates
  on the chamber and on delta > b_lambda, checks the deformation hypotheses
  of every stage, flows the stages once, certifies the composite flow and
  (at the stage boundaries) each stage against finite-difference
  differentials, and aggregates one verdict.

Both runners return plain report dicts (see report.render_report); all
randomness comes from streams spawned off the scenario seed, so reports are
reproducible byte-for-byte outside their timing block.
"""

from __future__ import annotations

import math
import time
from functools import partial

import numpy as np

from .algebra import build_algebra
from .forms import (
    OrbitGeometry,
    bracket_positivity_slack,
    measure_convention_constants,
    moment_delta,
    moment_flat,
    moment_hermitian,
    moment_identity_residual,
    moment_product,
    moment_pullback,
    moment_segment,
)
from .moser import (
    MoserStage,
    check_hypotheses,
    hermitian_stage,
    random_points,
    scaling_stage,
    segment_stage,
    verify_pullback,
)
from .operators import chi_spectrum_check
from .report import SCHEMA_VERSION
from .roots import (
    ChamberWeight,
    chamber_constants,
    chamber_hits,
    compute_root_datum,
    in_holomorphic_chamber,
)

# chamber candidates tested per product in _random_chamber_weights
_CHAMBER_BLOCK = 64
# rows per evaluation chunk in _lemma_block; bounds its peak memory
_LEMMA_CHUNK = 256


class ChamberError(ValueError):
    """The requested weight is not strictly inside the holomorphic chamber."""


class DeltaError(ValueError):
    """The requested delta does not exceed b_lambda."""


def _build_model(scenario):
    """The run's OrbitGeometry and chamber margin; ChamberError off the chamber."""
    alg = build_algebra(scenario.family, **scenario.algebra_params())
    datum = compute_root_datum(alg)
    if scenario.lam is None:
        weight = datum.lambda0
    else:
        if len(scenario.lam) != alg.rank:
            raise ValueError(
                f"lambda needs {alg.rank} torus coordinates, got {len(scenario.lam)}"
            )
        weight = ChamberWeight(np.asarray(scenario.lam, dtype=float))
    ok, margin = in_holomorphic_chamber(weight, datum)
    if not ok:
        coords = [float(v) for v in weight.coords]
        raise ChamberError(
            f"weight {coords} is outside the holomorphic chamber "
            f"(margin over positive noncompact roots: {margin:.6g}, need > 0)"
        )
    return OrbitGeometry(alg, datum, weight), margin


def _verdict(checks):
    return "pass" if all(checks.values()) else "fail"


def _gate(tol, *values):
    """True only when every value is below tol; a NaN value fails."""
    return bool(np.all(np.array(values) < tol))


def _delta(scenario, b_lam):
    if scenario.delta_abs is not None:
        return scenario.delta_abs
    return scenario.delta_mult * b_lam


# -- inspection ---------------------------------------------------------------------


def inspect_model(family, p=None, q=None, n=None):
    """Structural report for one algebra: dimensions, roots, z0 certificates."""
    alg = build_algebra(family, p=p, q=q, n=n)
    datum = compute_root_datum(alg)
    rank = alg.rank
    z0_torus = datum.z0[:rank]

    res = datum.validate()
    cert = res["z0_squares_to_minus_id_on_p"]
    roots = [
        {
            "coords": [float(c) for c in root.coords],
            "compact": bool(root.compact),
            "positive": bool(root.positive),
            "value_on_z0": float(root.value(z0_torus)),
        }
        for root in datum.roots
    ]

    z0_norm_sq = float(datum.z0 @ datum.z0)
    pairing = datum.lambda0.pair(alg, datum.z0)
    m0, b0 = chamber_constants(datum.lambda0, datum)

    checks = {
        "z0_squares_to_minus_id_on_p": cert < 1e-10,
        "compact_roots_vanish_on_z0": res["compact_z0_eigenvalue"] < 1e-10,
        "positive_noncompact_roots_are_one_on_z0": res["noncompact_z0_eigenvalue"] < 1e-10,
        "lambda0_pairs_to_norm_squared": abs(pairing - z0_norm_sq) < 1e-12,
    }
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "inspect",
        "verdict": _verdict(checks),
        "algebra": {
            "family": family,
            "p": p,
            "q": q,
            "n": n,
            "ambient": alg.ambient,
            "dim": alg.dim,
            "dim_k": alg.dim_k,
            "dim_p": alg.dim_p,
            "rank": rank,
        },
        "roots": roots,
        "root_counts": {
            "total": len(roots),
            "compact": sum(1 for r in roots if r["compact"]),
            "noncompact": sum(1 for r in roots if not r["compact"]),
            "positive_noncompact": len(datum.positive_noncompact()),
        },
        "z0": [float(v) for v in z0_torus],
        "z0_norm_squared": z0_norm_sq,
        "z0_certificate_residual": cert,
        "lambda0": [float(v) for v in datum.lambda0.coords],
        "lambda0_z0_pairing": pairing,
        "constants_at_lambda0": {"m_lambda": m0, "b_lambda": b0},
        "checks": checks,
    }


# -- supporting-inequality suite ----------------------------------------------------


def _random_chamber_weights(datum, rng, count, max_draws=10000):
    """count successive uniform draws from [-2, 2]^rank that lie in the chamber.

    Returns their torus coordinates as rows, (count, rank).  Each weight has
    its own budget of max_draws candidates, counted from the previous
    acceptance.  A block of _CHAMBER_BLOCK candidates per weight still
    wanted, at most the budget left, is tested with one chamber_hits call and
    every hit is used in order; after the last weight PCG64's advance (every
    stream comes from default_rng) moves the generator back over the unused
    rows.  A uniform double takes one 64-bit output, so the weights, the final
    state and a RuntimeError on exhaustion are those of one-at-a-time tests.
    """
    rank = datum.algebra.rank
    weights, left = [], max_draws
    while True:
        m = min(_CHAMBER_BLOCK * (count - len(weights)), left)
        rows = rng.uniform(-2.0, 2.0, (m, rank))
        hits = chamber_hits(datum, rows)[: count - len(weights)]
        weights.extend(rows[hits])
        used, left = (hits[-1] + 1, max_draws) if len(hits) else (0, left)
        if len(weights) == count:
            # a Python int: advance rejects a negative np.int64
            rng.bit_generator.advance(-int((m - used) * rank))
            return np.array(weights)
        left -= m - used
        if left == 0:
            raise RuntimeError("chamber rejection sampling failed")


def _unit_fiber(dim_p, rng):
    # np.linalg.norm of a 1-D float array is sqrt(v.dot(v)); this skips its dispatch
    v = rng.standard_normal(dim_p)
    return v / math.sqrt(v.dot(v))


def _radial_fibers(dim_p, rng, n, r_max):
    """n fibers: all n radii uniform in [0.05, r_max), then all n directions."""
    r = rng.uniform(0.05, r_max, n)
    v = rng.standard_normal((n, dim_p))
    return v * (r / np.linalg.norm(v, axis=1))[:, None]


def _lemma_block(scenario, delta, segment, hermitian):
    """Values and gates of the inequality suite over scenario.lemma_samples.

    The moment identities read the run's segment and hermitian families.  Five
    streams spawned off the seed feed the chi spectrum, growth and the flat
    pairing, bracket positivity, the moment identities, and scaling
    linearity.  The sampled streams are drawn in blocks: chi and growth take
    n radii, then n directions; bracket takes 2n chamber weights (pair i is
    rows 2i and 2i + 1), then n radii, n directions and the lambda_0 fiber.
    """
    geometry = segment.geometry
    alg, datum, weight = geometry.alg, geometry.datum, geometry.weight
    tol = scenario.tolerance
    n = scenario.lemma_samples
    seeds = np.random.SeedSequence(scenario.seed).spawn(5)
    rng_chi, rng_growth, rng_bracket, rng_ident, rng_scale = map(
        np.random.default_rng, seeds
    )

    # every sample is drawn up front; the evaluation runs on _LEMMA_CHUNK rows
    chi_z = _radial_fibers(alg.dim_p, rng_chi, n, 3.0)
    grow_z = _radial_fibers(alg.dim_p, rng_growth, n, 3.0)
    pairs = _random_chamber_weights(datum, rng_bracket, 2 * n)
    h1, h2 = pairs[0::2], pairs[1::2]
    br_z = _radial_fibers(alg.dim_p, rng_bracket, n, 2.5)

    geo_flat = OrbitGeometry(alg, datum, datum.lambda0)
    eye = np.eye(alg.ambient, dtype=complex)[None]
    # per-sample values, reduced once with np.max/np.min (which keep a NaN)
    dev, peak, growth, flat, slack = np.empty((5, n))
    for start in range(0, n, _LEMMA_CHUNK):
        c = slice(start, start + _LEMMA_CHUNK)
        dev[c], peak[c] = chi_spectrum_check(alg, chi_z[c])

        zp = grow_z[c]
        zz = np.einsum("bi,bi->b", zp, zp)
        phi = moment_hermitian(geo_flat, eye, zp, 1.0)
        growth[c] = (phi - geo_flat.lam0) @ geo_flat.z0 - 0.5 * zz
        val = moment_flat(geo_flat, zp) @ geo_flat.z0
        flat[c] = np.abs(val - zz) / np.maximum(1.0, zz)

        _, _, slack[c] = bracket_positivity_slack(
            datum, ChamberWeight(h1[c]), ChamberWeight(h2[c]), br_z[c]
        )
    chi_dev, chi_eig, flat_res = float(dev.max()), float(peak.max()), float(flat.max())
    growth_slack, bracket_slack = float(growth.min()), float(slack.min())
    lhs, rhs, _ = bracket_positivity_slack(
        datum, datum.lambda0, datum.lambda0, _unit_fiber(alg.dim_p, rng_bracket)
    )
    bracket_equality = abs(lhs - rhs)

    draws = [
        (rng_ident.standard_normal(alg.dim_k), rng_ident.standard_normal(alg.dim_p))
        for _ in range(5)
    ]
    ks = alg.group_exp(np.array([x for x, _ in draws]))
    zs = np.array([z for _, z in draws])
    gens = rng_ident.standard_normal((5, alg.dim_k))
    # (stage family, its time, moment, keyword arguments) per identity; the
    # moment_* names are read at call time, so wrappers on this module see them
    cases = {
        "pullback": (segment, 1.0, moment_pullback, {}),
        "product": (hermitian, 0.0, moment_product, {}),
        "delta": (segment, 0.0, moment_delta, {"delta": delta}),
        "segment": (segment, 0.6, moment_segment, {"t": 0.4, "delta": delta}),
        "hermitian": (hermitian, 0.7, moment_hermitian, {"t": 0.7}),
    }

    def form_at(family, t):
        return lambda ks, zs: family.omega(geometry.fiber_eig(zs), geometry.kappa(ks), t)

    identity_res = {
        name: moment_identity_residual(
            geometry, form_at(family, t), partial(mom_fn, geometry, **kw),
            ks, zs, gens, eps=1e-5,
        )
        for name, (family, t, mom_fn, kw) in cases.items()
    }
    constants = measure_convention_constants(geometry, rng_ident)

    scale_res = []
    for h in [weight.coords, *_random_chamber_weights(datum, rng_scale, 3)]:
        m1, b1 = chamber_constants(ChamberWeight(h), datum)
        m2, b2 = chamber_constants(ChamberWeight(2.0 * h), datum)
        scale_res += [abs(m2 - 2.0 * m1), abs(b2 - 2.0 * b1)]
    scale_res = float(np.max(scale_res))

    checks = {
        "chi_multiset": chi_dev < tol("chi_multiset"),
        "chi_contraction": chi_eig < tol("chi_contraction"),
        "pullback_growth": growth_slack >= tol("growth_slack"),
        "flat_identity": flat_res < tol("flat_identity"),
        "bracket_positivity": bracket_slack >= tol("bracket_slack"),
        "bracket_equality_at_lambda0": bracket_equality < tol("flat_identity"),
        "moment_identities": _gate(tol("moment_identity"), *identity_res.values()),
        "convention_constants": _gate(
            tol("moment_identity"),
            abs(constants["flat_display_factor"] - 2.0),
            abs(constants["product_display_fiber_sign"] + 1.0),
        ),
        "scaling_linearity": scale_res < tol("scaling_linearity"),
    }
    return {
        "samples": n,
        "chi_multiset_deviation": chi_dev,
        "chi_spectral_radius": chi_eig,
        "pullback_growth_min_slack": growth_slack,
        "flat_identity_residual": flat_res,
        "bracket_min_slack": bracket_slack,
        "bracket_equality_residual": bracket_equality,
        "moment_identity_residuals": identity_res,
        "convention_constants": constants,
        "scaling_linearity_residual": scale_res,
        "checks": checks,
    }


def run_lemma_suite(scenario):
    """Certify the supporting facts for the scenario's algebra and weight."""
    t_start = time.perf_counter()
    geometry, margin = _build_model(scenario)
    m_lam, b_lam = chamber_constants(geometry.weight, geometry.datum)
    delta = _delta(scenario, b_lam)
    lemmas = _lemma_block(scenario, delta, segment_stage(geometry, delta),
                          hermitian_stage(geometry))
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "lemmas",
        "verdict": _verdict(lemmas["checks"]),
        "scenario": scenario.describe(),
        "constants": {
            "m_lambda": m_lam,
            "b_lambda": b_lam,
            "chamber_margin": margin,
        },
        "lemmas": lemmas,
        "stages": [],
        "timing": {"wall_clock_seconds": time.perf_counter() - t_start},
    }


# -- main certification pipeline ----------------------------------------------------


def _segment_witness(family, rng):
    """Nondegeneracy of the segment family for every t in [0, 1], at 200 points.

    The family is affine in t, omega(t) = omega_0 + t (omega_1 - omega_0), and
    det omega(t) = det omega_0 det(1 + t E) with E = omega_0^{-1} (omega_1 -
    omega_0).  So omega(t) is singular for some t in [0, 1] exactly when E has
    a real eigenvalue in (-inf, -1] (a linear pencil; Golub and Van Loan,
    Matrix Computations, 4th ed., 7.7).  One solve and one batched eigvals
    cover every t: pencil_distance is the least distance of those spectra
    from that ray.  min_margin is the least singular value at the two
    endpoints; affinity is checked once, at t = 1/2, against the chord of
    the endpoint evaluations.  The three times are one omega call.
    """
    points = 200
    geometry = family.geometry
    ks, zs = random_points(geometry, rng, points, (0.1, 1.5))
    end0, end1, mid = family.omega(
        geometry.fiber_eig(zs), geometry.kappa(ks), np.array([[0.0], [1.0], [0.5]])
    )
    margin = min(np.linalg.svd(end, compute_uv=False)[..., -1].min()
                 for end in (end0, end1))
    eigs = np.linalg.eigvals(np.linalg.solve(end0, end1 - end0))
    gap = np.hypot(np.maximum(eigs.real + 1.0, 0.0), eigs.imag)
    chord = 0.5 * end0 + 0.5 * end1
    return {
        "t_count": 3,
        "point_count": points,
        "min_margin": float(margin),
        "pencil_distance": float(np.min(gap)),
        "affinity_residual": float(np.abs(mid - chord).max()),
    }


def _witness_passes(witness, tol):
    """The segment_witness gate: endpoint margins, the pencil and affinity."""
    return (witness["min_margin"] > tol("segment_margin")
            and witness["pencil_distance"] > tol("segment_pencil")
            and witness["affinity_residual"] < tol("affinity"))


def _flow_block(values, tol, pullback_tol, expected_shift):
    """Values and checks of a stage or composite block from FlowBlock.values."""
    shift_error = float(np.abs(values.pop("moment_shift_mean") - expected_shift).max())
    checks = {
        "pullback": values["pullback_residual"] < tol(pullback_tol),
        "moment_shift": _gate(
            tol("moment_shift"), shift_error, values["moment_shift_spread"]
        ),
        "zero_section_fixed": values["zero_section_displacement"] < tol("zero_section"),
        "equivariance": values["equivariance_residual"] < tol("equivariance"),
        "group_drift": values["max_group_residual"] < tol("group_drift"),
    }
    return {**values, "moment_shift_error": shift_error, "checks": checks}


def _stage_report(stage, block, count, tol):
    """One stage's block, read off the composite flow at its first count samples."""
    return {
        "name": stage.family.name,
        "steps": stage.steps,
        "sample_count": count,
        **_flow_block(block.values(count), tol, "stage_pullback", stage.family.moment_shift),
    }


def _hypothesis_checks(hyp, tol):
    checks = {
        "closedness": hyp["closedness_rel_residual"] < tol("closedness"),
        "primitive_exactness": hyp["primitive_exactness_residual"]
        < tol("exactness"),
        "zero_section_restrictions": _gate(
            tol("zero_restriction"),
            hyp["zero_section_cross_block"],
            hyp["zero_section_dt_restriction"],
            hyp["zero_section_endpoint_restriction"],
            hyp["zero_section_primitive_sup"],
        ),
        "zero_section_moment_bounded": bool(
            np.isfinite(hyp["zero_section_moment_sup"])
        ),
        "orthogonality_nullspace": hyp["orthogonality_nullspace_residual"]
        < tol("nullspace"),
    }
    for row in hyp["properness"]:
        checks[f"properness_{row['stage']}"] = (
            tol("properness_low") < row["ratio"] < tol("properness_high")
            and abs(row["gamma_fit"] - 2.0) < tol("gamma_deviation")
        )
    return checks


def run_theorem_pipeline(scenario):
    """Certify the pullback statement end to end for one scenario.

    Raises ChamberError/DeltaError before any flow when the weight or delta
    is inadmissible; otherwise returns the full report with one verdict.
    """
    t_start = time.perf_counter()
    geometry, margin = _build_model(scenario)
    m_lam, b_lam = chamber_constants(geometry.weight, geometry.datum)
    delta = _delta(scenario, b_lam)
    if not delta > b_lam:
        raise DeltaError(
            f"delta = {delta:.6g} must exceed b_lambda = {b_lam:.6g}; the "
            "weight segment would leave the holomorphic chamber"
        )
    tol = scenario.tolerance

    # streams 2-4 drew per-stage samples and are unread; kept so the others keep their seeds
    seeds = np.random.SeedSequence((scenario.seed, 1)).spawn(7)
    rng_witness, rng_hyp, _, _, _, rng_comp, rng_pts = map(
        np.random.default_rng, seeds
    )

    # the vertical stages are mapped exactly (FormFamily.time_one): no steps
    stages = [
        MoserStage(hermitian_stage(geometry), 0),
        MoserStage(scaling_stage(geometry, delta), 0),
        MoserStage(segment_stage(geometry, delta), scenario.steps),
    ]

    constants = {
        "m_lambda": m_lam,
        "b_lambda": b_lam,
        "delta": delta,
        "chamber_margin": margin,
        "dim_k_lambda": geometry.alg.dim_k - geometry.dim_c,
        "dim_base_complement": geometry.dim_c,
        "dim_p": geometry.dim_p,
        "dim_total": geometry.dim_t,
        "z0_norm": float(np.linalg.norm(geometry.z0)),
    }

    lemmas = _lemma_block(scenario, delta, stages[2].family, stages[0].family)
    witness = _segment_witness(stages[-1].family, rng_witness)
    hypotheses = check_hypotheses(stages, rng_hyp)
    hyp_checks = _hypothesis_checks(hypotheses, tol)

    base_k, base_z = random_points(geometry, rng_pts, scenario.samples, (0.1, scenario.radius))
    comp = verify_pullback(stages, base_k, base_z, eps=scenario.eps, rng=rng_comp)
    count = min(scenario.stage_samples, scenario.samples)
    stage_reports = [_stage_report(stage, block, count, tol)
                     for stage, block in zip(stages, comp["stage_blocks"])]
    composite = {
        "steps": [stage.steps for stage in stages],
        "sample_count": scenario.samples,
        "min_image_separation": comp["min_image_separation"],
        "min_source_separation": comp["min_source_separation"],
        **_flow_block(comp["block"].values(scenario.samples), tol, "composite_pullback", 0.0),
    }
    composite_checks = composite["checks"]
    # the composite's shift gate (expected shift 0) is named moment_preserved
    composite_checks["moment_preserved"] = composite_checks.pop("moment_shift")
    composite_checks["images_separated"] = comp["min_image_separation"] > 0.0

    checks = {
        "lemmas": all(lemmas["checks"].values()),
        "segment_witness": _witness_passes(witness, tol),
        "hypotheses": all(hyp_checks.values()),
        "stages": all(all(rep["checks"].values()) for rep in stage_reports),
        "composite": all(composite_checks.values()),
    }

    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "theorem",
        "verdict": _verdict(checks),
        "scenario": scenario.describe(),
        "constants": constants,
        "lemmas": lemmas,
        "segment_witness": witness,
        "hypotheses": {**hypotheses, "checks": hyp_checks},
        "stages": stage_reports,
        "composite": composite,
        "checks": checks,
        "timing": {"wall_clock_seconds": time.perf_counter() - t_start},
    }
