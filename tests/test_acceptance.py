"""Acceptance suite: one test per certification criterion.

Each test prints a single ``criterion NN: PASS — ...`` line with the pinned
tolerance and the measured value, and fails loudly otherwise.  The heavy
three-stage su(2,1) certification runs once as a module fixture and feeds
criteria 6, 7, 9 and 10; everything else is recomputed directly against the
library so the criteria stay independent of the report plumbing.
"""

import numpy as np
import pytest

from holomoser import (
    Scenario,
    build_algebra,
    inspect_model,
    run_theorem_pipeline,
)
from holomoser.forms import OrbitGeometry
from holomoser.moser import MoserStage, hermitian_stage, integrate_flow, verify_pullback
from holomoser.operators import chi_spectrum_check
from holomoser.report import render_report, strip_timing
from holomoser.roots import compute_root_datum
from holomoser.pipeline import DeltaError

from oracles import closure_residual, jacobi_residual

ALGEBRAS = {
    "su(1,1)": ("su", dict(p=1, q=1)),
    "su(2,1)": ("su", dict(p=2, q=1)),
    "sp(2,R)": ("sp", dict(n=1)),
    "sp(4,R)": ("sp", dict(n=2)),
}

# torus coordinates of the weight dual to i*diag(0.6, 0.1, -0.7): a generic
# chamber point of su(2,1) whose stabilizer is exactly the maximal torus
GENERIC_SU21 = (0.8660254037844386, 2.0999999999999996)


def _line(num, detail):
    print(f"criterion {num:02d}: PASS — {detail}")


@pytest.fixture(scope="module")
def su21_report():
    scenario = Scenario(
        family="su",
        p=2,
        q=1,
        lam=GENERIC_SU21,
        delta_mult=1.5,
        steps=60,
        samples=50,
        stage_samples=10,
        lemma_samples=1000,
        eps=1e-4,
        seed=0,
    )
    return run_theorem_pipeline(scenario)


def test_criterion_01_structure_residuals():
    worst = 0.0
    for family, params in ALGEBRAS.values():
        alg = build_algebra(family, **params)
        c = alg.structure
        k, p = np.arange(alg.dim_k), np.arange(alg.dim_k, alg.dim)
        cartan = max(
            np.abs(c[np.ix_(k, k, p)]).max(),
            np.abs(c[np.ix_(k, p, k)]).max(),
            np.abs(c[np.ix_(p, p, p)]).max(),
        )
        gram = -alg.killing * alg.theta_signs[None, :]
        worst = max(
            worst,
            closure_residual(alg),
            jacobi_residual(alg),
            cartan,
            float(np.abs(gram - np.eye(alg.dim)).max()),
        )
        assert np.linalg.eigvalsh(gram).min() > 0.5
    assert worst < 1e-10
    _line(1, f"structure residuals max {worst:.2e} < 1e-10 over {len(ALGEBRAS)} algebras")


def test_criterion_02_z0_certificates():
    worst_cert = 0.0
    worst_root = 0.0
    for name, (family, params) in ALGEBRAS.items():
        report = inspect_model(family, **params)
        assert all(report["checks"].values()), (name, report["checks"])
        worst_cert = max(worst_cert, report["z0_certificate_residual"])
        for root in report["roots"]:
            target = 0.0 if root["compact"] else (1.0 if root["positive"] else -1.0)
            worst_root = max(worst_root, abs(root["value_on_z0"] - target))
    assert worst_cert < 1e-10
    assert worst_root < 1e-10
    _line(
        2,
        f"ad(z0)^2|_p = -id to {worst_cert:.2e}; root values on z0 within "
        f"{worst_root:.2e} of (0 compact / +-1 noncompact)",
    )


def test_criterion_03_chi_spectrum_1000_samples_per_algebra():
    worst_dev = 0.0
    worst_radius = 0.0
    for name, (family, params) in ALGEBRAS.items():
        alg = build_algebra(family, **params)
        rng = np.random.default_rng(42)
        for _ in range(1000):
            z = rng.standard_normal(alg.dim_p)
            z *= rng.uniform(0.05, 3.0) / np.linalg.norm(z)
            dev, radius = chi_spectrum_check(alg, z)
            worst_dev = max(worst_dev, dev)
            worst_radius = max(worst_radius, radius)
    assert worst_dev < 1e-8
    assert worst_radius < 1.0
    _line(
        3,
        f"chi multiset deviation {worst_dev:.2e} < 1e-8 and spectral radius "
        f"{worst_radius:.4f} < 1 over 1000 Z x {len(ALGEBRAS)} algebras",
    )


def test_criterion_04_moment_growth_and_flat_pairing(su21_report):
    lem = su21_report["lemmas"]
    assert lem["samples"] == 1000
    assert lem["pullback_growth_min_slack"] >= -1e-10
    assert lem["flat_identity_residual"] < 1e-10
    assert lem["checks"]["pullback_growth"]
    assert lem["checks"]["flat_identity"]
    _line(
        4,
        f"growth slack {lem['pullback_growth_min_slack']:.2e} >= -1e-10 and "
        f"flat pairing residual {lem['flat_identity_residual']:.2e} < 1e-10 "
        f"(factor {lem['convention_constants']['flat_display_factor']:.1f} "
        "recorded) over 1000 Z",
    )


def test_criterion_05_bracket_positivity_1000_chamber_triples(su21_report):
    lem = su21_report["lemmas"]
    assert lem["samples"] == 1000
    assert lem["bracket_min_slack"] >= -1e-10
    assert lem["checks"]["bracket_positivity"]
    _line(
        5,
        f"bracket-pairing slack {lem['bracket_min_slack']:.2e} >= -1e-10 over "
        "1000 random chamber (lambda, lambda', Z) triples in su(2,1)",
    )


def test_criterion_06_segment_nondegeneracy_witness(su21_report):
    witness = su21_report["segment_witness"]
    delta = su21_report["constants"]["delta"]
    b_lam = su21_report["constants"]["b_lambda"]
    assert delta == pytest.approx(1.5 * b_lam)
    assert witness["t_count"] == 3
    assert witness["point_count"] == 200
    assert witness["min_margin"] > 0.0
    assert witness["pencil_distance"] > 1e-6
    assert witness["affinity_residual"] == 0.0
    assert su21_report["checks"]["segment_witness"]
    _line(
        6,
        f"delta = 1.5 b_lambda = {delta:.4f}: pencil spectra "
        f"{witness['pencil_distance']:.4f} > 1e-6 from (-inf, -1] at 200 points "
        f"(every t in [0, 1]); endpoint margin {witness['min_margin']:.4f} > 0; "
        "affinity exact at t = 1/2",
    )


def test_criterion_07_moment_identities_all_five_pairs(su21_report):
    residuals = su21_report["lemmas"]["moment_identity_residuals"]
    constants = su21_report["lemmas"]["convention_constants"]
    assert set(residuals) == {"pullback", "product", "delta", "segment", "hermitian"}
    worst = max(residuals.values())
    assert worst < 1e-6
    assert abs(constants["flat_display_factor"] - 2.0) < 1e-6
    assert abs(constants["product_display_fiber_sign"] + 1.0) < 1e-6
    _line(
        7,
        f"d<Phi,X> vs iota(X)Omega residual {worst:.2e} < 1e-6 at eps=1e-5 for "
        "all five pairs; convention constants (2.0, -1.0) recorded",
    )


def test_criterion_08_hermitian_certification_su11():
    alg = build_algebra("su", p=1, q=1)
    datum = compute_root_datum(alg)
    geo = OrbitGeometry(alg, datum, datum.lambda0)
    rng = np.random.default_rng(0)
    pts = []
    for _ in range(5):
        k = alg.group_exp(rng.standard_normal(alg.dim_k))
        z = rng.standard_normal(geo.dim_p)
        pts.append((k, z / np.linalg.norm(z) * rng.uniform(0.3, 1.0)))
    ks = np.array([k for k, _ in pts])
    zs = np.array([z for _, z in pts])

    fam = hermitian_stage(geo)
    out = verify_pullback(
        [MoserStage(fam, 0)], ks, zs, eps=1e-4, rng=np.random.default_rng(1),
    )
    assert out["pullback_residual"] < 1e-4
    assert out["zero_section_displacement"] < 1e-8

    # The stage applies its exact time-one map, so the integrator's order is
    # measured as the true error of integrate_flow against that map.
    exact = fam.time_one(zs)
    error = {steps: np.abs(integrate_flow(fam, ks, zs, steps).z - exact).max()
             for steps in (10, 20)}
    ratio = error[10] / error[20]
    assert ratio >= 8.0
    _line(
        8,
        f"su(1,1) stage-1 residual {out['pullback_residual']:.2e} < 1e-4 with "
        f"the exact map (eps=1e-4), zero section fixed to "
        f"{out['zero_section_displacement']:.1e}; the RK4 flow's error against "
        f"the map drops {ratio:.1f}x >= 8x from 10 to 20 steps",
    )


def test_criterion_09_composite_certification_su21(su21_report):
    comp = su21_report["composite"]
    assert su21_report["verdict"] == "pass"
    assert comp["sample_count"] == 50
    assert comp["pullback_residual"] < 1e-3
    assert comp["zero_section_displacement"] < 1e-6
    assert comp["equivariance_residual"] < 1e-6
    assert comp["moment_shift_spread"] < 1e-5
    _line(
        9,
        f"su(2,1) generic-weight composite: pullback residual "
        f"{comp['pullback_residual']:.2e} < 1e-3 at 50 samples; zero section "
        f"{comp['zero_section_displacement']:.1e} < 1e-6; equivariance "
        f"{comp['equivariance_residual']:.1e} < 1e-6; moment spread "
        f"{comp['moment_shift_spread']:.1e} < 1e-5",
    )


def test_criterion_10_properness_fits_within_five_percent(su21_report):
    rows = su21_report["hypotheses"]["properness"]
    assert {row["stage"] for row in rows} == {"hermitian", "scaling", "segment"}
    worst = 0.0
    for row in rows:
        assert abs(row["ratio"] - 1.0) <= 0.05, row
        worst = max(worst, abs(row["ratio"] - 1.0))
    _line(
        10,
        f"fitted properness constants within {100 * worst:.2f}% <= 5% of the "
        "analytic bounds (1/(2||z0||) product side; inf_t m^2/(2||H||) segment)",
    )


def test_criterion_11_reports_are_byte_deterministic():
    scenario = Scenario(
        family="su", p=1, q=1, steps=16, samples=4, stage_samples=3,
        lemma_samples=40, seed=7,
    )
    text_a = render_report(run_theorem_pipeline(scenario))
    text_b = render_report(run_theorem_pipeline(scenario))
    assert strip_timing(text_a) == strip_timing(text_b)
    with pytest.raises(DeltaError):
        run_theorem_pipeline(
            Scenario(family="su", p=1, q=1, delta_abs=0.5, steps=16)
        )
    _line(
        11,
        "same-seed reruns byte-identical outside the timing block; "
        "inadmissible delta refused before flowing",
    )
