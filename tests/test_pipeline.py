import copy
import dataclasses
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from holomoser import (
    ChamberError,
    DeltaError,
    Scenario,
    inspect_model,
    run_lemma_suite,
    run_theorem_pipeline,
    scenario_from_config,
)
from holomoser import build_algebra, cli, moser, pipeline
from holomoser.forms import OrbitGeometry
from holomoser.moser import hermitian_stage, segment_stage
from holomoser.pipeline import (
    _CHAMBER_BLOCK,
    _hypothesis_checks,
    _lemma_block,
    _radial_fibers,
    _random_chamber_weights,
    _segment_witness,
    _unit_fiber,
    _witness_passes,
)
from holomoser.roots import ChamberWeight, chamber_constants, compute_root_datum
from holomoser.report import (
    DEFAULT_TOLERANCES,
    load_scenario,
    parse_config,
    render_report,
    strip_timing,
)

import oracles

SMALL = dict(steps=20, samples=4, stage_samples=3, lemma_samples=40)


def small_su11(seed=3, **extra):
    return Scenario(family="su", p=1, q=1, seed=seed, **{**SMALL, **extra})


def test_scenario_validation():
    with pytest.raises(ValueError, match="delta_mult"):
        Scenario(family="su", p=1, q=1, delta_mult=1.0)
    with pytest.raises(ValueError, match="steps"):
        Scenario(family="su", p=1, q=1, steps=5)
    with pytest.raises(ValueError, match="family"):
        Scenario(family="so")
    with pytest.raises(ValueError, match="tolerance"):
        Scenario(family="su", p=1, q=1, tolerances={"bogus": 1.0})
    with pytest.raises(ValueError, match="eps"):
        Scenario(family="su", p=1, q=1, eps=0.0)
    with pytest.raises(ValueError, match="sample"):
        Scenario(family="su", p=1, q=1, samples=0)
    with pytest.raises(ValueError, match="radius"):
        Scenario(family="su", p=1, q=1, radius=0.1)
    for name in ("eps", "radius", "delta_mult", "delta_abs"):
        for bad in (np.inf, -np.inf, np.nan):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                Scenario(family="su", p=1, q=1, **{name: bad})
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="lam must be finite"):
            Scenario(family="su", p=2, q=1, lam=(0.5, bad))


def test_non_finite_tolerance_rejected(tmp_path, capsys):
    text = "family = su\np = 1\nq = 1\ntolerances.moment_identity = nan\n"
    with pytest.raises(ValueError, match="tolerances.moment_identity must be finite"):
        scenario_from_config(text)
    with pytest.raises(ValueError, match="tolerances.closedness must be finite"):
        Scenario(family="su", p=1, q=1, tolerances={"closedness": np.inf})
    path = tmp_path / "nan_tol.cfg"
    path.write_text(text, encoding="utf-8")
    rc = cli.main(["lemmas", "--config", str(path)])
    assert rc == 2
    assert "tolerances.moment_identity must be finite" in capsys.readouterr().err
    rc = cli.main(["theorem", "--config", _write_config(tmp_path), "--eps", "inf"])
    assert rc == 2
    assert "eps must be finite" in capsys.readouterr().err
    # an infinite weight would pass the chamber test (its margin is inf)
    rc = cli.main(["theorem", "--config", _write_config(tmp_path, **{"lambda": "inf"})])
    assert rc == 2
    assert "lam must be finite" in capsys.readouterr().err


def test_config_parsing_and_defaults():
    text = """
    # scenario for the rank-two example
    family = su
    p = 2
    q = 1
    lambda = 0.8, 2.0  # torus coordinates
    delta_mult = 1.7
    steps = 40
    tolerances.composite_pullback = 5e-4
    """
    sc = scenario_from_config(text)
    assert (sc.family, sc.p, sc.q) == ("su", 2, 1)
    assert sc.lam == (0.8, 2.0)
    assert sc.delta_mult == 1.7
    assert sc.steps == 40
    assert sc.tolerance("composite_pullback") == 5e-4
    assert sc.tolerance("zero_section") == DEFAULT_TOLERANCES["zero_section"]
    assert sc.samples == 50  # untouched default


def test_config_rejects_malformed_input():
    with pytest.raises(ValueError, match="duplicate"):
        parse_config("family = su\nfamily = sp")
    with pytest.raises(ValueError, match="key = value"):
        parse_config("family su")
    with pytest.raises(ValueError, match="unknown config key"):
        scenario_from_config("family = su\np = 1\nq = 1\nbogus = 3")
    with pytest.raises(ValueError, match="tolerance"):
        scenario_from_config("family = su\np = 1\nq = 1\ntolerances.nope = 1")


def test_config_overrides_win():
    sc = scenario_from_config(
        "family = su\np = 1\nq = 1\nsteps = 50\nseed = 1", steps=60, seed=9
    )
    assert sc.steps == 60
    assert sc.seed == 9


def test_shipped_configs_parse():
    for name in ("configs/su21_generic.cfg", "configs/su11_weight_basepoint.cfg"):
        sc = load_scenario(name)
        assert sc.steps == 200
        assert sc.samples == 50
        assert sc.delta_mult == 1.5


def test_inspect_su21_root_table():
    report = inspect_model("su", p=2, q=1)
    assert report["verdict"] == "pass"
    assert report["root_counts"] == {
        "total": 6,
        "compact": 2,
        "noncompact": 4,
        "positive_noncompact": 2,
    }
    assert all(report["checks"].values())
    assert report["z0_certificate_residual"] < 1e-10
    assert abs(report["lambda0_z0_pairing"] - report["z0_norm_squared"]) < 1e-12
    for root in report["roots"]:
        assert len(root["coords"]) == report["algebra"]["rank"]
        if root["compact"]:
            assert abs(root["value_on_z0"]) < 1e-10
        elif root["positive"]:
            assert abs(root["value_on_z0"] - 1.0) < 1e-10


def test_inspect_rank_one_models_agree():
    sp2 = inspect_model("sp", n=1)
    su11 = inspect_model("su", p=1, q=1)
    keys = ("ambient", "dim", "dim_k", "dim_p", "rank")
    assert {k: sp2["algebra"][k] for k in keys} == {
        k: su11["algebra"][k] for k in keys
    }
    assert sp2["root_counts"] == su11["root_counts"]
    assert sp2["verdict"] == su11["verdict"] == "pass"


def test_chamber_refusal_with_margin_diagnostic():
    sc = Scenario(family="su", p=2, q=1, lam=(-0.5, 0.1), **SMALL)
    with pytest.raises(ChamberError, match="margin"):
        run_theorem_pipeline(sc)
    with pytest.raises(ChamberError, match="chamber"):
        run_lemma_suite(sc)


def test_delta_refusal_before_flowing():
    # b_lambda = 1 at lambda_0 for su(1,1); an absolute delta at half of it
    # must be rejected up front
    sc = small_su11(delta_abs=0.5)
    with pytest.raises(DeltaError, match="b_lambda"):
        run_theorem_pipeline(sc)


def test_su11_pipeline_passes(su11_report):
    rep = su11_report
    assert rep["kind"] == "theorem"
    assert rep["schema_version"] == 1
    assert rep["verdict"] == "pass"
    assert rep["composite"]["pullback_residual"] < 1e-4
    assert [st["name"] for st in rep["stages"]] == [
        "hermitian",
        "scaling",
        "segment",
    ]
    # the vertical stages are mapped exactly: no steps
    assert [st["steps"] for st in rep["stages"]] == [0, 0, 20]
    for st in rep["stages"]:
        assert st["moment_shift_error"] < 1e-6, st["name"]
        assert all(st["checks"].values()), st["name"]
    assert rep["segment_witness"]["min_margin"] > 0.0
    assert rep["segment_witness"]["affinity_residual"] == 0.0
    assert rep["constants"]["b_lambda"] == pytest.approx(1.0)
    assert rep["constants"]["delta"] == pytest.approx(1.5)


# the first _random_chamber_weights draw on su(2,2) at default_rng(0):
# dim_c = 4, dim_t = 12
SU22_GENERIC = (0.42654310306871945, 0.9179862439359936, 0.17449996586169148)
# the same draw on su(3,1): dim_c = 6
SU31_GENERIC = (1.0318040094257124, 0.05103489304831221, 1.7164168831880247)
# on the su(2,2) compact wall (one compact root vanishes on it): dim_c = 2
SU22_WALL = (0.0, 2.6, 1.4)


@pytest.fixture(scope="module")
def su11_report():
    return run_theorem_pipeline(small_su11())


@pytest.mark.parametrize(
    "family,params",
    [("sp", {"n": 1}), ("sp", {"n": 2}), ("sp", {"n": 2, "lam": (2.0, 1.0)}),
     ("su", {"p": 3, "q": 1}), ("su", {"p": 3, "q": 1, "lam": SU31_GENERIC}),
     ("su", {"p": 2, "q": 2}), ("su", {"p": 2, "q": 2, "lam": SU22_GENERIC}),
     ("su", {"p": 2, "q": 2, "lam": SU22_WALL}),
     ("su", {"p": 2, "q": 2, "lam": SU22_WALL, "delta_mult": 1.01})],
    ids=["sp2", "sp4", "sp4-generic", "su31", "su31-generic", "su22", "su22-generic",
         "su22-wall", "su22-wall-delta1.01"],
)
def test_theorem_pipeline_certifies_across_family(family, params):
    sc = Scenario(family=family, **params, steps=20, samples=3, stage_samples=2,
                  lemma_samples=100, seed=0)
    rep = run_theorem_pipeline(sc)
    # a generic chamber weight has base directions off the stabilizer
    assert (rep["constants"]["dim_base_complement"] > 0) == ("lam" in params)
    assert rep["verdict"] == "pass"


WITNESS_MODELS = [
    ("su", dict(p=1, q=1)), ("su", dict(p=2, q=1)), ("sp", dict(n=1)),
    ("sp", dict(n=2)), ("su", dict(p=2, q=2)), ("su", dict(p=3, q=1)),
]


def _witness_geometry(family, params, generic):
    alg = build_algebra(family, **params)
    datum = compute_root_datum(alg)
    weight = datum.lambda0
    if generic:
        (row,) = _random_chamber_weights(datum, np.random.default_rng(0), count=1)
        weight = ChamberWeight(row)
    return OrbitGeometry(alg, datum, weight)


@pytest.mark.parametrize("generic", [False, True], ids=["lambda0", "generic"])
@pytest.mark.parametrize("family, params", WITNESS_MODELS,
                         ids=["su11", "su21", "sp2", "sp4", "su22", "su31"])
def test_pencil_witness_agrees_with_the_sampled_sweep(family, params, generic):
    # the same generator state gives the pencil and the 21-time sweep the
    # same 200 points; the endpoint margins are the sweep's first and last
    geo = _witness_geometry(family, params, generic)
    delta = 1.5 * chamber_constants(geo.weight, geo.datum)[1]
    fam = segment_stage(geo, delta)
    witness = _segment_witness(fam, np.random.default_rng(7))
    margins, affinity = oracles.segment_witness_sweep(fam, np.random.default_rng(7))
    assert witness["t_count"] == 3 and witness["point_count"] == 200
    assert witness["min_margin"] == min(margins[0], margins[-1])
    assert witness["affinity_residual"] == affinity == 0.0
    tol = small_su11().tolerance
    assert (witness["pencil_distance"] > tol("segment_pencil")) == (margins.min() > 0.0)
    assert _witness_passes(witness, tol)


@pytest.mark.parametrize("generic", [False, True], ids=["lambda0", "generic"])
@pytest.mark.parametrize("family, params", WITNESS_MODELS,
                         ids=["su11", "su21", "sp2", "sp4", "su22", "su31"])
def test_stage_families_give_the_point_forms_of_the_moment_identities(
    family, params, generic
):
    # the lemma suite's identity forms are the stage families at these times
    geo = _witness_geometry(family, params, generic)
    delta = 1.5 * chamber_constants(geo.weight, geo.datum)[1]
    rng = np.random.default_rng(5)
    ks = geo.alg.group_exp(rng.standard_normal((5, geo.alg.dim_k)))
    zs = rng.standard_normal((5, geo.dim_p))
    spec, kap = geo.fiber_eig(zs), geo.kappa(ks)
    seg, her = segment_stage(geo, delta), hermitian_stage(geo)
    exact = [
        (seg, 1.0, oracles.form_pullback(geo, ks, zs)),
        (seg, 0.0, oracles.form_delta(geo, ks, zs, delta)),
        (seg, 0.6, oracles.form_segment(geo, ks, zs, 0.4, delta)),
        (her, 0.7, oracles.form_hermitian(geo, ks, zs, 0.7)),
    ]
    for fam, t, form in exact:
        assert np.array_equal(fam.omega(spec, kap, t), form), (fam.name, t)
    product = oracles.form_product(geo, ks, zs)
    assert np.abs(her.omega(spec, kap, 0.0) - product).max() <= 1e-14


def test_segment_witness_reads_its_three_times_in_one_call():
    geo = _witness_geometry("su", dict(p=2, q=1), generic=True)
    fam = segment_stage(geo, 1.5 * chamber_constants(geo.weight, geo.datum)[1])
    times = []

    def omega(spec, kap, t):
        times.append(np.asarray(t).tolist())
        return fam.omega(spec, kap, t)

    witness = _segment_witness(dataclasses.replace(fam, omega=omega), np.random.default_rng(7))
    assert times == [[[0.0], [1.0], [0.5]]]
    assert witness == _segment_witness(fam, np.random.default_rng(7))


class AffineForms:
    """A family given by its endpoint forms (B, T, T), read at every point."""

    def __init__(self, geometry, w0, w1):
        self.geometry, self.w0, self.w1 = geometry, w0, w1

    def omega(self, spec, kap, t):
        t = np.expand_dims(t, (-2, -1))
        return (1 - t) * self.w0 + t * self.w1


def _antisymmetric(rng, n):
    x = rng.standard_normal((n, n))
    return x - x.T


def test_pencil_witness_fails_a_family_singular_inside_the_segment():
    # omega(1/2) = X J X^T has rank 4 of 6: its Pfaffian, a cubic in t, has a
    # simple root at t = 1/2, which perturbations of the endpoints move but
    # do not remove.  A sweep of 2,001 times misses the perturbed roots.
    tol = small_su11().tolerance
    assert tol("segment_pencil") == 1e-6
    geo = _witness_geometry("su", dict(p=1, q=1), generic=False)
    j4 = np.kron(np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    for seed in range(5):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((6, 4))
        mid = x @ j4 @ x.T
        step = _antisymmetric(rng, 6)
        w0, w1 = mid - 0.5 * step, mid + 0.5 * step
        for size in (0.0, 1e-3, 1e-6):
            forms = AffineForms(
                geo, (w0 + size * _antisymmetric(rng, 6))[None],
                (w1 + size * _antisymmetric(rng, 6))[None],
            )
            witness = _segment_witness(forms, np.random.default_rng(0))
            assert witness["min_margin"] > 1e-3, (seed, size)
            assert witness["pencil_distance"] < 1e-6, (seed, size)
            assert not _witness_passes(witness, tol), (seed, size)
            if size > 0.0:
                margins, _ = oracles.segment_witness_sweep(
                    forms, np.random.default_rng(0), t_count=2001
                )
                assert margins.min() > 0.0, (seed, size)


def test_report_is_deterministic_modulo_timing(su11_report):
    text_a = render_report(su11_report)
    text_b = render_report(run_theorem_pipeline(small_su11()))
    assert strip_timing(text_a) == strip_timing(text_b)
    lem_a = render_report(run_lemma_suite(small_su11(seed=8)))
    lem_b = render_report(run_lemma_suite(small_su11(seed=8)))
    assert strip_timing(lem_a) == strip_timing(lem_b)


def _refuse_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def test_report_renders_non_finite_values_as_strings():
    text = render_report({
        "numpy_inf": np.float64("inf"),
        "numpy_nan": np.float32("nan"),
        "python_inf": float("-inf"),
        "array": np.array([1.5, np.inf, -np.inf, np.nan]),
        "zero_dim": np.array(np.inf),
    })
    data = json.loads(text, parse_constant=_refuse_constant)
    assert data == {
        "numpy_inf": "inf",
        "numpy_nan": "nan",
        "python_inf": "-inf",
        "array": [1.5, "inf", "-inf", "nan"],
        "zero_dim": "inf",
    }


SAMPLER_MODELS = [
    ("su", dict(p=1, q=1)),
    ("su", dict(p=2, q=1)),
    ("sp", dict(n=1)),
    ("sp", dict(n=2)),
    ("su", dict(p=2, q=2)),
    ("su", dict(p=3, q=1)),
]


@pytest.fixture(scope="module")
def sampler_data():
    return [compute_root_datum(build_algebra(f, **kw)) for f, kw in SAMPLER_MODELS]


def test_block_chamber_sampler_matches_one_at_a_time_loop(sampler_data):
    for datum in sampler_data:
        for seed in (0, 1, 5, 11):
            loop_rng = np.random.default_rng(seed)
            block_rng = np.random.default_rng(seed)
            for _ in range(50):
                want = oracles.random_chamber_weight_loop(datum, loop_rng)
                (got,) = _random_chamber_weights(datum, block_rng, count=1)
                assert np.array_equal(got, want.coords)
            assert block_rng.random() == loop_rng.random()


def _one_chamber_weight(datum, rng, max_draws):
    (row,) = _random_chamber_weights(datum, rng, count=1, max_draws=max_draws)
    return ChamberWeight(row)


def _draw_or_raise(sampler, datum, rng, max_draws):
    try:
        return sampler(datum, rng, max_draws=max_draws).coords
    except RuntimeError:
        return None


@pytest.mark.parametrize(
    "max_draws", [1, _CHAMBER_BLOCK - 1, _CHAMBER_BLOCK, _CHAMBER_BLOCK + 1]
)
def test_block_chamber_sampler_exhaustion_matches_loop(sampler_data, max_draws):
    raised = returned = 0
    for datum in sampler_data:
        for seed in (0, 1, 5):
            loop_rng = np.random.default_rng(seed)
            block_rng = np.random.default_rng(seed)
            for _ in range(12):
                want = _draw_or_raise(
                    oracles.random_chamber_weight_loop, datum, loop_rng, max_draws
                )
                got = _draw_or_raise(
                    _one_chamber_weight, datum, block_rng, max_draws
                )
                assert (got is None) == (want is None)
                if want is None:
                    raised += 1
                else:
                    returned += 1
                    assert np.array_equal(got, want)
                assert block_rng.bit_generator.state == loop_rng.bit_generator.state
    assert raised and returned


def _assert_chamber_weights_match_loop(datum, seed, count, max_draws):
    loop_rng = np.random.default_rng(seed)
    block_rng = np.random.default_rng(seed)
    try:
        want = [
            oracles.random_chamber_weight_loop(datum, loop_rng, max_draws=max_draws)
            for _ in range(count)
        ]
    except RuntimeError:
        with pytest.raises(RuntimeError):
            _random_chamber_weights(datum, block_rng, count, max_draws)
    else:
        got = _random_chamber_weights(datum, block_rng, count, max_draws)
        assert got.shape == (count, datum.algebra.rank)
        assert np.array_equal(got, [w.coords for w in want])
    assert block_rng.bit_generator.state == loop_rng.bit_generator.state


@settings(derandomize=True, deadline=None, database=None)
@given(
    model=st.integers(0, len(SAMPLER_MODELS) - 1),
    seed=st.integers(0, 2**32 - 1),
    count=st.one_of(st.integers(1, 5), st.sampled_from([64, 65, 400])),
    max_draws=st.sampled_from(
        [1, 7, _CHAMBER_BLOCK - 1, _CHAMBER_BLOCK, _CHAMBER_BLOCK + 1, 200, 10000]
    ),
)
def test_chamber_weights_match_loop_draws(sampler_data, model, seed, count, max_draws):
    _assert_chamber_weights_match_loop(sampler_data[model], seed, count, max_draws)


@pytest.mark.parametrize(
    "max_draws",
    [1, _CHAMBER_BLOCK - 1, _CHAMBER_BLOCK, _CHAMBER_BLOCK + 1, 200, 10000],
)
@pytest.mark.parametrize("count", [_CHAMBER_BLOCK, _CHAMBER_BLOCK + 1, 400])
def test_chamber_weight_blocks_match_loop_where_the_budget_binds(
    sampler_data, count, max_draws
):
    # a block holds _CHAMBER_BLOCK rows per weight still wanted, so at these
    # counts every block is cut to the budget left
    for datum in sampler_data:
        for seed in (0, 5):
            _assert_chamber_weights_match_loop(datum, seed, count, max_draws)


def test_chamber_weights_match_loop_at_4000_su22_weights(sampler_data):
    # the bracket draw of a 2,000-sample su(2,2) lemma suite
    datum = sampler_data[SAMPLER_MODELS.index(("su", dict(p=2, q=2)))]
    _assert_chamber_weights_match_loop(datum, 2000, 4000, 10000)


@settings(derandomize=True, deadline=None, database=None, max_examples=10)
@given(
    model=st.integers(0, len(SAMPLER_MODELS) - 1),
    seed=st.integers(0, 2**32 - 1),
    r_max=st.sampled_from([2.5, 3.0]),
)
def test_radial_fibers_match_row_oracle(sampler_data, model, seed, r_max):
    # 1,000 rows per example; the batched row norms may round apart from the
    # one-row norms, so values agree to 1e-15 relative and the draws exactly
    dim_p = sampler_data[model].algebra.dim_p
    rng = np.random.default_rng(seed)
    ref = np.random.default_rng(seed)
    got = _radial_fibers(dim_p, rng, 1000, r_max)
    want = oracles.radial_fiber_rows(dim_p, ref, 1000, r_max)
    assert got.shape == want.shape == (1000, dim_p)
    assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))
    assert rng.bit_generator.state == ref.bit_generator.state


def test_unit_fiber_matches_linalg_norm(sampler_data):
    for dim_p in sorted({datum.algebra.dim_p for datum in sampler_data}):
        rng = np.random.default_rng(dim_p)
        ref = np.random.default_rng(dim_p)
        for _ in range(1000):
            v = ref.standard_normal(dim_p)
            assert np.array_equal(_unit_fiber(dim_p, rng), v / np.linalg.norm(v))


def lemma_block_at_lambda0(sc, alg, datum, delta):
    geo = OrbitGeometry(alg, datum, datum.lambda0)
    return _lemma_block(sc, delta, segment_stage(geo, delta), hermitian_stage(geo))


def _counting(monkeypatch, name):
    calls = []
    real = getattr(pipeline, name)

    def counted(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(pipeline, name, counted)
    return calls


def _su22_lemma_block():
    sc = Scenario(family="su", p=2, q=2, lemma_samples=300, seed=4)
    alg = build_algebra("su", p=2, q=2)
    datum = compute_root_datum(alg)
    delta = 1.5 * chamber_constants(datum.lambda0, datum)[1]
    return lemma_block_at_lambda0(sc, alg, datum, delta)


def test_lemma_block_chamber_test_count(monkeypatch):
    # the 600 bracket weights fill two blocks of at most 10,000 candidates
    # and the 3 scaling weights one of 192
    calls = _counting(monkeypatch, "chamber_hits")
    _su22_lemma_block()
    assert len(calls) <= 3


def test_lemma_block_draws_without_a_per_sample_loop(monkeypatch):
    # one chamber draw for the bracket weights and one for scaling, and one
    # unit fiber (the equality check at lambda_0), whatever the sample count
    weight_calls = _counting(monkeypatch, "_random_chamber_weights")
    fiber_calls = _counting(monkeypatch, "_unit_fiber")
    _su22_lemma_block()
    assert len(weight_calls) == 2
    assert len(fiber_calls) == 1


def test_lemma_block_chi_check_takes_one_svd_per_chunk(monkeypatch):
    # the chi check reads its spectrum off one svd with vectors of the k-p
    # blocks of ad(Z) and certifies it with one values-only svd of the k-p
    # blocks of chi per 256-row chunk; the suite makes no eigvalsh or eigh of
    # an N x N matrix
    alg = build_algebra("su", p=2, q=2)
    datum = compute_root_datum(alg)
    shapes = {"svd": (alg.dim_k, alg.dim_p), "eigvalsh": (alg.dim,) * 2,
              "eigh": (alg.dim,) * 2}
    calls = []
    for name, shape in shapes.items():
        real = getattr(np.linalg, name)

        def counted(a, *args, _name=name, _shape=shape, _real=real, **kwargs):
            if np.shape(a)[-2:] == _shape:
                values_only = kwargs.get("compute_uv", True) is False
                calls.append(_name + (" values" if values_only else ""))
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    sc = Scenario(family="su", p=2, q=2, lemma_samples=2000, seed=4)
    delta = 1.5 * chamber_constants(datum.lambda0, datum)[1]
    lemma_block_at_lambda0(sc, alg, datum, delta)
    assert calls == ["svd", "svd values"] * 8


@pytest.mark.parametrize(
    "family, params", [("su", dict(p=2, q=1)), ("su", dict(p=2, q=2))]
)
def test_chunked_lemma_values_match_point_loops(family, params):
    sc = Scenario(family=family, lemma_samples=300, seed=4, **params)
    alg = build_algebra(family, **params)
    datum = compute_root_datum(alg)
    delta = 1.5 * chamber_constants(datum.lambda0, datum)[1]
    block = lemma_block_at_lambda0(sc, alg, datum, delta)
    want = oracles.lemma_point_loops(sc, alg, datum)
    for key, value in want.items():
        assert abs(block[key] - value) <= 1e-14, key


def test_report_json_shape(su11_report):
    text = render_report(su11_report)
    data = json.loads(text)
    for key in (
        "schema_version",
        "kind",
        "verdict",
        "scenario",
        "constants",
        "lemmas",
        "hypotheses",
        "segment_witness",
        "stages",
        "composite",
        "checks",
        "timing",
    ):
        assert key in data, key
    assert data["verdict"] in ("pass", "fail")
    assert isinstance(data["timing"]["wall_clock_seconds"], float)
    assert isinstance(data["stages"], list) and len(data["stages"]) == 3


# the values and gate names of every report block, pinned
FLOW_VALUES = {
    "pullback_residual", "moment_shift_error", "moment_shift_spread",
    "zero_section_displacement", "equivariance_residual", "min_form_margin",
    "max_group_residual", "reprojections", "field_evaluations", "field_lanes",
    "fiber_sup", "sample_count", "steps", "checks",
}
FLOW_GATES = {"pullback", "zero_section_fixed", "equivariance", "group_drift"}


def test_report_blocks_keep_their_keys_and_gate_names(su11_report):
    for rep in su11_report["stages"]:
        assert set(rep) == FLOW_VALUES | {"name"}, rep["name"]
        assert set(rep["checks"]) == FLOW_GATES | {"moment_shift"}, rep["name"]
    comp = su11_report["composite"]
    assert set(comp) == FLOW_VALUES | {
        "min_image_separation", "min_source_separation"
    }
    assert set(comp["checks"]) == FLOW_GATES | {
        "moment_preserved", "images_separated"
    }
    hyp = su11_report["hypotheses"]
    assert set(hyp) == {
        "closedness_rel_residual", "primitive_exactness_residual",
        "zero_section_cross_block", "zero_section_dt_restriction",
        "zero_section_endpoint_restriction", "zero_section_primitive_sup",
        "zero_section_moment_sup", "orthogonality_nullspace_residual",
        "properness", "checks",
    }
    assert set(hyp["checks"]) == {
        "closedness", "primitive_exactness", "zero_section_restrictions",
        "zero_section_moment_bounded", "orthogonality_nullspace",
        "properness_hermitian", "properness_scaling", "properness_segment",
    }
    for row in hyp["properness"]:
        assert set(row) == {"stage", "d_fit", "d_analytic", "ratio", "gamma_fit"}
    lemmas = su11_report["lemmas"]
    assert set(lemmas) == {
        "samples", "chi_multiset_deviation", "chi_spectral_radius",
        "pullback_growth_min_slack", "flat_identity_residual",
        "bracket_min_slack", "bracket_equality_residual",
        "moment_identity_residuals", "convention_constants",
        "scaling_linearity_residual", "checks",
    }
    assert set(lemmas["moment_identity_residuals"]) == {
        "pullback", "product", "delta", "segment", "hermitian"
    }
    assert set(lemmas["checks"]) == {
        "chi_multiset", "chi_contraction", "pullback_growth", "flat_identity",
        "bracket_positivity", "bracket_equality_at_lambda0",
        "moment_identities", "convention_constants", "scaling_linearity",
    }
    assert set(su11_report["checks"]) == {
        "lemmas", "segment_witness", "hypotheses", "stages", "composite"
    }


def test_nan_in_a_later_moment_identity_fails_the_lemma_verdict(monkeypatch):
    # a Python max() over the residuals would skip a NaN after the first one
    real = pipeline.moment_identity_residual

    def nan_for_product(geo, form_at, moment_at, *args, **kwargs):
        value = real(geo, form_at, moment_at, *args, **kwargs)
        return np.nan if moment_at.func is pipeline.moment_product else value

    monkeypatch.setattr(pipeline, "moment_identity_residual", nan_for_product)
    rep = run_lemma_suite(small_su11(seed=8))
    residuals = rep["lemmas"]["moment_identity_residuals"]
    assert list(residuals).index("product") > 0
    assert np.isnan(residuals["product"])
    assert rep["lemmas"]["checks"]["moment_identities"] is False
    assert rep["verdict"] == "fail"


def test_moment_identities_check_the_segment_family_the_flow_integrates(monkeypatch):
    # the pullback, delta and segment identities read their forms off
    # pipeline.segment_stage, so a 1 % error in that family's form fails them
    def scaled_segment(geometry, delta):
        fam = segment_stage(geometry, delta)
        return dataclasses.replace(
            fam, omega=lambda spec, kap, t: 1.01 * fam.omega(spec, kap, t)
        )

    monkeypatch.setattr(pipeline, "segment_stage", scaled_segment)
    rep = run_lemma_suite(small_su11(seed=8))
    residuals = rep["lemmas"]["moment_identity_residuals"]
    tol = small_su11().tolerance("moment_identity")
    assert min(residuals[name] for name in ("pullback", "delta", "segment")) > tol
    assert max(residuals["product"], residuals["hermitian"]) < tol
    assert rep["lemmas"]["checks"]["moment_identities"] is False
    assert rep["verdict"] == "fail"


def test_nan_in_a_later_zero_section_value_fails_the_theorem_verdict(
    su11_report, monkeypatch
):
    tol = small_su11().tolerance
    clean = {k: v for k, v in su11_report["hypotheses"].items() if k != "checks"}
    assert _hypothesis_checks(clean, tol)["zero_section_restrictions"]
    hyp = {**clean, "zero_section_dt_restriction": np.nan}
    assert _hypothesis_checks(hyp, tol)["zero_section_restrictions"] is False

    real = pipeline.check_hypotheses

    def nan_dt_restriction(*args, **kwargs):
        return {**real(*args, **kwargs), "zero_section_dt_restriction": np.nan}

    monkeypatch.setattr(pipeline, "check_hypotheses", nan_dt_restriction)
    rep = run_theorem_pipeline(small_su11())
    assert rep["hypotheses"]["checks"]["zero_section_restrictions"] is False
    assert rep["checks"]["hypotheses"] is False
    assert rep["verdict"] == "fail"


def test_stage_and_composite_blocks_report_flow_counters(su11_report):
    const = su11_report["constants"]
    c, t_dim = const["dim_base_complement"], const["dim_total"]
    comp = su11_report["composite"]
    b0 = comp["sample_count"]

    # centre, 2 dim_p fiber, min(4, b0) equivariance and 4 zero lanes
    lanes = b0 * (1 + 2 * (t_dim - c)) + min(4, b0) + 4

    # the mapped vertical stages report no steps, evaluations, lanes or
    # reprojections; the segment block counts the composite flow's lanes
    stages = su11_report["stages"]
    assert c == 0
    for rep in stages[:2]:
        for key in ("steps", "field_evaluations", "field_lanes", "reprojections"):
            assert rep[key] == 0, (rep["name"], key)
    segment = stages[2]
    assert segment["steps"] == 20
    assert segment["field_evaluations"] == 4 * segment["steps"]
    assert segment["field_lanes"] == 4 * segment["steps"] * lanes
    assert comp["steps"] == [rep["steps"] for rep in stages]
    for key in ("field_evaluations", "field_lanes", "reprojections"):
        assert comp[key] == sum(rep[key] for rep in stages), key
    assert comp["min_form_margin"] == min(rep["min_form_margin"] for rep in stages)
    assert comp["fiber_sup"] == max(rep["fiber_sup"] for rep in stages)


def test_stage_blocks_are_read_off_the_composite_flow(monkeypatch):
    # su(2,1) at a generic weight: the segment stage moves the base.  Five
    # composite samples and four stage samples, so the standalone flow below
    # draws the same four equivariance partners and zero-section lanes.
    seen = {}
    real = pipeline.verify_pullback

    def capture(stages, base_k, base_z, **kwargs):
        seen.update(stages=stages, ks=base_k, zs=base_z, eps=kwargs["eps"],
                    rng=copy.deepcopy(kwargs["rng"]))
        seen["out"] = real(stages, base_k, base_z, **kwargs)
        return seen["out"]

    monkeypatch.setattr(pipeline, "verify_pullback", capture)
    rep = run_theorem_pipeline(
        Scenario(family="su", p=2, q=1, lam=(0.8660254037844386, 2.0999999999999996),
                 steps=10, samples=5, stage_samples=4, lemma_samples=4, seed=0)
    )
    stages, ks, zs, out = seen["stages"], seen["ks"], seen["zs"], seen["out"]
    first = rep["stages"][0]
    assert first["sample_count"] == 4

    # the first block (J_0 = I) is a standalone flow of the first stage;
    # measured equal to the last bit, the bound allows roundoff
    alone = real(stages[:1], ks[:4], zs[:4], eps=seen["eps"], rng=seen["rng"])
    assert np.abs(out["stage_blocks"][0].defect[:4] - alone["block"].defect).max() <= 1e-13
    shift_error = np.abs(alone["moment_shift_mean"] - stages[0].family.moment_shift).max()
    for key, want in (
        ("pullback_residual", alone["pullback_residual"]),
        ("moment_shift_error", shift_error),
        ("moment_shift_spread", alone["moment_shift_spread"]),
        ("equivariance_residual", alone["equivariance_residual"]),
        ("zero_section_displacement", alone["zero_section_displacement"]),
    ):
        assert abs(first[key] - want) <= 1e-13, key

    # the stage defects telescope to the composite's pulled - omega_start;
    # measured within 2.3e-17 of the composite residual
    total = sum(block.defect for block in out["stage_blocks"])
    composite = out["block"].defect
    assert np.abs(total - composite).max() <= 1e-14 * np.abs(composite).max()
    assert np.abs(composite).max() == rep["composite"]["pullback_residual"]

    # each stage starts at the form the previous one ends at
    geo = stages[0].family.geometry
    results = moser.flow_stages(stages, ks, zs)
    for s in range(len(stages) - 1):
        at = geo.fiber_eig(results[s].z), geo.kappa(results[s].k)
        end = stages[s].family.omega(*at, 1.0)
        assert np.array_equal(end, stages[s + 1].family.omega(*at, 0.0)), s


def test_theorem_run_flows_each_stage_once(monkeypatch):
    # the stage blocks are read off the composite flow: one verify_pullback,
    # one exact map per vertical stage and one integrate_flow, the segment's
    calls = {"verify": 0, "map": 0, "flow": 0}

    def counting(key, real):
        def counted(*args, **kwargs):
            calls[key] += 1
            return real(*args, **kwargs)
        return counted

    monkeypatch.setattr(pipeline, "verify_pullback", counting("verify", pipeline.verify_pullback))
    monkeypatch.setattr(moser, "_map_stage", counting("map", moser._map_stage))
    monkeypatch.setattr(moser, "integrate_flow", counting("flow", moser.integrate_flow))
    rep = run_theorem_pipeline(small_su11())
    assert rep["verdict"] == "pass"
    assert calls == {"verify": 1, "map": 2, "flow": 1}


def test_cli_inspect(capsys):
    rc = cli.main(["inspect", "--family", "su", "--p", "2", "--q", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    data = json.loads(out)
    assert data["root_counts"]["total"] == 6
    assert data["root_counts"]["compact"] == 2


def _write_config(tmp_path, **extra):
    lines = ["family = su", "p = 1", "q = 1", "steps = 20", "samples = 4",
             "stage_samples = 3", "lemma_samples = 40", "seed = 3"]
    lines += [f"{k} = {v}" for k, v in extra.items()]
    path = tmp_path / "scenario.cfg"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def test_cli_theorem_writes_report(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    out_dir = tmp_path / "reports"
    rc = cli.main(["theorem", "--config", cfg, "--out", str(out_dir)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "verdict: pass" in out
    report_path = out_dir / "theorem_report.json"
    data = json.loads(report_path.read_text(encoding="utf-8"))
    assert data["verdict"] == "pass"
    assert data["scenario"]["seed"] == 3


def test_cli_override_flags(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    rc = cli.main(["theorem", "--config", cfg, "--seed", "11", "--steps", "24",
                   "--samples", "5", "--eps", "2e-4"])
    out = capsys.readouterr().out
    assert rc == 0
    data = json.loads(out)
    assert data["scenario"]["seed"] == 11
    assert data["scenario"]["steps"] == 24
    assert data["scenario"]["samples"] == 5
    assert data["scenario"]["eps"] == 2e-4
    assert data["composite"]["sample_count"] == 5


def test_cli_delta_mult_overrides_the_config_delta_abs(tmp_path, capsys):
    cfg = _write_config(tmp_path, delta_abs="1.2")
    assert load_scenario(cfg).delta_abs == 1.2
    assert load_scenario(cfg, delta_mult=3.0, delta_abs=1.4).delta_abs == 1.4
    rc = cli.main(["theorem", "--config", cfg, "--delta-mult", "3.0"])
    data = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert data["scenario"]["delta_mult"] == 3.0
    assert data["scenario"]["delta_abs"] is None
    assert data["constants"]["delta"] == 3.0 * data["constants"]["b_lambda"]


def test_cli_lemmas(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    rc = cli.main(["lemmas", "--config", cfg, "--samples", "30"])
    out = capsys.readouterr().out
    assert rc == 0
    data = json.loads(out)
    assert data["kind"] == "lemmas"
    assert data["verdict"] == "pass"
    assert data["lemmas"]["samples"] == 30
    assert data["stages"] == []


def test_cli_refusals_exit_code_two(tmp_path, capsys):
    cfg = _write_config(tmp_path, **{"lambda": "-1.0"})
    rc = cli.main(["theorem", "--config", cfg])
    captured = capsys.readouterr()
    assert rc == 2
    assert "refused" in captured.err
    assert "chamber" in captured.err
    cfg2 = _write_config(tmp_path, delta_abs="0.4")
    rc2 = cli.main(["theorem", "--config", cfg2])
    captured2 = capsys.readouterr()
    assert rc2 == 2
    assert "b_lambda" in captured2.err


def test_cli_numerical_failure_exit_code_one(tmp_path, capsys):
    # at rank 7 almost no box draw lies in the holomorphic chamber, so the
    # bracket-positivity sampler exhausts its draws
    path = tmp_path / "su44.cfg"
    path.write_text("family = su\np = 4\nq = 4\nlemma_samples = 5\n", encoding="utf-8")
    rc = cli.main(["lemmas", "--config", str(path)])
    captured = capsys.readouterr()
    assert rc == 1
    assert "error: chamber rejection sampling failed" in captured.err


def _edited_segment(monkeypatch, name, edit):
    """Run the theorem pipeline with a segment family (named name) whose form
    near t = 0.7 goes through edit: reached only inside the flow, which
    evaluates t = 0.7 at the end of its 14th of 20 steps (the witness and the
    hypothesis checks read t = 0, 0.5 and 1)."""
    def edited_stage(geometry, delta):
        fam = segment_stage(geometry, delta)

        def omega(spec, kap, t):
            out = fam.omega(spec, kap, t)
            if np.any(np.abs(t - 0.7) < 0.01):
                edit(out)
            return out

        return dataclasses.replace(fam, name=name, omega=omega)

    monkeypatch.setattr(pipeline, "segment_stage", edited_stage)


def _non_finite_segment(monkeypatch, value=np.nan):
    def fill_first_row(out):
        out[..., 0, :] = value

    _edited_segment(monkeypatch, "non-finite-segment", fill_first_row)


def test_cli_linear_algebra_failure_exit_code_one(tmp_path, capsys, monkeypatch):
    # a LAPACK failure in the field's solve is a numerical failure (exit 1),
    # not invalid input.  gesv stops only on an exactly singular form, which
    # a finite flow practically never meets, so the segment form at t = 0.7
    # arms a failure of the solve that follows it
    armed = []
    real_solve = np.linalg.solve

    def failing_solve(*args, **kwargs):
        if armed:
            armed.clear()
            raise np.linalg.LinAlgError("Singular matrix")
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "solve", failing_solve)
    _edited_segment(monkeypatch, "armed-segment", lambda out: armed.append(True))
    rc = cli.main(["theorem", "--config", _write_config(tmp_path)])
    captured = capsys.readouterr()
    assert rc == 1
    assert (
        "error: armed-segment family degenerates along the flow "
        "(margin 0.000e+00 at t = 0.7000): Singular matrix" in captured.err
    )


def test_cli_non_finite_form_names_stage_and_time(tmp_path, capsys, monkeypatch):
    _non_finite_segment(monkeypatch)
    assert cli.main(["theorem", "--config", _write_config(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "non-finite-segment" in err
    assert "t = 0.7000" in err
    assert "non-finite entries" in err


def test_infinite_form_entries_fail_without_lapack_noise(capfd, monkeypatch):
    # unchecked, an inf entry reaches LAPACK's solve, whose NaN inverse reads
    # "degenerates (margin nan)" instead of naming the entries
    _non_finite_segment(monkeypatch, np.inf)
    scenario = Scenario(family="su", p=1, q=1, steps=20, samples=4,
                        stage_samples=3, lemma_samples=40, seed=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeError) as info:
            run_theorem_pipeline(scenario)
    assert str(info.value) == (
        "non-finite-segment form at t = 0.7000 has non-finite entries"
    )
    assert capfd.readouterr().err == ""


def test_far_samples_end_in_a_report_without_warnings(tmp_path, capsys):
    # su(1,1) at radius 900 once overflowed the hermitian flow's forms
    # (numpy RuntimeWarning, then an svd error); the exact map takes those
    # fibers to radius 2 arcsinh(r / 2) < 15 without forming them.  At 10
    # segment steps the run is under-resolved, and reads fail in a report.
    path = tmp_path / "far.cfg"
    path.write_text(
        "family = su\np = 1\nq = 1\nradius = 900\nsteps = 10\nsamples = 2\n"
        "stage_samples = 1\nlemma_samples = 50\n",
        encoding="utf-8",
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = cli.main(["theorem", "--config", str(path)])
    captured = capsys.readouterr()
    assert captured.err == ""
    report = json.loads(captured.out)
    assert rc == 1 and report["verdict"] == "fail"
    assert report["checks"]["lemmas"] and report["checks"]["hypotheses"]


def test_theorem_run_builds_each_geometry_once(monkeypatch):
    # a generic weight needs its own geometry and the lemma suite's flat one
    # at lambda_0; the stages, the witness and the checks share the first
    built = []
    init = OrbitGeometry.__init__

    def counting_init(self, alg, datum, weight):
        built.append(weight.coords.copy())
        init(self, alg, datum, weight)

    monkeypatch.setattr(OrbitGeometry, "__init__", counting_init)
    lam = (0.8660254037844386, 2.0999999999999996)
    rep = run_theorem_pipeline(
        Scenario(family="su", p=2, q=1, lam=lam, steps=10, samples=1,
                 stage_samples=1, lemma_samples=4)
    )
    assert rep["constants"]["dim_base_complement"] > 0
    assert len(built) == 2
    assert np.array_equal(built[0], lam)
    lambda0 = compute_root_datum(build_algebra("su", p=2, q=1)).lambda0.coords
    assert np.array_equal(built[1], lambda0)


def test_cli_rejects_bad_config(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("family = su\np = 1\nq = 1\nbogus = 1\n", encoding="utf-8")
    rc = cli.main(["theorem", "--config", str(path)])
    captured = capsys.readouterr()
    assert rc == 2
    assert "error" in captured.err


def test_import_loads_no_scipy():
    # scipy is a test dependency only; importing it would cost every fresh
    # interpreter a noticeable share of its set-up time
    import holomoser

    src = str(Path(holomoser.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    code = (
        "import sys, holomoser, holomoser.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_every_benchmark_trace_target_is_a_plain_function():
    # perfbench's tracer wraps these names and raises inside its subprocess
    # when one is gone; here a src change that drops one fails by its name.
    # Only perfbench/bench_trace.py is read.
    import importlib.util
    import inspect

    from holomoser import algebra, forms, report, roots

    path = Path(__file__).resolve().parent.parent / "perfbench" / "bench_trace.py"
    spec = importlib.util.spec_from_file_location("_bench_trace", path)
    bench_trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_trace)
    patches = bench_trace.layer_patches(pipeline, moser, forms, roots, algebra, report)
    assert patches
    for owner, attr, _, _ in patches:
        where = f"{owner.__name__}.{attr}"
        assert attr in vars(owner), where
        assert inspect.isfunction(vars(owner)[attr]), where
