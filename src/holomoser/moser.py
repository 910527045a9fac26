"""Moser isotopies between the model symplectic structures.

A FormFamily is a t-family of closed 2-forms on the model K x p together
with its time derivative and a compatible family of moment maps.  The Moser
construction turns each family into a flow: the time derivative is made
exact by the radial homotopy primitive (fiber scaling (k, Z) -> (k, sZ)),
the Moser field solves iota(xi) omega_t = -mu_t (one solve, which also
bounds the form's margin), and a fourth-order integrator in body
coordinates (integrate_flow) evaluates it at k = e and transports points so
that the time-one map pulls the final form back to the initial one.

Three concrete stages compose to the full isotopy:

    hermitian   product form  ->  delta form at delta = 1,
    scaling     delta = 1     ->  delta = delta,
    segment     delta form    ->  pullback of the orbit form
                (the segment family traversed from the delta end).

The hermitian and scaling fields are vertical and K-equivariant, so their
time-one maps are radial maps fixed by equal areas (McDuff, J. Differential
Geom. 28 (1988)), which flow_stages applies exactly (FormFamily.time_one).

The verification drivers flow perturbed initial points through the stages
once and compare differentials at every stage boundary (central differences
along the fiber, the base rows from them by K-equivariance) against the
claimed pullback identity of the composite and of each stage (FlowBlock),
transport moment maps, and check the standing hypotheses (closedness via
Stokes on exponential-chart simplices, exactness of the primitive, zero
section behaviour, properness constants of the moment families) in one
pass for all stages, every quadrature node in one batched call.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import cache

import numpy as np

from .forms import OrbitGeometry, _mT
from .roots import ChamberWeight, in_holomorphic_chamber

# degree-5 symmetric triangle rule (barycentric nodes, weights sum to 1)
_TRI_A2 = 0.470142064105115
_TRI_A3 = 0.101286507323456
_TRI_BARY = np.array(
    [
        [1 / 3, 1 / 3, 1 / 3],
        [_TRI_A2, _TRI_A2, 1 - 2 * _TRI_A2],
        [_TRI_A2, 1 - 2 * _TRI_A2, _TRI_A2],
        [1 - 2 * _TRI_A2, _TRI_A2, _TRI_A2],
        [_TRI_A3, _TRI_A3, 1 - 2 * _TRI_A3],
        [_TRI_A3, 1 - 2 * _TRI_A3, _TRI_A3],
        [1 - 2 * _TRI_A3, _TRI_A3, _TRI_A3],
    ]
)
_TRI_W = np.array(
    [0.225]
    + [0.132394152788506] * 3
    + [0.125939180544827] * 3
)


@cache
def _edge_rule():
    """8-node Gauss-Legendre rule on [0, 1] for the circulation along an edge.

    Built on first use, so runs without hypothesis checks never import
    numpy.polynomial (about 1 MB of resident memory).
    """
    x, w = np.polynomial.legendre.leggauss(8)
    return 0.5 * (x + 1.0), 0.5 * w


@dataclass(frozen=True)
class FormFamily:
    """A t in [0,1] family of closed 2-forms with moments, batched evaluators.

    omega / domega_dt map (spec, kap, t) to (..., T, T) form matrices at the
    points whose fiber spectra (OrbitGeometry.fiber_eig) and Ad(k^{-1})
    matrices kap are given, kap None meaning k = e; primitive maps (spec,
    kap, zp, t) to the (..., T) radial primitive of domega_dt; moment
    maps (spec, kap, t) to (..., N) coadjoint coordinates, and
    pairing_direction t to the (..., N) unit vectors the properness fit pairs
    with.  t is a scalar or broadcasts against the lanes: one time per lane
    (B,), or a time axis in front (S, 1) giving (S, B, ...); each value is
    the scalar-t call's bit for bit (an evaluator that does not read t
    returns the lane batch).

    moment_shift (N,) is the change Phi_1(rho(x)) - Phi_0(x) the time-one
    flow rho must make at every point: 0, (delta - 1) lambda_0 and
    -delta lambda_0 for the three stages.  properness_bound is the analytic
    quadratic growth constant the properness fit is compared with:
    1/(2||z0||) for the hermitian family, min(1, delta)/(2||z0||) for the
    scaling, and for the segment the minimum over _PROPERNESS_GRID of the
    interpolated m_{lambda_t}^2 / (2 ||H_{lambda_t}||), m the chamber margin.

    omega, domega_dt and primitive are K-invariant (integrate_flow's
    precondition).  time_one, the exact time-one map on fibers
    (_radial_time_one) of the families of the form base block + fiber(Z)
    whose primitive has no base part (hermitian, scaling), replaces
    integrate_flow; None for the segment, the one family that moves the
    base.  The mapped families' omega and primitive never read kap and their
    Moser field is exactly vertical.  No certificate reads their primitive
    or domega_dt, and their properness fit certifies no step of the run (an
    exact map needs no complete flow): it stays a check of the moment family
    against properness_bound.
    """

    name: str
    geometry: OrbitGeometry
    omega: Callable
    domega_dt: Callable
    primitive: Callable
    moment: Callable
    pairing_direction: Callable
    moment_shift: np.ndarray
    properness_bound: float
    time_one: Callable | None = None


# family times of the properness fit and of the segment stage's analytic bound
_PROPERNESS_GRID = tuple(np.linspace(0.0, 1.0, 11))


def _z0_direction(geometry):
    z0 = geometry.z0
    return lambda t: np.broadcast_to(z0 / np.linalg.norm(z0), np.shape(t) + z0.shape)


def _radial_row(geometry, row_p, block):
    """Primitive (..., T): zero base part, fiber part row_p . even(F).

    F(nu) = int_0^1 r f(r nu) dr is even, so only its p-p block acts on the
    p-part row_p (B, P) of the row.  block is that p-p block even(F) (with a
    time axis in front for a time grid), a block of the sinhc kernel: G
    (FiberSpectrum.even_g) for f = f_plus, and 2 t d/dc G(c M) at c = t^2
    (FiberSpectrum.sinhc_dc) for f(nu) = nu f_plus'(t nu).
    """
    fiber = (row_p[..., None, :] @ block)[..., 0, :]
    return np.concatenate([np.zeros(fiber.shape[:-1] + (geometry.dim_c,)), fiber], axis=-1)


def _radial_time_one(geometry, radial):
    """Exact time-one map (B, P) -> (B, P) of a vertical K-equivariant family.

    On a ray r E, E a unit root-plane vector, the flow moves r to the rho with
    F_1(rho) = F_0(r), F_t(r) = int_0^r omega_t(E, JE)|_{uE} u du; radial maps
    x = sqrt(c) r / 2 to sqrt(c) rho / 2, c the top eigenvalue of A^T A at E.
    Z is Ad(k) of strongly orthogonal root-plane vectors (Helgason, ch. V), so
    the map is W diag(kappa rho(|l| / kappa) sign l) W^H on Z's Hermitian
    ambient matrix W diag(l) W^H, kappa the top eigenvalue of E's.
    """
    alg = geometry.alg
    e = _root_probe_fibers(geometry, radii=(1.0,))[0]
    a = geometry.fiber_block(e[None])
    c = np.linalg.eigh(np.swapaxes(a, -1, -2) @ a)[0].max()
    kappa = np.linalg.eigvalsh(alg.matrix(alg.embed_p(e))).max()
    scale = 0.5 * math.sqrt(c) / kappa

    def time_one(zs):
        lam, w = np.linalg.eigh(alg.matrix(alg.embed_p(zs)))
        lam = np.sign(lam) * radial(scale * np.abs(lam)) / scale
        return alg.coords((w * lam[..., None, :]) @ alg.group_inverse(w))[..., alg.dim_k :]

    return time_one


def hermitian_stage(geometry):
    """Product form to the delta = 1 form through the scaled fiber family."""

    def primitive(spec, kap, zp, t):
        # m_lambda_0 is antisymmetric, so the surviving term of
        # cross - cross^T contracts to +Z^T m_lambda_0
        row, t = zp @ geometry.m_lam0_pp, np.expand_dims(t, (-2, -1))
        return _radial_row(geometry, row, 2.0 * t * spec.sinhc_dc(t * t)[1])

    return FormFamily(
        "hermitian",
        geometry,
        lambda spec, kap, t: geometry.hermitian_blocks(spec, t),
        lambda spec, kap, t: geometry.hermitian_dt_blocks(spec, t),
        primitive,
        lambda spec, kap, t: geometry.moment_hermitian(spec, geometry.klam(kap), t),
        _z0_direction(geometry),
        0.0 * geometry.lam0,
        1.0 / (2.0 * float(np.linalg.norm(geometry.z0))),
        # F_0(r) = r^2 / 2 and F_1(r) = 2 sinh(sqrt(c) r / 2)^2 / c
        time_one=_radial_time_one(geometry, np.arcsinh),
    )


def scaling_stage(geometry, delta):
    """Delta coefficient 1 to delta along s(t) = 1 + t (delta - 1)."""

    def domega(spec, kap, t):
        out = geometry.delta_blocks(spec, delta - 1.0)
        out[..., : geometry.dim_c, : geometry.dim_c] = 0.0
        return out

    def primitive(spec, kap, zp, t):
        row = (delta - 1.0) * (zp @ geometry.m_lam0_pp)
        return _radial_row(geometry, row, spec.even_g)

    def radial(x):
        # F_t = (1 + t (delta - 1)) 2 sinh(x)^2 / c: sinh(y) = sinh(x) / sqrt(delta),
        # so y = x + log(a + sqrt(a^2 + e^{-2x})), a = (1 - e^{-2x}) / (2 sqrt(delta)),
        # finite at every x >= 0; log1p keeps small x to relative roundoff
        m = np.expm1(-2.0 * x)
        a = -m / (2.0 * math.sqrt(delta))
        return x + np.log1p(a + (a * a + m) / (np.sqrt(a * a + 1.0 + m) + 1.0))

    return FormFamily(
        "scaling",
        geometry,
        lambda spec, kap, t: geometry.delta_blocks(spec, 1.0 + t * (delta - 1.0)),
        domega,
        primitive,
        lambda spec, kap, t: geometry.moment_delta(
            spec, geometry.klam(kap), 1.0 + t * (delta - 1.0)
        ),
        _z0_direction(geometry),
        (delta - 1.0) * geometry.lam0,
        min(1.0, delta) / (2.0 * float(np.linalg.norm(geometry.z0))),
        time_one=_radial_time_one(geometry, radial),
    )


def segment_stage(geometry, delta):
    """Delta form to the orbit pullback: the segment family from its delta end.

    At kap = None (k = e) omega and primitive read constants hoisted here,
    and omega blends the forms once: with Psi_- = -A even(G) and Psi_+ =
    even(f_plus), fiber block Psi_+^T (t m_kl + (1 - t) delta m_lam0_pp) Psi_+
    + t Psi_-^T m_kk Psi_- and c-p block t comp^T m_kk Psi_-.
    """
    k, c, m_kl = geometry.alg.dim_k, geometry.dim_c, geometry.pairing_klam(None)
    m_kk, d_m0 = geometry.m_lam[:k, :k], delta * geometry.m_lam0_pp
    row_e, comp_kk = m_kl - d_m0, geometry.complement[:k].T @ m_kk

    def omega(spec, kap, t):
        t = np.asarray(t)[..., None, None]
        if kap is not None:
            pull = geometry.pullback_blocks(spec, kap)
            return (1.0 - t) * geometry.delta_blocks(spec, delta) + t * pull
        psim, psip = -(spec.a @ spec.even_g), spec.psi_plus
        out = geometry._assemble(_mT(psip) @ ((t * m_kl + (1.0 - t) * d_m0) @ psip)
                                 + t * (_mT(psim) @ (m_kk @ psim)))
        out[..., :c, c:] = t * (comp_kk @ psim)
        out[..., c:, :c] = -_mT(out[..., :c, c:])
        return out

    def domega(spec, kap, t):
        return geometry.pullback_blocks(spec, kap) - geometry.delta_blocks(spec, delta)

    def primitive(spec, kap, zp, t):
        if kap is None:
            return _radial_row(geometry, zp @ row_e, spec.even_g)
        row = (zp[:, None, :] @ geometry.pairing_klam(kap))[:, 0]
        row -= delta * (zp @ geometry.m_lam0_pp)
        return _radial_row(geometry, row, spec.even_g)

    def direction(t):
        # row norms as matmul dots: bit for bit np.linalg.norm of one weight
        coords = segment_weight_coords(geometry, delta, 1.0 - t)
        return coords / np.sqrt(coords[..., None, :] @ coords[..., None])[..., 0]

    bounds = []
    for t in _PROPERNESS_GRID:
        coords = segment_weight_coords(geometry, delta, 1.0 - t)
        weight = ChamberWeight(coords[: geometry.alg.rank])
        _, m = in_holomorphic_chamber(weight, geometry.datum)
        bounds.append(m * m / (2.0 * np.linalg.norm(coords)))
    return FormFamily(
        "segment",
        geometry,
        omega,
        domega,
        primitive,
        lambda spec, kap, t: geometry.moment_segment(
            spec, geometry.klam(kap), 1.0 - t, delta
        ),
        direction,
        -delta * geometry.lam0,
        float(min(bounds)),
    )


def segment_weight_coords(geometry, delta, u):
    """Full coordinates of the interpolated weight u delta lambda_0 + (1-u) lambda."""
    u = np.expand_dims(u, -1)
    return u * delta * geometry.lam0 + (1.0 - u) * geometry.lam


@dataclass
class MoserStage:
    family: FormFamily
    steps: int


# -- Moser data at points ----------------------------------------------------------


def homotopy_primitive(family, spec, kap, zp, t):
    """Primitive mu_t (..., T) of d omega_t/dt from the fiber-scaling homotopy.

    mu|_(k,Z)(u) = int_0^1 sigma|_(k,sZ)((0, Z), (u_base, s u_fiber)) ds;
    since ad(Z)Z = 0 it is one row . F(ad Z)[:, p] per stage with
    F(nu) = int_0^1 s f(s nu) ds, the family's closed form (_radial_row).
    The quadrature it replaces is the test oracle quadrature_primitive.
    """
    return family.primitive(spec, kap, zp, t)


def _form_margin(family, omega, t, mu=None):
    """Solve omega [xi | Y] = [mu | I] once; xi (None without mu) and a margin.

    The margin is min over lanes of 1/||Y||_F, in [sigma_min / sqrt(T),
    sigma_min / sqrt(2)] for a skew form (singular values come in pairs).
    Below 1e-10 it raises RuntimeError, as do non-finite entries (checked
    before LAPACK sees them) and an exactly singular form, naming family and t.
    """
    if not np.isfinite(omega).all():
        raise RuntimeError(f"{family.name} form at t = {t:.4f} has non-finite entries")
    rhs = np.zeros(omega.shape[:-1] + (omega.shape[-1] + 1,))
    rhs[..., 0], rhs[..., 1:] = 0.0 if mu is None else mu, np.eye(omega.shape[-1])
    try:
        sol, note = np.linalg.solve(omega, rhs), ""
        inv = sol[..., 1:]
        bound = float(1.0 / np.sqrt((inv * inv).sum(axis=(-2, -1)).max()))
    except np.linalg.LinAlgError as exc:  # gesv stops only on a singular form
        sol, note, bound = None, f": {exc}", 0.0
    if not bound >= 1e-10:
        raise RuntimeError(
            f"{family.name} family degenerates along the flow "
            f"(margin {bound:.3e} at t = {t:.4f}){note}"
        )
    return (None if mu is None else sol[..., 0]), bound


def moser_field(family, kap, zs, t):
    """Moser field xi_t with iota(xi) omega_t = -mu_t; (B, T) tangent coords.

    kap: the points' Ad(k^{-1}) matrices, or None for k = e (integrate_flow's
    body frame).  Returns xi and the margin of the same solve (_form_margin).
    """
    spec = family.geometry.fiber_eig(zs)
    omega = family.omega(spec, kap, t)
    return _form_margin(family, omega, t, homotopy_primitive(family, spec, kap, zs, t))


# -- flow integration --------------------------------------------------------------


@dataclass
class FlowTrace:
    steps: int
    min_form_margin: float
    max_group_residual: float
    reprojections: int
    fiber_sup: np.ndarray  # per-lane max ||Z|| along the flow
    field_lanes: int  # lanes the Moser field evaluated, summed over its calls


@dataclass
class FlowResult:
    k: np.ndarray
    z: np.ndarray
    trace: FlowTrace


def _bracket_k(alg, x, y):
    return alg.bracket(alg.embed_k(x), alg.embed_k(y))[..., : alg.dim_k]


def _dexpinv(alg, u, y):
    # inverse right-hand side of k' = k X in the chart k = k0 exp(u):
    # u' = y + [u,y]/2 + [u,[u,y]]/12 + O(|u|^4), enough for order four
    uy = _bracket_k(alg, u, y)
    return y + 0.5 * uy + _bracket_k(alg, u, uy) / 12.0


def _accumulate_k(alg, ks, factors, max_res, reproj):
    """k E_1 ... E_n after every step n, with the per-step drift check.

    factors (steps, B, a, a) are the RKMK group steps.  The partial products
    take one group_residual call on their stack; at the first step whose
    drift off K passes 1e-12 the product is reprojected (group_project) and
    the later steps are replayed from it, so max_res and reproj read as
    after a check at every step.  Returns the final k, max_res and reproj.
    """
    start = 0
    while start < len(factors):
        prods = np.empty_like(factors[start:])
        for m, factor in enumerate(factors[start:]):
            ks = prods[m] = ks @ factor
        res = alg.group_residual(prods).max(axis=-1)
        drifted = np.flatnonzero(res > 1e-12)
        stop = drifted[0] + 1 if drifted.size else len(res)
        max_res = max(max_res, float(res[:stop].max()))
        if not drifted.size:
            break
        ks = alg.group_project(prods[stop - 1])
        reproj += 1
        start += stop
    return ks, max_res, reproj


def integrate_flow(family, k0, z0, steps, z_ceiling=None):
    """Flow the Moser field of the family from t = 0 to 1 (order four).

    Precondition: K-invariant forms and primitive (at (k, Ad(k) W) they are R^T
    (value at (e, W)) R, R = diag(I_c, Ad(k^{-1})|_p)), so W = Ad(k^{-1}) Z
    obeys W' = A(e, W) - [X(e, W), W], X and A the field's base and fiber
    parts (symmetry reduction).  W takes plain RK4 steps, and the field never
    reads k, so k' = k X(e, W) is rebuilt after the loop from the stored
    stage velocities: the truncated dexpinv of the RKMK chart k exp(u) over
    all steps at once, one group_exp call for every step's factor, and the
    partial products k E_1 ... E_n (_accumulate_k); then Z = Ad(k) W.  k0:
    (B, a, a) group elements, z0: (B, dim_p).  Drift off K beyond 1e-12, at
    entry or after a step, triggers a polar reprojection.  A fiber norm
    ceiling (default ten times the initial bound) aborts escaping flows.
    """
    geo = family.geometry
    alg = geo.alg
    dk = alg.dim_k
    ks = np.asarray(k0, dtype=complex)
    max_res = float(alg.group_residual(ks).max())
    reproj = int(max_res > 1e-12)
    ks = alg.group_project(ks) if reproj else ks
    ws = (geo.kappa(ks)[:, dk:, dk:] @ z0[..., None])[..., 0]
    fiber_sup = np.linalg.norm(ws, axis=-1)
    if z_ceiling is None:
        z_ceiling = 10.0 * max(1.0, float(fiber_sup.max()))
    h = 1.0 / steps
    min_margin = np.inf
    xs = np.empty((4, steps, len(ws), dk))  # base velocities, by RK stage and step
    # [X, W]_p for X in k and W in p as one GEMM: the k x p -> p structure slice
    bracket_kp = alg.structure[:dk, dk:, dk:].reshape(-1, geo.dim_p)

    def field(t_arg, w):
        # the base velocity X(e, W) in k and the body velocity of W
        nonlocal min_margin
        xi, margin = moser_field(family, None, w, t_arg)
        min_margin = min(min_margin, margin)
        x = xi[:, : geo.dim_c] @ geo.complement[:dk].T
        bracket = (x[:, :, None] * w[:, None]).reshape(len(w), -1) @ bracket_kp
        return x, xi[:, geo.dim_c :] - bracket

    for n in range(steps):
        t = n * h
        xs[0, n], a1 = field(t, ws)
        xs[1, n], a2 = field(t + 0.5 * h, ws + 0.5 * h * a1)
        xs[2, n], a3 = field(t + 0.5 * h, ws + 0.5 * h * a2)
        xs[3, n], a4 = field(t + h, ws + h * a3)
        ws = ws + (h / 6.0) * (a1 + 2 * a2 + 2 * a3 + a4)
        norms = np.linalg.norm(ws, axis=-1)
        fiber_sup = np.maximum(fiber_sup, norms)
        if norms.max() > z_ceiling:
            raise RuntimeError(
                f"{family.name} flow escaped the fiber ceiling "
                f"{z_ceiling:.2f} at t = {t + h:.4f}"
            )
    x1, x2, x3, x4 = xs
    x2 = _dexpinv(alg, 0.5 * h * x1, x2)
    x3 = _dexpinv(alg, 0.5 * h * x2, x3)
    x4 = _dexpinv(alg, h * x3, x4)
    factors = alg.group_exp((h / 6.0) * (x1 + 2 * x2 + 2 * x3 + x4))
    ks, max_res, reproj = _accumulate_k(alg, ks, factors, max_res, reproj)
    zs = (alg.adjoint_group_matrix(ks)[:, dk:, dk:] @ ws[..., None])[..., 0]
    lanes = 4 * steps * len(ws)  # every field evaluation takes every lane
    trace = FlowTrace(steps, float(min_margin), max_res, reproj, fiber_sup, lanes)
    return FlowResult(ks, zs, trace)


def _map_stage(family, ks, zs):
    """FlowResult of the exact time_one map: no steps, k passed through, the
    form margin bound (_form_margin) read at both boundary states."""
    geo = family.geometry
    out = family.time_one(zs)
    margin = min(_form_margin(family, family.omega(geo.fiber_eig(z), None, t), t)[1]
                 for z, t in ((zs, 0.0), (out, 1.0)))
    sup = np.maximum(np.linalg.norm(zs, axis=-1), np.linalg.norm(out, axis=-1))
    res = float(geo.alg.group_residual(ks).max())
    return FlowResult(ks, out, FlowTrace(0, margin, res, 0, sup, 0))


def flow_stages(stages, k0, z0):
    """Chain the stages, mapping those with a time_one map and flowing the rest;
    one FlowResult (the states after it) per stage."""
    results = []
    for stage in stages:
        fam = stage.family
        results.append(integrate_flow(fam, k0, z0, stage.steps)
                       if fam.time_one is None else _map_stage(fam, k0, z0))
        k0, z0 = results[-1].k, results[-1].z
    return results


# -- exponential-chart evaluation (shared by the Stokes and exactness checks) ------


def _dexp_matrix(alg, u_k):
    """Matrices of y -> d/de exp(u + e y) at e=0 in the frame exp(u)^-1 d exp.

    Equals sum_m (-ad_u)^m / (m+1)! on k, for a (..., dim_k) batch of u; the
    series is used only for small chart displacements, where ten terms are
    far below roundoff.
    """
    neg_ad = -alg.ad(alg.embed_k(u_k))[..., : alg.dim_k, : alg.dim_k]
    out = np.eye(alg.dim_k)
    term = np.eye(alg.dim_k)
    for m in range(1, 10):
        term = term @ neg_ad / (m + 1.0)
        out = out + term
    return out


def _chart_frames(geometry, k0, z0, pts):
    """Points and frame correction for the chart (x, w) -> (k0 exp(Cx), z0 + w).

    pts: (Q, T) chart coordinates, each node with its own base point k0
    (Q, a, a), z0 (Q, P).
    """
    alg = geometry.alg
    c = geometry.dim_c
    c_k = geometry.complement[: alg.dim_k]
    u_k = pts[:, :c] @ c_k.T
    ks = k0 @ alg.group_exp(u_k)
    zs = z0 + pts[:, c:]
    jacs = np.zeros((len(pts), geometry.dim_t, geometry.dim_t))
    jacs[:, :c, :c] = c_k.T @ _dexp_matrix(alg, u_k) @ c_k
    jacs[:, c:, c:] = np.eye(geometry.dim_p)
    return ks, zs, jacs


def _chart_form_matrices(geometry, omega, k0, z0, t, pts):
    ks, zs, jacs = _chart_frames(geometry, k0, z0, pts)
    spec = geometry.fiber_eig(zs)
    return np.swapaxes(jacs, -1, -2) @ omega(spec, geometry.kappa(ks), t) @ jacs


def _per_node(k0, z0, t, pts):
    """Flatten chart nodes pts (B, ..., T), repeating base point b and its time
    t[b] (a scalar t: one for all) per node; returns k0, z0, t, pts per node."""
    per = int(np.prod(pts.shape[1:-1]))
    base = (k0, z0, np.broadcast_to(t, len(z0)))
    return *(np.repeat(x, per, axis=0) for x in base), pts.reshape(-1, pts.shape[-1])


# oriented boundary faces (sign, vertex indices) of a tetrahedron
_TET_FACES = ((1.0, (1, 2, 3)), (-1.0, (0, 2, 3)), (1.0, (0, 1, 3)), (-1.0, (0, 1, 2)))


def stokes_closedness_residual(geometry, omega, k0, z0, t, frames, diameter):
    """Relative boundary-integral defect of omega over small 3-simplices.

    omega(spec, kap, t) -> (..., Q, T, T) takes one time per node (a
    FormFamily's omega, or a stack of several: the result keeps the leading
    axes).  k0 (B, a, a) and z0 (B, P) are base points with times t (B,) or
    one scalar; frames (B, n, T, 3) hold orthonormal edge directions of n
    tetrahedra at each, vertices 0 and diameter times the columns in the
    exponential chart at the base point.  The form is integrated over every
    oriented boundary face by the degree-5 triangle rule, all B n 4 7 nodes
    in one _chart_form_matrices call; for closed forms the sum is
    quadrature-exact zero.  Returns the worst relative defect per base point
    (..., B), zero where n = 0 (on a two-dimensional total space every
    2-form is closed).
    """
    t_dim = geometry.dim_t
    verts = np.zeros(frames.shape[:2] + (4, t_dim))
    verts[:, :, 1:] = diameter * np.swapaxes(frames, -1, -2)
    tri = verts[:, :, [face for _, face in _TET_FACES]]  # (B, n, 4, 3, T)
    pts = _TRI_BARY @ tri
    mats = _chart_form_matrices(geometry, omega, *_per_node(k0, z0, t, pts))
    mats = mats.reshape(mats.shape[:-3] + pts.shape + (t_dim,))
    vals = np.einsum(
        "...i,...qij,...j->...q", tri[..., 1, :] - tri[..., 0, :], mats,
        tri[..., 2, :] - tri[..., 0, :],
    )
    integral = 0.5 * (vals @ _TRI_W)  # (..., B, n, 4)
    total = integral @ np.array([sign for sign, _ in _TET_FACES])
    scale = np.abs(integral).sum(axis=-1)
    return (np.abs(total) / np.maximum(scale, 1e-300)).max(axis=-1, initial=0.0)


def primitive_exactness_residual(family, k0, z0, t, frames):
    """Check d mu_t = d omega_t/dt on small 2-simplices in the chart.

    k0 (B, a, a) and z0 (B, P) are base points with times t (B,) or one
    scalar; frames (B, T, 2) hold orthonormal directions, and the simplex at
    base point b has corners 0, h frames[b, :, 0] and h frames[b, :, 1] with
    h = 1e-2.  Compares the circulation of mu_t around its boundary (8-node
    Gauss-Legendre rule per edge, all B 3 8 edge nodes in one primitive
    evaluation) with the flux of the claimed derivative through it (degree-5
    triangle rule, all B 7 nodes in one form evaluation); both are O(h^2),
    and the returned (B,) values are their relative mismatch.
    """
    geometry = family.geometry
    h = 1e-2
    corners = np.zeros((len(z0), 3, geometry.dim_t))
    corners[:, 1:] = h * np.swapaxes(frames, -1, -2)
    # edge a -> b is b - a; the edge nodes are (B, 3, 8, T)
    edges = np.roll(corners, -1, axis=1) - corners
    nodes, weights = _edge_rule()
    pts = corners[:, :, None] + nodes[:, None] * edges[:, :, None]

    k_nodes, z_nodes, t_nodes, flat = _per_node(k0, z0, t, pts)
    ks, zs, jacs = _chart_frames(geometry, k_nodes, z_nodes, flat)
    kap = geometry.kappa(ks)
    mu = homotopy_primitive(family, geometry.fiber_eig(zs), kap, zs, t_nodes)
    mu = np.einsum("qji,qj->qi", jacs, mu).reshape(pts.shape)
    circulation = np.einsum("benj,bej,n->b", mu, edges, weights)

    quad_pts = _TRI_BARY @ corners
    sigma = _chart_form_matrices(
        geometry, family.domega_dt, *_per_node(k0, z0, t, quad_pts)
    ).reshape(quad_pts.shape + (geometry.dim_t,))
    vals = np.einsum("bi,bqij,bj->bq", corners[:, 1], sigma, corners[:, 2])
    flux = 0.5 * (vals @ _TRI_W)
    return np.abs(circulation - flux) / np.maximum(np.abs(flux), h * h)


# -- verification drivers ----------------------------------------------------------

# K-rotated partner lanes and zero-section lanes verify_pullback appends
_EQUIVARIANCE_PARTNERS = 4
_ZERO_LANES = 4


def _group_log(alg, g):
    """Coordinates of the principal logarithm of a stack of elements of K.

    The Cayley transform H = i (1 - g)(1 + g)^{-1} is Hermitian for unitary
    g, with eigenvalues w = tan(theta / 2) at the eigenvalues e^{i theta} of
    g, so log g = i V diag(2 arctan w) V^H from one batched eigh.  Domain: g
    has no eigenvalue -1 (|theta| < pi); the relative rotations of a central
    difference lie within O(eps) of the identity.
    """
    g = np.asarray(g, dtype=complex)
    eye = np.eye(g.shape[-1])
    h = 1j * np.linalg.solve(eye + g, eye - g)
    w, v = np.linalg.eigh(0.5 * (h + np.conj(np.swapaxes(h, -1, -2))))
    return alg.coords((v * (2j * np.arctan(w))[..., None, :]) @ alg.group_inverse(v))


@dataclass
class FlowBlock:
    """Per-sample certificate values of the flow between stage boundaries i -> j.

    defect (B, T, T) is J_j omega(1) J_j^T - J_i omega(0) J_i^T, J_s the
    Jacobian of the flow up to boundary s (J_0 = I), omega the forms of the
    first and last stage spanned; shift (B, N) the moment change;
    equivariance one residual of the flow up to j per partner lane (partner p
    belongs to sample p); zero_section the zero-section lanes' displacement.
    """

    defect: np.ndarray
    shift: np.ndarray
    equivariance: np.ndarray
    zero_section: float
    traces: list  # the FlowTraces of the stages spanned

    def values(self, count):
        """The block's reported values, read at its first count samples."""
        shift, traces = self.shift[:count], self.traces
        return {
            "pullback_residual": float(np.abs(self.defect[:count]).max(initial=0.0)),
            "moment_shift_mean": shift.mean(axis=0),
            "moment_shift_spread": float(np.ptp(shift, axis=0).max()) if len(shift) else 0.0,
            "equivariance_residual": float(np.max(self.equivariance[:count], initial=0.0)),
            "zero_section_displacement": self.zero_section,
            "min_form_margin": float(np.min([tr.min_form_margin for tr in traces])),
            "max_group_residual": float(np.max([tr.max_group_residual for tr in traces])),
            "reprojections": sum(tr.reprojections for tr in traces),
            # four field evaluations per RK4 step
            "field_evaluations": sum(4 * tr.steps for tr in traces),
            "field_lanes": sum(tr.field_lanes for tr in traces),
            "fiber_sup": float(np.max([tr.fiber_sup.max() for tr in traces])),
        }


def _base_rows(geometry, start, end, fiber_rows):
    """Tangent images (B, c, T) of the base directions, from the fiber ones.

    The flow is K-equivariant: Phi(k, Z) = (k R(W), Ad(k R(W)) W_1(W)) with
    W = Ad(k^{-1}) Z.  Moving k to k exp(eps C_i) moves W as the fiber shift
    u_i = -[Ad(k_0) C_i, Z_0]_p does, and moves the image by exp(eps Ad(k_0)
    C_i) on the left, so with R = k_0^{-1} k_1

        jac[b, i] = (proj_c Ad(R^{-1}) C_i, [Ad(k_0) C_i, Z_1]_p)
                    + sum_j u_ij jac[b, dim_c + j].

    start and end are the samples' (FiberSpectrum, Ad(k^{-1})) before and
    after the flow, and fiber_rows (B, P, T) the rows jac[b, dim_c:].  For X
    in k, [X, Z]_p = -A^T X with A the k-p block of ad(Z).
    """
    dk = geometry.alg.dim_k
    c_k = geometry.complement[:dk]
    (spec0, kap0), (spec1, kap1) = start, end
    moved = np.swapaxes(kap0[:, :dk, :dk], -1, -2) @ c_k  # Ad(k_0) C_i, (B, K, c)
    shift = np.swapaxes(spec0.a, -1, -2) @ moved  # u_i as columns, (B, P, c)
    cols = np.concatenate(
        [c_k.T @ (kap1[:, :dk, :dk] @ moved), -(np.swapaxes(spec1.a, -1, -2) @ moved)],
        axis=-2,
    )
    return np.swapaxes(cols, -1, -2) + np.swapaxes(shift, -1, -2) @ fiber_rows


def verify_pullback(stages, base_k, base_z, eps=1e-4, *, rng):
    """Certify rho^*(final form) = initial form at samples base_k, base_z.

    Every sample contributes one center lane and 2 dim_p fiber lanes, shifted
    by +-eps along each fiber direction; _EQUIVARIANCE_PARTNERS partners (the
    first samples moved by K elements drawn from rng) and _ZERO_LANES
    zero-section lanes are appended, and the batch is flowed once through
    the stages.  At every stage boundary the fiber rows of the differential
    are central differences (group logarithms for the K part), and the base
    rows follow from them by K-equivariance (_base_rows), which the partner
    lanes certify.  Returns the composite's values (FlowBlock.values at every
    sample) and sample separations, and the FlowBlocks of the composite
    ("block") and of each stage ("stage_blocks").  One geometry for all stages.
    """
    geometry = stages[0].family.geometry
    alg = geometry.alg
    a, dk, dim_p, t_dim = alg.ambient, alg.dim_k, geometry.dim_p, geometry.dim_t
    b0 = len(base_z)

    # (sample, fiber direction, sign + then -)
    shifts = eps * np.array([1.0, -1.0])[:, None] * np.eye(dim_p)[:, None]
    pert_z = (base_z[:, None, None] + shifts).reshape(-1, dim_p)

    n_eq = min(_EQUIVARIANCE_PARTNERS, b0)
    eq_k = alg.group_exp(rng.standard_normal((n_eq, dk)))
    eq_ad = alg.adjoint_group_matrix(eq_k)

    def moved(ks, zs):
        # the first n_eq lanes of (ks, zs) moved by the partners' K elements
        return eq_k @ ks[:n_eq], (eq_ad @ alg.embed_p(zs[:n_eq])[..., None])[:, dk:, 0]

    eq_idx = b0 * (1 + 2 * dim_p)
    zero_idx = eq_idx + n_eq
    zero_k = alg.group_exp(rng.standard_normal((_ZERO_LANES, dk)))
    partner_k, partner_z = moved(base_k, base_z)
    lanes_k = [base_k, np.repeat(base_k, 2 * dim_p, axis=0), partner_k, zero_k]
    lanes_z = [base_z, pert_z, partner_z, np.zeros((_ZERO_LANES, dim_p))]

    states = [(np.concatenate(lanes_k), np.concatenate(lanes_z))]
    results = flow_stages(stages, *states[0])
    states += [(res.k, res.z) for res in results]
    points = [(geometry.fiber_eig(zs[:b0]), geometry.kappa(ks[:b0])) for ks, zs in states]

    def jacobian(s):
        # jac[b, i] is the tangent image of direction i at sample b
        ks, zs = states[s]
        k_pert = ks[b0:eq_idx].reshape(b0, dim_p, 2, a, a)
        z_pert = zs[b0:eq_idx].reshape(b0, dim_p, 2, dim_p)
        rel = alg.group_inverse(ks[:b0])[:, None, None] @ k_pert
        x_log = _group_log(alg, rel)[..., :dk]
        fiber = np.concatenate(
            [(x_log[:, :, 0] - x_log[:, :, 1]) @ geometry.complement[:dk],
             z_pert[:, :, 0] - z_pert[:, :, 1]],
            axis=-1,
        ) / (2 * eps)
        return np.concatenate([_base_rows(geometry, points[0], points[s], fiber), fiber], axis=1)

    jacs = [np.eye(t_dim)] + [jacobian(s) for s in range(1, len(states))]

    def pulled(s, family, t):
        return jacs[s] @ family.omega(*points[s], t) @ np.swapaxes(jacs[s], -1, -2)

    def block(i, j):
        first, last = stages[i].family, stages[j - 1].family
        ks, zs = states[j]
        want_k, want_z = moved(ks, zs)
        eq = np.maximum(np.abs(ks[eq_idx:zero_idx] - want_k).max(axis=(-2, -1)),
                        np.abs(zs[eq_idx:zero_idx] - want_z).max(axis=-1))
        zero = np.max([np.linalg.norm(zs[zero_idx:], axis=-1).max(initial=0.0),
                       np.abs(ks[zero_idx:] - states[i][0][zero_idx:]).max(initial=0.0)])
        return FlowBlock(
            pulled(j, last, 1.0) - pulled(i, first, 0.0),
            last.moment(*points[j], 1.0) - first.moment(*points[i], 0.0),
            eq,
            float(zero),
            [res.trace for res in results[i:j]],
        )

    def min_separation(ks, zs):
        flat = np.concatenate(
            [ks[:b0].reshape(b0, -1).real, ks[:b0].reshape(b0, -1).imag, zs[:b0]], axis=1
        )
        d = np.linalg.norm(flat[:, None] - flat[None, :], axis=-1)
        return float(d[np.triu_indices(b0, 1)].min()) if b0 > 1 else np.inf

    composite = block(0, len(stages))
    return {
        **composite.values(b0),
        "min_image_separation": min_separation(*states[-1]),
        "min_source_separation": min_separation(*states[0]),
        "block": composite,
        "stage_blocks": [block(s, s + 1) for s in range(len(stages))],
    }


# -- hypothesis checks -------------------------------------------------------------


def _root_probe_fibers(geometry, radii=(0.2, 0.4)):
    """Small fiber vectors along every positive noncompact root plane.

    The quadratic properness bounds are saturated (up to O(||Z||^2)
    corrections) exactly on these directions, so including them makes the
    fitted constant converge to the analytic one.
    """
    alg = geometry.alg
    probes = []
    for root in geometry.datum.positive_noncompact():
        for part in (root.vector.real, root.vector.imag):
            vec = part[alg.dim_k :]
            norm = np.linalg.norm(vec)
            if norm < 1e-12:
                continue
            for r in radii:
                probes.append(r * vec / norm)
    return probes


def random_points(geometry, rng, count, radii):
    """count points (k, Z): all k normals, then all Z normals, then all |Z|
    uniform in radii = (low, high).  Returns ks (count, a, a), zs (count, P)."""
    alg = geometry.alg
    ks = alg.group_exp(rng.standard_normal((count, alg.dim_k)))
    zs = rng.standard_normal((count, geometry.dim_p))
    return ks, zs * (rng.uniform(*radii, count) / np.linalg.norm(zs, axis=1))[:, None]


def properness_fit(families, rng):
    """Fitted quadratic growth constants of the moment families, one each.

    min over samples and t of <Phi_t(k,Z) - Phi_t(k,0), n_t> / ||Z||^2 with
    n_t the family's unit pairing direction (z0-hat for the product-side
    families, H_{lambda_t}-hat for the segment).  60 random points with
    ||Z|| in [0.2, 2.5] are mixed with root-plane probes so the minimum
    lands on the saturating rays.  The families share the draw, and the
    sampled and zero fibers one spectrum and kappa; each family takes one
    moment call on _PROPERNESS_GRID.
    """
    geometry = families[0].geometry
    a = geometry.alg.ambient
    ks, zs = random_points(geometry, rng, 60, (0.2, 2.5))
    probes = _root_probe_fibers(geometry)
    ks = np.concatenate([ks, np.broadcast_to(np.eye(a, dtype=complex), (len(probes), a, a))])
    zs = np.concatenate([zs, np.stack(probes)])
    n, t = len(zs), np.array(_PROPERNESS_GRID)[:, None]
    spec = geometry.fiber_eig(np.concatenate([zs, np.zeros_like(zs)]))
    kap = np.concatenate([geometry.kappa(ks)] * 2)
    fits = []
    for family in families:
        phi = family.moment(spec, kap, t)
        gap = (phi[:, :n] - phi[:, n:]) @ np.swapaxes(family.pairing_direction(t), -1, -2)
        fits.append(float((gap[..., 0] / np.linalg.norm(zs, axis=1) ** 2).min()))
    return fits


def properness_gamma(family):
    """Fitted growth exponent of the moment gap along a root-plane ray.

    Log-log least-squares slope of <Phi_t(e, rV) - Phi_t(e, 0), n_t> against
    r at t = 0.5 and six radii r in [0.05, 0.4], in closed form on centred
    logs; the quadratic-growth hypothesis predicts a slope of 2 for small
    radii.  The ray and its zero fibers take one moment call.
    """
    t, radii = 0.5, np.geomspace(0.05, 0.4, 6)
    geometry = family.geometry
    direction = _root_probe_fibers(geometry, radii=(1.0,))[0]
    zs = np.concatenate([np.outer(radii, direction), np.zeros((6, len(direction)))])
    phi = family.moment(geometry.fiber_eig(zs), None, t)  # k = e
    vals = (phi[:6] - phi[6:]) @ family.pairing_direction(t)
    x, y = np.log(radii), np.log(vals)
    x, y = x - x.mean(), y - y.mean()
    return float(x @ y / (x @ x))


def _draw_chart_points(geometry, rng, count, n_tets):
    """Base points and simplex frames, drawn point by point in a fixed order.

    Per point: k0, z0, the n_tets tetrahedron frames (none when dim_t < 3,
    where the Stokes check is vacuous) and the triangle frame.  Returns k0
    (B, a, a), z0 (B, P), tetrahedron frames (B, n, T, 3) and triangle
    frames (B, T, 2), each frame orthonormalised by QR.
    """
    alg, t_dim = geometry.alg, geometry.dim_t
    n_tets = n_tets if t_dim >= 3 else 0
    draws = [
        (
            rng.standard_normal(alg.dim_k),
            rng.standard_normal(geometry.dim_p),
            rng.standard_normal((n_tets, t_dim, 3)),
            rng.standard_normal((t_dim, 2)),
        )
        for _ in range(count)
    ]
    k, z0, tets, tris = (np.array(x) for x in zip(*draws))
    frames = np.linalg.qr(tets)[0].reshape(tets.shape)  # QR gives n = 0 as (B, 0, T, T)
    return alg.group_exp(k), z0, frames, np.linalg.qr(tris)[0]


# the worst-case values check_hypotheses reports, each over every stage and t
_HYPOTHESIS_VALUES = (
    "closedness_rel_residual", "primitive_exactness_residual",
    "zero_section_cross_block", "zero_section_dt_restriction",
    "zero_section_endpoint_restriction", "zero_section_primitive_sup",
    "zero_section_moment_sup", "orthogonality_nullspace_residual",
)


def check_hypotheses(stages, rng):
    """Static hypothesis checks for a stage list.

    This certifies, at randomly sampled points and family times: each
    omega_t is closed (Stokes on random tetrahedra) and the radial primitive
    integrates its time derivative (circulation vs flux on 2-simplices); on
    the zero section the forms have no base-fiber coupling, the time
    derivative and the endpoint difference omega_1 - omega_0 both restrict
    to zero, the primitive vanishes, the moment norms stay bounded (sup
    reported), and the symplectic orthogonal of the section (a null space of
    the base rows) is exactly the fiber.  Each moment family's fitted growth
    constant and exponent are reported against its properness_bound.  A
    mapped stage (FormFamily.time_one) skips the three primitive values
    (exactness, zero-section primitive sup, dt restriction).

    One pass for all stages: six base points, two at each of t = 0, 0.5 and
    1, with two tetrahedra of diameter 1e-2 and one triangle each, are drawn
    first (_draw_chart_points), then the properness points.  The Stokes
    nodes take one chart, spectrum and kappa for every family's omega; the
    exactness nodes of each flowed family and the zero-section blocks are
    each one batched evaluation.  Every value is the np.max of its parts, so
    a NaN anywhere is reported.  The stages share one geometry.
    """
    families = [stage.family for stage in stages]
    geometry = families[0].geometry
    worst = {key: [] for key in _HYPOTHESIS_VALUES}
    ts = np.repeat([0.0, 0.5, 1.0], 2)
    k0, z0, tet_frames, tri_frames = _draw_chart_points(geometry, rng, len(ts), 2)
    fits = properness_fit(families, rng)
    worst["closedness_rel_residual"].append(stokes_closedness_residual(
        geometry, lambda spec, kap, t: np.stack([fam.omega(spec, kap, t) for fam in families]),
        k0, z0, ts, tet_frames, 1e-2).max())
    zero_fiber = np.zeros((len(ts), geometry.dim_p))
    spec_zero, kap0 = geometry.fiber_eig(zero_fiber), geometry.kappa(k0)
    c = geometry.dim_c
    for fam in families:
        flowed = fam.time_one is None
        block, moment = fam.omega(spec_zero, kap0, ts), fam.moment(spec_zero, kap0, ts)
        worst["zero_section_moment_sup"].append(np.linalg.norm(moment, axis=-1).max())
        if flowed:
            exact = primitive_exactness_residual(fam, k0, z0, ts, tri_frames)
            mu0 = homotopy_primitive(fam, spec_zero, kap0, zero_fiber, ts)
            worst["primitive_exactness_residual"].append(exact.max())
            worst["zero_section_primitive_sup"].append(np.abs(mu0).max())
        if c == 0:
            continue
        worst["zero_section_cross_block"].append(np.abs(block[:, :c, c:]).max())
        if flowed:
            sigma0 = fam.domega_dt(spec_zero, kap0, ts)
            worst["zero_section_dt_restriction"].append(np.abs(sigma0[:, :c, :c]).max())
        end0, end1 = fam.omega(spec_zero, kap0, np.array([[0.0], [1.0]]))
        worst["zero_section_endpoint_restriction"].append(
            np.abs((end1 - end0)[:, :c, :c]).max()
        )
        # symplectic orthogonal of the zero section: null space of the base
        # rows of omega_t must have fiber dimension and no base component
        _, svals, vt = np.linalg.svd(block[:, :c, :])
        pad = np.zeros((len(svals), geometry.dim_t - c))
        small = np.concatenate([svals, pad], axis=-1) < (
            1e-10 * np.maximum(svals.max(axis=-1), 1.0)
        )[:, None]
        worst["orthogonality_nullspace_residual"].append(
            np.inf if (small.sum(axis=-1) != geometry.dim_p).any()
            else np.abs(vt[small][:, :c]).max()
        )
    properness = [{"stage": fam.name, "d_fit": fit, "d_analytic": fam.properness_bound,
                   "ratio": fit / fam.properness_bound, "gamma_fit": properness_gamma(fam)}
                  for fam, fit in zip(families, fits)]
    out = {key: float(np.max(vals, initial=0.0)) for key, vals in worst.items()}
    return {**out, "properness": properness}
