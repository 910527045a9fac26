"""Moser isotopies between the model symplectic structures.

A FormFamily is a t-family of closed 2-forms on the model K x p together
with its time derivative and a compatible family of moment maps.  The Moser
construction turns each family into a flow: the time derivative is made
exact by the radial homotopy primitive (fiber scaling (k, Z) -> (k, sZ)),
the Moser field solves iota(xi) omega_t = -mu_t, and a fourth-order
integrator in body coordinates (integrate_flow) transports points so that
the time-one map pulls the final form back to the initial one.

Three concrete stages compose to the full isotopy:

    hermitian   product form  ->  delta form at delta = 1,
    scaling     delta = 1     ->  delta = delta,
    segment     delta form    ->  pullback of the orbit form
                (the segment family traversed from the delta end).

The hermitian and scaling fields are vertical and K-equivariant, so their
time-one maps are radial maps fixed by equal areas (McDuff, J. Differential
Geom. 28 (1988)), which flow_stages applies exactly (FormFamily.time_one).

The verification drivers flow perturbed initial points through the stages
once and compare central-difference differentials at every stage boundary
against the claimed pullback identity of the composite and of each stage
(FlowBlock), transport moment maps, and check the standing hypotheses
(closedness via Stokes on exponential-chart simplices, exactness of the
primitive, zero section behaviour, properness constants of the moment
families).  The chart checks take a leading batch of base points (B, ...)
with one family time each and their simplex frames, and evaluate every
quadrature node of every simplex in one batched call, each node carrying
its own base point and time (FormFamily takes time as a batch axis).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import cache

import numpy as np

from .forms import OrbitGeometry, difference_lanes
from .operators import hermitian_radial
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
    matrices are given; primitive maps (spec, kap, zp, t) to the (..., T)
    radial homotopy primitive of domega_dt (see homotopy_primitive); moment
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
    integrate_flow; None for the segment.  Such families do not move the base
    (moves_base): omega and primitive never read kap and the Moser field is
    exactly vertical, so the chart checks skip kappa and the group points.
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

    @property
    def moves_base(self):
        return self.time_one is None


# family times of the properness fit and of the segment stage's analytic bound
_PROPERNESS_GRID = tuple(np.linspace(0.0, 1.0, 11))


def _z0_direction(geometry):
    z0 = geometry.z0
    return lambda t: np.broadcast_to(z0 / np.linalg.norm(z0), np.shape(t) + z0.shape)


def _radial_row(geometry, row_p, block):
    """Primitive (..., T): zero base part, fiber part row_p . even(F).

    F(nu) = int_0^1 r f(r nu) dr is even, so only its p-p block acts on the
    p-part row_p (B, P) of the row.  block is that p-p block even(F) (with a
    time axis in front for a time grid), F in closed form as a function of
    s = nu^2: G (FiberSpectrum.even_g) for f = f_plus, hermitian_radial for
    f(nu) = nu f_plus'(t nu).
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
    c = geometry.fiber_eig(e[None]).s.max()
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
        row, t = zp @ geometry.m_lam0_pp, np.expand_dims(t, -1)
        return _radial_row(geometry, row, spec.even(lambda s: hermitian_radial(s, t)))

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
    """Delta form to the orbit pullback: the segment family from its delta end."""

    def omega(spec, kap, t):
        pull = geometry.pullback_blocks(spec, kap)
        dl, t = geometry.delta_blocks(spec, delta), np.expand_dims(t, (-2, -1))
        return (1.0 - t) * dl + t * pull

    def domega(spec, kap, t):
        return geometry.pullback_blocks(spec, kap) - geometry.delta_blocks(spec, delta)

    def primitive(spec, kap, zp, t):
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
    """Primitive mu_t of d omega_t/dt from the fiber-scaling homotopy.

    mu|_(k,Z)(u) = int_0^1 sigma|_(k,sZ)((0, Z), (u_base, s u_fiber)) ds,
    valid because each sigma is closed and has no base-base component along
    the zero section.  Since ad(Z)Z = 0, every spectral function g(s ad Z)
    maps Z to g(0) Z, so contracting sigma at (k, sZ) with (0, Z) leaves one
    spectral function of ad(Z) per stage: the base part vanishes and the
    fiber part is row . F(ad Z)[:, p] with F(nu) = int_0^1 s f(s nu) ds.
    F is even and known in closed form as a function of nu^2 (see
    _radial_row): 2 sinh(nu/2)^2/nu^2 for the scaling and segment stages,
    (f_plus(t nu) - 2 G(t nu))/t for the hermitian one.  Each family
    supplies that closed form as its primitive; the quadrature over the
    full sigma it replaces is the test oracle quadrature_primitive.
    Returns covector components (..., T).
    """
    return family.primitive(spec, kap, zp, t)


def _form_margin(family, omega, t, margin_ref=None):
    """Least singular value of the forms omega (B, T, T) on the margin lanes.

    margin_ref (B,) maps each lane to the margin lane bounding it (None: each
    lane itself); only margin lanes take an svd.  Every lane is guarded by
    Weyl's sigma_min(w) >= sigma_min(w_ref) - ||w - w_ref||_F (Horn and
    Johnson, Matrix Analysis, 7.3): a bound below 1e-10 raises RuntimeError,
    as do a form with non-finite entries (checked before LAPACK sees it) and
    an svd that does not converge, each naming the family and t.
    """
    where = f"{family.name} form at t = {t:.4f}"
    if not np.isfinite(omega).all():
        raise RuntimeError(f"{where} has non-finite entries")
    ref = np.arange(len(omega)) if margin_ref is None else margin_ref
    rows = ref == np.arange(len(omega))
    sigma = np.zeros(len(omega))
    try:
        sigma[rows] = np.linalg.svd(omega[rows], compute_uv=False)[..., -1]
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"{exc} ({where})") from exc
    gap = omega - omega[ref]
    bound = float((sigma[ref] - np.sqrt(np.einsum("bij,bij->b", gap, gap))).min())
    if not bound >= 1e-10:
        raise RuntimeError(
            f"{family.name} family degenerates along the flow "
            f"(margin {bound:.3e} at t = {t:.4f})"
        )
    return float(sigma[rows].min())


def moser_field(family, kap, zs, t, margin_ref=None):
    """Moser field xi_t with iota(xi) omega_t = -mu_t; (B, T) tangent coords.

    kap: the points' Ad(k^{-1}) matrices, or one for all (integrate_flow
    passes the identity).  Returns xi and _form_margin's margin.
    """
    geo = family.geometry
    spec = geo.fiber_eig(zs)
    omega = family.omega(spec, kap, t)
    margin = _form_margin(family, omega, t, margin_ref)
    mu = homotopy_primitive(family, spec, kap, zs, t)
    xi = np.linalg.solve(omega, mu[..., None])[..., 0]
    return xi, margin


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


def integrate_flow(family, k0, z0, steps, z_ceiling=None, margin_ref=None):
    """Flow the Moser field of the family from t = 0 to 1 (order four).

    Precondition: K-invariant forms and primitive (at (k, Ad(k) W) they are R^T
    (value at (e, W)) R, R = diag(I_c, Ad(k^{-1})|_p)), so W = Ad(k^{-1}) Z
    obeys W' = A(e, W) - [X(e, W), W], X and A the field's base and fiber
    parts (symmetry reduction).  W takes plain RK4 steps; k' = k X(e, W) is
    rebuilt in the chart k exp(u) with the truncated dexpinv (RKMK, one
    group_exp per step), and Z = Ad(k) W.  k0: (B, a, a) group elements, z0:
    (B, dim_p).  Drift off K beyond 1e-12, at entry or after a step, triggers
    a polar reprojection.  A fiber norm ceiling (default ten times the
    initial bound) aborts escaping flows.  margin_ref picks the lanes whose
    form margins take an svd (_form_margin).
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
    identity = np.eye(alg.dim)
    min_margin = np.inf

    def field(t_arg, w):
        # the base velocity X(e, W) in k and the body velocity of W
        nonlocal min_margin
        xi, margin = moser_field(family, identity, w, t_arg, margin_ref)
        min_margin = min(min_margin, margin)
        x = xi[:, : geo.dim_c] @ geo.complement[:dk].T
        return x, xi[:, geo.dim_c :] - alg.bracket(alg.embed_k(x), alg.embed_p(w))[:, dk:]

    for n in range(steps):
        t = n * h
        x1, a1 = field(t, ws)
        x2, a2 = field(t + 0.5 * h, ws + 0.5 * h * a1)
        x3, a3 = field(t + 0.5 * h, ws + 0.5 * h * a2)
        x4, a4 = field(t + h, ws + h * a3)
        x2 = _dexpinv(alg, 0.5 * h * x1, x2)
        x3 = _dexpinv(alg, 0.5 * h * x2, x3)
        x4 = _dexpinv(alg, h * x3, x4)
        ks = ks @ alg.group_exp((h / 6.0) * (x1 + 2 * x2 + 2 * x3 + x4))
        ws = ws + (h / 6.0) * (a1 + 2 * a2 + 2 * a3 + a4)
        norms = np.linalg.norm(ws, axis=-1)
        fiber_sup = np.maximum(fiber_sup, norms)
        if norms.max() > z_ceiling:
            raise RuntimeError(
                f"{family.name} flow escaped the fiber ceiling "
                f"{z_ceiling:.2f} at t = {t + h:.4f}"
            )
        res = float(alg.group_residual(ks).max())
        max_res = max(max_res, res)
        if res > 1e-12:
            ks = alg.group_project(ks)
            reproj += 1
    zs = (alg.adjoint_group_matrix(ks)[:, dk:, dk:] @ ws[..., None])[..., 0]
    lanes = 4 * steps * len(ws)  # every field evaluation takes every lane
    trace = FlowTrace(steps, float(min_margin), max_res, reproj, fiber_sup, lanes)
    return FlowResult(ks, zs, trace)


def _map_stage(family, ks, zs, margin_ref=None):
    """FlowResult of the exact time_one map: no steps, k passed through, the
    form margin read at both boundary states on the margin lanes."""
    geo = family.geometry
    out = family.time_one(zs)
    rows = slice(None) if margin_ref is None else margin_ref == np.arange(len(zs))
    margin = min(_form_margin(family, family.omega(geo.fiber_eig(z[rows]), None, t), t)
                 for z, t in ((zs, 0.0), (out, 1.0)))
    sup = np.maximum(np.linalg.norm(zs, axis=-1), np.linalg.norm(out, axis=-1))
    res = float(geo.alg.group_residual(ks).max())
    return FlowResult(ks, out, FlowTrace(0, margin, res, 0, sup, 0))


def flow_stages(stages, k0, z0, margin_ref=None):
    """Chain the stages, mapping those with a time_one map and flowing the rest;
    one FlowResult (the states after it) per stage, margin_ref as in _form_margin."""
    results = []
    for stage in stages:
        fam = stage.family
        results.append(integrate_flow(fam, k0, z0, stage.steps, margin_ref=margin_ref)
                       if fam.time_one is None else _map_stage(fam, k0, z0, margin_ref))
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


def _chart_frames(geometry, k0, z0, pts, moves_base):
    """Points and frame correction for the chart (x, w) -> (k0 exp(Cx), z0 + w).

    pts: (Q, T) chart coordinates, each node with its own base point k0
    (Q, a, a), z0 (Q, P).  With moves_base False (a family that never reads
    Ad(k^{-1})) the group points are not formed and ks is None.
    """
    alg = geometry.alg
    c = geometry.dim_c
    c_k = geometry.complement[: alg.dim_k]
    u_k = pts[:, :c] @ c_k.T
    ks = k0 @ alg.group_exp(u_k) if moves_base else None
    zs = z0 + pts[:, c:]
    jacs = np.zeros((len(pts), geometry.dim_t, geometry.dim_t))
    jacs[:, :c, :c] = c_k.T @ _dexp_matrix(alg, u_k) @ c_k
    jacs[:, c:, c:] = np.eye(geometry.dim_p)
    return ks, zs, jacs


def _chart_form_matrices(geometry, omega, k0, z0, t, pts, moves_base):
    ks, zs, jacs = _chart_frames(geometry, k0, z0, pts, moves_base)
    spec = geometry.fiber_eig(zs)
    kap = geometry.kappa(ks) if moves_base else None
    return np.swapaxes(jacs, -1, -2) @ omega(spec, kap, t) @ jacs


def _per_node(k0, z0, t, pts):
    """Flatten chart nodes pts (B, ..., T), repeating base point b and its time
    t[b] (a scalar t: one for all) per node; returns k0, z0, t, pts per node."""
    per = int(np.prod(pts.shape[1:-1]))
    base = (k0, z0, np.broadcast_to(t, len(z0)))
    return *(np.repeat(x, per, axis=0) for x in base), pts.reshape(-1, pts.shape[-1])


# oriented boundary faces (sign, vertex indices) of a tetrahedron
_TET_FACES = ((1.0, (1, 2, 3)), (-1.0, (0, 2, 3)), (1.0, (0, 1, 3)), (-1.0, (0, 1, 2)))


def stokes_closedness_residual(
    geometry, omega, k0, z0, t, frames, diameter, moves_base=True
):
    """Relative boundary-integral defect of omega over small 3-simplices.

    omega(spec, kap, t) -> (Q, T, T) takes one time per node (a FormFamily's
    omega); with moves_base False it is handed kap = None
    (FormFamily.moves_base).  k0 (B, a, a) and z0 (B, P) are base points with
    times t (B,) or one scalar; frames (B, n, T, 3) hold orthonormal edge
    directions of n tetrahedra at each, with vertices 0 and diameter times
    the columns in the exponential chart at the base point.  The form is
    integrated over every oriented boundary face by the degree-5 triangle
    rule, all B n 4 7 nodes in one _chart_form_matrices call; for closed
    forms the sum is quadrature-exact zero.  Returns the worst relative
    defect per base point (B,).  On a two-dimensional total space every
    2-form is closed and the check is vacuous (zeros; frames is not read).
    """
    if geometry.dim_t < 3:
        return np.zeros(len(z0))
    t_dim = geometry.dim_t
    verts = np.zeros(frames.shape[:2] + (4, t_dim))
    verts[:, :, 1:] = diameter * np.swapaxes(frames, -1, -2)
    tri = verts[:, :, [face for _, face in _TET_FACES]]  # (B, n, 4, 3, T)
    pts = _TRI_BARY @ tri
    mats = _chart_form_matrices(
        geometry, omega, *_per_node(k0, z0, t, pts), moves_base
    ).reshape(pts.shape + (t_dim,))
    vals = np.einsum(
        "...i,...qij,...j->...q", tri[..., 1, :] - tri[..., 0, :], mats,
        tri[..., 2, :] - tri[..., 0, :],
    )
    integral = 0.5 * (vals @ _TRI_W)  # (B, n, 4)
    total = integral @ np.array([sign for sign, _ in _TET_FACES])
    scale = np.abs(integral).sum(axis=-1)
    return (np.abs(total) / np.maximum(scale, 1e-300)).max(axis=-1)


def primitive_exactness_residual(family, k0, z0, t, frames):
    """Check d mu_t = d omega_t/dt on small 2-simplices in the chart.

    k0 (B, a, a) and z0 (B, P) are base points with times t (B,) or one
    scalar; frames (B, T, 2) hold orthonormal directions, and the simplex at
    base point b has corners 0, h frames[b, :, 0] and h frames[b, :, 1] with
    h = 1e-2.  Compares the circulation of mu_t around its boundary (8-node
    Gauss-Legendre rule per edge, all B 3 8 edge nodes in one primitive
    evaluation) with the flux of the claimed derivative through it (degree-5
    triangle rule, all B 7 nodes in one form evaluation); both are O(h^2),
    and the returned (B,) values are their relative mismatch.  A family that
    does not move the base is evaluated without Ad(k^{-1}) and without the
    group points of the nodes.
    """
    geometry = family.geometry
    moves = family.moves_base
    h = 1e-2
    corners = np.zeros((len(z0), 3, geometry.dim_t))
    corners[:, 1:] = h * np.swapaxes(frames, -1, -2)
    # edge a -> b is b - a; the edge nodes are (B, 3, 8, T)
    edges = np.roll(corners, -1, axis=1) - corners
    nodes, weights = _edge_rule()
    pts = corners[:, :, None] + nodes[:, None] * edges[:, :, None]

    k_nodes, z_nodes, t_nodes, flat = _per_node(k0, z0, t, pts)
    ks, zs, jacs = _chart_frames(geometry, k_nodes, z_nodes, flat, moves)
    kap = geometry.kappa(ks) if moves else None
    mu = homotopy_primitive(family, geometry.fiber_eig(zs), kap, zs, t_nodes)
    mu = np.einsum("qji,qj->qi", jacs, mu).reshape(pts.shape)
    circulation = np.einsum("benj,bej,n->b", mu, edges, weights)

    quad_pts = _TRI_BARY @ corners
    sigma = _chart_form_matrices(
        geometry, family.domega_dt, *_per_node(k0, z0, t, quad_pts), moves
    ).reshape(quad_pts.shape + (geometry.dim_t,))
    vals = np.einsum("bi,bqij,bj->bq", corners[:, 1], sigma, corners[:, 2])
    flux = 0.5 * (vals @ _TRI_W)
    return np.abs(circulation - flux) / np.maximum(np.abs(flux), h * h)


# -- verification drivers ----------------------------------------------------------


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


def verify_pullback(stages, base_points, eps=1e-4, n_equivariance=4, n_zero=4, *, rng):
    """Certify rho^*(final form) = initial form at the base points.

    Every sample contributes one center lane and its 2 dim_t
    forms.difference_lanes; equivariance partners (their K elements drawn
    from rng) and zero-section lanes are appended, and the whole batch is
    flowed once through the stages.  Differentials come from central
    differences (group logarithms for the K part) at every stage boundary.
    Returns the composite's values (FlowBlock.values at every sample) and
    sample separations, and the FlowBlocks of the composite ("block") and of
    each stage ("stage_blocks").  The stages share one geometry.
    """
    geometry = stages[0].family.geometry
    alg = geometry.alg
    a, dim_p, t_dim = alg.ambient, geometry.dim_p, geometry.dim_t
    b0 = len(base_points)

    base_k = np.array([k for k, _ in base_points], dtype=complex).reshape(b0, a, a)
    base_z = np.array([z for _, z in base_points], dtype=float).reshape(b0, dim_p)
    pert_k, pert_z = difference_lanes(geometry, base_k, base_z, eps)
    lanes_k, lanes_z = [base_k, pert_k], [base_z, pert_z]

    n_eq = min(n_equivariance, b0)
    eq_rot = []
    for j in range(n_eq):
        kp = alg.group_exp(rng.standard_normal(alg.dim_k))
        adk = alg.adjoint_group_matrix(kp)
        eq_rot.append((kp, adk))
        lanes_k.append((kp @ base_k[j])[None])
        lanes_z.append((adk @ alg.embed_p(base_z[j]))[None, alg.dim_k :])

    eq_idx = b0 * (1 + 2 * t_dim)
    zero_idx = eq_idx + n_eq
    lanes_k.append(alg.group_exp(rng.standard_normal((n_zero, alg.dim_k))))
    lanes_z.append(np.zeros((n_zero, dim_p)))

    states = [(np.concatenate(lanes_k), np.concatenate(lanes_z))]
    # only centres, partners and zero-section lanes take an exact form margin
    margin_ref = np.arange(zero_idx + n_zero)
    margin_ref[b0:eq_idx] = np.repeat(np.arange(b0), 2 * t_dim)
    results = flow_stages(stages, *states[0], margin_ref)
    states += [(res.k, res.z) for res in results]
    points = [(geometry.fiber_eig(zs[:b0]), geometry.kappa(ks[:b0])) for ks, zs in states]

    def jacobian(ks, zs):
        # jac[b, i] is the tangent image of direction i at sample b
        k_pert = ks[b0:eq_idx].reshape(b0, t_dim, 2, a, a)
        z_pert = zs[b0:eq_idx].reshape(b0, t_dim, 2, dim_p)
        rel = alg.group_inverse(ks[:b0])[:, None, None] @ k_pert
        x_log = _group_log(alg, rel)[..., : alg.dim_k]
        return np.concatenate(
            [(x_log[:, :, 0] - x_log[:, :, 1]) @ geometry.complement[: alg.dim_k],
             z_pert[:, :, 0] - z_pert[:, :, 1]],
            axis=-1,
        ) / (2 * eps)

    jacs = [np.eye(t_dim)] + [jacobian(ks, zs) for ks, zs in states[1:]]

    def pulled(s, family, t):
        return jacs[s] @ family.omega(*points[s], t) @ np.swapaxes(jacs[s], -1, -2)

    def block(i, j):
        first, last = stages[i].family, stages[j - 1].family
        ks, zs = states[j]
        eq = [np.max([np.abs(ks[eq_idx + p] - kp @ ks[p]).max(),
                      np.abs(zs[eq_idx + p] - (adk @ alg.embed_p(zs[p]))[alg.dim_k :]).max()])
              for p, (kp, adk) in enumerate(eq_rot)]
        zero = np.max([np.linalg.norm(zs[zero_idx:], axis=-1).max(initial=0.0),
                       np.abs(ks[zero_idx:] - states[i][0][zero_idx:]).max(initial=0.0)])
        return FlowBlock(
            pulled(j, last, 1.0) - pulled(i, first, 0.0),
            last.moment(*points[j], 1.0) - first.moment(*points[i], 0.0),
            np.array(eq),
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


def properness_fit(family, rng):
    """Fitted quadratic growth constant of the moment family.

    min over samples and t of <Phi_t(k,Z) - Phi_t(k,0), n_t> / ||Z||^2 with
    n_t the family's unit pairing direction (z0-hat for the product-side
    families, H_{lambda_t}-hat for the segment).  60 random points with
    ||Z|| in [0.2, 2.5] are mixed with root-plane probes so the minimum
    lands on the saturating rays.  The sampled fibers and the zero section
    under the same k take one moment call at every t of _PROPERNESS_GRID.
    """
    geometry = family.geometry
    a = geometry.alg.ambient
    ks, zs = random_points(geometry, rng, 60, (0.2, 2.5))
    probes = _root_probe_fibers(geometry)
    ks = np.concatenate([ks, np.broadcast_to(np.eye(a, dtype=complex), (len(probes), a, a))])
    zs = np.concatenate([zs, np.stack(probes)])
    n, t = len(zs), np.array(_PROPERNESS_GRID)[:, None]
    phi = family.moment(geometry.fiber_eig(np.concatenate([zs, np.zeros_like(zs)])),
                        np.concatenate([geometry.kappa(ks)] * 2), t)
    gap = (phi[:, :n] - phi[:, n:]) @ np.swapaxes(family.pairing_direction(t), -1, -2)
    return float((gap[..., 0] / np.linalg.norm(zs, axis=1) ** 2).min())


def properness_gamma(family):
    """Fitted growth exponent of the moment gap along a root-plane ray.

    Log-log regression of <Phi_t(e, rV) - Phi_t(e, 0), n_t> against r at
    t = 0.5 and six radii r in [0.05, 0.4]; the quadratic-growth hypothesis
    predicts a slope of 2 for small radii.  The ray and its zero fibers take
    one moment call.
    """
    t, radii = 0.5, np.geomspace(0.05, 0.4, 6)
    geometry = family.geometry
    direction = _root_probe_fibers(geometry, radii=(1.0,))[0]
    zs = np.concatenate([np.outer(radii, direction), np.zeros((6, len(direction)))])
    phi = family.moment(geometry.fiber_eig(zs), np.eye(geometry.alg.dim), t)  # Ad(e^{-1})
    vals = (phi[:6] - phi[6:]) @ family.pairing_direction(t)
    return float(np.polyfit(np.log(radii), np.log(vals), 1)[0])


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
    return alg.group_exp(k), z0, np.linalg.qr(tets)[0], np.linalg.qr(tris)[0]


# the worst-case values check_hypotheses reports, each over every stage and t
_HYPOTHESIS_VALUES = (
    "closedness_rel_residual", "primitive_exactness_residual",
    "zero_section_cross_block", "zero_section_dt_restriction",
    "zero_section_endpoint_restriction", "zero_section_primitive_sup",
    "zero_section_moment_sup", "orthogonality_nullspace_residual",
)


def check_hypotheses(stages, rng):
    """Static hypothesis checks for a stage list.

    For every stage this certifies, at randomly sampled points and family
    times: each omega_t is closed (Stokes on random tetrahedra) and the
    radial primitive integrates its time derivative (circulation vs flux on
    2-simplices); on the zero section the forms have no base-fiber coupling,
    the time derivative and the endpoint difference omega_1 - omega_0 both
    restrict to zero, the primitive vanishes, the moment norms stay bounded
    (sup reported), and the symplectic orthogonal of the section - computed
    as an explicit null space of the base rows - is exactly the fiber.  Each
    moment family's fitted quadratic growth constant and growth exponent are
    reported against its FormFamily.properness_bound.  Dynamic checks
    (zero-section fixing, equivariance, fiber ceilings) come from the flow
    itself in verify_pullback.

    One pass per stage: six base points, two at each of t = 0, 0.5 and 1,
    with two tetrahedra of diameter 1e-2 and one triangle each are drawn
    first (_draw_chart_points); then all Stokes nodes, all exactness edge
    nodes, all flux nodes and the zero-section blocks of those points, each
    node at its point's time, are each one batched evaluation.  Every
    reported value is the np.max of its per-stage maxima, so a NaN anywhere
    is reported.  The stages share one geometry.
    """
    geometry = stages[0].family.geometry
    worst = {key: [] for key in _HYPOTHESIS_VALUES}
    properness = []
    ts = np.repeat([0.0, 0.5, 1.0], 2)
    zero_fiber = np.zeros((len(ts), geometry.dim_p))
    spec_zero = geometry.fiber_eig(zero_fiber)
    c = geometry.dim_c
    for stage in stages:
        fam = stage.family
        k0, z0, tet_frames, tri_frames = _draw_chart_points(geometry, rng, len(ts), 2)
        worst["closedness_rel_residual"].append(stokes_closedness_residual(
            geometry, fam.omega, k0, z0, ts, tet_frames, 1e-2, fam.moves_base
        ).max())
        worst["primitive_exactness_residual"].append(primitive_exactness_residual(
            fam, k0, z0, ts, tri_frames
        ).max())
        kap0 = geometry.kappa(k0)
        block = fam.omega(spec_zero, kap0, ts)
        mu0 = homotopy_primitive(fam, spec_zero, kap0, zero_fiber, ts)
        worst["zero_section_primitive_sup"].append(np.abs(mu0).max())
        worst["zero_section_moment_sup"].append(
            np.linalg.norm(fam.moment(spec_zero, kap0, ts), axis=-1).max()
        )
        if c > 0:
            worst["zero_section_cross_block"].append(np.abs(block[:, :c, c:]).max())
            sigma0 = fam.domega_dt(spec_zero, kap0, ts)
            worst["zero_section_dt_restriction"].append(np.abs(sigma0[:, :c, :c]).max())
            end0, end1 = fam.omega(spec_zero, kap0, np.array([[0.0], [1.0]]))
            worst["zero_section_endpoint_restriction"].append(
                np.abs((end1 - end0)[:, :c, :c]).max()
            )
            # symplectic orthogonal of the zero section: null space of the
            # base rows of omega_t must have fiber dimension and no base
            # component
            _, svals, vt = np.linalg.svd(block[:, :c, :])
            pad = np.zeros((len(svals), geometry.dim_t - c))
            small = np.concatenate([svals, pad], axis=-1) < (
                1e-10 * np.maximum(svals.max(axis=-1), 1.0)
            )[:, None]
            worst["orthogonality_nullspace_residual"].append(
                np.inf if (small.sum(axis=-1) != geometry.dim_p).any()
                else np.abs(vt[small][:, :c]).max()
            )
        d_fit, bound = properness_fit(fam, rng), fam.properness_bound
        properness.append({"stage": fam.name, "d_fit": d_fit, "d_analytic": bound,
                           "ratio": d_fit / bound, "gamma_fit": properness_gamma(fam)})
    out = {key: float(np.max(vals, initial=0.0)) for key, vals in worst.items()}
    return {**out, "properness": properness}
