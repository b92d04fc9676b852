"""Second-order analysis: difference quotients, expansion fits, and the
equivalence between second-order expansions and gradient differentiability.

Two independent estimators are run at a point: a least-squares fit of the
second difference quotients over the basis monomials of degree 2 (read as
the second-layer gradient and the symmetrized horizontal Hessian through
``jets.sym_hessian``), and a fit of the extended differential A from
first-order expansions of the horizontal gradient.  Both take the
horizontal gradient that ``gradient_with_certificate`` certified at the
point.  The characterization report checks that both converge or both
fail, that the fitted pieces satisfy the structure-constant identity
H_ij = A^i_j - sum_l a^{li}_j v2_l, and that the Hessian is positive
semidefinite.  The set-valued Mignot inclusion of a fitted A is a check of
its own, ``mignot_check``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .convexity import _sampled_gradients, _shell_gradients, subdifferential_hulls
from .errors import (
    CarnotError,
    NonSingletonSubdifferential,
    RankDeficientDesign,
    SamplingError,
)
from .hull import diameters
from .jets import horizontal_words, identity_residual, sym_hessian
from .polynomials import _per_descriptor, monomials_up_to
from .reports import curve_converged
from .sampling import SamplingPlan, quasi_sphere, sphere_shell

__all__ = [
    "gradient_with_certificate",
    "second_quotient",
    "ExpansionFit",
    "fit_expansion",
    "ExtendedDiffFit",
    "fit_extended_differential",
    "mignot_check",
    "SecondOrderReport",
    "characterize_second_order",
    "psd_check",
]


def gradient_with_certificate(u, x, plan):
    """Horizontal gradient at x, certified by a singleton hull.

    The hull certificate is always computed, even when an analytic gradient
    is available: a pointwise formula may silently be wrong at a kink.
    Raises ``NonSingletonSubdifferential``, which carries the hull's
    diameter, when the hull is not a singleton, or when the
    finite-difference gradient at x itself is unstable.
    """
    x = np.asarray(x, dtype=float)
    diam = float(diameters(subdifferential_hulls(u, x[None], plan))[0])
    if not diam <= plan.tol.singleton_diameter:  # a NaN diameter certifies nothing
        raise NonSingletonSubdifferential(diam)
    # certified singleton: the gradient at x itself, at the plan's full FD
    # step (a difference quotient at x is unbiased, unlike the shell
    # centroid, which is off by O(shell radius))
    g, stable = _sampled_gradients(u, x[None], np.inf, plan)
    if not stable[0]:
        raise NonSingletonSubdifferential(diam, "finite-difference gradient at the point is unstable")
    return g[0]


def second_quotient(u, x, tau, w, grad):
    """(u(x delta_tau w) - u(x) - tau <grad, pi_1 w>) / tau^2, batched over w;
    a column of taus gives one row of quotients per tau."""
    desc = u.desc
    x = np.asarray(x, dtype=float)
    w = np.asarray(w, dtype=float)
    pts = desc.product(x, desc.dilate(tau, w))
    ux = float(u.value(x[None])[0])
    lin = w[..., : desc.m1] @ np.asarray(grad, dtype=float)
    return (u.value(pts) - ux - tau * lin) / tau**2


_TAUS = tuple(0.5 * 2.0**-k for k in range(9))  # the scale ladder of the second-order quotients


# -- the expansion fit -------------------------------------------------------------


_SO_DIRECTIONS = 48  # spread directions of the expansion fit


def _direction_set(desc, count):
    """Spread directions on the unit quasi-sphere plus pure-layer basis
    directions; the second-layer singles are what identifies v2."""
    base = [quasi_sphere(desc, count, seed=23)]
    eye = np.eye(desc.dim)
    base.append(eye[: desc.m1])
    base.append(-eye[: desc.m1])
    if desc.m2 > desc.m1:
        base.append(eye[desc.m1 : desc.m2])
        base.append(-eye[desc.m1 : desc.m2])
    return np.concatenate(base)


@_per_descriptor
def _expansion_design(desc):
    """The design of ``fit_expansion``: the directions W of
    ``_direction_set`` with ``_SO_DIRECTIONS`` spread ones, the mask of the
    basis monomials of degree exactly 2, and their values Phi at W.  Raises
    ``RankDeficientDesign`` when Phi has not full column rank."""
    W = _direction_set(desc, _SO_DIRECTIONS)
    E = np.array(monomials_up_to(desc, 2))
    top = E @ desc.dilation_exponents == 2
    Phi = np.prod(W[:, None, :] ** E[top], axis=-1)
    if np.linalg.matrix_rank(Phi) < Phi.shape[1]:
        raise RankDeficientDesign("direction set does not span the degree-2 model")
    return W, top, Phi


@dataclass
class ExpansionFit:
    coeffs: np.ndarray  # finest-scale coefficient row over monomials_up_to(desc, 2)
    hessian: np.ndarray  # finest-scale symmetrized horizontal Hessian
    v2: np.ndarray  # finest-scale second-layer gradient
    taus: tuple
    residuals: np.ndarray
    v2_per_scale: np.ndarray
    converged: bool


def fit_expansion(u, x, grad, plan):
    """Least-squares fit of the second quotients against the degree <= 2 model.

    The quotients at the certified gradient ``grad`` are tabulated over the
    scales ``_TAUS`` and the unit directions of ``_direction_set``.  The model
    <v2, pi_2 w> + (1/2) <H pi_1 w, pi_1 w> spans the basis monomials of
    degree exactly 2; their coefficients, fitted per scale, give (H, v2)
    through ``sym_hessian``, and the finest scale is the fit's answer.  The
    residual curve tracks that fit's sup-norm misfit per scale, and it
    converges below the fit tolerance by ``curve_converged``.  The
    directions and the model's values at them come from
    ``_expansion_design``, cached per descriptor.
    """
    desc = u.desc
    W, top, Phi = _expansion_design(desc)
    values = second_quotient(u, x, np.asarray(_TAUS)[:, None], W, grad)
    C = np.zeros((len(_TAUS), len(top)))
    C[:, top] = np.linalg.lstsq(Phi, values.T, rcond=None)[0].T
    H, v2 = sym_hessian(desc, C)
    residuals = np.max(np.abs(values - Phi @ C[-1, top]), axis=1)
    return ExpansionFit(C[-1], H[-1], v2[-1], _TAUS, residuals, v2, curve_converged(residuals, plan.tol.fit))


# -- extended differential and the Mignot inclusion ------------------------------------


@dataclass
class ExtendedDiffFit:
    A: np.ndarray  # (m1, m1); row j holds the coefficients of gradient component j
    grad: np.ndarray
    radii: tuple
    residuals: np.ndarray
    converged: bool


@_per_descriptor
def _extdiff_shells(desc, seed, count, radii):
    """The samples of ``fit_extended_differential`` under the plans with this
    seed, shell count and radii: ``count`` points on each shell, drawn
    shell by shell from ``plan.rng("extdiff-shells")``, as (R, count, n)."""
    rng = SamplingPlan(seed=seed).rng("extdiff-shells")
    return np.stack([sphere_shell(desc, r, count, rng) for r in radii])


def fit_extended_differential(u, x, grad, plan):
    """Fit the h-linear expansion of the horizontal gradient at x.

    Minimizes |grad u(xw) - grad - A pi_1 w| over samples in shrinking
    shells, for the certified gradient ``grad`` at x; the curve of per-shell
    sup residuals normalized by the shell radius converges below the fit
    tolerance by ``curve_converged``.  One gradient call serves every shell;
    the shell samples come from ``_extdiff_shells``, cached per descriptor.
    """
    desc = u.desc
    x = np.asarray(x, dtype=float)
    grad = np.asarray(grad)

    ws = _extdiff_shells(desc, plan.seed, plan.shell_samples, plan.radii)  # (R, S, n)
    grads, stable = _sampled_gradients(
        u, desc.product(x, ws).reshape(-1, desc.dim), np.repeat(plan.radii, plan.shell_samples), plan
    )
    stable = stable.reshape(len(plan.radii), -1)
    short = np.sum(stable, axis=1) < desc.m1 + 1
    if np.any(short):
        raise SamplingError(f"insufficient stable gradient samples on shell {plan.radii[int(np.argmax(short))]:g}")
    ws_all = ws[stable]
    dg_all = grads[stable.ravel()] - grad[None, :]
    shell_of = np.nonzero(stable)[0]

    fine = shell_of >= max(0, len(plan.radii) - 3)
    W1 = ws_all[fine, : desc.m1]
    if np.linalg.matrix_rank(W1) < desc.m1:
        raise RankDeficientDesign("shell samples do not span the horizontal layer")
    At, *_ = np.linalg.lstsq(W1, dg_all[fine], rcond=None)
    A = At.T

    mis = np.linalg.norm(dg_all - ws_all[:, : desc.m1] @ At, axis=-1)
    residuals = np.array([np.max(mis[shell_of == k]) for k in range(len(plan.radii))]) / plan.radii
    return ExtendedDiffFit(A, grad, tuple(plan.radii), residuals, curve_converged(residuals, plan.tol.fit))


@_per_descriptor
def _mignot_directions(desc):
    """The directions w of ``mignot_check``: six spread on the unit
    quasi-sphere, then the second-layer basis vectors."""
    return np.concatenate([quasi_sphere(desc, 6, seed=31), np.eye(desc.dim)[desc.m1 : desc.m2]])


def mignot_check(u, x, grad, A, plan):
    """The set-valued inclusion check of the extended differential ``A`` at x.

    The quotient hulls (hull at x delta_tau w - grad)/tau must collapse onto
    {A pi_1 w} along the scale ladder.  The hulls of every scale and
    direction come from one gradient sample, on shells of radius
    ``radii[-1] * tau`` so that the hull resolution follows the zoom of the
    quotient map.  Returns (taus, excess, ok): the largest distance of a
    quotient hull row from A pi_1 w per scale, and whether that curve
    converges below the Mignot tolerance by ``curve_converged``.
    """
    desc = u.desc
    dirs = _mignot_directions(desc)
    tau = np.repeat(_TAUS, len(dirs))  # one row per (tau, w)
    ys = desc.product(x, desc.dilate(tau, np.tile(dirs, (len(_TAUS), 1))))
    G = _shell_gradients([(u, len(ys))], ys, plan.radii[-1] * tau, plan)
    quotients = ((G - grad) * (1.0 / tau)[:, None, None]).reshape(len(_TAUS), len(dirs), -1, desc.m1)
    dists = np.linalg.norm(quotients - (dirs[:, : desc.m1] @ A.T)[:, None, :], axis=-1)
    excess = np.max(dists, axis=(1, 2))  # NaN-safe, unlike a max() fold
    return _TAUS, excess, curve_converged(excess, plan.tol.mignot)


# -- the full characterization -------------------------------------------------------


@dataclass
class SecondOrderReport:
    expansion: ExpansionFit | None
    extended: ExtendedDiffFit | None
    expansion_error: str | None
    extended_error: str | None
    equivalence: str
    claims: dict
    metrics: dict

    def passed(self):
        return self.equivalence == "consistent: neither" or all(self.claims.values())


def characterize_second_order(u, x, plan):
    """Run both second-order estimators independently and cross-check them.

    Verdicts: existence of the quadratic expansion must coincide with
    differentiability of the gradient ("both converge" or "consistent:
    neither"); when both converge (so the expansion reproduces the
    quotients), the fitted second-layer gradient must be scale-stable, the
    Hessian must match the skew-corrected extended differential entrywise,
    and it must be positive semidefinite.  The horizontal gradient is
    certified once and shared by both estimators; a failed certification
    fails both.
    """
    desc = u.desc
    expansion = extended = None
    err_e = err_g = None
    try:
        grad = gradient_with_certificate(u, x, plan)
    except (CarnotError, np.linalg.LinAlgError) as exc:
        err_e = err_g = f"{type(exc).__name__}: {exc}"
    else:
        try:
            expansion = fit_expansion(u, x, grad, plan)
        except (CarnotError, np.linalg.LinAlgError) as exc:
            err_e = f"{type(exc).__name__}: {exc}"
        try:
            extended = fit_extended_differential(u, x, grad, plan)
        except (CarnotError, np.linalg.LinAlgError) as exc:
            err_g = f"{type(exc).__name__}: {exc}"

    ok_e = expansion is not None and expansion.converged
    ok_g = extended is not None and extended.converged
    if ok_e and ok_g:
        equivalence = "both converge"
    elif not ok_e and not ok_g:
        equivalence = "consistent: neither"
    elif ok_e:
        equivalence = "inconsistent: expansion only"
    else:
        equivalence = "inconsistent: gradient only"

    claims = {"equivalence": equivalence in ("both converge", "consistent: neither")}
    metrics = {"equivalence": equivalence}
    if ok_e and ok_g:
        res3 = float(np.max(identity_residual(desc, expansion.hessian, expansion.v2, extended.A)))
        res3b = float(np.max(np.abs(horizontal_words(desc, expansion.coeffs) - extended.A.T)))
        v2_tail = expansion.v2_per_scale[-3:]
        drift = float(np.max(np.abs(v2_tail - v2_tail[-1]))) if v2_tail.size else 0.0
        min_eig = psd_check(expansion.hessian)
        claims.update(
            {
                "c1_v2_stable": bool(np.all(np.isfinite(expansion.v2)) and drift < plan.tol.fit),
                "c3_identity": bool(np.max([res3, res3b]) < plan.tol.fit),  # NaN-safe, unlike max()
                "psd": bool(min_eig >= -plan.tol.psd),
            }
        )
        metrics.update(
            {
                "v2_drift": drift,
                "expansion_residual": float(expansion.residuals[-1]),
                "claim3_residual": res3,
                "claim3_jet_residual": res3b,
                "min_eigenvalue": min_eig,
                "gradient_residual": float(extended.residuals[-1]),
            }
        )
    return SecondOrderReport(expansion, extended, err_e, err_g, equivalence, claims, metrics)


def psd_check(H):
    """Minimum eigenvalue of a symmetric matrix (numpy's ``eigvalsh``).

    Raises on input whose skew part exceeds 1e-12 (relative).  The
    caller's positive-semidefiniteness criterion is min_eig >= -tol.
    """
    H = np.asarray(H, dtype=float)
    scale = max(1.0, float(np.max(np.abs(H))))
    if float(np.max(np.abs(H - H.T))) > 1e-12 * scale:
        raise ValueError("matrix is not symmetric")
    return float(np.linalg.eigvalsh(0.5 * (H + H.T))[0])
