"""NumPy ports, step for step in SciPy's order, of scipy.interpolate's PCHIP
and of scipy.optimize._lsq's bounded trust-region-reflective solver (Branch,
Coleman & Li 1999; More 1977) on the spot fit's path: exact SVD subproblem,
linear loss, unit x_scale, finite bounds, finite residuals wherever feasible.
Adapted from SciPy, Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy
Developers; BSD-3-Clause, text in LICENSES/SciPy-BSD-3-Clause.txt."""

import numpy as np
from numpy.linalg import norm


def trf_bounds(fun, jac, x0, lb, ub, max_nfev: int = 20000, tol: float = 1e-8):
    """Minimize 0.5 |fun(x)|^2 over lb <= x <= ub from x0 (jac: its Jacobian)
    with ftol = xtol = gtol = tol. Returns (x, evaluations of fun); raises
    LinAlgError if the SVD fails or max_nfev evaluations do not converge."""
    x = np.array(x0, dtype=float)             # moved off any bound it is near
    lo_tol, hi_tol = 1e-10 * np.maximum(1, abs(lb)), 1e-10 * np.maximum(1, abs(ub))
    upper = ub - x <= np.minimum(x - lb, hi_tol)
    x = np.where(upper, ub - hi_tol,
                 np.where(x - lb <= np.minimum(ub - x, lo_tol), lb + lo_tol, x))
    f, J, nfev = fun(x), jac(x), 1
    cost, g = 0.5 * np.dot(f, f), J.T.dot(f)
    alpha, converged, Delta = 0.0, False, None
    while True:
        # Coleman-Li scaling: distance to the bound the anti-gradient points at
        v, dv = np.where(g < 0, ub - x, np.where(g > 0, x - lb, 1.0)), np.sign(g)
        Delta = (norm(x / v**0.5) or 1.0) if Delta is None else Delta
        g_norm = norm(g * v, ord=np.inf)
        if converged or g_norm < tol:
            return x, nfev
        if nfev == max_nfev:
            raise np.linalg.LinAlgError(f"no convergence in {nfev} evaluations")
        d, diag_h = v**0.5, g * dv
        g_h, J_h = d * g, J * d
        U, s, V = np.linalg.svd(np.vstack((J_h, np.diag(diag_h**0.5))), False)
        uf = U.T.dot(np.concatenate((f, np.zeros(x.size))))
        theta, actual_reduction = max(0.995, 1 - g_norm), -1
        while actual_reduction <= 0 and nfev < max_nfev:
            p_h, alpha = _solve_lsq_trust_region(f.size, uf, s, V.T, Delta, alpha)
            step, step_h, predicted_reduction = _select_step(
                x, J_h, diag_h, g_h, d * p_h, p_h, d, Delta, lb, ub, theta)
            # a step onto or past a bound stops one ulp short of it
            x_new = np.clip(x + step, np.nextafter(lb, ub), np.nextafter(ub, lb))
            f_new, nfev = fun(x_new), nfev + 1
            step_h_norm, cost_new = norm(step_h), 0.5 * np.dot(f_new, f_new)
            actual_reduction = cost - cost_new
            ratio = (actual_reduction / predicted_reduction if predicted_reduction > 0
                     else float(predicted_reduction == actual_reduction == 0))
            Delta_new = (0.25 * step_h_norm if ratio < 0.25 else Delta * 2.0
                         if ratio > 0.75 and step_h_norm > 0.95 * Delta else Delta)
            converged = (actual_reduction < tol * cost and ratio > 0.25
                         or norm(step) < tol * (tol + norm(x)))
            if converged:
                break
            alpha *= Delta / Delta_new
            Delta = Delta_new
        if actual_reduction > 0:
            x, f, cost, J = x_new, f_new, cost_new, jac(x_new)
            g = J.T.dot(f)


def _select_step(x, J_h, diag_h, g_h, p, p_h, d, Delta, lb, ub, theta):
    """The best of the bounded trust-region, reflected and Cauchy steps."""
    if np.all((x + p >= lb) & (x + p <= ub)):
        return p, p_h, -sum(_quadratic_1d(J_h, g_h, p_h, diag_h))
    p_stride, hits = _step_to_bound(x, p, lb, ub)
    r_h = np.where(hits, -p_h, p_h)
    r, p, p_h = d * r_h, p * p_stride, p_h * p_stride
    a, b, c = np.dot(r_h, r_h), np.dot(p_h, r_h), np.dot(p_h, p_h) - Delta**2
    q = -(b + np.copysign(np.sqrt(b*b - a*c), b))
    to_tr = max(q / a, c / q)             # where the reflection leaves the region
    to_bound = _step_to_bound(x + p, r, lb, ub)[0]
    r_stride, r_stride_l, r_stride_u, r_value = min(to_bound, to_tr), 0, -1, np.inf
    if r_stride > 0:
        r_stride_l = (1 - theta) * p_stride / r_stride
        r_stride_u = theta * to_bound if r_stride == to_bound else to_tr
    if r_stride_l <= r_stride_u:
        r_stride, r_value = _minimize_quadratic_1d(
            *_quadratic_1d(J_h, g_h, r_h, diag_h, s0=p_h), r_stride_l, r_stride_u)
        r_h = r_h * r_stride + p_h
        r = r_h * d
    p, p_h = p * theta, p_h * theta
    p_value = sum(_quadratic_1d(J_h, g_h, p_h, diag_h))
    ag_h, to_tr = -g_h, Delta / norm(g_h)
    to_bound = _step_to_bound(x, d * ag_h, lb, ub)[0]
    ag_stride, ag_value = _minimize_quadratic_1d(
        *_quadratic_1d(J_h, g_h, ag_h, diag_h), 0,
        theta * to_bound if to_bound < to_tr else to_tr)
    if p_value < r_value and p_value < ag_value:
        return p, p_h, -p_value
    if r_value < p_value and r_value < ag_value:
        return r, r_h, -r_value
    return d * ag_h * ag_stride, ag_h * ag_stride, -ag_value


def _solve_lsq_trust_region(m, uf, s, V, Delta, alpha, rtol=0.01, max_iter=10):
    """More's search for alpha with |p| = Delta, from the SVD; uf = U^T f."""
    def phi_and_derivative(alpha):
        denom = s**2 + alpha
        p_norm = norm(suf / denom)
        return p_norm - Delta, -np.sum(suf ** 2 / denom**3) / p_norm
    suf, alpha_lower = s * uf, 0.0
    full_rank = m >= s.size and s[-1] > np.finfo(float).eps * m * s[0]
    if full_rank:
        p = -V.dot(uf / s)
        if norm(p) <= Delta:
            return p, 0.0
        phi, phi_prime = phi_and_derivative(0.0)
        alpha_lower = -phi / phi_prime
    alpha_upper = norm(suf) / Delta
    if not full_rank and alpha == 0:
        alpha = max(0.001 * alpha_upper, (alpha_lower * alpha_upper)**0.5)
    for _ in range(max_iter):
        if alpha < alpha_lower or alpha > alpha_upper:
            alpha = max(0.001 * alpha_upper, (alpha_lower * alpha_upper)**0.5)
        phi, phi_prime = phi_and_derivative(alpha)
        alpha_upper = alpha if phi < 0 else alpha_upper
        ratio = phi / phi_prime
        alpha_lower = max(alpha_lower, alpha - ratio)
        alpha -= (phi + Delta) * ratio / Delta
        if np.abs(phi) < rtol * Delta:
            break
    p = -V.dot(suf / (s**2 + alpha))
    return p * (Delta / norm(p)), alpha


def _quadratic_1d(J, g, s, diag, s0=None):
    """a, b, c of 0.5 z^T (J^T J + diag) z + g^T z = a t^2 + b t + c, z = s0 + s t."""
    v = J.dot(s)
    a = 0.5 * (np.dot(v, v) + np.dot(s * diag, s))
    if s0 is None:
        return a, np.dot(g, s), 0
    u = J.dot(s0)
    b = np.dot(g, s) + np.dot(u, v) + np.dot(s0 * diag, s)
    return a, b, 0.5 * np.dot(u, u) + np.dot(g, s0) + 0.5 * np.dot(s0 * diag, s0)


def _minimize_quadratic_1d(a, b, c, lb, ub):
    t = [lb, ub] + ([-0.5 * b / a] if a != 0 and lb < -0.5 * b / a < ub else [])
    y = np.asarray(t) * (a * np.asarray(t) + b) + c
    return t[np.argmin(y)], np.min(y)


def _step_to_bound(x, s, lb, ub):
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        steps = np.where(s != 0, np.maximum((lb - x) / s, (ub - x) / s), np.inf)
    return steps.min(), steps == steps.min()


def pchip(x, y, xv: float) -> float:
    """PCHIP through (x, y), three or more ascending x, at xv in [x[0], x[-1]]:
    Fritsch-Carlson harmonic-mean slopes inside, Moler's rule at the ends."""
    h, m = np.diff(x), np.diff(y) / np.diff(x)
    w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
    flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
    d = np.zeros_like(y)
    with np.errstate(divide="ignore", invalid="ignore"):
        d[1:-1][~flat] = 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2))[~flat]
    (h0, h1), (m0, m1) = h[[[0, -1], [1, -2]]], m[[[0, -1], [1, -2]]]
    e = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    d[[0, -1]] = np.where(np.sign(e) != np.sign(m0), 0.0, np.where(
        (np.sign(m0) != np.sign(m1)) & (abs(e) > 3.0 * abs(m0)), 3.0 * m0, e))
    i = min(int(np.searchsorted(x, xv, side="right")) - 1, x.size - 2)
    t, s = (d[i] + d[i + 1] - 2 * m[i]) / h[i], xv - x[i]
    # SciPy's power basis c0 s^3 + c1 s^2 + c2 s + c3, summed from c3 up
    c0, c1 = t / h[i], (m[i] - d[i]) / h[i] - t
    return float(y[i] + d[i] * s + c1 * (s * s) + c0 * (s * s * s))
