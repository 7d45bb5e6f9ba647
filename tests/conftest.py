"""Shared independent reference constructions for the test suite.

These build the operators entry by entry from their definitions, on
purpose avoiding the FFT and rolling-array code paths used by the
package, so agreement is meaningful.
"""

import numpy as np


def dense_difference_matrix(m, n):
    """Periodic forward-difference matrix, vertical block then horizontal,
    column-major pixel order."""
    mn = m * n

    def idx(i, j):
        return i + j * m

    D = np.zeros((2 * mn, mn))
    for j in range(n):
        for i in range(m):
            r = idx(i, j)
            D[r, idx((i + 1) % m, j)] += 1.0
            D[r, idx(i, j)] -= 1.0
            D[mn + r, idx(i, (j + 1) % n)] += 1.0
            D[mn + r, idx(i, j)] -= 1.0
    return D


def dense_convolution_matrix(weights, m, n):
    """Circular convolution matrix for a centered kernel, column-major
    pixel order."""
    kh, kw = weights.shape
    ch, cw = kh // 2, kw // 2
    mn = m * n
    M = np.zeros((mn, mn))
    for j in range(n):
        for i in range(m):
            row = i + j * m
            for p in range(kh):
                for q in range(kw):
                    si = (i - (p - ch)) % m
                    sj = (j - (q - cw)) % n
                    M[row, si + sj * m] += weights[p, q]
    return M


def explicit_anchor_ldpd(problem, regime, x1, y1, iters):
    """The linearized recursion as the paper states it, with its blend
    anchor xbar carried from xbar = x1:

        xhat  = (1 - theta) xbar + theta x
        x+    = x - eta (grad f(xhat) + A* yhat)
        xbar+ = (1 - theta) xbar + theta x+
        y+    = prox_{tau g}(y + tau A x+)
        yhat+ = y+ + alpha_{t+1} (y+ - y)

    Returns one (x, xbar, y, yhat) tuple per iteration.
    """
    from dpdsolve.ldpd import ldpd_schedule
    from dpdsolve.model import SolverConsts

    consts = SolverConsts.from_problem(problem)
    x = np.asarray(x1, dtype=float).copy()
    y = np.asarray(y1, dtype=float).copy()
    xbar = x.copy()
    yhat = y.copy()
    states = []
    for t in range(1, iters + 1):
        p = ldpd_schedule(regime, t, consts)
        xhat = (1.0 - p.theta) * xbar + p.theta * x
        x = x - p.eta * (problem.f.grad(xhat) + problem.A.adjoint(yhat))
        xbar = (1.0 - p.theta) * xbar + p.theta * x
        y_new = problem.g.prox(y + p.tau * problem.A.apply(x), p.tau,
                               consts.mu_g)
        yhat = y_new + ldpd_schedule(regime, t + 1, consts).alpha * (y_new - y)
        y = y_new
        states.append((x.copy(), xbar.copy(), y.copy(), yhat.copy()))
    return states
