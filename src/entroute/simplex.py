"""Dense two-phase simplex for small packing programs.

Maximizes c @ x subject to A @ x <= b and x >= 0.  Bland's rule keeps the
iteration cycle-free; instances here are tiny (at most a few hundred rows
and columns), so a dense tableau with full reduced-cost recomputation per
pivot is plenty and easy to audit.
"""

from __future__ import annotations

import numpy as np

_PIVOT_TOL = 1e-10
_FEAS_TOL = 1e-7
_RATIO_TIE = 1e-12


class InfeasibleProgram(ValueError):
    pass


class UnboundedProgram(ValueError):
    pass


def simplex_solve(c, A, b):
    """Solve max c@x s.t. A@x <= b, x >= 0; returns (x, objective).

    Rows with negative right-hand sides go through phase 1 with artificial
    variables; raises InfeasibleProgram / UnboundedProgram accordingly.
    """
    c = np.asarray(c, dtype=float)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2:
        raise ValueError("A must be a matrix")
    m, n = A.shape
    if c.shape != (n,) or b.shape != (m,):
        raise ValueError("shape mismatch between c, A, b")

    T = np.hstack([A, np.eye(m), b.reshape(-1, 1)])
    basis = list(range(n, n + m))
    neg = np.flatnonzero(T[:, -1] < 0)
    if neg.size:
        T[neg] *= -1.0
        art = np.zeros((m, neg.size))
        for i, r in enumerate(neg):
            art[r, i] = 1.0
            basis[r] = n + m + i
        T = np.hstack([T[:, :-1], art, T[:, -1:]])
        cost1 = np.zeros(T.shape[1] - 1)
        cost1[n + m:] = -1.0
        _iterate(T, basis, cost1)
        if cost1[basis] @ T[:, -1] < -_FEAS_TOL:
            raise InfeasibleProgram("artificial variables remain positive")
        T, basis = _drop_artificials(T, basis, n + m)

    cost2 = np.zeros(T.shape[1] - 1)
    cost2[:n] = c
    _iterate(T, basis, cost2)
    x = np.zeros(n)
    for r, col in enumerate(basis):
        if col < n:
            x[col] = T[r, -1]
    return x, float(c @ x)


def _iterate(T, basis, cost):
    m = T.shape[0]
    while True:
        red = cost - cost[basis] @ T[:, :-1]
        red[basis] = 0.0
        enter = -1
        for j in range(red.size):  # Bland: lowest eligible index
            if red[j] > _PIVOT_TOL:
                enter = j
                break
        if enter < 0:
            return
        col = T[:, enter]
        leave = -1
        best = None
        for r in range(m):
            if col[r] > _PIVOT_TOL:
                ratio = T[r, -1] / col[r]
                if leave < 0 or ratio < best - _RATIO_TIE:
                    best, leave = ratio, r
                elif ratio <= best + _RATIO_TIE and basis[r] < basis[leave]:
                    leave = r  # Bland on ties: lowest basic index leaves
        if leave < 0:
            raise UnboundedProgram(f"objective unbounded along column {enter}")
        _pivot(T, basis, leave, enter)


def _pivot(T, basis, r, j):
    T[r] /= T[r, j]
    for i in range(T.shape[0]):
        if i != r and T[i, j] != 0.0:
            T[i] -= T[i, j] * T[r]
    basis[r] = j


def _drop_artificials(T, basis, first_art):
    """Pivot zero-level artificials out of the basis, drop redundant rows,
    then cut the artificial columns."""
    keep = []
    for r in range(T.shape[0]):
        if basis[r] >= first_art:
            j = next(
                (jj for jj in range(first_art) if abs(T[r, jj]) > _PIVOT_TOL), None
            )
            if j is None:
                continue  # all-zero row: constraint was redundant
            _pivot(T, basis, r, j)
        keep.append(r)
    T = np.hstack([T[keep][:, :first_art], T[keep][:, -1:]])
    basis = [basis[r] for r in keep]
    return T, basis
