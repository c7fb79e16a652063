"""Dense one-phase simplex for small packing programs.

Maximizes c @ x subject to A @ x <= b and x >= 0 with b >= 0, so the slack
basis is feasible from the start: every program `multiflow.build_program`
makes has positive budgets on the right.  Bland's rule keeps the iteration
cycle-free; instances here are tiny (at most a few hundred rows and
columns), so a dense tableau with full reduced-cost recomputation per pivot
is plenty and easy to audit.
"""

from __future__ import annotations

import numpy as np

_PIVOT_TOL = 1e-10
_RATIO_TIE = 1e-12


class UnboundedProgram(ValueError):
    pass


def simplex_solve(c, A, b):
    """Solve max c@x s.t. A@x <= b, x >= 0; returns (x, objective).

    Raises ValueError when an entry of b is negative or NaN (the slack
    basis would not be feasible) and UnboundedProgram when the objective
    has no bound.
    """
    c = np.asarray(c, dtype=float)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2:
        raise ValueError("A must be a matrix")
    m, n = A.shape
    if c.shape != (n,) or b.shape != (m,):
        raise ValueError("shape mismatch between c, A, b")
    if not np.all(b >= 0):
        raise ValueError("every entry of b must be >= 0")

    T = np.hstack([A, np.eye(m), b.reshape(-1, 1)])
    basis = list(range(n, n + m))
    cost = np.zeros(n + m)
    cost[:n] = c
    _iterate(T, basis, cost)
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

