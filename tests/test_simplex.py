import numpy as np
import pytest

from entroute.simplex import UnboundedProgram, simplex_solve


def test_shared_budget_two_vars():
    # max x1+x2 with 2x1+2x2 <= 3 and x <= 1: value 1.5 on a whole edge
    x, obj = simplex_solve(
        [1.0, 1.0],
        [[2.0, 2.0], [1.0, 0.0], [0.0, 1.0]],
        [3.0, 1.0, 1.0],
    )
    assert obj == pytest.approx(1.5, abs=1e-9)
    assert np.all(x >= -1e-12)
    assert 2 * x[0] + 2 * x[1] <= 3 + 1e-9


def test_zero_objective():
    x, obj = simplex_solve([0.0, 0.0], [[1.0, 1.0]], [1.0])
    assert obj == 0.0
    assert np.allclose(x, 0.0)


@pytest.mark.parametrize(
    "c, A, b",
    [
        ([-1.0], [[-1.0], [1.0]], [-1.0, 2.0]),  # x >= 1 written as -x <= -1
        ([1.0], [[-1.0], [1.0]], [-2.0, 1.0]),  # infeasible: x >= 2 and x <= 1
        ([1.0], [[-1.0], [-1.0], [1.0]], [-1.0, -1.0, 3.0]),  # duplicated x >= 1
        ([1.0], [[1.0]], [float("nan")]),
    ],
    ids=["lower-bound", "infeasible", "redundant-lower-bounds", "nan"],
)
def test_negative_right_hand_side_rejected(c, A, b):
    # the slack basis is the only start, so a row it cannot satisfy is an error
    with pytest.raises(ValueError, match="b must be >= 0"):
        simplex_solve(c, A, b)


def test_unbounded_detected():
    with pytest.raises(UnboundedProgram):
        simplex_solve([1.0], [[-1.0]], [1.0])


def test_matches_reference_solver():
    scipy = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(42)
    solved = 0
    for _ in range(60):
        m = int(rng.integers(1, 6))
        n = int(rng.integers(2, 7))
        A = rng.uniform(0.05, 2.0, size=(m, n))
        b = rng.uniform(-1.0, 3.0, size=m)
        c = rng.uniform(0.0, 1.0, size=n)
        if np.any(b < 0):
            with pytest.raises(ValueError, match="b must be >= 0"):
                simplex_solve(c, A, b)
            continue
        ref = scipy.linprog(-c, A_ub=A, b_ub=b, bounds=(0, None), method="highs")
        assert ref.status == 0
        x, obj = simplex_solve(c, A, b)
        assert obj == pytest.approx(-ref.fun, abs=1e-7)
        assert np.all(A @ x <= b + 1e-7)
        assert np.all(x >= -1e-9)
        solved += 1
    assert solved >= 20
