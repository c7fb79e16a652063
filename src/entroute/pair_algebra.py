"""Closed-form algebra on Werner-pair fidelities.

All functions are pure and operate on plain floats in double precision.
The Werner parameter of a pair with fidelity f is w = (4f-1)/3, which is
non-negative for f >= 0.25; that is the domain floor everywhere here.
Inputs below the floor are rejected, never clamped.
"""

from __future__ import annotations

import math

# Slack for rejecting inputs: upstream arithmetic may land a hair outside
# [0.25, 1] without being wrong.
_DOMAIN_TOL = 1e-12


def _check_fidelity(f: float) -> None:
    if not (0.25 - _DOMAIN_TOL <= f <= 1.0 + _DOMAIN_TOL):
        raise ValueError(f"fidelity {f!r} outside [0.25, 1]")


def _purified_fidelity_raw(f1, f2):
    """Purification fidelity map, no domain checks; works on numpy arrays."""
    return (10.0 * f1 * f2 - f1 - f2 + 1.0) / (8.0 * f1 * f2 - 2.0 * f1 - 2.0 * f2 + 5.0)


def _purification_success_raw(f1, f2):
    """Purification success probability, no domain checks; array-friendly."""
    return (8.0 / 9.0) * f1 * f2 - (2.0 / 9.0) * (f1 + f2) + 5.0 / 9.0


def _swap2_raw(f1, f2):
    """Two-pair swap composition, no domain checks; array-friendly."""
    return 0.25 * (1.0 + (4.0 * f1 - 1.0) * (4.0 * f2 - 1.0) / 3.0)


def purified_fidelity(f1: float, f2: float) -> float:
    """Fidelity of the surviving pair when purifying two Werner pairs.

    Symmetric, and a strict improvement over f when both inputs equal
    f in (0.5, 1).  Fixed points are 0.25, 0.5 and 1.
    """
    _check_fidelity(f1)
    _check_fidelity(f2)
    return _purified_fidelity_raw(f1, f2)


def purification_success_prob(f1: float, f2: float) -> float:
    """Probability that purifying two Werner pairs succeeds.

    Equals (8/9) f1 f2 - (2/9)(f1 + f2) + 5/9; symmetric in its arguments.
    """
    _check_fidelity(f1)
    _check_fidelity(f2)
    return _purification_success_raw(f1, f2)


def swap_fidelity(fidelities) -> float:
    """Fidelity of the end-to-end pair after swapping a chain of pairs.

    The Werner parameters multiply, so the result is order-independent
    and a single-element list is the identity.
    """
    fids = list(fidelities)
    if not fids:
        raise ValueError("swap_fidelity needs at least one fidelity")
    for f in fids:
        _check_fidelity(f)
    if len(fids) == 1:
        return float(fids[0])
    w = 1.0
    for f in fids:
        w *= (4.0 * f - 1.0) / 3.0
    return 0.25 * (1.0 + 3.0 * w)


def pseudo_fidelity(f: float) -> float:
    """Natural log of the Werner parameter; additive under swapping.

    Defined for f > 0.25 only and always <= 0, with 0 exactly at f = 1.
    """
    _check_fidelity(f)
    w = (4.0 * f - 1.0) / 3.0
    if w <= 0.0:
        raise ValueError(f"pseudo-fidelity undefined at f={f!r} (f must exceed 0.25)")
    return min(math.log(w), 0.0)


def inverse_pseudo_fidelity(phi: float) -> float:
    """Fidelity whose pseudo-fidelity is phi (phi must be <= 0)."""
    if phi > _DOMAIN_TOL:
        raise ValueError(f"pseudo-fidelity must be <= 0, got {phi!r}")
    return 0.25 * (1.0 + 3.0 * math.exp(min(phi, 0.0)))
