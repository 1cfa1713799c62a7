"""Parameter matrices of free orthogonal quantum groups.

A valid parameter is an invertible complex matrix Q with Q conj(Q) = c 1 for
a sign c in {+1, -1}.  Two parameters give monoidally equivalent duals
exactly when the signs agree and tr(Q* Q) agrees; each parameter is
equivalent to the quantum SU(2) family at a unique deformation value q,
recovered here from the invariant pair.

Sign convention: for the canonical 2x2 matrix |q|^(-1/2) [[0, -q], [1, 0]]
one computes Q conj(Q) = -sgn(q) 1, so the solver uses sgn(q) = -c.  This is
a derived orientation, not an axiom, and it is pinned by an exact test on
the canonical entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


__all__ = [
    "QMatrix",
    "EquivalenceInvariant",
    "validate_q",
    "invariant_pair",
    "monoidally_equivalent",
    "solve_su2_parameter",
    "canonical_su2_qmatrix",
    "random_valid_qmatrix",
]


@dataclass(frozen=True, eq=False)
class QMatrix:
    """Validated parameter matrix with its detected sign."""

    entries: np.ndarray
    sign: int
    tol: float

    @property
    def n(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class EquivalenceInvariant:
    sign: int
    trace: float


def validate_q(entries, tol: float = 1e-10) -> QMatrix:
    """Check invertibility and Q conj(Q) = +-1, returning the validated matrix.

    conj is entrywise conjugation (not the adjoint).  Rejections carry the
    reason: "singular" or "not scalar".
    """
    mat = np.asarray(entries, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("parameter matrix must be square")
    n = mat.shape[0]
    svals = np.linalg.svd(mat, compute_uv=False)
    if svals[-1] <= tol:
        raise ValueError(f"singular: smallest singular value {svals[-1]:.3e} <= {tol:.1e}")
    prod = mat @ np.conj(mat)
    for sign in (1, -1):
        if np.max(np.abs(prod - sign * np.eye(n))) < tol:
            return QMatrix(mat, sign, tol)
    raise ValueError("not scalar: Q conj(Q) is not +-identity within tolerance")


def invariant_pair(qm: QMatrix) -> EquivalenceInvariant:
    """The complete invariant (sign of Q conj(Q), tr(Q* Q))."""
    trace = np.trace(qm.entries.conj().T @ qm.entries)
    if abs(trace.imag) > qm.tol:
        raise ValueError("trace of Q*Q must be real")
    return EquivalenceInvariant(qm.sign, float(trace.real))


_EQUIV_TOL = 1e-10


def monoidally_equivalent(q1: QMatrix, q2: QMatrix) -> bool:
    """Same sign and same trace invariant."""
    a, b = invariant_pair(q1), invariant_pair(q2)
    return a.sign == b.sign and abs(a.trace - b.trace) < _EQUIV_TOL


def solve_su2_parameter(qm: QMatrix) -> float:
    """The unique deformation value q matching this parameter matrix.

    |q| is the root in (0, 1] of x + 1/x = tr(Q*Q) and the sign is -sign of
    Q conj(Q) (the canonical-matrix orientation).
    """
    inv = invariant_pair(qm)
    tau = inv.trace
    if tau < 2.0 - qm.tol:
        raise ValueError(f"trace invariant {tau!r} below 2; parameter data corrupted")
    tau = max(tau, 2.0)
    absq = (tau - np.sqrt(tau * tau - 4.0)) / 2.0
    absq = min(absq, 1.0)
    return -inv.sign * absq


def canonical_su2_qmatrix(q) -> QMatrix:
    """|q|^(-1/2) [[0, -q], [1, 0]], the 2x2 parameter of quantum SU(2)."""
    q = float(q)
    if not math.isfinite(q) or q == 0.0 or abs(q) > 1.0:
        raise ValueError(f"q must lie in [-1, 1] and be nonzero, got {q!r}")
    s = abs(q) ** -0.5
    return validate_q(np.array([[0.0, -q * s], [s, 0.0]], dtype=complex))


def random_valid_qmatrix(rng: np.random.Generator) -> QMatrix:
    """Random valid parameter matrix for property tests.

    Built as V J V^(-1) with J^2 = +-1 (diagonal of +-1, or a symplectic
    block form for the negative sign) and a well-conditioned random V, then
    twisted by a global phase.  Rejection sampling would essentially never
    hit the constraint surface, hence the constructive route; the eigenvalue
    stretch in V is what makes the singular values come in (s, 1/s) pairs
    rather than collapse to 1.
    """
    n = int(rng.integers(2, 6))
    negative = bool(rng.integers(0, 2)) and n % 2 == 0
    if negative:
        j = np.zeros((n, n))
        for b in range(n // 2):
            j[2 * b, 2 * b + 1] = -1.0
            j[2 * b + 1, 2 * b] = 1.0
    else:
        diag = rng.choice([-1.0, 1.0], size=n)
        j = np.diag(diag)
    o1, _ = np.linalg.qr(rng.normal(size=(n, n)))
    o2, _ = np.linalg.qr(rng.normal(size=(n, n)))
    stretch = np.exp(rng.uniform(-0.5, 0.5, size=n))
    vmat = o1 @ np.diag(stretch) @ o2
    mat = vmat @ j @ np.linalg.inv(vmat)
    phase = np.exp(1j * rng.uniform(0.0, 2 * np.pi))
    return validate_q(phase * mat, tol=1e-8)
