"""Symmetric matrix pencils C - lambda B with positive definite B.

Characteristic values and the eigenspaces of C are the spectral raw
material for everything downstream: rate extremes of the quadratic pair,
the positive/negative splitting of the guiding matrix, and the disks the
shooting stage launches from.

Every function takes one ``(n, n)`` matrix or an ``(m, n, n)`` stack of
them and runs on ``numpy.linalg`` only, so a whole time grid is one call.
The solve route is a Cholesky reduction ``B = L L^T`` followed by a
symmetric eigendecomposition of ``L^-1 C L^-T``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegeneratePencil,
    EmptyPositiveSubspace,
    NotPositiveDefinite,
)

__all__ = [
    "SymmetricPencil",
    "ProjectorPair",
    "cholesky_spd",
    "solve_pencil",
    "lambda_extremes",
    "spectral_projectors",
    "lambda_minus_plus",
]

_SYM_TOL = 1e-10
# an eigenvalue within this fraction of ||C||_2 of zero makes C degenerate
DEGENERACY_RTOL = 1e-10

# Entries near the float limit overflow in the products of the functions
# marked ``@np.errstate(over="ignore", invalid="ignore")``, here and in
# quadratic's forcing and rate stacks.  The inf or nan lands in a pivot, a
# characteristic value or a fitted constant, which is checked there or by
# ``quadratic.certify``, so numpy's warning would only reach stderr.
@np.errstate(over="ignore", invalid="ignore")
def _check_symmetric(a: np.ndarray, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise ValueError(
            f"{name} must be square or a stack of square matrices, "
            f"got shape {a.shape}"
        )
    scale = 1.0 + np.max(np.abs(a), axis=(-2, -1))
    if np.any(np.max(np.abs(a - a.mT), axis=(-2, -1)) > _SYM_TOL * scale):
        raise ValueError(f"{name} is not symmetric")
    return 0.5 * (a + a.mT)


def _first_non_finite(a: np.ndarray):
    """``(index, entry, value)`` of the first non-finite entry of the
    matrix or stack ``a``, or None if every entry is finite: ``index`` is
    the matrix's position in a stack (None for a single matrix) and
    ``entry`` the (row, column), counted from 1."""
    finite = np.isfinite(a)
    if finite.all():
        return None
    pos = np.unravel_index(int(np.argmin(finite)), a.shape)
    index = int(pos[0]) if a.ndim == 3 else None
    return index, (int(pos[-2]) + 1, int(pos[-1]) + 1), float(a[pos])


@dataclass
class SymmetricPencil:
    """The pair (C, B); both symmetric, B positive definite.  ``c`` and
    ``b`` are both ``(n, n)`` or both ``(m, n, n)`` stacks.

    Positive definiteness of B is established lazily by the Cholesky step
    of :func:`solve_pencil`; construction only enforces symmetry so that a
    degenerate B produces the informative pivot error, not a generic one.
    """

    c: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        self.c = _check_symmetric(self.c, "C")
        self.b = _check_symmetric(self.b, "B")
        if self.c.shape != self.b.shape:
            raise ValueError("C and B must have equal shape")


@np.errstate(over="ignore", invalid="ignore")
def _pivot_loop(a: np.ndarray, index: int | None) -> np.ndarray:
    """Cholesky factor by the textbook column loop, raising at the first
    nonpositive or non-finite pivot."""
    n = a.shape[0]
    low = np.zeros_like(a)
    for j in range(n):
        d = a[j, j] - low[j, :j] @ low[j, :j]
        if not (d > 0.0) or not np.isfinite(d):
            raise NotPositiveDefinite(j, float(d), index=index)
        low[j, j] = math.sqrt(d)
        if j + 1 < n:
            low[j + 1 :, j] = (a[j + 1 :, j] - low[j + 1 :, :j] @ low[j, :j]) / low[
                j, j
            ]
    return low


def cholesky_spd(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a symmetric positive definite matrix, or
    of each matrix in a stack.

    Raises
    ------
    NotPositiveDefinite
        With the index and value of the first nonpositive pivot and, for
        a stack, the index of the first matrix that has one; or, before
        any factorization, with the first non-finite entry.
    """
    a = np.asarray(a, dtype=float)
    bad = _first_non_finite(a)
    if bad is not None:
        index, entry, value = bad
        raise NotPositiveDefinite(None, value, index=index, entry=entry)
    try:
        low = np.linalg.cholesky(a)
        if np.all(np.isfinite(low)):
            return low
    except np.linalg.LinAlgError:
        pass
    # the factorization failed: the column loop names the pivot
    if a.ndim == 2:
        return _pivot_loop(a, None)
    return np.stack([_pivot_loop(m, k) for k, m in enumerate(a)])


@np.errstate(over="ignore", invalid="ignore")
def solve_pencil(pencil: SymmetricPencil) -> np.ndarray:
    """All characteristic values of ``C - lambda B``, ascending along the
    last axis, from ``eigh`` with its vectors dropped: ``eigvalsh`` takes
    another LAPACK route, whose values differ in the last bits."""
    low_inv = np.linalg.inv(cholesky_spd(pencil.b))
    reduced = low_inv @ pencil.c @ low_inv.mT
    return np.linalg.eigh(0.5 * (reduced + reduced.mT))[0]


def lambda_extremes(pencil: SymmetricPencil):
    """(smallest, largest) characteristic value of the pencil: two floats,
    or two arrays for a stack."""
    values = solve_pencil(pencil)
    lo, hi = values[..., 0], values[..., -1]
    if values.ndim == 1:
        return float(lo), float(hi)
    return lo, hi


@dataclass
class ProjectorPair:
    """The splitting of a symmetric nondegenerate matrix (or of each
    matrix in a stack of constant signature) into its positive and
    negative eigenspaces: their dimensions, an orthonormal basis of the
    positive one (columns) and the eigenvalues of both, ascending."""

    n_plus: int
    n_minus: int
    basis_plus: np.ndarray
    eigs_plus: np.ndarray
    eigs_minus: np.ndarray


def spectral_projectors(c: np.ndarray) -> ProjectorPair:
    """Split R^n into the positive/negative eigenspaces of symmetric ``c``.

    Raises
    ------
    DegeneratePencil
        If some eigenvalue lies inside the band
        ``DEGENERACY_RTOL * ||c||_2`` around zero — the splitting would
        then be numerically meaningless — or if the signature changes
        across a stack, or if an entry is not finite.  Every matrix is
        checked for finite entries, then for degeneracy, before any
        signature is compared.
    """
    c = _check_symmetric(c, "C")
    bad = _first_non_finite(c)
    if bad is not None:
        index, entry, value = bad
        raise DegeneratePencil(
            f"entry {entry} = {value:.6g} is not finite", index=index
        )
    values, u = np.linalg.eigh(c)
    stack = values.reshape(-1, values.shape[-1])
    norm2 = np.max(np.abs(stack), axis=-1)
    band = DEGENERACY_RTOL * norm2
    bad = (norm2 == 0.0) | np.any(np.abs(stack) <= band[:, None], axis=-1)
    if np.any(bad):
        k = int(np.argmax(bad))
        raise DegeneratePencil(
            f"eigenvalue inside the degeneracy band {band[k]:.3e} around zero",
            index=None if c.ndim == 2 else k,
        )
    n_plus = np.count_nonzero(stack > 0.0, axis=-1)
    changed = n_plus != n_plus[0]
    if np.any(changed):
        k = int(np.argmax(changed))
        n = values.shape[-1]
        raise DegeneratePencil(
            f"signature changes from (+{n_plus[0]}, -{n - n_plus[0]}) to "
            f"(+{n_plus[k]}, -{n - n_plus[k]})",
            index=k,
        )
    # eigh sorts ascending, so the negative eigenspace comes first
    n_minus = values.shape[-1] - int(n_plus[0])
    return ProjectorPair(
        n_plus=int(n_plus[0]),
        n_minus=n_minus,
        basis_plus=u[..., n_minus:],
        eigs_plus=values[..., n_minus:],
        eigs_minus=values[..., :n_minus],
    )


def lambda_minus_plus(pencil: SymmetricPencil, proj: ProjectorPair):
    """Smallest characteristic value of the pencil restricted to the
    positive subspace of C (a float, or an array for a stack).

    With ``V`` an orthonormal basis of that subspace this is the smallest
    characteristic value of the compressed pair
    ``(V^T C V, V^T B V)``; it bounds W from below against V on the
    positive subspace and so controls the entry disks.

    Raises
    ------
    EmptyPositiveSubspace
        If the positive subspace is trivial.
    """
    if proj.n_plus == 0:
        raise EmptyPositiveSubspace("C has no positive eigenvalues")
    basis = proj.basis_plus
    restricted = SymmetricPencil(
        c=basis.mT @ pencil.c @ basis, b=basis.mT @ pencil.b @ basis
    )
    lowest = solve_pencil(restricted)[..., 0]
    return float(lowest) if lowest.ndim == 0 else lowest
