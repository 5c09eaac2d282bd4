"""Dense symmetric eigensolver, self-contained: the one dense eigen-oracle.

The program's eigenvalues come from LAPACK through numpy (the profile
engine, ``spectra.solve_profiles``). This module is the independent solver
the engine's values are tested against, run through
``spectra.symmetric_eigenvalues`` on a profile's quotient or on a tree's
full n x n level matrix; no production path calls it.

Householder reduction to tridiagonal form followed by the implicit-shift QL
iteration (the classic tred2/imtql2 pair, ported to numpy). It returns all
eigenvalues sorted descending together with an orthonormal matrix of
eigenvectors (as columns, matching the value order).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceFailure

#: Iteration budget multiplier; exceeding ``30 * n`` QL steps signals a bug
#: rather than hard input.
ITERATION_FACTOR = 30


def householder_tridiagonalize(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Orthogonal reduction of a symmetric matrix to tridiagonal form.

    Returns ``(d, e, q)`` with diagonal ``d``, subdiagonal ``e`` (length n,
    ``e[n-1]`` is zero padding) and the accumulated orthogonal ``q`` so that
    ``q.T @ a @ q`` is tridiagonal.
    """
    A = np.array(a, dtype=float)
    n = A.shape[0]
    d = np.zeros(n)
    e = np.zeros(n)
    for i in range(n - 1, 0, -1):
        scale = float(np.abs(A[:i, i]).sum())
        if i == 1 or scale == 0.0:
            e[i] = A[i - 1, i]
            d[i] = 0.0
            continue
        A[:i, i] /= scale
        u = A[:i, i]
        h = float(u @ u)
        f = float(u[i - 1])
        g = -math.copysign(math.sqrt(h), f)
        e[i] = scale * g
        h -= f * g
        u[i - 1] = f - g
        # Row i keeps u/h for the later transform accumulation. The active
        # block A[:i, :i] stays exactly symmetric under the rank-2 updates.
        A[i, :i] = u / h
        p = (A[:i, :i] @ u) / h
        hh = float(p @ u) / (2.0 * h)
        q = p - hh * u
        A[:i, :i] -= np.outer(q, u) + np.outer(u, q)
        d[i] = h
    e[:-1] = e[1:]
    e[-1] = 0.0
    # Accumulate the Householder reflectors into an explicit orthogonal matrix.
    d[0] = 0.0
    for i in range(n):
        if d[i] != 0.0:
            g_row = A[i, :i] @ A[:i, :i]
            A[:i, :i] -= np.outer(A[:i, i], g_row)
        d[i] = A[i, i]
        A[i, i] = 1.0
        A[:i, i] = 0.0
        A[i, :i] = 0.0
    return d, e, A


def ql_implicit_shift(d: np.ndarray, e: np.ndarray, z: np.ndarray) -> None:
    """Implicit-shift QL iteration on a symmetric tridiagonal matrix.

    ``d`` (diagonal) and ``e`` (subdiagonal, ``e[n-1]`` scratch) are reduced
    in place; on return ``d`` holds the eigenvalues. ``z`` is multiplied by
    the eigenvector matrix, so passing the orthogonal factor of the
    tridiagonalization yields eigenvectors of the original matrix.
    """
    n = len(d)
    if n <= 1:
        return
    max_steps = ITERATION_FACTOR * n
    eps = float(np.finfo(float).eps)
    # The scalar recurrences run on Python floats: the same IEEE binary64
    # operations as on numpy scalars, without their per-operation overhead.
    dl = [float(x) for x in d]
    el = [float(x) for x in e]
    el[n - 1] = 0.0
    steps = 0
    for l in range(n):
        while True:
            m = l
            while m + 1 < n and abs(el[m]) > eps * (abs(dl[m]) + abs(dl[m + 1])):
                m += 1
            if m == l:
                break
            steps += 1
            if steps > max_steps:
                raise ConvergenceFailure(
                    f"QL iteration exceeded {max_steps} steps on an "
                    f"order-{n} tridiagonal matrix"
                )
            # Wilkinson-style shift from the leading 2x2 block.
            g = (dl[l + 1] - dl[l]) / (2.0 * el[l])
            r = math.hypot(g, 1.0)
            g = dl[m] - dl[l] + el[l] / (g + math.copysign(r, g))
            s, c, p = 1.0, 1.0, 0.0
            for i in range(m - 1, l - 1, -1):
                f = s * el[i]
                b = c * el[i]
                if abs(f) > abs(g):
                    c = g / f
                    r = math.hypot(c, 1.0)
                    el[i + 1] = f * r
                    s = 1.0 / r
                    c *= s
                else:
                    s = f / g
                    r = math.hypot(s, 1.0)
                    el[i + 1] = g * r
                    c = 1.0 / r
                    s *= c
                g = dl[i + 1] - p
                r = (dl[i] - g) * s + 2.0 * c * b
                p = s * r
                dl[i + 1] = g + p
                g = c * r - b
                col = z[:, i + 1].copy()
                z[:, i + 1] = s * z[:, i] + c * col
                z[:, i] = c * z[:, i] - s * col
            dl[l] -= p
            el[l] = g
            el[m] = 0.0
    d[:] = dl
    e[:] = el


def symmetric_eigh(a) -> tuple[np.ndarray, np.ndarray]:
    """All eigenvalues (descending) and eigenvectors of a symmetric matrix,
    by Householder tridiagonalization and implicit-shift QL."""
    A = np.asarray(a, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"need a square matrix, got shape {A.shape}")
    n = A.shape[0]
    if n == 1:
        return np.array([float(A[0, 0])]), np.eye(1)
    d, e, z = householder_tridiagonalize(A)
    ql_implicit_shift(d, e, z)
    order = np.argsort(d, kind="stable")[::-1]
    return d[order], z[:, order]
