"""Dense complex linear-algebra kernels.

Everything here operates on plain numpy arrays (complex128) at desk scale
(matrices up to ~100x100). The Hermitian eigensolver is LAPACK's, through
`np.linalg.eigh`; the Takagi factorization is built on the LAPACK SVD of S
(`np.linalg.svd`) with per-cluster phase correction. Results are
reproducible bit for bit on one machine with one BLAS/LAPACK build; another
build may move them in the last digits.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import NoConvergence, NotHermitian, NotPSD, NotSymmetric

__all__ = [
    "EigResult",
    "TakagiResult",
    "hermitian_eig",
    "hermitian_eigvals",
    "numeric_rank",
    "psd_root_factor",
    "takagi",
    "column_basis",
]

DEFAULT_RANK_TOL = 1e-7


class EigResult(NamedTuple):
    values: np.ndarray  # real, ascending
    vectors: np.ndarray  # unitary, columns are eigenvectors


class TakagiResult(NamedTuple):
    u: np.ndarray  # unitary
    values: np.ndarray  # real, nonnegative, descending


def _as_complex_matrix(a):
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.view(float))):
        raise ValueError("matrix entries must be finite")
    return a


def _check_hermitian(a, tol):
    """NotHermitian when a - a^* exceeds tol times the Frobenius norm of a."""
    scale = np.linalg.norm(a)
    asym = np.linalg.norm(a - a.conj().T)
    if asym > tol * max(scale, 1e-300):
        raise NotHermitian(f"asymmetry {asym:.3e} exceeds {tol:.1e} * ||a||")


def _eigh(a, values_only=False):
    """np.linalg.eigh, or eigvalsh for the values alone, with LAPACK's failure
    to converge as NoConvergence."""
    try:
        return np.linalg.eigvalsh(a) if values_only else np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigh did not converge: {exc}") from None


def _hermitian_part(a, tol):
    """(a + a^*)/2 of a finite square matrix a whose asymmetry passes `tol`.

    An infinite `tol` passes every matrix, so its test is not run.
    """
    a = _as_complex_matrix(a)
    if tol < np.inf:
        _check_hermitian(a, tol)
    return (a + a.conj().T) / 2.0


def hermitian_eig(a, tol=1e-9):
    """Eigendecomposition of a Hermitian matrix by LAPACK (`np.linalg.eigh`).

    Returns eigenvalues in ascending order and a unitary matrix of
    eigenvectors of the Hermitian part (a + a^*)/2, so callers pass a itself.
    `tol` bounds the accepted Hermitian asymmetry of the input relative to
    its norm; np.inf skips the test.
    """
    work = _hermitian_part(a, tol)
    n = work.shape[0]
    if n == 0:
        return EigResult(np.zeros(0), np.zeros((0, 0), dtype=complex))
    if n == 1:
        return EigResult(np.array([work[0, 0].real]), np.eye(1, dtype=complex))
    return EigResult(*_eigh(work))


def hermitian_eigvals(a, tol):
    """Ascending eigenvalues of a Hermitian matrix by LAPACK (`np.linalg.eigvalsh`).

    The values of `hermitian_eig(a, tol)`, with the same checks and errors,
    for callers that read no eigenvector. They may differ from its values
    in the last bits: LAPACK computes them by another algorithm.
    """
    work = _hermitian_part(a, tol)
    if work.shape[0] <= 1:
        return work.diagonal().real.copy()
    return _eigh(work, values_only=True)


def numeric_rank(eigenvalues, tol=DEFAULT_RANK_TOL):
    """Count eigenvalues above tol * max(1, largest magnitude)."""
    vals = np.abs(np.asarray(eigenvalues, dtype=float))
    if vals.size == 0:
        return 0
    return int(np.sum(vals > tol * max(1.0, vals.max())))


def _phase_normalize_rows(x, eps):
    """Scale each row by a unimodular factor so its leading entry (the first
    above eps in magnitude) is >= 0; a row with no such entry stays as it is."""
    above = np.abs(x) > eps
    lead = x[np.arange(x.shape[0]), np.argmax(above, axis=1)]
    has_lead = above.any(axis=1)
    # np.hypot is the magnitude abs() gives a complex scalar; np.abs of a
    # complex array may differ from it in the last bit
    magnitude = np.where(has_lead, np.hypot(lead.real, lead.imag), 1.0)
    # rows without a lead get no factor at all, so their signed zeros survive
    return np.where(has_lead[:, None], x * (np.conj(lead) / magnitude)[:, None], x)


def psd_root_factor(a, tol=1e-8, rank_tol=DEFAULT_RANK_TOL, eig=None):
    """Factor a Hermitian PSD matrix as a = X^* X with rank(a) rows.

    Eigendecompose, clamp round-off negatives, then QR so that X comes out
    in a row-echelon-like form (leading entries real nonnegative), which
    keeps the downstream column-basis search stable. A caller that already
    holds `hermitian_eig` of the Hermitian part of a passes it as `eig`;
    a itself is still checked for Hermitian symmetry.
    """
    a = _as_complex_matrix(a)
    n = a.shape[0]
    _check_hermitian(a, max(tol, 1e-9))
    values, vectors = hermitian_eig(a, tol=np.inf) if eig is None else eig
    scale = max(np.abs(values).max(initial=0.0), 0.0)
    if values.size and values[0] < -tol * max(scale, 1.0):
        raise NotPSD(f"eigenvalue {values[0]:.6e} below -{tol:.1e} * ||a||")
    values = np.clip(values, 0.0, None)
    r = numeric_rank(values, rank_tol)
    if r == 0:
        return np.zeros((0, n), dtype=complex)
    top = np.argsort(values)[::-1][:r]
    b = (np.sqrt(values[top])[:, None]) * vectors[:, top].conj().T
    _, rmat = np.linalg.qr(b)
    return _phase_normalize_rows(rmat, 1e-13 * max(scale, 1.0))


def cluster_bounds(values, width):
    """Split sorted real values into clusters of gap <= width."""
    bounds = []
    i = 0
    n = len(values)
    while i < n:
        j = i + 1
        while j < n and values[j] - values[j - 1] <= width:
            j += 1
        bounds.append((i, j))
        i = j
    return bounds


def _joint_eigh(h, k, cluster_tol):
    """Unitary P with P^* h P and P^* k P diagonal, for commuting Hermitian h, k.

    Diagonalizes h, then k on each cluster of h's eigenvalues (gaps at most
    cluster_tol times their spread, at least 1); real h and k give a real P.
    """
    vals, p = _eigh(h)
    spread = max(vals.max() - vals.min(), 1.0) if vals.size else 1.0
    for i, j in cluster_bounds(vals, cluster_tol * spread):
        if j - i > 1:
            block = p[:, i:j]
            sub = block.conj().T @ k @ block
            p[:, i:j] = block @ _eigh((sub + sub.conj().T) / 2.0)[1]
    return p


def takagi(s, tol=1e-8):
    """Autonne-Takagi factorization S = U diag(values) U^T.

    S is complex symmetric up to `tol` (np.inf skips the test), and its
    symmetric part is factored, so callers pass S itself. U is unitary and
    the values are the singular values in descending order. Built from the
    LAPACK SVD S = Q diag(sigma) V^*: simple singular values get a
    per-vector phase correction of their left singular vector, clusters
    (relative width 1e-8) a complex-symmetric block diagonalized by
    `_joint_eigh` of its real and imaginary parts. (Eigenvectors of S S^*
    would serve too, but its eigenvalues square the singular values, which
    loses the small ones.)
    """
    s = _as_complex_matrix(s)
    n = s.shape[0]
    scale = np.linalg.norm(s)
    if np.linalg.norm(s - s.T) > tol * max(scale, 1e-300):
        raise NotSymmetric(
            f"asymmetry {np.linalg.norm(s - s.T):.3e} exceeds {tol:.1e} * ||s||"
        )
    if n == 0:
        return TakagiResult(np.zeros((0, 0), dtype=complex), np.zeros(0))
    s = (s + s.T) / 2.0
    try:
        q, sigma, _ = np.linalg.svd(s)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"svd did not converge: {exc}") from None

    u = np.zeros((n, n), dtype=complex)
    smax = max(sigma[0], 1.0) if sigma.size else 1.0
    width = 1e-8 * smax
    # -sigma ascends, and its gaps are exactly those of sigma
    for i, j in cluster_bounds(-sigma, width):
        block = q[:, i:j]
        if sigma[i] <= width:
            # null cluster: any orthonormal basis works
            u[:, i:j] = block
        elif j - i == 1:
            v = block[:, 0]
            c = np.vdot(v, s @ np.conj(v))
            if abs(c) <= 1e-300:
                u[:, i] = v
            else:
                u[:, i] = v * np.exp(0.5j * np.angle(c))
        else:
            b = block.conj().T @ s @ block.conj()
            b = (b + b.T) / 2.0
            o = _joint_eigh(np.real(b), np.imag(b), 1e-10)
            d = np.diag(o.T @ b @ o)
            u[:, i:j] = block @ (o * np.exp(0.5j * np.angle(d))[None, :])

    # Rayleigh refinement: the diagonal of U^* S conj(U) gives each value
    # for the phases chosen above, and its own phase corrects what is left.
    diag = np.einsum("ij,ij->j", u.conj(), s @ u.conj())
    keep = np.abs(diag) > 1e-300
    u[:, keep] = u[:, keep] * np.exp(0.5j * np.angle(diag[keep]))[None, :]
    sigma = np.abs(diag)
    order = np.argsort(-sigma, kind="stable")
    sigma = sigma[order]
    u = u[:, order]

    resid = np.linalg.norm(u @ np.diag(sigma) @ u.T - s)
    if resid > max(tol, 1e-10) * max(scale, 1.0):
        raise NoConvergence(
            f"takagi residual {resid:.3e} exceeds {max(tol, 1e-10):.1e} * ||s||"
        )
    return TakagiResult(u, sigma)


def column_basis(x, tol=DEFAULT_RANK_TOL):
    """Greedy left-to-right pivoted column basis of x.

    Returns ascending indices of the earliest maximal independent column
    set. A column is accepted when its residual against the span of the
    already-selected columns exceeds tol times its own norm, which makes
    the selection invariant under positive rescaling of columns.
    """
    x = np.asarray(x, dtype=complex)
    if x.ndim != 2:
        raise ValueError("column_basis expects a matrix")
    rows, cols = x.shape
    residual = x.copy()
    basis = []
    for j in range(cols):
        norm_orig = np.linalg.norm(x[:, j])
        if norm_orig == 0.0:
            continue
        col = residual[:, j]
        rnorm = np.linalg.norm(col)
        if rnorm > tol * norm_orig:
            basis.append(j)
            if len(basis) == rows:
                break
            qcol = col / rnorm
            tail = residual[:, j + 1 :]
            tail -= np.outer(qcol, qcol.conj() @ tail)
    return basis
