"""Atomic-measure extraction from truncated moment data.

Pipeline: factor the moment matrix as X^bullet X, pick a column basis,
build one shift operator per variable, verify joint hyponormality
(conjugate-transpose mode) or complex symmetry (transpose mode),
simultaneously diagonalize, and read atoms and weights off the diagonal.

`bullet` is the conjugate transpose for optimization data and the plain
transpose for interpolation data; real optimization data satisfies both.
The sequence keeps every decomposition of M_t(y) that ranks and factors read.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import (
    BasisDegenerate,
    DegenerateCombination,
    IsotropicEigenvector,
    MissingMoment,
    MomextError,
    NotFlat,
    NotHyponormal,
    OrderTooSmall,
    ParseError,
    ShiftInconsistent,
)
from .moment import (
    _choice,
    _complexes,
    _fmt,
    _integer,
    _merge_close,
    _read_records,
    _tolerant_order,
    _write_records,
    classify_structure,
    hyponormality_block,
    layout,
    localizing_matrix,
    moment_matrix,  # unused here; perfbench's tracer test checks it is rebound in this module
    total_degree,
    unit_index,
)

__all__ = [
    "Tolerances",
    "ShiftFamily",
    "AtomicMeasure",
    "ExtractionReport",
    "FlatnessInfo",
    "HyponormalityCheck",
    "check_flatness",
    "compute_shifts",
    "check_hyponormality",
    "simultaneous_diagonalize",
    "extract_measure",
    "verify_measure",
    "feasibility_report",
    "write_measure",
    "read_measure",
]

CONJUGATE = "conjugate_transpose"
TRANSPOSE = "transpose"

DIAG_ATTEMPTS = 20  # random combinations simultaneous_diagonalize tries
WEIGHT_FLOOR = 1e-8  # conjugate-mode atoms lighter than this times y00 are dropped


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds for the extraction pipeline.

    Defaults suit solver- or machine-accurate data. `printed()` suits
    matrices transcribed with four decimals, where eigenvalue noise sits
    around 1e-4.
    """

    rank_tol: float = 1e-7
    psd_tol: float = 1e-8
    shift_tol: float = 1e-6
    hypo_tol: float = 1e-6
    struct_tol: float = 1e-9
    offdiag_tol: float = 1e-8

    def __post_init__(self):
        for name, value in vars(self).items():
            if not 0 < value < np.inf:  # NaN fails too
                raise ValueError(f"{name} must be positive and finite, got {value}")

    @property
    def symmetry_tol(self):
        """The complex-symmetry tolerance of a Takagi factorization: psd_tol, at least 1e-10.

        `interpolate` and `extract_measure` both factor H_t at it, so the
        sequence serves the extraction the factorizations of the rank search.
        """
        return max(self.psd_tol, 1e-10)

    @classmethod
    def printed(cls):
        return cls(
            rank_tol=1e-3,
            psd_tol=1e-3,
            shift_tol=5e-3,
            hypo_tol=5e-3,
            struct_tol=5e-4,
            offdiag_tol=5e-3,
        )


@dataclass
class ShiftFamily:
    shifts: list  # n matrices, each r x r
    mode: str
    r: int
    residual: float  # max relative shift residual over all testable columns

    @functools.cached_property
    def norms(self):
        """Spectral norm of each shift, from one stacked SVD, for every test that scales by it."""
        return np.linalg.svd(np.asarray(self.shifts, dtype=complex), compute_uv=False)[:, 0]


@dataclass
class AtomicMeasure:
    atoms: list  # points in C^n (tuples of complex)
    weights: list  # real > 0 in conjugate mode, complex in transpose mode
    mode: str

    @property
    def n(self):
        return len(self.atoms[0]) if self.atoms else 0

    def sorted(self):
        """Atoms in lexicographic (re, im) order; round-off differences tie."""
        order = _tolerant_order(
            [tuple(x for z in atom for x in (z.real, z.imag)) for atom in self.atoms]
        )
        return AtomicMeasure(
            [self.atoms[k] for k in order],
            [self.weights[k] for k in order],
            self.mode,
        )


@dataclass
class FlatnessInfo:
    ranks: list  # rank M_t(y) for t = 0..d
    d: int
    dk: int

    @property
    def r_d(self):
        return self.ranks[self.d]

    @property
    def r_dm1(self):
        return self.ranks[self.d - 1] if self.d >= 1 else self.ranks[0]

    @property
    def r_ddk(self):
        return self.ranks[max(self.d - self.dk, 0)]

    @property
    def flat_1(self):
        return self.r_d == self.r_dm1

    @property
    def flat_dk(self):
        return self.r_d == self.r_ddk


@dataclass
class HyponormalityCheck:
    min_eig: float
    commutator_norm: float
    passed: bool


@dataclass
class ExtractionReport:
    d: int = 0
    dk: int = 1
    mode: str = CONJUGATE
    ranks: list = field(default_factory=list)
    flat_1: bool = False
    flat_dk: bool = False
    rank: int = 0
    min_moment_eig: float | None = None  # conjugate mode only
    structure: object = None
    hypo_min_eig: float | None = None
    hypo_commutator: float | None = None
    data_hypo_min_eig: float | None = None
    shift_residual: float | None = None
    shift_symmetry: float | None = None
    reconstruction_residual: float | None = None
    certification: str = "failed"
    atom_count: int = 0


def check_flatness(seq, d=None, dk=1, tol=1e-7):
    """Ranks of the nested moment matrices M_0(y) .. M_d(y).

    Paired (Hermitian) data is ranked through the eigenvalues of each M_t:
    M_d's from its kept decomposition (`seq.eig(d)`), whose vectors the root
    factor reads, and every leading M_t's from its values-only spectrum
    (`seq.eigvals(t)`). Hankel data is complex symmetric, so its rank comes
    from the singular values (`seq.takagi(t)`).

    M_d is ranked by `numeric_rank`. Let delta be the largest magnitude it
    discards, at least eps * max(1, ||M_d||). A leading M_t counts a value
    when it is above delta and either passes `numeric_rank`'s own test or
    stands 1/tol above delta. Its values past index rank M_d are at most
    delta (interlacing), so rank M_t never exceeds rank M_d, and a value
    well clear of everything M_d discards is not lost to the relative
    threshold of the smaller matrix. A gap dk < 1 raises OrderTooSmall:
    flat_dk would compare rank M_d with itself.
    """
    if dk < 1:
        raise OrderTooSmall(f"certification needs a gap dk >= 1, got {dk}")
    d = seq.d if d is None else d

    def magnitudes(t):
        if seq.mode == "hankel":
            return seq.takagi(t).values
        return np.abs(seq.eig(t).values if t == d else seq.eigvals(t))

    top = magnitudes(d)
    r_d = linalg.numeric_rank(top, tol)
    discarded = np.sort(top)[: top.size - r_d]
    delta = max(discarded.max(initial=0.0), np.finfo(float).eps * max(1.0, top.max(initial=0.0)))
    ranks = []
    for t in range(d):
        vals = magnitudes(t)
        counted = (vals > tol * max(1.0, vals.max())) | (tol * vals > delta)
        ranks.append(int(np.sum(counted & (vals > delta))))
    return FlatnessInfo(ranks=ranks + [r_d], d=d, dk=dk)


def compute_shifts(x, labels, basis, mode, tol=1e-6):
    """Shift operators T_k with T_k x_alpha = x_{alpha+e_k} on the basis.

    `labels` are the graded-lex column labels of x, every |alpha| <= d.
    The defining system uses only the basis columns; the returned residual
    is the worst relative error of the shift identity over every column of
    degree <= d-1, and exceeding `tol` raises ShiftInconsistent.
    """
    x = np.asarray(x, dtype=complex)
    r = len(basis)
    if r == 0 or r != x.shape[0]:
        raise BasisDegenerate(f"basis of size {r} cannot drive a rank-{x.shape[0]} factor")
    n = len(labels[0])
    d = max(total_degree(a) for a in labels)
    lay = layout(n, d)
    for bi in basis:
        if bi >= lay.size(d - 1):
            raise BasisDegenerate(
                f"basis label {labels[bi]} has no shifted column for variable 1"
            )
    # targets[k][i]: the column of label i shifted by e_{k+1}
    targets = np.stack([lay.shift(unit_index(n, k), d - 1) for k in range(1, n + 1)])
    b = x[:, basis]
    shifts = []
    for target in targets:
        s = x[:, target[basis]]
        try:
            t = np.linalg.solve(b.T, s.T).T
        except np.linalg.LinAlgError:
            raise BasisDegenerate("basis columns are numerically singular") from None
        shifts.append(t)

    # column i of shift k's residual: T_k x_i - x_{targets[k][i]}, |label i| <= d-1
    resid = np.stack(shifts) @ x[:, : lay.size(d - 1)] - x[:, targets].transpose(1, 0, 2)
    worst = float(np.linalg.norm(resid, axis=1).max()) / max(np.linalg.norm(x), 1e-300)
    if worst > tol:
        raise ShiftInconsistent(
            f"shift residual {worst:.6e} exceeds {tol:.1e}; the shift operators "
            f"are not well defined on this data"
        )
    return ShiftFamily(shifts=shifts, mode=mode, r=r, residual=worst)


def operator_hypo_block(*shifts):
    """Hermitian operator block testing the joint hyponormality of the shifts.

    Laid out as the data-level block (`moment.hyponormality_grid`): cell
    (r, s) is S_s^* S_r, with S_0 = I and S_k the k-th shift, so n shifts
    give one (n+1) x (n+1) grid of cells (2x2 for one shift).
    """
    ts = np.asarray(shifts, dtype=complex)
    k, r = ts.shape[:2]
    # cells[i, j] = S_j^* S_i; products with I are placed, not formed
    cells = np.empty((k + 1, k + 1, r, r), dtype=complex)
    cells[1:, 1:] = ts[None].conj().swapaxes(2, 3) @ ts[:, None]
    cells[0, 0] = np.eye(r)
    cells[1:, 0] = ts
    cells[0, 1:] = ts.conj().swapaxes(1, 2)
    return cells.swapaxes(1, 2).reshape((k + 1) * r, (k + 1) * r)


def _max_commutator(ops):
    """Largest Frobenius norm of a pairwise commutator among ops, from one stacked product."""
    ops = np.asarray(ops, dtype=complex)
    products = ops[:, None] @ ops[None, :]  # (i, j): ops[i] @ ops[j]
    return float(np.linalg.norm(products - products.swapaxes(0, 1), axis=(2, 3)).max())


def check_hyponormality(shifts, tol=1e-6):
    """Operator-level joint hyponormality test.

    The minimum eigenvalue of the one operator block of all n shifts
    (`operator_hypo_block`), and the largest pairwise commutator norm among
    the shifts and their adjoints. For n == 1 the commutator alone decides:
    the self-commutator's trace vanishes in finite dimension, so PSD forces
    it to zero.
    """
    ts = [np.asarray(t, dtype=complex) for t in shifts.shifts]
    n = len(ts)
    scale = max(1.0, shifts.norms.max() ** 2)
    comm = _max_commutator(ts + [t.conj().T for t in ts])
    min_eig = float(linalg.hermitian_eigvals(operator_hypo_block(*ts), tol=1e-6)[0])
    passed = comm <= tol * scale and (n == 1 or min_eig >= -tol * scale)
    return HyponormalityCheck(
        min_eig=min_eig, commutator_norm=float(comm), passed=bool(passed)
    )


def _unitary_diagonalizer(a, offdiag_tol):
    """Unitary P with P^* a P diagonal, for (numerically) normal a.

    `linalg._joint_eigh` of the commuting Hermitian and skew parts of a.
    Returns None when the result fails the off-diagonal test, signalling
    the caller to redraw.
    """
    p = linalg._joint_eigh((a + a.conj().T) / 2.0, (a - a.conj().T) / 2.0j, 1e-9)
    return None if _off_diagonal(p.conj().T @ a @ p, np.linalg.norm(a, 2), offdiag_tol) else p


def _off_diagonal(e, norm, tol):
    """True when the off-diagonal part of e = P^bullet a P exceeds tol * max(1, norm),
    norm being ||a||_2. A stack of matrices e with one norm each gives one
    decision each, from one vectorized comparison."""
    off = np.where(np.eye(e.shape[-1], dtype=bool), 0.0, e)
    return np.linalg.norm(off, axis=(-2, -1)) > tol * np.maximum(1.0, norm)


def _orthogonal_diagonalizer(a, offdiag_tol):
    """Complex-orthogonal P (P^T P = I) with P^T a P diagonal, a symmetric.

    Uses the general eigendecomposition plus bilinear normalization; returns
    ('isotropic', None) when an eigenvector has negligible bilinear norm.
    """
    vals, vecs = np.linalg.eig(a)
    p = np.empty_like(vecs)
    for idx in range(vecs.shape[1]):
        v = vecs[:, idx]
        bil = v @ v
        if abs(bil) < 1e-6:
            return "isotropic", None
        p[:, idx] = v / np.sqrt(bil)
    if (np.linalg.norm(p.T @ p - np.eye(a.shape[0])) > offdiag_tol * a.shape[0]
            or _off_diagonal(p.T @ a @ p, np.linalg.norm(a, 2), offdiag_tol)):
        return "retry", None
    return "ok", p


def simultaneous_diagonalize(shifts, seed=0, tol=1e-8):
    """Joint diagonalization of a commuting shift family.

    Draws random real combination coefficients, diagonalizes the combined
    operator (Hermitian two-step in conjugate mode, general eigensolve with
    bilinear normalization in transpose mode), and retries on eigenvalue
    collisions or isotropic eigenvectors, up to DIAG_ATTEMPTS draws.
    Returns (P, coords) with coords[k] the diagonal of P^bullet T_{k+1} P.
    """
    ts = np.asarray(shifts.shifts, dtype=complex)
    n, r = ts.shape[:2]
    if r == 1:
        return np.eye(1, dtype=complex), [np.array([t[0, 0]]) for t in ts]
    rng = np.random.default_rng(seed)
    last_isotropic = False
    for _ in range(DIAG_ATTEMPTS):
        t = rng.uniform(-1.0, 1.0, n)
        a = sum(tk * mk for tk, mk in zip(t, ts))
        if shifts.mode == CONJUGATE:
            p = _unitary_diagonalizer(a, tol)
            if p is None:
                continue
            bullet = p.conj().T
        else:
            status, p = _orthogonal_diagonalizer(a, max(tol, 1e-6))
            last_isotropic |= status == "isotropic"
            if status != "ok":
                continue
            bullet = p.T
        eigs = np.diag(bullet @ a @ p)
        gaps = np.abs(eigs[:, None] - eigs[None, :])
        spread = max(gaps.max(), 1e-12)
        dmin = gaps[~np.eye(r, dtype=bool)].min()
        if dmin < 1e-6 * spread:
            continue
        es = bullet @ ts @ p  # es[k] = P^bullet T_{k+1} P
        if _off_diagonal(es, shifts.norms, max(tol, 1e-6)).any():
            continue
        return p, list(np.diagonal(es, axis1=1, axis2=2).copy())
    if last_isotropic:
        raise IsotropicEigenvector(
            "bilinear normalization kept hitting isotropic eigenvectors"
        )
    raise DegenerateCombination(
        f"no usable random combination after {DIAG_ATTEMPTS} attempts"
    )


def extract_measure(seq, d=None, dk=1, mode=None, seed=0, tol=None):
    """Run the full extraction pipeline on a truncated moment sequence.

    M_d, every rank, the root or Takagi factor and the certification scale
    come from what `seq` keeps (`seq.matrix(d)` and its decompositions), so
    what a caller such as `interpolate` gathered or factored is not done
    again. Every other step gathers y from the array of `seq`.

    Returns (AtomicMeasure, ExtractionReport). Raises an ExtractionError
    subclass when the data does not admit the construction; every error
    raised once M_d is gathered carries the partial report as `.report`.
    An order d < 1, which has no shifts, raises OrderTooSmall, and an
    absent moment of M_d MissingMoment, both without a report.
    """
    tol = tol or Tolerances()
    d = seq.d if d is None else d
    if d < 1:
        raise OrderTooSmall(f"extraction needs order d >= 1, got {d}")
    if mode is None:
        mode = TRANSPOSE if seq.mode == "hankel" else CONJUGATE
    if mode not in (CONJUGATE, TRANSPOSE):
        raise ValueError(f"unknown mode {mode!r}")

    mm = seq.matrix(d)
    report = ExtractionReport(d=d, dk=dk, mode=mode)
    try:
        return _extract(seq, mm, report, seed, tol)
    except MomextError as exc:
        exc.report = report
        raise


def _extract(seq, mm, report, seed, tol):
    """The steps of `extract_measure` on M_d = mm, filling in `report`."""
    d, dk, mode = report.d, report.dk, report.mode
    report.structure = classify_structure(mm, tol.struct_tol)

    if mode == CONJUGATE:
        # the eigendecomposition of M_d: smallest eigenvalue, root factor
        # and certification scale
        eig = seq.eig(d)
        report.min_moment_eig = float(eig.values[0])
    elif seq.mode == "hankel":
        seq.takagi(d, tol.symmetry_tol)  # checked before the ranks, which it also gives
    flat = check_flatness(seq, d, dk, tol.rank_tol)
    report.ranks = flat.ranks
    report.flat_1 = flat.flat_1
    report.flat_dk = flat.flat_dk
    report.rank = flat.r_d

    if not flat.flat_1:
        raise NotFlat(f"rank M_{d}(y) = {flat.r_d} != rank M_{d - 1}(y) = {flat.r_dm1}")

    if mode == CONJUGATE:
        x = linalg.psd_root_factor(mm.matrix, tol.psd_tol, tol.rank_tol, eig=eig)
    else:
        u, sigma = seq.takagi(d, tol.symmetry_tol)
        x = np.sqrt(sigma[:flat.r_d])[:, None] * u[:, :flat.r_d].T

    basis = linalg.column_basis(x, tol.rank_tol)
    if len(basis) != x.shape[0]:
        raise BasisDegenerate(
            f"found {len(basis)} independent columns for a rank-{x.shape[0]} factor")

    shifts = compute_shifts(x, mm.col_labels, basis, mode, tol.shift_tol)
    report.shift_residual = shifts.residual

    if mode == CONJUGATE:
        hypo = check_hyponormality(shifts, tol.hypo_tol)
        report.hypo_min_eig = hypo.min_eig
        report.hypo_commutator = hypo.commutator_norm
        if not hypo.passed:
            raise NotHyponormal(
                f"operator block min eigenvalue {hypo.min_eig:.6f}, commutator "
                f"norm {hypo.commutator_norm:.6f}: shifts are not jointly "
                f"hyponormal, no atomic measure exists for this data")
    else:
        sym_resid = max(
            np.linalg.norm(t - t.T) / max(1.0, np.linalg.norm(t)) for t in shifts.shifts
        )
        report.shift_symmetry = float(sym_resid)
        comm = _max_commutator(shifts.shifts)
        report.hypo_commutator = float(comm)
        scale = max(1.0, shifts.norms.max() ** 2)
        if sym_resid > tol.hypo_tol or comm > tol.hypo_tol * scale:
            raise NotHyponormal(
                f"transpose-mode shifts fail symmetry ({sym_resid:.3e}) or "
                f"commutation ({comm:.3e})")

    p, coords = simultaneous_diagonalize(shifts, seed=seed, tol=tol.offdiag_tol)

    x0 = x[:, 0]
    atoms, weights = [], []
    for kk in range(shifts.r):
        atom = tuple(complex(coords[i][kk]) for i in range(seq.n))
        if mode == CONJUGATE:
            w = float(abs(np.vdot(x0, p[:, kk])) ** 2)
        else:
            w = complex(x0 @ p[:, kk]) ** 2
        atoms.append(atom)
        weights.append(w)

    atoms, weights = _merge_close(atoms, weights, 1e-6)
    if mode == CONJUGATE:
        y00 = abs(seq.zero_moment())
        keep = [i for i, w in enumerate(weights) if w >= WEIGHT_FLOOR * max(y00, 1e-300)]
        atoms = [atoms[i] for i in keep]
        weights = [float(weights[i]) for i in keep]

    measure = AtomicMeasure(atoms, weights, mode).sorted()
    report.atom_count = len(measure.atoms)
    report.reconstruction_residual = verify_measure(measure, seq)

    if mode == TRANSPOSE:
        report.certification = "certified" if flat.flat_dk else "rank_preserved_uncertified"
    else:
        scale = max(1.0, float(np.abs(eig.values).max()))  # ||M_d||_2
        report.certification = _certify(seq, report, flat, tol, scale)
    return measure, report


def _certify(seq, report, flat, tol, scale):
    psd_ok = report.min_moment_eig >= -tol.psd_tol * scale
    if not flat.flat_dk or not psd_ok:
        return "rank_preserved_uncertified"
    st = report.structure
    if st is not None and st.hermitian and (st.hankel or st.toeplitz):
        return "certified"
    try:
        data_min = data_hyponormality_min_eig(seq, report.dk)
    except MissingMoment:
        return "rank_preserved_uncertified"
    report.data_hypo_min_eig = data_min
    if data_min >= -tol.hypo_tol * scale:
        return "certified"
    return "rank_preserved_uncertified"


def data_hyponormality_spectrum(seq, dk):
    """Ascending eigenvalues of the data-level hyponormality block at gap dk."""
    return linalg.hermitian_eigvals(hyponormality_block(seq, dk).matrix, tol=np.inf)


def data_hyponormality_min_eig(seq, dk):
    """Smallest eigenvalue of the data-level hyponormality block at gap dk."""
    return float(data_hyponormality_spectrum(seq, dk)[0])


def verify_measure(measure, seq):
    """Worst absolute moment-reconstruction error of a measure against data.

    One Vandermonde-style product: the atoms raised to every label's
    exponents, gathered for every key of `seq`, times the weights.
    """
    slots = np.flatnonzero(seq.present)
    if not slots.size:
        return 0.0
    atoms = np.asarray(measure.atoms, dtype=complex).reshape(-1, seq.n)
    weights = np.asarray(measure.weights, dtype=complex)

    def powers(z, lay):  # (labels, atoms): prod_i z_i ** label_i
        return np.prod(z[None, :, :] ** lay.exponents[:, None, :], axis=2)

    if seq.mode == "paired":
        lay = layout(seq.n, seq.d)
        rows, cols = np.divmod(slots, len(lay.labels))
        basis = powers(atoms.conj(), lay)[rows] * powers(atoms, lay)[cols]
    else:
        basis = powers(atoms, layout(seq.n, 2 * seq.d))[slots]
    return float(np.abs(basis @ weights - seq.array[slots]).max())


@dataclass
class ConstraintFeasibility:
    index: int
    kind: str
    values: list
    violations: list  # (atom_index, value)
    zero_atom_count: int
    expected_zero_count: int | None


def feasibility_report(measure, problem, tol=1e-6, seq=None, dk=None):
    """Evaluate every constraint at every atom.

    With the solved sequence supplied, also reports the theoretical count of
    atoms lying on each constraint boundary, rank M_d(y) - rank M_{d-dk}(g_i y).
    """
    rows = []
    rank_d = None
    if seq is not None:
        dk = problem.d_K if dk is None else dk
        rank_d = linalg.numeric_rank(seq.eig(seq.d).values, 1e-5)
    for idx, con in enumerate(problem.constraints):
        vals = [float(np.real(con.poly.eval(np.asarray(a)))) for a in measure.atoms]
        if con.kind == "eq":
            violations = [(i, v) for i, v in enumerate(vals) if abs(v) > tol]
        else:
            violations = [(i, v) for i, v in enumerate(vals) if v < -tol]
        zero_count = sum(1 for v in vals if abs(v) <= tol)
        expected = None
        if rank_d is not None:
            try:
                loc = localizing_matrix(seq, con.poly, seq.d - dk + con.poly.k)
                lvals = linalg.hermitian_eigvals(loc.matrix, tol=np.inf)
                expected = rank_d - linalg.numeric_rank(lvals, 1e-5)
            except (MissingMoment, OrderTooSmall):
                expected = None
        rows.append(
            ConstraintFeasibility(
                index=idx,
                kind=con.kind,
                values=vals,
                violations=violations,
                zero_atom_count=zero_count,
                expected_zero_count=expected,
            )
        )
    return rows


# ----------------------------------------------------------------- file IO


def write_measure(measure, target):
    """Write a measure as versioned text; an empty measure is written with n 0."""
    def row(atom, w):
        coords = " ".join(f"{_fmt(z.real)} {_fmt(z.imag)}" for z in atom)
        w = complex(w)
        return f"atom {coords} w {_fmt(w.real)} {_fmt(w.imag)}"

    _write_records(target, "measure", {"mode": measure.mode, "n": measure.n},
                   map(row, measure.atoms, measure.weights))


def read_measure(source):
    """Parse a measure file; `n 0` is the empty measure, which has no atoms."""
    atoms, weights = [], []

    def atom(args, header, where):
        n = header["n"]
        if n == 0:
            raise ParseError(f"{where}: a measure with n 0 has no atoms")
        if len(args) != 2 * n + 3 or args[2 * n] != "w":
            raise ParseError(f"{where}: atom needs {2 * n} coordinates, then 'w re im'")
        *coords, w = _complexes(args[: 2 * n] + args[2 * n + 1:], where)
        atoms.append(tuple(coords))
        weights.append(w.real if header["mode"] == CONJUGATE else w)

    header = _read_records(source, "measure", {"mode": _choice(CONJUGATE, TRANSPOSE),
                                               "n": _integer(0)}, {"atom": atom})
    return AtomicMeasure(atoms, weights, header["mode"])
