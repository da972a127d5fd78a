"""Atomic-measure extraction from truncated moment data.

Pipeline: factor the moment matrix as X^bullet X, pick a column basis,
build one shift operator per variable, verify joint hyponormality
(conjugate-transpose mode) or complex symmetry (transpose mode),
simultaneously diagonalize, and read atoms and weights off the diagonal.

`bullet` is the conjugate transpose for optimization data and the plain
transpose for interpolation data; real optimization data satisfies both.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import (
    BasisDegenerate,
    DegenerateCombination,
    IsotropicEigenvector,
    MissingMoment,
    NotFlat,
    NotHyponormal,
    OrderTooSmall,
    ParseError,
    ShiftInconsistent,
)
from .moment import (
    MomentTable,
    _choice,
    _complexes,
    _fmt,
    _integer,
    _read_records,
    _tolerant_order,
    _write_records,
    classify_structure,
    hyponormality_block,
    index_count,
    layout,
    localizing_matrix,
    moment_matrix,
    total_degree,
    unit_index,
    variable_pairs,
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
    dedup_tol: float = 1e-6
    weight_floor: float = 1e-8
    offdiag_tol: float = 1e-8

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
    basis_labels: list


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
    scale: float


@dataclass
class ExtractionReport:
    d: int = 0
    dk: int = 1
    mode: str = CONJUGATE
    ranks: list = field(default_factory=list)
    flat_1: bool = False
    flat_dk: bool = False
    rank: int = 0
    min_moment_eig: float = 0.0
    moment_spectrum: object = None  # eigenvalues of the Hermitian part of M_d, ascending
    structure: object = None
    hypo_min_eig: float | None = None
    hypo_commutator: float | None = None
    data_hypo_min_eig: float | None = None
    shift_residual: float | None = None
    shift_symmetry: float | None = None
    reconstruction_residual: float | None = None
    certification: str = "failed"
    atom_count: int = 0
    notes: list = field(default_factory=list)


def check_flatness(seq, d=None, dk=1, tol=1e-7, matrix=None, values=None, leading=None):
    """Ranks of the nested moment matrices M_0(y) .. M_d(y).

    Paired (Hermitian) data is ranked through its eigenvalues; Hankel data
    is complex symmetric, so its rank comes from the singular values. A
    caller that already holds M_d(y) passes it as `matrix`, and the values
    that rank it (eigenvalues of its Hermitian part, or singular values for
    Hankel data) as `values`, and those of M_0 .. M_{d-1} as `leading`.

    M_d is ranked by `numeric_rank`. Let delta be the largest magnitude it
    discards, at least eps * max(1, ||M_d||). A leading M_t counts a value
    when it is above delta and either passes `numeric_rank`'s own test or
    stands 1/tol above delta. Its values past index rank M_d are at most
    delta (interlacing), so rank M_t never exceeds rank M_d, and a value
    well clear of everything M_d discards is not lost to the relative
    threshold of the smaller matrix.
    """
    d = seq.d if d is None else d
    big = moment_matrix(seq, d).matrix if matrix is None else matrix

    def magnitudes(sub):
        if seq.mode == "hankel":
            return linalg.takagi((sub + sub.T) / 2.0, tol=np.inf).values
        return np.abs(linalg.hermitian_eig((sub + sub.conj().T) / 2.0, tol=np.inf).values)

    top = magnitudes(big) if values is None else np.abs(np.asarray(values, dtype=float))
    r_d = linalg.numeric_rank(top, tol)
    discarded = np.sort(top)[: top.size - r_d]
    delta = max(discarded.max(initial=0.0), np.finfo(float).eps * max(1.0, top.max(initial=0.0)))
    ranks = []
    for t in range(d):
        if leading is None:
            vals = magnitudes(big[: index_count(seq.n, t), : index_count(seq.n, t)])
        else:
            vals = np.abs(np.asarray(leading[t], dtype=float))
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
    targets = [lay.shift(unit_index(n, k), d - 1) for k in range(1, n + 1)]
    b = x[:, basis]
    shifts = []
    for target in targets:
        s = x[:, target[basis]]
        try:
            t = np.linalg.solve(b.T, s.T).T
        except np.linalg.LinAlgError:
            raise BasisDegenerate("basis columns are numerically singular") from None
        shifts.append(t)

    xnorm = max(np.linalg.norm(x), 1e-300)
    worst = 0.0
    for t, target in zip(shifts, targets):
        for i, j in enumerate(target):
            resid = np.linalg.norm(t @ x[:, i] - x[:, j])
            worst = max(worst, resid / xnorm)
    if worst > tol:
        raise ShiftInconsistent(
            f"shift residual {worst:.6e} exceeds {tol:.1e}; the shift operators "
            f"are not well defined on this data"
        )
    return ShiftFamily(
        shifts=shifts,
        mode=mode,
        r=r,
        residual=worst,
        basis_labels=[labels[i] for i in basis],
    )


def operator_hypo_block(ti, tj):
    """Hermitian operator block testing hyponormality of the pair (T_i, T_j)."""
    r = ti.shape[0]
    eye = np.eye(r, dtype=complex)
    return np.block(
        [
            [eye, ti.conj().T, tj.conj().T],
            [ti, ti.conj().T @ ti, tj.conj().T @ ti],
            [tj, ti.conj().T @ tj, tj.conj().T @ tj],
        ]
    )


def _max_commutator(ops):
    """Largest Frobenius norm of a pairwise commutator among ops."""
    comm = 0.0
    for i in range(len(ops)):
        for j in range(i + 1, len(ops)):
            comm = max(comm, np.linalg.norm(ops[i] @ ops[j] - ops[j] @ ops[i]))
    return comm


def check_hyponormality(shifts, tol=1e-6):
    """Operator-level joint hyponormality test.

    For n >= 2: the minimum eigenvalue over all pairwise operator blocks
    plus the largest pairwise commutator norm among the shifts and their
    adjoints. For n == 1 only the self-commutator norm matters (its trace
    vanishes in finite dimension, so PSD forces zero).
    """
    ts = [np.asarray(t, dtype=complex) for t in shifts.shifts]
    n = len(ts)
    scale = max(1.0, max(np.linalg.norm(t, 2) for t in ts) ** 2)
    comm = _max_commutator(ts + [t.conj().T for t in ts])
    if n == 1:
        t = ts[0]
        block = np.block([[np.eye(t.shape[0], dtype=complex), t.conj().T], [t, t.conj().T @ t]])
        vals, _ = linalg.hermitian_eig(block, tol=1e-6)
        min_eig = float(vals[0])
        passed = comm <= tol * scale
    else:
        min_eig = np.inf
        for i in range(n):
            for j in range(i + 1, n):
                vals, _ = linalg.hermitian_eig(operator_hypo_block(ts[i], ts[j]), tol=1e-6)
                min_eig = min(min_eig, float(vals[0]))
        passed = (min_eig >= -tol * scale) and (comm <= tol * scale)
    return HyponormalityCheck(
        min_eig=float(min_eig), commutator_norm=float(comm), passed=bool(passed), scale=scale
    )


def _unitary_diagonalizer(a, offdiag_tol):
    """Unitary P with P^* a P diagonal, for (numerically) normal a.

    Two-step: diagonalize the Hermitian part, then the skew part restricted
    to each eigenvalue cluster of the first step. Returns None when the
    result fails the off-diagonal test, signalling the caller to redraw.
    """
    r = a.shape[0]
    h = (a + a.conj().T) / 2.0
    k = (a - a.conj().T) / 2.0j
    hvals, p = linalg.hermitian_eig(h, tol=np.inf)
    spread = max(hvals[-1] - hvals[0], 1.0)
    for i, j in linalg.cluster_bounds(hvals, 1e-9 * spread):
        if j - i > 1:
            block = p[:, i:j]
            sub = block.conj().T @ k @ block
            sub = (sub + sub.conj().T) / 2.0
            _, svecs = linalg.hermitian_eig(sub, tol=np.inf)
            p[:, i:j] = block @ svecs
    check = p.conj().T @ a @ p
    off = np.linalg.norm(check - np.diag(np.diag(check)))
    if off > offdiag_tol * max(1.0, np.linalg.norm(a, 2)):
        return None
    return p


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
    ident = p.T @ p
    if np.linalg.norm(ident - np.eye(a.shape[0])) > offdiag_tol * a.shape[0]:
        return "retry", None
    check = p.T @ a @ p
    off = np.linalg.norm(check - np.diag(np.diag(check)))
    if off > offdiag_tol * max(1.0, np.linalg.norm(a, 2)):
        return "retry", None
    return "ok", p


def simultaneous_diagonalize(shifts, seed=0, tol=1e-8, max_attempts=20):
    """Joint diagonalization of a commuting shift family.

    Draws random real combination coefficients, diagonalizes the combined
    operator (Hermitian two-step in conjugate mode, general eigensolve with
    bilinear normalization in transpose mode), and retries on eigenvalue
    collisions or isotropic eigenvectors. Returns (P, coords) with coords[k]
    the diagonal of P^bullet T_{k+1} P.
    """
    ts = [np.asarray(t, dtype=complex) for t in shifts.shifts]
    n = len(ts)
    r = ts[0].shape[0]
    if r == 1:
        p = np.eye(1, dtype=complex)
        return p, [np.array([t[0, 0]]) for t in ts]
    rng = np.random.default_rng(seed)
    last_isotropic = False
    for _ in range(max_attempts):
        t = rng.uniform(-1.0, 1.0, n)
        a = sum(tk * mk for tk, mk in zip(t, ts))
        if shifts.mode == CONJUGATE:
            p = _unitary_diagonalizer(a, tol)
            if p is None:
                continue
            bullet = p.conj().T
        else:
            status, p = _orthogonal_diagonalizer(a, max(tol, 1e-6))
            if status == "isotropic":
                last_isotropic = True
                continue
            if status != "ok":
                continue
            bullet = p.T
        eigs = np.diag(bullet @ a @ p)
        spread = max(np.abs(eigs[:, None] - eigs[None, :]).max(), 1e-12)
        dmin = min(
            abs(eigs[i] - eigs[j]) for i in range(r) for j in range(i + 1, r)
        )
        if dmin < 1e-6 * spread:
            continue
        coords = []
        ok = True
        for mk in ts:
            e = bullet @ mk @ p
            off = np.linalg.norm(e - np.diag(np.diag(e)))
            if off > max(tol, 1e-6) * max(1.0, np.linalg.norm(mk, 2)):
                ok = False
                break
            coords.append(np.diag(e).copy())
        if not ok:
            continue
        return p, coords
    if last_isotropic:
        raise IsotropicEigenvector(
            "bilinear normalization kept hitting isotropic eigenvectors"
        )
    raise DegenerateCombination(
        f"no usable random combination after {max_attempts} attempts"
    )


def _dedup_atoms(atoms, weights, tol):
    """Merge atoms closer than `tol` in max-coordinate distance."""
    merged_atoms, merged_weights = [], []
    for atom, w in zip(atoms, weights):
        for idx, ref in enumerate(merged_atoms):
            if max(abs(a - b) for a, b in zip(atom, ref)) <= tol:
                merged_weights[idx] += w
                break
        else:
            merged_atoms.append(atom)
            merged_weights.append(w)
    return merged_atoms, merged_weights


def extract_measure(seq, d=None, dk=1, mode=None, seed=0, tol=None, takagis=None):
    """Run the full extraction pipeline on a truncated moment sequence.

    A caller that already holds the Takagi factorizations of H_0(y) ..
    H_d(y) of Hankel data in transpose mode passes them as `takagis`; they
    then give every rank and the factor. Every step reads y through one
    MomentTable, built at the start of the call and dropped at its end.

    Returns (AtomicMeasure, ExtractionReport); raises an ExtractionError
    subclass (carrying the partial report) when the data does not admit the
    construction.
    """
    tol = tol or Tolerances()
    d = seq.d if d is None else d
    if mode is None:
        mode = TRANSPOSE if seq.mode == "hankel" else CONJUGATE
    if mode not in (CONJUGATE, TRANSPOSE):
        raise ValueError(f"unknown mode {mode!r}")

    report = ExtractionReport(d=d, dk=dk, mode=mode)
    table = MomentTable(seq, max(d, seq.d))  # y, read once for every step below
    mm = moment_matrix(table, d)
    report.structure = classify_structure(mm, tol.struct_tol)

    # the one eigendecomposition of M_d: rank at order d of paired data,
    # smallest eigenvalue, root factor and certification scale
    eig = linalg.hermitian_eig((mm.matrix + mm.matrix.conj().T) / 2.0, tol=np.inf)
    rank_values = eig.values if seq.mode == "paired" else None
    tk = leading = None
    if mode == TRANSPOSE and seq.mode == "hankel":
        # the one Takagi factorization of M_d: its rank and the factor
        if takagis is None:
            tk = linalg.takagi(mm.matrix, max(tol.psd_tol, 1e-10))
        else:
            tk, leading = takagis[d], [t.values for t in takagis[:d]]
        rank_values = tk.values
    flat = check_flatness(seq, d, dk, tol.rank_tol, matrix=mm.matrix, values=rank_values,
                          leading=leading)
    report.ranks = flat.ranks
    report.flat_1 = flat.flat_1
    report.flat_dk = flat.flat_dk
    report.rank = flat.r_d
    report.min_moment_eig = float(eig.values[0])
    report.moment_spectrum = eig.values

    if not flat.flat_1:
        raise NotFlat(
            f"rank M_{d}(y) = {flat.r_d} != rank M_{d - 1}(y) = {flat.r_dm1}",
            report,
        )

    if mode == CONJUGATE:
        x = linalg.psd_root_factor(mm.matrix, tol.psd_tol, tol.rank_tol, eig=eig)
    else:
        u, sigma = tk or linalg.takagi(mm.matrix, max(tol.psd_tol, 1e-10))
        r = linalg.numeric_rank(sigma, tol.rank_tol)
        x = np.sqrt(sigma[:r])[:, None] * u[:, :r].T

    basis = linalg.column_basis(x, tol.rank_tol)
    if len(basis) != x.shape[0]:
        raise BasisDegenerate(
            f"found {len(basis)} independent columns for a rank-{x.shape[0]} factor",
            report,
        )

    try:
        shifts = compute_shifts(x, mm.col_labels, basis, mode, tol.shift_tol)
    except (ShiftInconsistent, BasisDegenerate) as exc:
        exc.report = report
        raise
    report.shift_residual = shifts.residual

    if mode == CONJUGATE:
        hypo = check_hyponormality(shifts, tol.hypo_tol)
        report.hypo_min_eig = hypo.min_eig
        report.hypo_commutator = hypo.commutator_norm
        if not hypo.passed:
            raise NotHyponormal(
                f"operator block min eigenvalue {hypo.min_eig:.6f}, commutator "
                f"norm {hypo.commutator_norm:.6f}: shifts are not jointly "
                f"hyponormal, no atomic measure exists for this data",
                report,
            )
    else:
        sym_resid = max(
            np.linalg.norm(t - t.T) / max(1.0, np.linalg.norm(t)) for t in shifts.shifts
        )
        report.shift_symmetry = float(sym_resid)
        comm = _max_commutator(shifts.shifts)
        report.hypo_commutator = float(comm)
        scale = max(1.0, max(np.linalg.norm(t, 2) for t in shifts.shifts) ** 2)
        if sym_resid > tol.hypo_tol or comm > tol.hypo_tol * scale:
            raise NotHyponormal(
                f"transpose-mode shifts fail symmetry ({sym_resid:.3e}) or "
                f"commutation ({comm:.3e})",
                report,
            )

    try:
        p, coords = simultaneous_diagonalize(
            shifts, seed=seed, tol=tol.offdiag_tol
        )
    except (DegenerateCombination, IsotropicEigenvector) as exc:
        exc.report = report
        raise

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

    atoms, weights = _dedup_atoms(atoms, weights, tol.dedup_tol)
    if mode == CONJUGATE:
        y00 = abs(seq.zero_moment())
        keep = [i for i, w in enumerate(weights) if w >= tol.weight_floor * max(y00, 1e-300)]
        atoms = [atoms[i] for i in keep]
        weights = [float(weights[i]) for i in keep]

    measure = AtomicMeasure(atoms, weights, mode).sorted()
    report.atom_count = len(measure.atoms)
    report.reconstruction_residual = verify_measure(measure, table)

    scale = max(1.0, float(np.abs(eig.values).max()))  # ||M_d||_2
    report.certification = _certify(table, report, flat, mode, tol, scale)
    return measure, report


def _certify(seq, report, flat, mode, tol, scale):
    if mode == TRANSPOSE:
        return "certified" if flat.flat_dk else "rank_preserved_uncertified"
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


def data_hyponormality_min_eig(seq, dk):
    """Smallest eigenvalue over the data-level hyponormality blocks at gap dk.

    `seq` is a MomentSequence or its MomentTable; every block reads one table.
    """
    table = MomentTable.of(seq, seq.d)
    best = np.inf
    for i, j in variable_pairs(seq.n):
        block = hyponormality_block(table, dk, i, j).matrix
        vals, _ = linalg.hermitian_eig((block + block.conj().T) / 2.0, tol=np.inf)
        best = min(best, float(vals[0]))
    return best


def verify_measure(measure, seq):
    """Worst absolute moment-reconstruction error of a measure against data.

    `seq` is a MomentSequence or its MomentTable; keys beyond its order are
    not compared. One Vandermonde-style product: the atoms raised to every
    label's exponents, gathered for every key, times the weights.
    """
    table = MomentTable.of(seq, seq.d)
    slots = np.flatnonzero(table.present)
    if not slots.size:
        return 0.0
    atoms = np.asarray(measure.atoms, dtype=complex).reshape(-1, seq.n)
    weights = np.asarray(measure.weights, dtype=complex)

    def powers(z, lay):  # (labels, atoms): prod_i z_i ** label_i
        exps = np.array(lay.labels)
        return np.prod(z[None, :, :] ** exps[:, None, :], axis=2)

    if table.mode == "paired":
        rows, cols = np.divmod(slots, len(table.layout.labels))
        basis = powers(atoms.conj(), table.layout)[rows] * powers(atoms, table.layout)[cols]
    else:
        basis = powers(atoms, table.slot_layout)[slots]
    return float(np.abs(basis @ weights - table.values[slots]).max())


@dataclass
class ConstraintFeasibility:
    index: int
    kind: str
    values: list
    violations: list  # (atom_index, value)
    zero_atom_count: int
    expected_zero_count: int | None


def feasibility_report(measure, problem, tol=1e-6, seq=None, dk=None, moment_spectrum=None):
    """Evaluate every constraint at every atom.

    With the solved sequence supplied, also reports the theoretical count of
    atoms lying on each constraint boundary, rank M_d(y) - rank M_{d-dk}(g_i y).
    A caller that holds the eigenvalues of the Hermitian part of M_d(y)
    (`ExtractionReport.moment_spectrum`) passes them as `moment_spectrum`.
    """
    rows = []
    rank_d = None
    if seq is not None:
        dk = problem.d_K if dk is None else dk
        if moment_spectrum is None:
            mm = moment_matrix(seq, seq.d).matrix
            moment_spectrum, _ = linalg.hermitian_eig((mm + mm.conj().T) / 2.0, tol=np.inf)
        rank_d = linalg.numeric_rank(moment_spectrum, 1e-5)
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
                lvals, _ = linalg.hermitian_eig(
                    (loc.matrix + loc.matrix.conj().T) / 2.0, tol=np.inf
                )
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
