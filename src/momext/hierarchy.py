"""Complex moment relaxations of polynomial optimization problems.

Hermitian moment variables y[alpha,beta] are flattened to real scalars
(real/imaginary parts of the upper triangle, or plain real Hankel moments
for problems over real variables). The relaxation at order d is one PSD
block per matrix inequality plus linear equality rows; equality constraints
and the normalization y[0,0] = 1 stay linear rather than becoming paired
PSD blocks, which preserves strict feasibility for the interior-point
solver. Block coefficients stay sparse (entry, var, coeff) triplets from
assembly through realify and SDPA export into the solver; the export
rewrites the equality rows as paired 1x1 diagonal blocks (SDPA is pure-LMI).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FormatError, NotHermitian, OrderTooSmall, ParseError
from .moment import (
    HermitianPoly,
    MomentSequence,
    _choice,
    _complexes,
    _count,
    _fmt,
    _parse_idx,
    _read_records,
    hyponormality_grid,
    index_count,
    layout,
)

__all__ = [
    "Constraint",
    "PolynomialProblem",
    "RelaxationMap",
    "SDPBlock",
    "SDPProblem",
    "parse_problem",
    "relaxation_map",
    "assemble_relaxation",
    "realify",
    "export_sdpa",
    "import_solution",
]


@dataclass
class Constraint:
    poly: HermitianPoly
    kind: str  # "eq" | "ineq"


@dataclass
class PolynomialProblem:
    n: int
    objective: HermitianPoly
    constraints: list
    real_vars: bool = False

    @property
    def d_K(self):
        return max([1] + [c.poly.k for c in self.constraints])

    @property
    def objective_order(self):
        return max(1, self.objective.k)


# ------------------------------------------------------------- variable map


class RelaxationMap:
    """Bijection between real solver unknowns and moment keys.

    mode 'hermitian': unknowns are Re y[a,b] for a <= b (graded-lex) and
    Im y[a,b] for a < b; y[b,a] is tied to the conjugate.
    mode 'hankel_real': unknowns are the real Hankel moments y[s], |s| <= 2d.

    Every moment is a combination of at most two unknowns, held as index
    tables over the positions (p, q) of (a, b) in layout(n, d): y[a,b] is
    sum over k of coeff[p, q, k] * x[var[p, q, k]], with var -1 for an
    unused slot.
    """

    def __init__(self, n, d, real_vars=False):
        self.n = n
        self.d = d
        self.mode = "hankel_real" if real_vars else "hermitian"
        lay = layout(n, d)
        self.indices = list(lay.labels)
        size = len(self.indices)
        self.var = np.full((size, size, 2), -1, dtype=np.intp)
        self.coeff = np.zeros((size, size, 2), dtype=complex)
        self.coeff[..., 0] = 1.0
        if self.mode == "hermitian":
            upper, strict = np.triu_indices(size), np.triu_indices(size, 1)
            re = np.zeros((size, size), dtype=np.intp)
            re[upper] = np.arange(len(upper[0]))
            self.var[..., 0] = np.triu(re) + np.triu(re, 1).T
            self.var[..., 1][strict] = len(upper[0]) + np.arange(len(strict[0]))
            self.var[..., 1].T[strict] = self.var[..., 1][strict]
            self.coeff[..., 1][strict] = 1.0j
            self.coeff[..., 1].T[strict] = -1.0j
            self.n_vars = len(upper[0]) + len(strict[0])
        else:
            self.var[..., 0] = lay.sums
            self.n_vars = index_count(n, 2 * d)

    def sequence_from_values(self, x):
        """Solver vector -> exactly Hermitian paired MomentSequence."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n_vars,):
            raise FormatError(f"expected {self.n_vars} values, got {x.shape}")
        terms = np.where(self.var >= 0, self.coeff * x[self.var], 0.0)
        rows = ((0.0 + terms[..., 0]) + terms[..., 1]).tolist()
        values = {(a, b): v
                  for a, row in zip(self.indices, rows) for b, v in zip(self.indices, row)}
        return MomentSequence(n=self.n, d=self.d, mode="paired", values=values)


# ----------------------------------------------------------------- problem


@dataclass
class SDPBlock:
    """const + sum_i x_i A_i >= 0, with A_{var[t]} holding coeff[t] at entry[t]
    = row * size + col: one nonzero triplet per (var, entry), grouped by unknown
    in order of first use, the order in which the solver adds them up."""

    name: str
    size: int
    const: np.ndarray
    entry: np.ndarray
    var: np.ndarray
    coeff: np.ndarray

    def unknowns(self):
        """(var, entry, coeff) of each unknown, in block order."""
        cuts = np.flatnonzero(np.diff(self.var, prepend=-1, append=-1))
        return [(int(self.var[a]), self.entry[a:b], self.coeff[a:b])
                for a, b in zip(cuts[:-1], cuts[1:])]


@dataclass
class SDPProblem:
    n_vars: int
    blocks: list
    eq_a: np.ndarray  # (rows, n_vars)
    eq_b: np.ndarray  # (rows,)
    objective: np.ndarray  # (n_vars,)
    obj_const: float = 0.0
    is_real: bool = False


def parse_problem(text):
    """Parse a polynomial optimization problem file.

    Grammar (one directive per line, '#' comments; the header line comes
    first, then `n` and the optional `vars`, each once, before any section):

        pop 1
        n <count>
        vars complex|real
        minimize
        term <alpha> <beta> <re> <im>
        constraint eq|ineq
        term ...

    Inequality constraints and the objective must be Hermitian; an equality
    with a plain complex polynomial (such as z^3 = 1) splits into its real
    and imaginary Hermitian parts.
    """
    objective_terms = None
    pending = []  # (kind, terms dict) of each constraint, in file order
    current = None  # terms dict of the open section

    def minimize(args, header, where):
        nonlocal objective_terms, current
        if args or objective_terms is not None:
            raise ParseError(f"{where}: one 'minimize' line, without values")
        objective_terms = current = {}

    def constraint(args, header, where):
        nonlocal current
        if args not in (["eq"], ["ineq"]):
            raise ParseError(f"{where}: constraint kind must be eq or ineq")
        current = {}
        pending.append((args[0], current))

    def term(args, header, where):
        if current is None:
            raise ParseError(f"{where}: term outside a section")
        if len(args) != 4:
            raise ParseError(f"{where}: term needs alpha beta re im")
        key = tuple(_parse_idx(a, header["n"], where) for a in args[:2])
        current[key] = current.get(key, 0.0) + _complexes(args[2:], where)[0]

    header = _read_records(text, "pop", {"n": _count, "vars": _choice("complex", "real")},
                           {"minimize": minimize, "constraint": constraint, "term": term},
                           defaults={"vars": "complex"})
    n = header["n"]
    if objective_terms is None:
        raise ParseError("missing minimize section")

    objective = HermitianPoly(n, objective_terms)
    if not objective.is_hermitian(1e-12):
        raise NotHermitian("objective polynomial is not Hermitian (not real-valued)")

    constraints = []
    for kind, terms in pending:
        poly = HermitianPoly(n, terms)
        if poly.is_hermitian(1e-12):
            constraints.append(Constraint(poly, kind))
        elif kind == "eq":
            re_part, im_part = poly.hermitian_parts()
            if re_part.terms:
                constraints.append(Constraint(re_part, "eq"))
            if im_part.terms:
                constraints.append(Constraint(im_part, "eq"))
        else:
            raise NotHermitian(
                "inequality constraint polynomial is not Hermitian (not real-valued)"
            )
    return PolynomialProblem(n=n, objective=objective, constraints=constraints,
                             real_vars=header["vars"] == "real")


# -------------------------------------------------------------- relaxation


def _shifted_block(name, rmap, t, cells):
    """SDPBlock of shifted moments, with a zero constant.

    cells[r][s] lists terms (gamma, delta, c); cell (r, s) of the block is
    the sum of c * y[alpha + gamma, beta + delta] over the labels alpha,
    beta of order t. Each coefficient sums its contributions in scan order:
    cells and entries row-major, then terms, then unknowns.
    """
    lay = layout(rmap.n, rmap.d)
    m = lay.size(t)
    size = m * len(cells)
    local = np.arange(m)
    parts = []
    for r, row in enumerate(cells):
        for s, terms in enumerate(row):
            grids = [np.ix_(lay.shift(gamma, t), lay.shift(delta, t)) for gamma, delta, _ in terms]
            var = np.stack([rmap.var[g] for g in grids], axis=2)
            coeff = np.stack([c * rmap.coeff[g] for g, (_, _, c) in zip(grids, terms)], axis=2)
            entry = (r * m + local)[:, None] * size + (s * m + local)[None, :]
            parts.append((np.broadcast_to(entry[:, :, None, None], var.shape), var, coeff))
    entry, var, coeff = (np.concatenate([p[k].ravel() for p in parts]) for k in range(3))
    used = var >= 0
    return SDPBlock(name, size, np.zeros((size, size), dtype=complex),
                    *_coalesce(size, entry[used], var[used], coeff[used]))


def _coalesce(size, entry, var, coeff):
    """SDPBlock triplets (entry, var, coeff) from raw contributions: each
    (var, entry) sums its contributions in the given order, zero sums are
    dropped, and the unknowns keep their order of first use."""
    _, first, which = np.unique(var, return_index=True, return_inverse=True)
    keys, where = np.unique(first[which] * size * size + entry, return_inverse=True)
    total = np.zeros(len(keys), dtype=coeff.dtype)
    np.add.at(total, where, coeff)
    keys, total = keys[total != 0], total[total != 0]
    return keys % (size * size), var[keys // (size * size)], total


def _functional(rmap, terms):
    """sum of c * y[a,b] over terms {(a, b): c}, as a complex vector over the unknowns."""
    pos = layout(rmap.n, rmap.d).pos
    p = [pos[a] for a, _ in terms]
    q = [pos[b] for _, b in terms]
    var = rmap.var[p, q]
    coeff = np.array(list(terms.values()), dtype=complex)[:, None] * rmap.coeff[p, q]
    acc = np.zeros(rmap.n_vars, dtype=complex)
    np.add.at(acc, var[var >= 0], coeff[var >= 0])
    return acc


def relaxation_map(problem, d):
    """The RelaxationMap of the order-d relaxation; OrderTooSmall below d_K
    or the objective's order."""
    for what, need in (("constraint", problem.d_K), ("objective", problem.objective_order)):
        if d < need:
            raise OrderTooSmall(
                f"order-{d} relaxation is not defined: {what} degree needs d >= {need}")
    return RelaxationMap(problem.n, d, real_vars=problem.real_vars)


def assemble_relaxation(problem, d, enforce_hyponormality=False):
    """Moment relaxation of order d as an SDP over the flattened moments.

    Blocks: M_d(y) plus one localizing block per inequality constraint;
    equality constraints (and y[0,0] = 1) become linear equality rows.
    With enforcement on, one joint-hyponormality block of all n variables
    (`moment.hyponormality_grid`) is added with sub-blocks of order d-1,
    matching the strongest data-level condition expressible at order d.
    """
    n = problem.n
    rmap = relaxation_map(problem, d)
    zero = (0,) * n
    blocks = [_shifted_block("moment", rmap, d, [[[(zero, zero, 1.0)]]])]
    eq_rows = []

    for ci, con in enumerate(problem.constraints):
        cells = [[[(gamma, delta, c) for (gamma, delta), c in con.poly.terms.items()]]]
        block = _shifted_block(f"localizing:{ci}", rmap, d - con.poly.k, cells)
        if con.kind == "ineq":
            blocks.append(block)
        else:
            eq_rows.extend(_equality_rows(rmap, block))

    # normalization y[0,0] = 1
    eq_rows.append((_functional(rmap, {(zero, zero): 1.0}).real, 1.0))

    if enforce_hyponormality:
        cells = [[[(gamma, delta, 1.0)] for gamma, delta in row] for row in hyponormality_grid(n)]
        name = "hypo:uni" if n == 1 else "hypo:" + ",".join(map(str, range(1, n + 1)))
        blocks.append(_shifted_block(name, rmap, d - 1, cells))

    acc = _functional(rmap, problem.objective.terms)
    if np.any(np.abs(acc.imag) > 1e-9 * np.maximum(1.0, np.abs(acc))):
        raise NotHermitian("objective produced a complex linear functional")

    sdp = SDPProblem(
        n_vars=rmap.n_vars,
        blocks=blocks,
        eq_a=np.vstack([row for row, _ in eq_rows]),  # never empty: y[0,0] = 1
        eq_b=np.array([rhs for _, rhs in eq_rows]),
        objective=acc.real.copy(),
        is_real=problem.real_vars,
    )
    return sdp, rmap


def _equality_rows(rmap, block):
    """Real equality rows (a . x = b) for a vanishing localizing block.

    Only the upper triangle is scanned; the lower one is its conjugate.
    Near-duplicate rows (from structural symmetry) are dropped.
    """
    upper = np.flatnonzero(block.entry // block.size <= block.entry % block.size)
    order = upper[np.lexsort((block.var[upper], block.entry[upper]))]
    entry, var, coeff = block.entry[order], block.var[order], block.coeff[order]
    cuts = np.flatnonzero(np.diff(entry, prepend=-1, append=-1))
    rows, seen = [], set()
    for a, b in zip(cuts[:-1], cuts[1:]):
        for part in (coeff[a:b].real, coeff[a:b].imag):
            keep = np.abs(part) > 1e-14
            if not keep.any():
                continue
            sig = _row_signature(var[a:b][keep].tolist(), part[keep].tolist())
            if sig in seen:
                continue
            seen.add(sig)
            row = np.zeros(rmap.n_vars)
            row[var[a:b][keep]] = part[keep]
            rows.append((row, 0.0))
    return rows


def _row_signature(indices, values):
    lead = values[0]
    return tuple((i, round(v / lead, 9)) for i, v in zip(indices, values))


# ---------------------------------------------------------------- realify


def realify(sdp):
    """Rewrite complex Hermitian blocks as real symmetric ones.

    H becomes [[Re S, -Im S], [Im S, Re S]] with S = (H + H*)/2, doubling
    eigenvalue multiplicities; blocks that are already real pass through
    unchanged. The coefficients stay triplets, in the same unknown order.
    """
    out_blocks = []
    for b in sdp.blocks:
        if np.all(np.abs(np.imag(np.append(b.const, b.coeff))) <= 1e-300):
            real = np.real(b.coeff).astype(float)
            keep = real != 0
            out_blocks.append(SDPBlock(b.name, b.size, np.real(b.const).astype(float),
                                       b.entry[keep], b.var[keep], real[keep]))
            continue
        s = b.size
        row, col = np.divmod(b.entry, s)
        entry, var, h = _coalesce(s, np.concatenate([b.entry, col * s + row]),
                                  np.concatenate([b.var, b.var]),
                                  np.concatenate([b.coeff, b.coeff.conj()]))
        tl = entry + entry // s * s  # flat position of [i, j] in the 2s x 2s block
        quads = np.stack([tl, tl + s, tl + 2 * s * s, tl + 2 * s * s + s], axis=1)
        vals = np.stack([h.real, -h.imag, h.imag, h.real], axis=1) / 2.0
        keep = vals != 0
        out_blocks.append(SDPBlock(b.name, 2 * s, _embed(b.const), quads[keep],
                                   np.repeat(var[:, None], 4, axis=1)[keep], vals[keep]))
    return SDPProblem(sdp.n_vars, out_blocks, sdp.eq_a, sdp.eq_b,
                      sdp.objective, sdp.obj_const, is_real=True)


def _embed(h):
    out = np.block([[np.real(h), -np.imag(h)], [np.imag(h), np.real(h)]])
    return (out + out.T) / 2.0


# ------------------------------------------------------------- SDPA text


def export_sdpa(sdp):
    """Serialize a realified problem in SDPA sparse format.

    Equality rows become paired 1x1 entries inside one diagonal block, since
    the format only speaks LMIs. Convention: minimize c.x subject to
    sum_i x_i F_i - F_0 >= 0.
    """
    if not sdp.is_real:
        raise FormatError("export requires a realified problem")
    m = sdp.n_vars
    sizes = [b.size for b in sdp.blocks]
    n_eq = sdp.eq_a.shape[0]
    if n_eq:
        sizes.append(-2 * n_eq)
    lines = ['"momext export', f"{m}", f"{len(sizes)}", " ".join(str(s) for s in sizes)]
    lines.append(" ".join(map(_fmt, sdp.objective)))

    entries = []  # (matno, blkno, i, j, value), 1-based with i <= j
    for bi, b in enumerate(sdp.blocks, start=1):
        f0 = -np.real(b.const)
        rows, cols = np.nonzero(np.triu(f0))
        entries.extend((0, bi, i + 1, j + 1, f0[i, j]) for i, j in zip(rows, cols))
        rows, cols = np.divmod(b.entry, b.size)
        upper = rows <= cols
        entries.extend((k + 1, bi, i + 1, j + 1, v) for k, i, j, v in
                       zip(b.var[upper], rows[upper], cols[upper], np.real(b.coeff[upper])))
    if n_eq:
        # row r becomes a.x - b >= 0 and b - a.x >= 0, the diagonal entries
        # 2r+1 and 2r+2 of one block; column k of [b, a] belongs to matrix k
        blk = len(sdp.blocks) + 1
        rhs_and_rows = np.column_stack([sdp.eq_b, sdp.eq_a])
        for r, k in zip(*np.nonzero(rhs_and_rows)):
            v = rhs_and_rows[r, k]
            entries += [(k, blk, 2 * r + 1, 2 * r + 1, v), (k, blk, 2 * r + 2, 2 * r + 2, -v)]

    entries.sort(key=lambda e: (e[0], e[1], e[2], e[3]))
    for matno, blkno, i, j, v in entries:
        lines.append(f"{matno} {blkno} {i} {j} {_fmt(v)}")
    return "\n".join(lines) + "\n"


def import_solution(text, rmap):
    """Whitespace-separated solver vector -> Hermitian MomentSequence."""
    try:
        x = np.array([float(tok) for tok in text.split()])
    except ValueError:
        raise FormatError("solution vector contains a non-numeric token") from None
    if x.size != rmap.n_vars:
        raise FormatError(f"expected {rmap.n_vars} values, got {x.size}")
    return rmap.sequence_from_values(x)
