"""Primal-dual interior-point solver for small block-diagonal SDPs.

Solves the LMI-form problem produced by the relaxation assembler:

    minimize    c . x + const
    subject to  S_j(x) = C_j + sum_i x_i A_{ji}  >=  0   (each block)
                E x = e                                   (equality rows)

Equality rows are eliminated up front through a nullspace basis, which
turns the blocks' sparse triplets into dense coefficient stacks; the
reduced pure-LMI problem is then solved by an infeasible-start Mehrotra
predictor-corrector on the Nesterov-Todd (NT) direction, in the scaled
coordinates where X_j and Z_j are both diag(d_j) (`_nt_scaling`). There
the Schur complement is the Gram matrix of the scaled coefficients,
factored by Cholesky under adaptive diagonal regularization, and no
inverse is formed. Once the gap is within tolerance the corrector takes
sigma = 1: it holds mu, so only the residuals still shrink. Reported
objectives: `primal_objective` is the moment-side value c.x, and
`dual_objective` is the certificate-side lower bound; at every iterate the
pair brackets the optimum up to the current residuals.

Statuses: `optimal` (gap and residuals within tolerance), `max_iter` (the
iteration cap ran out; the iterate of the last step is returned, and the
last history entry, `gap` and `feasibility` describe it), `stalled` and
`infeasible_suspected` (inconsistent equality rows, a fully determined
point outside the blocks, a solve that ends short of `optimal` with
max(feas_p, feas_d) above 1e-4, whatever its gap, or iterates that run off
with the residuals below it: mu rises MU_DIVERGED times its start). A
stall means no further progress is possible: a certificate-side X_j lost
definiteness to round-off, so X can take no step (at degenerate optima,
once the Schur complement is numerically singular and the steps no longer
reduce feas_p enough to close the gap); a slack could not be factored;
three steps in a row were tiny; or the iterates overflowed. A stalled
solve returns the moment side (u and the primal value) of its last finite
iterate, with the dual bound of the earlier iterate that brackets that
value most tightly (the smallest max(gap, feas_p)); `gap` and
`feasibility` describe that pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalBreakdown

__all__ = ["SolveOptions", "Solution", "solve"]

MU_DIVERGED = 1e8  # no demo or pop_ball solve's mu rises above its start
STEP_DAMPING = 0.98  # fraction of the step to the boundary of the cone


@dataclass(frozen=True)
class SolveOptions:
    max_iterations: int = 100
    gap_tolerance: float = 1e-8
    feasibility_tolerance: float = 1e-8

    def __post_init__(self):
        for name in ("gap_tolerance", "feasibility_tolerance"):
            if not getattr(self, name) > 0:  # NaN fails too
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.max_iterations < 0:
            raise ValueError(f"max_iterations must be >= 0, got {self.max_iterations}")


@dataclass
class Solution:
    """Solver outcome.

    `history` holds one tuple per iterate: (primal, dual, mu, feas_p,
    feas_d). The dual value is a certified lower bound on the primal only
    once feas_p (the certificate side's constraint residual) is within the
    feasibility tolerance; earlier entries are progress data, not bounds.
    `steps` holds one tuple per step taken, (ap, ad, sigma, schur_reg):
    steps[i] leads from iterate i to iterate i + 1, with the damped step
    lengths of X (ap) and of u and Z (ad), the centering parameter and the
    diagonal regularization the Schur complement needed.
    """

    variables: np.ndarray
    primal_objective: float
    dual_objective: float
    status: str  # optimal | max_iter | stalled | infeasible_suspected
    iterations: int
    history: list = field(default_factory=list)
    steps: list = field(default_factory=list)
    gap: float = np.inf
    feasibility: float = np.inf

    def certified_bounds(self, feas_tol=1e-8):
        """(primal, dual) pairs at iterates whose dual bound is certified."""
        return [(p, d) for p, d, _, fp, fd in self.history
                if fp <= feas_tol and fd <= feas_tol]


def _presolve_equalities(sdp):
    """Eliminate E x = e; returns (x_particular, nullspace, consistent)."""
    nv = sdp.n_vars
    if sdp.eq_a.shape[0] == 0:
        return np.zeros(nv), np.eye(nv), True
    a, b = sdp.eq_a, sdp.eq_b
    u, s, vt = np.linalg.svd(a, full_matrices=True)
    scale = s[0] if s.size else 0.0
    rank = int(np.sum(s > 1e-12 * max(scale, 1.0)))
    x_p = vt[:rank].T @ ((u[:, :rank].T @ b) / s[:rank])
    nullspace = vt[rank:].T
    consistent = np.linalg.norm(a @ x_p - b) <= 1e-8 * (1.0 + np.linalg.norm(b))
    return x_p, nullspace, consistent


def _reduced_blocks(sdp, x_p, nullspace):
    """Blocks rewritten over the nullspace coordinates u (x = x_p + N u): each
    unknown, in block order, adds its triplets into the columns where its
    nullspace row is nonzero. The stacks are dense: the nullspace fills them in."""
    reduced = []
    f = nullspace.shape[1]
    for b in sdp.blocks:
        const = np.asarray(np.real(b.const), dtype=float).copy()
        stack = np.zeros((f, b.size * b.size))
        for i, entry, coeff in b.unknowns():
            const.reshape(-1)[entry] += x_p[i] * coeff
            row = nullspace[i]
            nz = np.nonzero(np.abs(row) > 0)[0]
            stack[nz[:, None], entry] += row[nz, None] * coeff
        stack = stack.reshape(f, b.size, b.size)
        reduced.append(((const + const.T) / 2.0, (stack + stack.transpose(0, 2, 1)) / 2.0))
    return reduced


def _cholesky(m):
    """Lower Cholesky factor of m, or None when m is not positive definite."""
    try:
        return np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        return None


def _slack_cholesky(z):
    """(z', L) with z' = L L^T: z itself, or z plus the smallest ridge that
    makes it factorizable; (z, None) when none does."""
    for ridge in (0.0, 1e-14, 1e-11):
        zr = z + ridge * max(np.trace(z) / len(z), 1e-300) * np.eye(len(z)) if ridge else z
        ell = _cholesky(zr)
        if ell is not None:
            return zr, ell
    return z, None


def _nt_scaling(lx, lz):
    """(G, d) with G^T Z G = G^-1 X G^-T = diag(d) for X = lx lx^T and
    Z = lz lz^T: from the SVD lz^T lx = U diag(d) V^T, G = lx V diag(d)^-1/2."""
    _, d, vt = np.linalg.svd(lz.T @ lx)
    return (lx @ vt.T) / np.sqrt(d), d


def _step_lengths(ds):
    """(dX~, dZ~) -> (ap, ad), the largest alphas in (0, 1] keeping every
    D_j + ap dX~_j and D_j + ad dZ~_j PSD, for the scaled points D_j = diag(d_j).

    Each gives lam = lambda_min(D^-1/2 dM D^-1/2), from one stacked eigvalsh
    per matrix size. Its alpha, 1 for lam >= -1e-14 or NaN and else
    min(1, -1/lam), grows with lam: the smallest lam decides."""
    nb, by_size = len(ds), {}
    roots = [1.0 / np.sqrt(d) for d in ds + ds]
    for j, r in enumerate(roots):
        by_size.setdefault(len(r), []).append(j)
    scales = [(idx, np.stack([np.outer(roots[j], roots[j]) for j in idx]))
              for idx in by_size.values()]

    def step_lengths(dx, dz):
        dms, lam = dx + dz, np.empty(2 * nb)
        for idx, scale in scales:
            lam[idx] = np.linalg.eigvalsh(np.stack([dms[j] for j in idx]) * scale)[:, 0]
        sides = (np.fmin.reduce(lam[:nb], initial=0.0), np.fmin.reduce(lam[nb:], initial=0.0))
        return tuple(1.0 if m >= -1e-14 else min(1.0, -1.0 / m) for m in sides)

    return step_lengths


def solve(sdp, opts=None):
    """Solve a realified SDPProblem; see the module docstring for the form."""
    opts = opts or SolveOptions()
    if not sdp.is_real:
        raise ValueError("solve expects a realified problem (call realify first)")
    if not sdp.blocks:
        raise ValueError("problem has no PSD blocks")

    x_p, nullspace, consistent = _presolve_equalities(sdp)
    if not consistent:
        return Solution(
            variables=x_p,
            primal_objective=float(sdp.objective @ x_p + sdp.obj_const),
            dual_objective=-np.inf,
            status="infeasible_suspected",
            iterations=0,
        )
    f = nullspace.shape[1]
    c_red = nullspace.T @ sdp.objective
    const_off = float(sdp.objective @ x_p + sdp.obj_const)
    blocks = _reduced_blocks(sdp, x_p, nullspace)

    if f == 0:
        feas = min((np.linalg.eigvalsh(cb)[0] for cb, _ in blocks), default=0.0)
        ok = feas >= -opts.feasibility_tolerance
        return Solution(
            variables=x_p,
            primal_objective=const_off,
            dual_objective=const_off if ok else -np.inf,
            status="optimal" if ok else "infeasible_suspected",
            iterations=0,
            gap=0.0 if ok else np.inf,
            feasibility=max(0.0, -feas),
        )

    sizes = [cb.shape[0] for cb, _ in blocks]
    total_n = sum(sizes)
    norm_c = max(1.0, float(np.linalg.norm(c_red)))
    norm_f0 = max([1.0] + [float(np.linalg.norm(cb)) for cb, _ in blocks])
    radius = max(10.0, norm_c, norm_f0)
    # <A_k, M> = (flat @ M.ravel())[k]
    flats = [stack.reshape(f, -1) for _, stack in blocks]
    nb = len(blocks)

    u = np.zeros(f)
    xs = [radius * np.eye(nn) for nn in sizes]  # certificate-side matrices
    zs = [radius * np.eye(nn) for nn in sizes]  # LMI slacks

    history = []
    steps = []
    status = "max_iter"
    gap = np.inf
    worst_feas = np.inf
    moment_side = None  # (u, pobj, feas_d) of the last finite iterate
    tiny_steps = 0
    it = 0

    # one evaluation past the cap describes the iterate its last step made
    for it in range(1, opts.max_iterations + 2):
        # residuals: drive Z = S(u) and <A_jk, X_j> summed = c_k
        rd = [cb + (u @ flat).reshape(cb.shape) - z for (cb, _), flat, z in zip(blocks, flats, zs)]
        rp = c_red - sum(flat @ x.ravel() for flat, x in zip(flats, xs))
        mu = sum(xs[bi].ravel() @ zs[bi].ravel() for bi in range(nb)) / total_n

        pobj = float(c_red @ u) + const_off
        dobj = float(-sum(cb.ravel() @ x.ravel() for (cb, _), x in zip(blocks, xs)) + const_off)

        gap = abs(pobj - dobj) / (1.0 + abs(pobj))
        feas_p = float(np.linalg.norm(rp)) / norm_c
        feas_d = max(float(np.linalg.norm(r)) for r in rd) / norm_f0
        worst_feas = max(feas_p, feas_d)
        history.append((pobj, dobj, float(mu), feas_p, feas_d))
        if not np.all(np.isfinite(history[-1])):
            status = "stalled"  # the iterates overflowed: no step can recover
            break
        moment_side = (u, pobj, feas_d)
        if gap <= opts.gap_tolerance and worst_feas <= opts.feasibility_tolerance:
            status = "optimal"
            break
        if mu > MU_DIVERGED * history[0][2] and worst_feas <= 1e-4:
            status = "infeasible_suspected"  # the residual test below misses it
            break
        if it > opts.max_iterations:
            break

        # One Cholesky factor of each X_j and Z_j gives the NT scaling. An
        # X_j that is no longer positive definite admits no step, so X could
        # never move again; that, or a slack no ridge makes factorizable, is
        # a stall.
        x_chol = [_cholesky(x) for x in xs]
        zs, z_chol = map(list, zip(*(_slack_cholesky(z) for z in zs)))
        if any(ell is None for ell in x_chol + z_chol):
            status = "stalled"
            break
        gs, ds = zip(*(_nt_scaling(lx, lz) for lx, lz in zip(x_chol, z_chol)))
        step_lengths = _step_lengths(ds)
        rdt = [g.T @ r @ g for g, r in zip(gs, rd)]  # scaled residuals Rd~_j

        # Schur complement B[k,l] = sum_j <A~_jk, A~_jl>, the Gram matrix of
        # the scaled coefficients A~_jk = G_j^T A_jk G_j, formed one block at
        # a time: the directions read <A~_jk, W> as <A_jk, G_j W G_j^T>
        schur = 0.0
        for g, (_, stack) in zip(gs, blocks):
            scaled = (g.T @ stack @ g).reshape(f, -1)
            schur = schur + scaled @ scaled.T
        schur = (schur + schur.T) / 2.0
        reg, base = 0.0, max(np.trace(schur) / f, 1.0)
        for _ in range(8):
            chol = _cholesky(schur + reg * np.eye(f))
            if chol is not None:
                break
            reg = base * (1e-14 if reg == 0.0 else reg / base * 100)
        else:
            raise NumericalBreakdown("Schur complement not factorizable")

        def directions(sigma_mu, corr):
            # dX~ + dZ~ = T with (D T + T D)/2 = sigma*mu*I - D^2 - corr,
            # entrywise; <A~_k, dX~> = rp_k with dZ~ = G^T dZ G, where
            # dZ = sum_k du_k A_k + Rd
            ts = [2.0 * (np.diag(sigma_mu - d * d) - c) / np.add.outer(d, d)
                  for d, c in zip(ds, corr)]
            rhs = sum(flat @ (g @ (t - r) @ g.T).ravel()
                      for flat, g, t, r in zip(flats, gs, ts, rdt)) - rp
            du = np.linalg.solve(chol.T, np.linalg.solve(chol, rhs))
            dz = [g.T @ ((du @ flat).reshape(r.shape) + r) @ g
                  for flat, g, r in zip(flats, gs, rd)]
            dz = [(m + m.T) / 2.0 for m in dz]
            return du, [t - m for t, m in zip(ts, dz)], dz

        # predictor
        du, dx, dz = directions(0.0, [0.0] * nb)
        ap, ad = step_lengths(dx, dz)
        mu_aff = sum((np.diag(d) + ap * a).ravel() @ (np.diag(d) + ad * b).ravel()
                     for d, a, b in zip(ds, dx, dz)) / total_n
        sigma = min(1.0, max(0.0, (mu_aff / mu) ** 3)) if mu > 0 else 0.0
        if gap <= opts.gap_tolerance:
            sigma = 1.0  # hold mu: only the residuals are left to shrink

        # corrector
        du, dx, dz = directions(sigma * mu, [(m + m.T) / 2.0 for m in map(np.matmul, dx, dz)])
        ap, ad = step_lengths(dx, dz)
        ap, ad = min(STEP_DAMPING * ap, 1.0), min(STEP_DAMPING * ad, 1.0)
        steps.append((float(ap), float(ad), float(sigma), float(reg)))

        if max(ap, ad) < 1e-6:
            tiny_steps += 1
            if tiny_steps >= 3:
                status = "stalled"
                break
        else:
            tiny_steps = 0

        for bi in range(nb):
            m = gs[bi] @ dx[bi] @ gs[bi].T
            xs[bi] = xs[bi] + ap * (m + m.T) / 2.0
            zs[bi] = zs[bi] + ad * ((du @ flats[bi]).reshape(sizes[bi], sizes[bi]) + rd[bi])
        u = u + ad * du

    if status == "stalled":
        # The two sides certify different things. The moment side keeps
        # improving up to the stall, and extraction wants the most converged
        # moments, so its last finite iterate stands. The dual bound comes
        # from the iterate, among those whose X was positive definite (each
        # that took a step), that brackets this primal value most tightly.
        u, pobj, feas_d = moment_side

        def bracket(entry):
            return max(abs(pobj - entry[1]) / (1.0 + abs(pobj)), entry[3])

        _, dobj, _, feas_p, _ = min(history[: len(steps)] or history[-1:], key=bracket)
        gap = abs(pobj - dobj) / (1.0 + abs(pobj))
        worst_feas = max(feas_p, feas_d)
    if status != "optimal" and worst_feas > 1e-4:
        status = "infeasible_suspected"
    return Solution(
        variables=x_p + nullspace @ u,
        primal_objective=pobj,
        dual_objective=dobj,
        status=status,
        iterations=min(it, opts.max_iterations),
        history=history,
        steps=steps,
        gap=float(gap),
        feasibility=float(worst_feas),
    )
