"""Dense primal-dual interior-point solver for small block-diagonal SDPs.

Solves the LMI-form problem produced by the relaxation assembler:

    minimize    c . x + const
    subject to  S_j(x) = C_j + sum_i x_i A_{ji}  >=  0   (each block)
                E x = e                                   (equality rows)

Equality rows are eliminated up front through a nullspace basis; the
reduced pure-LMI problem is then solved by an infeasible-start Mehrotra
predictor-corrector on the HKM direction, with the Schur complement
factored by Cholesky under adaptive diagonal regularization. Reported
objectives: `primal_objective` is the moment-side value c.x, and
`dual_objective` is the certificate-side lower bound; at every iterate the
pair brackets the optimum up to the current residuals.

Statuses: `optimal` (gap and residuals within tolerance), `max_iter` (the
iteration cap ran out; the iterate of the last step is returned, and the
last history entry, `gap` and `feasibility` describe it), `stalled` and
`infeasible_suspected` (inconsistent equality rows, a fully determined
point outside the blocks, or residuals and gap both far from their targets
when the loop ends). A stall means no further progress is possible: a
certificate-side X_j lost definiteness to round-off, so X can take no
step; a slack could not be factored; three steps in a row were tiny; or
the iterates overflowed. A stalled solve returns the moment side (u and
the primal value) of its last finite iterate, with the dual bound of the
earlier iterate that brackets that value most tightly (the smallest
max(gap, feas_p)); `gap` and `feasibility` describe that pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalBreakdown

__all__ = ["SolveOptions", "Solution", "solve"]


@dataclass(frozen=True)
class SolveOptions:
    max_iterations: int = 100
    gap_tolerance: float = 1e-8
    feasibility_tolerance: float = 1e-8
    step_damping: float = 0.98

    def __post_init__(self):
        for name in ("gap_tolerance", "feasibility_tolerance"):
            if not getattr(self, name) > 0:  # NaN fails too
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.max_iterations < 0:
            raise ValueError(f"max_iterations must be >= 0, got {self.max_iterations}")
        if not (0 < self.step_damping < 1):
            raise ValueError("step damping must be in (0, 1)")


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
    """Blocks rewritten over the nullspace coordinates u (x = x_p + N u)."""
    reduced = []
    f = nullspace.shape[1]
    for b in sdp.blocks:
        const = np.asarray(np.real(b.const), dtype=float).copy()
        stack = np.zeros((f, b.size, b.size))
        for i, mat in b.coeffs.items():
            mat = np.asarray(np.real(mat), dtype=float)
            const += x_p[i] * mat
            row = nullspace[i]
            nz = np.nonzero(np.abs(row) > 0)[0]
            for k in nz:
                stack[k] += row[k] * mat
        const = (const + const.T) / 2.0
        stack = (stack + np.transpose(stack, (0, 2, 1))) / 2.0
        reduced.append((const, stack))
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
    scale = max(np.trace(z) / z.shape[0], 1e-300)
    for ridge in (0.0, 1e-14, 1e-11):
        zr = z + ridge * scale * np.eye(z.shape[0]) if ridge else z
        ell = _cholesky(zr)
        if ell is not None:
            return zr, ell
    return z, None


def _max_step(ell, dm):
    """Largest alpha in (0, 1] keeping M + alpha*dm PSD, given M = ell ell^T."""
    w = np.linalg.solve(ell, dm)
    w = np.linalg.solve(ell, w.T).T
    w = (w + w.T) / 2.0
    lam = np.linalg.eigvalsh(w)[0]
    if lam >= -1e-14:
        return 1.0
    return min(1.0, -1.0 / lam)


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
        feas = min(
            (np.linalg.eigvalsh(cb)[0] for cb, _ in blocks), default=0.0
        )
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
    # <A_k, M> = (flat @ M.ravel())[k]; the stacks are symmetric, so flat.T
    # also stands for the transposed stack in the Schur complement
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

    def dual_objective():
        return -sum(np.tensordot(blocks[bi][0], xs[bi]) for bi in range(nb)) + const_off

    # one evaluation past the cap describes the iterate its last step made
    for it in range(1, opts.max_iterations + 2):
        # residuals: drive Z = S(u) and <A_jk, X_j> summed = c_k
        rd = [cb + (u @ flat).reshape(cb.shape) - z for (cb, _), flat, z in zip(blocks, flats, zs)]
        rp = c_red - sum(flat @ x.ravel() for flat, x in zip(flats, xs))
        mu = sum(np.tensordot(xs[bi], zs[bi]) for bi in range(nb)) / total_n

        pobj = float(c_red @ u) + const_off
        dobj = float(dual_objective())

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
        if it > opts.max_iterations:
            break

        # One Cholesky factor of each X_j and Z_j serves Zinv and all four
        # step-length tests. An X_j that is no longer positive definite
        # admits no step, so X could never move again; that, or a slack no
        # ridge makes factorizable, is a stall.
        x_chol = [_cholesky(x) for x in xs]
        z_chol = []
        for bi in range(nb):
            zs[bi], ell = _slack_cholesky(zs[bi])
            z_chol.append(ell)
        if any(ell is None for ell in x_chol + z_chol):
            status = "stalled"
            break
        zinv = [np.linalg.solve(ell.T, np.linalg.solve(ell, np.eye(ell.shape[0])))
                for ell in z_chol]
        zinv = [(inv + inv.T) / 2.0 for inv in zinv]

        # Schur complement B[k,l] = sum_j tr(A_jk X_j A_jl Zinv_j)
        schur = sum((x @ stack @ inv).reshape(f, -1) @ flat.T
                    for x, (_, stack), inv, flat in zip(xs, blocks, zinv, flats))
        schur = (schur + schur.T) / 2.0

        chol = None
        reg = 0.0
        base = max(np.trace(schur) / f, 1.0)
        for attempt in range(8):
            chol = _cholesky(schur + reg * np.eye(f))
            if chol is not None:
                break
            reg = base * (1e-14 if reg == 0.0 else reg / base * 100)
        if chol is None:
            raise NumericalBreakdown("Schur complement not factorizable")

        def schur_solve(v):
            return np.linalg.solve(chol.T, np.linalg.solve(chol, v))

        def directions(sigma_mu, corr):
            rhs = -rp
            for bi in range(nb):
                m = sigma_mu * zinv[bi] - xs[bi] - xs[bi] @ rd[bi] @ zinv[bi]
                if corr is not None:
                    m -= corr[bi] @ zinv[bi]
                rhs = rhs + flats[bi] @ m.ravel()
            # <A_k, dX> = rp_k  with dX = sigma*mu*Zinv - X - (X dZ + corr) Zinv
            du = schur_solve(rhs)
            dz = [(du @ flats[bi]).reshape(sizes[bi], sizes[bi]) + rd[bi] for bi in range(nb)]
            dx = []
            for bi in range(nb):
                m = sigma_mu * zinv[bi] - xs[bi] - xs[bi] @ dz[bi] @ zinv[bi]
                if corr is not None:
                    m -= corr[bi] @ zinv[bi]
                dx.append((m + m.T) / 2.0)
            return du, dx, dz

        def step_lengths(dx, dz):
            return (min(_max_step(ell, d) for ell, d in zip(x_chol, dx)),
                    min(_max_step(ell, d) for ell, d in zip(z_chol, dz)))

        # predictor
        du_a, dx_a, dz_a = directions(0.0, None)
        ap, ad = step_lengths(dx_a, dz_a)
        mu_aff = sum(
            np.tensordot(xs[bi] + ap * dx_a[bi], zs[bi] + ad * dz_a[bi])
            for bi in range(nb)
        ) / total_n
        sigma = min(1.0, max(0.0, (mu_aff / mu) ** 3)) if mu > 0 else 0.0

        # corrector
        corr = [dx_a[bi] @ dz_a[bi] for bi in range(nb)]
        du, dx, dz = directions(sigma * mu, corr)
        ap, ad = step_lengths(dx, dz)
        ap, ad = min(opts.step_damping * ap, 1.0), min(opts.step_damping * ad, 1.0)
        steps.append((float(ap), float(ad), float(sigma), float(reg)))

        if max(ap, ad) < 1e-6:
            tiny_steps += 1
            if tiny_steps >= 3:
                status = "stalled"
                break
        else:
            tiny_steps = 0

        for bi in range(nb):
            xs[bi] = xs[bi] + ap * dx[bi]
            zs[bi] = zs[bi] + ad * dz[bi]
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
    if status != "optimal" and worst_feas > 1e-4 and gap > 1e-2:
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
