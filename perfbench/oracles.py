"""Independent oracles for the benchmark workloads.

Nothing here imports momext: monomials, moments, objective values and the
matching of recovered atoms or terms against the generated truth are all
computed from scratch, so a defect in the program cannot hide itself by
also being present in its own check. Every function returns None when the
output passes and a one-line reason when it does not.
"""

from __future__ import annotations

import itertools

import numpy as np

ROUND_TRIP_TOL = 1e-6  # criterion 8a/8b bound on atoms, weights, frequencies
BALL_TOL = 1e-6
OBJECTIVE_TOL = 1e-6
CLI_OBJECTIVE_TOL = 5e-3  # acceptance-suite bound on the demo objectives
EXAMPLE7_TOL = 1e-4  # criterion 7 bound on the recovered Example 7 model


def exponents(n, d):
    """All exponent tuples of total degree <= d (any fixed order)."""
    return [e for e in itertools.product(range(d + 1), repeat=n) if sum(e) <= d]


def monomials(points, exps):
    """Matrix of z^e: one row per point, one column per exponent tuple."""
    pts = np.asarray(points, dtype=complex)
    ex = np.asarray(exps)
    return np.prod(pts[:, None, :] ** ex[None, :, :], axis=2)


def paired_moments(atoms, weights, d):
    """y[a, b] = sum_k w_k conj(z_k)^a z_k^b for |a|, |b| <= d."""
    atoms = np.asarray(atoms, dtype=complex)
    exps = exponents(atoms.shape[1], d)
    v = monomials(atoms, exps)
    m = v.conj().T @ (np.asarray(weights, dtype=float)[:, None] * v)
    return {(a, b): complex(m[i, j])
            for i, a in enumerate(exps) for j, b in enumerate(exps)}


def hermitian_form(q, exps, point):
    """f(z) = v(z)^* Q v(z) with v the monomials listed in `exps`."""
    v = monomials([point], exps)[0]
    return float(np.real(v.conj() @ q @ v))


def _match(truth, got):
    """Pair each true key with its nearest recovered key, or None.

    Returns a list of (i_truth, j_got) covering both sides exactly once.
    """
    if len(truth) != len(got):
        return None
    pairs = []
    used = set()
    for i, t in enumerate(truth):
        j = min(range(len(got)), key=lambda k: float(np.max(np.abs(got[k] - t))))
        if j in used:
            return None
        used.add(j)
        pairs.append((i, j))
    return pairs


def check_measure(atoms, weights, got_atoms, got_weights, tol=ROUND_TRIP_TOL):
    """Recovered atoms and weights equal the generated measure within tol."""
    truth = [np.asarray(a, dtype=complex) for a in atoms]
    got = [np.asarray(a, dtype=complex) for a in got_atoms]
    pairs = _match(truth, got)
    if pairs is None:
        return f"recovered {len(got)} atoms, expected {len(truth)}"
    for i, j in pairs:
        err = float(np.max(np.abs(got[j] - truth[i])))
        if err > tol:
            return f"atom error {err:.3e} > {tol:.0e}"
        werr = abs(complex(got_weights[j]) - complex(weights[i]))
        if werr > tol:
            return f"weight error {werr:.3e} > {tol:.0e}"
    return None


def _wrapped(freqs):
    f = np.asarray(freqs, dtype=complex)
    return f.real + 1j * (np.remainder(f.imag + np.pi, 2 * np.pi) - np.pi)


def check_expsum(terms, got_terms, tol=ROUND_TRIP_TOL):
    """Recovered (weight, frequencies) terms equal the generated ones within tol.

    Frequencies are compared with their imaginary parts reduced to one
    period, since exp() only sees them modulo 2*pi*i.
    """
    truth = [_wrapped(f) for _, f in terms]
    got = [_wrapped(f) for _, f in got_terms]
    pairs = _match(truth, got)
    if pairs is None:
        return f"recovered {len(got)} terms, expected {len(truth)}"
    for i, j in pairs:
        diff = got[j] - truth[i]
        diff = diff.real + 1j * (np.remainder(diff.imag + np.pi, 2 * np.pi) - np.pi)
        err = float(np.max(np.abs(diff)))
        if err > tol:
            return f"frequency error {err:.3e} > {tol:.0e}"
        werr = abs(complex(got_terms[j][0]) - complex(terms[i][0]))
        if werr > tol:
            return f"weight error {werr:.3e} > {tol:.0e}"
    return None


def check_ball_minimizers(q, exps, atoms, dual, certified):
    """Atoms of a ball-constrained minimisation are feasible global minimisers.

    `dual` is the solver's certificate-side lower bound; it only bounds the
    optimum when `certified` (final feasibility within the solve tolerance).
    """
    if not certified:
        return "dual bound not certified by the final feasibility"
    if not atoms:
        return "no atoms extracted"
    for atom in atoms:
        z = np.asarray(atom, dtype=complex)
        slack = 1.0 - float(np.sum(np.abs(z) ** 2))
        if slack < -BALL_TOL:
            return f"atom outside the ball by {-slack:.3e}"
        f = hermitian_form(q, exps, z)
        if f - dual > OBJECTIVE_TOL * (1.0 + abs(f)):
            return f"f(atom) - dual = {f - dual:.3e} above {OBJECTIVE_TOL:.0e}*(1+|f|)"
    return None


def parse_report(text):
    """Structured `key value` report lines -> {key: [values, ...]}."""
    out = {}
    for line in text.splitlines():
        key, _, value = line.partition(" ")
        out.setdefault(key, []).append(value)
    return out


def parse_complex(token):
    return complex(token.replace("i", "j"))
