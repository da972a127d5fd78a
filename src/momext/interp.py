"""Exponential-sum modeling and recovery.

A model is a finite sum of terms w_k * exp(<f_k, z>) with complex weights
and frequency vectors. Sampling it on the integer grid turns interpolation
into a truncated moment problem in Hankel form; recovery factorizes the
Hankel moment matrices with the Takagi decomposition (the samples'
`MomentSequence.takagi`, shared with the extraction) and runs the shift
extraction in transpose mode, with no Vandermonde solve.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import AtomAtZero, OrderTooSmall, ParseError, RankNotStabilized, TooManyVariables
from .extraction import Tolerances, extract_measure
from .moment import (
    MomentSequence,
    _complexes,
    _count,
    _fmt,
    _merge_close,
    _read_records,
    _tolerant_order,
    _write_records,
    enumerate_indices,
)

__all__ = [
    "ExpTerm",
    "ExpSumModel",
    "eval_expsum",
    "sample_grid",
    "interpolate",
    "emit_signal",
    "write_model",
    "read_model",
]

TWO_PI = 2.0 * np.pi


@dataclass
class ExpTerm:
    weight: complex
    frequencies: tuple  # length-n complex vector f_k

    def canonical(self):
        freqs = tuple(
            complex(f.real, _wrap_angle(f.imag)) for f in map(complex, self.frequencies)
        )
        return ExpTerm(complex(self.weight), freqs)


def _wrap_angle(x):
    """Reduce to the principal interval (-pi, pi]."""
    y = np.remainder(x + np.pi, TWO_PI) - np.pi
    return np.pi if y == -np.pi else y


@dataclass
class ExpSumModel:
    n: int
    terms: list = field(default_factory=list)

    def canonical(self):
        """Wrap frequencies, merge coincident terms, drop zero weights, sort.

        Each term merges into the first earlier term whose frequencies lie
        within 1e-9 in max-coordinate distance (`moment._merge_close`),
        adding its weight. Terms sort lexicographically on (re, im) of their
        frequencies, with entries that differ only by round-off tied.
        """
        terms = [t.canonical() for t in self.terms]
        freqs, weights = _merge_close([t.frequencies for t in terms],
                                      [t.weight for t in terms], 1e-9)
        merged = [ExpTerm(w, f) for f, w in zip(freqs, weights) if abs(w) > 0.0]
        order = _tolerant_order(
            [tuple(x for f in t.frequencies for x in (f.real, f.imag)) for t in merged]
        )
        return ExpSumModel(self.n, [merged[k] for k in order])


def eval_expsum(model, z):
    """Evaluate the exponential sum at a point of C^n."""
    z = np.asarray(z, dtype=complex)
    acc = 0.0 + 0.0j
    for term in model.terms:
        acc += term.weight * np.exp(np.dot(np.asarray(term.frequencies), z))
    return complex(acc)


def sample_grid(model, d):
    """Integer-grid samples y_alpha = f(alpha) for |alpha| <= 2d, Hankel mode."""
    if d < 1:
        raise ValueError("sampling order must be >= 1")
    values = {
        alpha: eval_expsum(model, alpha)
        for alpha in enumerate_indices(model.n, 2 * d)
    }
    return MomentSequence(n=model.n, d=d, mode="hankel", values=values)


def interpolate(samples, d_max=None, tol=None, seed=0):
    """Recover an exponential-sum model from integer-grid samples.

    `samples` is a hankel-mode MomentSequence. The Hankel order grows from 1
    until the rank stabilizes, then the transpose-mode extraction runs and
    atom coordinates map to frequencies through the principal logarithm.
    Each H_t is Takagi-factored once, by `samples.takagi`: the extraction
    reads the search's factorizations for its ranks and its factor.
    Returns (model, report); the report's reconstruction residual covers
    every sample given, those beyond the stabilized order too. An order
    below 1 raises OrderTooSmall.
    """
    tol = tol or Tolerances()
    if samples.mode != "hankel":
        raise ValueError("interpolation requires hankel-mode samples")
    d_max = samples.d if d_max is None else min(d_max, samples.d)
    if d_max < 1:
        raise OrderTooSmall(f"interpolation needs order-1 samples, got order {d_max}")

    ranks = []
    for d in range(d_max + 1):
        sigma = samples.takagi(d, tol.symmetry_tol).values
        ranks.append(linalg.numeric_rank(sigma, tol.rank_tol))
        if d and ranks[-1] == ranks[-2]:
            break
    else:
        raise RankNotStabilized(
            f"Hankel rank still growing at order {d_max} (rank {ranks[-1]})"
        )

    measure, report = extract_measure(samples, d=d, seed=seed, tol=tol)

    terms = []
    for atom, w in zip(measure.atoms, measure.weights):
        freqs = []
        for coord in atom:
            if abs(coord) < 1e-12:
                raise AtomAtZero(f"node {coord} too close to zero for log()")
            freqs.append(complex(np.log(coord)))
        terms.append(ExpTerm(complex(w), tuple(freqs)))
    return ExpSumModel(samples.n, terms).canonical(), report


def emit_signal(model, ranges, which="real"):
    """Tabulate the model on a real grid as comma-separated text.

    `ranges` is one (start, stop, count) triple per variable (n <= 2).
    `which` selects the real part, imaginary part, or modulus.
    """
    if model.n > 2:
        raise TooManyVariables(f"gridded signal output supports n <= 2, got n = {model.n}")
    if len(ranges) != model.n:
        raise ValueError(f"need {model.n} range specs, got {len(ranges)}")
    if which not in ("real", "imag", "abs"):
        raise ValueError("which must be real, imag or abs")
    axes = [np.linspace(start, stop, int(count)) for start, stop, count in ranges]
    pick = {"real": lambda v: v.real, "imag": lambda v: v.imag, "abs": abs}[which]

    names = [f"z{i + 1}" for i in range(model.n)]
    lines = [",".join(names + [which])]
    for pt in itertools.product(*axes):
        val = pick(eval_expsum(model, pt))
        row = [format(float(c), ".12g") for c in pt] + [format(float(val), ".12g")]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------- file IO


def write_model(model, target):
    def row(term):
        nums = [complex(term.weight), *map(complex, term.frequencies)]
        return "term " + " ".join(f"{_fmt(z.real)} {_fmt(z.imag)}" for z in nums)

    _write_records(target, "expsum", {"n": model.n}, map(row, model.terms))


def read_model(source):
    terms = []

    def term(args, header, where):
        if len(args) != 2 + 2 * header["n"]:
            raise ParseError(f"{where}: expected {2 + 2 * header['n']} numbers")
        w, *freqs = _complexes(args, where)
        terms.append(ExpTerm(w, tuple(freqs)))

    header = _read_records(source, "expsum", {"n": _count}, {"term": term})
    return ExpSumModel(header["n"], terms)
