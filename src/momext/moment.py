"""Multi-index calculus and structured matrices built from truncated moments.

Indices are plain tuples of nonnegative ints ordered graded-lexicographically
(total degree first, then lexicographic with the first variable highest).
A MomentSequence gathers and decomposes each of its moment matrices once,
for every caller, and stores the raw truncated data in one of two modes:

* ``paired``  -- keys are (alpha, beta) pairs, values y[alpha, beta];
* ``hankel``  -- keys are single indices, values y[alpha] (interpolation data).
"""

from __future__ import annotations

import contextlib
import functools
import io
import math
import os
import types
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import MissingMoment, OrderTooSmall, ParseError

__all__ = [
    "enumerate_indices",
    "index_add",
    "total_degree",
    "Layout",
    "layout",
    "MomentSequence",
    "MomentMatrix",
    "HermitianPoly",
    "StructureFlags",
    "moment_matrix",
    "hankel_matrix",
    "localizing_matrix",
    "classify_structure",
    "hyponormality_block",
    "write_sequence",
    "read_sequence",
]


def total_degree(alpha):
    return sum(alpha)


def index_add(alpha, beta):
    return tuple(a + b for a, b in zip(alpha, beta))


def unit_index(n, k):
    """e_k as a tuple (k is 1-based)."""
    return tuple(1 if i == k - 1 else 0 for i in range(n))


def _compositions(total, n):
    """Compositions of `total` into n parts, first part largest first."""
    if n == 1:
        yield (total,)
        return
    for head in range(total, -1, -1):
        for tail in _compositions(total - head, n - 1):
            yield (head,) + tail


def enumerate_indices(n, d):
    """All multi-indices with |alpha| <= d in graded lexicographic order."""
    if n < 1 or d < 0:
        raise ValueError(f"need n >= 1 and d >= 0, got n={n}, d={d}")
    out = []
    for t in range(d + 1):
        out.extend(_compositions(t, n))
    return out


def index_count(n, d):
    return math.comb(n + d, d)


def _tolerant_order(keys, rtol=1e-9):
    """Indices sorting real tuples lexicographically, with near-equal entries tied.

    Entries a, b tie when |a - b| <= rtol * max(1, |a|, |b|), so keys that
    differ only by round-off (-0.1 against -0.10000000000000021) are
    ordered by their next entry, not by the round-off.
    """
    def cmp(i, j):
        for a, b in zip(keys[i], keys[j]):
            if abs(a - b) > rtol * max(1.0, abs(a), abs(b)):
                return -1 if a < b else 1
        return 0

    return sorted(range(len(keys)), key=functools.cmp_to_key(cmp))


def _merge_close(points, weights, tol):
    """Merge each point into the first earlier kept point within max-coordinate
    distance tol, adding up their weights; returns the kept (points, weights)."""
    kept, sums = [], []
    for point, w in zip(points, weights):
        for idx, ref in enumerate(kept):
            if max(abs(a - b) for a, b in zip(point, ref)) <= tol:
                sums[idx] += w
                break
        else:
            kept.append(point)
            sums.append(w)
    return kept, sums


class Layout:
    """Graded-lex multi-indices |alpha| <= d over n variables, with shift tables.

    The labels of order t are the first index_count(n, t) labels, so every
    structured matrix indexed by them is an integer gather through
    `shift(gamma, t)`. Share the instances of `layout(n, d)`, which live as
    long as the process, one per (n, d) in use; their tables are read-only.
    """

    def __init__(self, n, d):
        self.n = n
        self.d = d
        self.labels = tuple(enumerate_indices(n, d))
        self.pos = types.MappingProxyType({a: i for i, a in enumerate(self.labels)})

    def size(self, t):
        """Number of labels of order t (0 for t < 0)."""
        return index_count(self.n, t) if t >= 0 else 0

    @functools.lru_cache(maxsize=None)
    def shift(self, gamma, t):
        """Positions of alpha + gamma for the labels alpha of order t."""
        table = np.array([self.pos[index_add(a, gamma)] for a in self.labels[: self.size(t)]],
                         dtype=np.intp)
        table.flags.writeable = False  # shared by every caller
        return table

    @functools.cached_property
    def exponents(self):
        """(N, n) integer array of the labels, row p the exponents of labels[p]."""
        table = np.array(self.labels)
        table.flags.writeable = False
        return table

    @functools.cached_property
    def sums(self):
        """(N, N) table of the positions in layout(n, 2d) of labels[p] + labels[q]."""
        big = layout(self.n, 2 * self.d)
        table = np.stack([big.shift(b, self.d) for b in self.labels], axis=1)
        table.flags.writeable = False
        return table

    @functools.cached_property
    def first_of_sum(self):
        """(N, N) table: per entry (p, q), the row-major flat index of the first
        entry (p', q') with labels[p'] + labels[q'] == labels[p] + labels[q]."""
        return _first_of_key(self.exponents, np.add)

    @functools.cached_property
    def first_of_difference(self):
        """(N, N) table as `first_of_sum`, for labels[p] - labels[q]."""
        return _first_of_key(self.exponents, np.subtract)


def _first_of_key(labels, op):
    """Read-only (N, N) table of `first_of_sum`'s kind for the key op(labels[p], labels[q]),
    `labels` an (N, n) exponent array."""
    keys = op(labels[:, None, :], labels[None, :, :]).reshape(-1, labels.shape[1])
    # the sort behind return_index is stable, so `first` is each key's first entry
    _, first, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    table = first[inverse.ravel()].reshape(len(labels), len(labels))
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=None)
def layout(n, d):
    """The shared Layout(n, d)."""
    return Layout(n, d)


def hyponormality_grid(n):
    """Shift pairs (gamma, delta) of the joint-hyponormality block of n variables.

    Cell (r, s) is the sub-block y[alpha + gamma, beta + delta] with gamma
    the s-th and delta the r-th of 0, e_1, ..., e_n: an (n+1) x (n+1) grid,
    the 2x2 univariate form for n == 1. Laid out over shift operators
    (cell S_s^* S_r, S_0 = I), its Schur complement on the zero-shift cell
    is ([S_j^*, S_i])_{i,j}, so it is PSD exactly when the n-tuple is
    jointly hyponormal (Athavale 1988; Curto 1990). The grid over 0, e_i,
    e_j of one variable pair is a principal submatrix of it.
    """
    shifts = [(0,) * n] + [unit_index(n, k) for k in range(1, n + 1)]
    return [[(gamma, delta) for gamma in shifts] for delta in shifts]


@dataclass
class MomentSequence:
    """Truncated moment data y over C^n, read-only once built.

    mode 'paired': values keyed by (alpha, beta), covering |alpha|,|beta| <= d.
    mode 'hankel': values keyed by alpha, covering |alpha| <= 2d.

    Construction copies `values` into a read-only mapping and, in one pass,
    into `array`: slot p * N + q holds y[labels[p], labels[q]] of
    layout(n, d) (N labels) for paired data, slot k holds y[labels[k]] of
    layout(n, 2d) for Hankel data. `present` marks the slots whose key was
    given. A key beyond order d raises ValueError. Graded-lex labels make
    the matrices of every order gathers from `array` through `read`.
    `matrix(t)` builds each M_t once, and `eig(t)` and `takagi(t, tol)`
    decompose it once, for every caller. `eigvals(t)` keeps a values-only
    spectrum of M_t apart from `eig(t)`, for callers that read ranks alone:
    neither is read from the other, so no value depends on which was asked
    for first.
    """

    n: int
    d: int
    mode: str
    values: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.mode not in ("paired", "hankel"):
            raise ValueError(f"unknown mode {self.mode!r}")
        paired = self.mode == "paired"
        pos = layout(self.n, self.d if paired else 2 * self.d).pos
        size = len(pos)
        self.values = types.MappingProxyType(dict(self.values))
        try:
            slots = ([pos[a] * size + pos[b] for a, b in self.values] if paired
                     else [pos[key] for key in self.values])
        except KeyError as exc:
            raise ValueError(f"{self.mode} key index {exc.args[0]} is beyond "
                             f"order d = {self.d}") from None
        self.array = np.zeros(size * size if paired else size, dtype=complex)
        self.array[slots] = list(self.values.values())
        self.present = np.zeros(self.array.size, dtype=bool)
        self.present[slots] = True
        self.array.flags.writeable = self.present.flags.writeable = False
        # t: MomentMatrix, t: EigResult, t: eigenvalues, t: (checked tol, TakagiResult)
        self._matrices, self._eigs, self._eigvals, self._takagis = {}, {}, {}, {}

    def matrix(self, t):
        """`moment_matrix(self, t)`, built once per order t; its matrix is read-only.

        With graded-lex labels M_t is the leading block of every M_s, s > t:
        when one is kept, M_t is a contiguous copy of that block, else a gather.
        """
        if t not in self._matrices:
            larger = [s for s in self._matrices if s > t]
            if larger:
                labels = list(layout(self.n, t).labels)
                size = len(labels)
                m = MomentMatrix(self._matrices[min(larger)].matrix[:size, :size].copy(),
                                 labels, labels)
            else:
                m = moment_matrix(self, t)
            m.matrix.flags.writeable = False
            self._matrices[t] = m
        return self._matrices[t]

    def eig(self, t):
        """`linalg.hermitian_eig(M_t(y), tol=np.inf)`, computed once per order t; read-only."""
        if t not in self._eigs:
            self._eigs[t] = _frozen(linalg.hermitian_eig(self.matrix(t).matrix, tol=np.inf))
        return self._eigs[t]

    def eigvals(self, t):
        """`linalg.hermitian_eigvals(M_t(y), tol=np.inf)`, computed once per order t; read-only."""
        if t not in self._eigvals:
            values = linalg.hermitian_eigvals(self.matrix(t).matrix, tol=np.inf)
            values.flags.writeable = False
            self._eigvals[t] = values
        return self._eigvals[t]

    def takagi(self, t, tol=np.inf):
        """`linalg.takagi(M_t(y), tol)`, reusing a kept result checked at tol or more strictly."""
        if t not in self._takagis or self._takagis[t][0] > tol:
            self._takagis[t] = (tol, _frozen(linalg.takagi(self.matrix(t).matrix, tol)))
        return self._takagis[t][1]

    def get(self, alpha, beta):
        """y_{alpha,beta}; in hankel mode this is y_{alpha+beta}."""
        if self.mode == "paired":
            key = (tuple(alpha), tuple(beta))
        else:
            key = index_add(alpha, beta)
        try:
            return complex(self.values[key])
        except KeyError:
            raise MissingMoment(key) from None

    def read(self, rows, cols, order):
        """y[labels[rows], labels[cols]], or y[labels[rows] + labels[cols]], elementwise.

        `rows` and `cols` are integer arrays of positions in layout(n, order)
        that broadcast against each other; the result has their broadcast
        shape. The first key, in row-major order of that shape, that is
        absent or beyond order d raises MissingMoment.
        """
        if self.mode == "paired":
            size = index_count(self.n, self.d)
            slots = rows * size + cols
            beyond = (rows >= size) | (cols >= size)
        else:
            slots = layout(self.n, order).sums[rows, cols]
            beyond = slots >= self.array.size
        slots = np.where(beyond, 0, slots)
        missing = beyond | ~self.present[slots]
        if missing.any():
            first = np.unravel_index(int(np.argmax(missing)), missing.shape)
            labels = layout(self.n, order).labels
            a = labels[np.broadcast_to(rows, missing.shape)[first]]
            b = labels[np.broadcast_to(cols, missing.shape)[first]]
            raise MissingMoment((a, b) if self.mode == "paired" else index_add(a, b))
        return self.array[slots]

    def zero_moment(self):
        origin = (0,) * self.n
        return self.get(origin, origin)

    def is_hermitian(self, tol=1e-12):
        if self.mode == "hankel":
            return all(abs(v.imag) <= tol for v in map(complex, self.values.values()))
        scale = max((abs(complex(v)) for v in self.values.values()), default=1.0)
        for (a, b), v in self.values.items():
            w = self.values.get((b, a))
            if w is None or abs(np.conj(complex(v)) - complex(w)) > tol * max(scale, 1.0):
                return False
        return True


def _frozen(result):
    """A decomposition, its arrays made read-only to share them."""
    for array in result:
        array.flags.writeable = False
    return result


@dataclass
class MomentMatrix:
    matrix: np.ndarray
    row_labels: list
    col_labels: list


@dataclass
class HermitianPoly:
    """Polynomial sum of c[alpha,beta] * conj(z)^alpha z^beta with real values.

    Hermitian means conj(c[a,b]) == c[b,a]; `strict` construction enforces it.
    """

    n: int
    terms: dict

    def __post_init__(self):
        self.terms = {
            (tuple(a), tuple(b)): complex(c)
            for (a, b), c in self.terms.items()
            if c != 0
        }

    @property
    def k(self):
        """Half-degree: max of |alpha|, |beta| over nonzero terms."""
        if not self.terms:
            return 0
        return max(max(total_degree(a), total_degree(b)) for a, b in self.terms)

    def is_hermitian(self, tol=1e-12):
        scale = max((abs(c) for c in self.terms.values()), default=1.0)
        for (a, b), c in self.terms.items():
            if abs(np.conj(c) - self.terms.get((b, a), 0.0)) > tol * scale:
                return False
        return True

    def hermitian_parts(self):
        """Split arbitrary complex-coefficient terms into (re, im) Hermitian polys.

        p == re_part + i * im_part pointwise, each part real-valued on C^n.
        """
        keys = set(self.terms)
        keys.update((b, a) for a, b in self.terms)
        re_terms, im_terms = {}, {}
        for a, b in keys:
            c = self.terms.get((a, b), 0.0)
            cc = np.conj(self.terms.get((b, a), 0.0))
            re_terms[(a, b)] = (c + cc) / 2.0
            im_terms[(a, b)] = (c - cc) / 2.0j
        return (
            HermitianPoly(self.n, re_terms),
            HermitianPoly(self.n, im_terms),
        )

    def eval(self, z):
        z = np.asarray(z, dtype=complex)
        acc = 0.0 + 0.0j
        for (a, b), c in self.terms.items():
            acc += c * np.prod(np.conj(z) ** np.array(a)) * np.prod(z ** np.array(b))
        return acc


def moment_matrix(seq, d):
    """M_d(y): entry (alpha, beta) = y_{alpha,beta} (or y_{alpha+beta})."""
    labels = list(layout(seq.n, d).labels)
    every = np.arange(len(labels))
    return MomentMatrix(seq.read(every[:, None], every, d), labels, labels)


def hankel_matrix(seq, d):
    """H_d(y) from hankel-mode samples: entry (alpha, beta) = y_{alpha+beta}."""
    if seq.mode != "hankel":
        raise ValueError("hankel_matrix requires a hankel-mode sequence")
    return moment_matrix(seq, d)


def localizing_matrix(seq, g, d):
    """M_{d-k}(g y): entry (a,b) = sum over g terms of c[gamma,delta]*y[a+gamma, b+delta].

    `d` is the order of the data the matrix is built against; the result is
    indexed by |alpha|,|beta| <= d - k where k is the half-degree of g.
    """
    k = g.k
    if d < k:
        raise OrderTooSmall(f"localizing matrix needs d >= {k}, got d={d}")
    lay = layout(seq.n, d)
    labels = list(lay.labels[: lay.size(d - k)])
    m = np.zeros((len(labels), len(labels)), dtype=complex)
    for (gamma, delta), c in g.terms.items():
        m += c * seq.read(lay.shift(gamma, d - k)[:, None], lay.shift(delta, d - k), d)
    return MomentMatrix(m, labels, labels)


@dataclass
class StructureFlags:
    hermitian: bool
    hankel: bool
    toeplitz: bool


def classify_structure(m, tol=1e-9):
    """Detect Hermitian / Hankel / Toeplitz structure of a moment matrix.

    Hankel: entries agree whenever alpha+beta agree; Toeplitz: whenever
    alpha-beta agree. Purely advisory; comparisons use absolute tolerance.
    Each entry is compared with the first entry, in row-major order, that
    has the same key, read from the tables of the matrix's layout. Rows and
    columns must carry the labels of layout(n, d) (ValueError otherwise).
    """
    lay = layout(len(m.row_labels[0]), total_degree(m.row_labels[-1]))
    if not tuple(m.row_labels) == tuple(m.col_labels) == lay.labels:
        raise ValueError("classify_structure needs a matrix labeled by layout(n, d)")
    a = m.matrix
    hermitian = bool(np.all(np.abs(a - a.conj().T) <= tol))
    values = a.ravel()

    def agrees(first):
        return not np.any(np.abs(values - values[first.ravel()]) > tol)

    return StructureFlags(hermitian=hermitian, hankel=agrees(lay.first_of_sum),
                          toeplitz=agrees(lay.first_of_difference))


def hyponormality_block(seq, dk):
    """Data-level joint-hyponormality block of all n variables, laid out by
    `hyponormality_grid(n)` with M_{d-dk}-sized sub-blocks.

    One gather for the whole grid, by cells: an absent moment raises the
    MissingMoment of the first cell, in row-major grid order, that lacks one.
    """
    if dk < 1:
        raise OrderTooSmall("hyponormality block needs a gap dk >= 1")
    h = seq.d - dk
    if h < 0:
        raise OrderTooSmall(f"gap dk={dk} exceeds data order d={seq.d}")
    grid = hyponormality_grid(seq.n)
    lay = layout(seq.n, seq.d)
    # shifted[k]: positions of alpha + (0, e_1, ..., e_n)[k] for |alpha| <= h
    shifted = np.stack([lay.shift(gamma, h) for gamma, _ in grid[0]])
    cells, size = shifted.shape
    # cell (i, j), entry (p, q): y[alpha_p + gamma_j, beta_q + delta_i]
    gathered = seq.read(shifted[None, :, :, None], shifted[:, None, None, :], seq.d)
    m = gathered.transpose(0, 2, 1, 3).reshape(cells * size, cells * size)
    labels = list(lay.labels[: lay.size(h)]) * cells
    return MomentMatrix(m, labels, labels)


# ----------------------------------------------------------------- file IO


def _fmt(x):
    return format(float(x), ".17g")


@contextlib.contextmanager
def _sink(target):
    """A path (opened for writing, closed afterwards) or a file object."""
    if isinstance(target, (str, os.PathLike)):
        with open(target, "w") as fh:
            yield fh
    else:
        yield target


def _source_lines(source):
    """Lines of a path (an os.PathLike or a one-line string), a text or a file object."""
    if isinstance(source, os.PathLike) or isinstance(source, str) and "\n" not in source:
        with open(source) as fh:
            return fh.read().splitlines()
    if isinstance(source, str):
        return source.splitlines()
    return source.read().splitlines()


def _write_records(target, name, fields, rows):
    """Write the header line, one 'key value' line per field, then the rows."""
    lines = [f"{name} 1", *(f"{key} {value}" for key, value in fields.items()), *rows]
    with _sink(target) as fh:
        fh.write("\n".join(lines) + "\n")


def _read_records(source, name, fields, entries, defaults=None):
    """Read a '<name> 1' text (path, text or file object); returns its header fields.

    Blank lines are skipped and '#' starts a comment anywhere on a line. The
    header line comes first. `fields` maps each header field to its value
    parser, parse(text, where); every field without a default must be given,
    each at most once and before the first entry. Each other line goes to
    the parser its first word names in `entries`, as parse(args, header,
    where) with the rest of the line and the header fields.
    """
    records = [(f"line {no}", parts) for no, raw in enumerate(_source_lines(source), 1)
               if (parts := raw.split("#", 1)[0].split())]
    if not records or records[0][1][0] != name:
        raise ParseError(f"missing '{name} 1' header line")
    if records[0][1][1:] != ["1"]:
        raise ParseError(f"{records[0][0]}: unsupported {name} version")
    header = {}
    k = 1
    while k < len(records) and records[k][1][0] in fields:
        where, (key, *value) = records[k]
        k += 1
        if len(value) != 1:
            raise ParseError(f"{where}: header field {key!r} needs one value")
        if key in header:
            raise ParseError(f"{where}: repeated header field {key!r}")
        header[key] = fields[key](value[0], where)
    header = {**(defaults or {}), **header}
    for key in fields:
        if key not in header:
            raise ParseError(f"missing header field {key!r}")
    for where, (key, *args) in records[k:]:
        if key not in entries:
            kind = "header field after the entries" if key in fields else "unknown directive"
            raise ParseError(f"{where}: {kind} {key!r}")
        entries[key](args, header, where)
    return header


def _integer(least):
    """Value parser of an integer header field that is at least `least`."""
    def parse(text, where):
        try:
            value = int(text)
        except ValueError:
            raise ParseError(f"{where}: bad integer {text!r}") from None
        if value < least:
            raise ParseError(f"{where}: need a value >= {least}, got {value}")
        return value
    return parse


_count = _integer(1)  # a variable count n


def _choice(*options):
    """Value parser of a header field that takes one of `options`."""
    def parse(text, where):
        if text not in options:
            raise ParseError(f"{where}: {text!r} is not one of {', '.join(options)}")
        return text
    return parse


def _complexes(tokens, where):
    """Complex numbers from 're im' token pairs, each part a finite float."""
    try:
        parts = [float(t) for t in tokens]
    except ValueError:
        raise ParseError(f"{where}: bad number") from None
    if not all(map(math.isfinite, parts)):
        raise ParseError(f"{where}: non-finite value")
    return [complex(re, im) for re, im in zip(parts[::2], parts[1::2])]


def _idx_str(alpha):
    return ",".join(str(int(a)) for a in alpha)


def _parse_idx(text, n, where):
    parts = text.split(",")
    if len(parts) != n:
        raise ParseError(f"{where}: index {text!r} has {len(parts)} parts, expected {n}")
    try:
        idx = tuple(int(p) for p in parts)
    except ValueError:
        raise ParseError(f"{where}: bad index {text!r}") from None
    if any(a < 0 for a in idx):
        raise ParseError(f"{where}: negative exponent in {text!r}")
    return idx


def write_sequence(seq, target):
    """Write a moment sequence as versioned structured text (round-trip exact)."""
    def row(key, v):
        v = complex(v)
        idx = " ".join(map(_idx_str, key)) if seq.mode == "paired" else _idx_str(key)
        return f"y {idx} {_fmt(v.real)} {_fmt(v.imag)}"

    _write_records(target, "momseq", {"mode": seq.mode, "n": seq.n, "d": seq.d},
                   (row(key, v) for key, v in sorted(seq.values.items())))


def sequence_to_text(seq):
    buf = io.StringIO()
    write_sequence(seq, buf)
    return buf.getvalue()


def read_sequence(source):
    """Parse a moment-sequence file (path, file object, or text)."""
    values = {}

    def entry(args, header, where):
        paired = header["mode"] == "paired"
        if len(args) != (4 if paired else 3):
            raise ParseError(f"{where}: {header['mode']} entry needs "
                             f"'y {'A B' if paired else 'A'} re im'")
        idx = tuple(_parse_idx(a, header["n"], where) for a in args[:-2])
        if max(map(sum, idx)) > (header["d"] if paired else 2 * header["d"]):
            raise ParseError(f"{where}: entry beyond order d = {header['d']}")
        values[idx if paired else idx[0]] = _complexes(args[-2:], where)[0]

    header = _read_records(source, "momseq", {"mode": _choice("paired", "hankel"),
                                              "n": _count, "d": _integer(0)}, {"y": entry})
    return MomentSequence(n=header["n"], d=header["d"], mode=header["mode"], values=values)
