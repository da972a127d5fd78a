"""Multi-index calculus and structured matrices built from truncated moments.

Indices are plain tuples of nonnegative ints ordered graded-lexicographically
(total degree first, then lexicographic with the first variable highest).
A MomentSequence stores the raw truncated data in one of two modes:

* ``paired``  -- keys are (alpha, beta) pairs, values y[alpha, beta];
* ``hankel``  -- keys are single indices, values y[alpha] (interpolation data).
"""

from __future__ import annotations

import contextlib
import functools
import io
import math
import types
from dataclasses import dataclass, field

import numpy as np

from .errors import MissingMoment, OrderTooSmall, ParseError

__all__ = [
    "enumerate_indices",
    "index_add",
    "total_degree",
    "Layout",
    "layout",
    "MomentSequence",
    "MomentTable",
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
    def sums(self):
        """(N, N) table of the positions in layout(n, 2d) of labels[p] + labels[q]."""
        big = layout(self.n, 2 * self.d)
        table = np.stack([big.shift(b, self.d) for b in self.labels], axis=1)
        table.flags.writeable = False
        return table


@functools.lru_cache(maxsize=None)
def layout(n, d):
    """The shared Layout(n, d)."""
    return Layout(n, d)


def variable_pairs(n):
    """Variable pairs (i, j), 1-based, with one hyponormality block each."""
    if n == 1:
        return [(1, 1)]
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def hyponormality_grid(n, i, j):
    """Shift pairs (gamma, delta) of the hyponormality block of variables (i, j).

    Cell (r, s) is the sub-block y[alpha + gamma, beta + delta] with gamma
    the s-th and delta the r-th of 0, e_i, e_j: a 3x3 grid, or the 2x2
    univariate form for n == 1 or i == j.
    """
    if n == 1 or i == j:
        units = [unit_index(n, i)]
    elif 1 <= i < j <= n:
        units = [unit_index(n, i), unit_index(n, j)]
    else:
        raise ValueError(f"need 1 <= i < j <= n, got i={i}, j={j}")
    shifts = [(0,) * n] + units
    return [[(gamma, delta) for gamma in shifts] for delta in shifts]


@dataclass
class MomentSequence:
    """Truncated moment data y over C^n.

    mode 'paired': values keyed by (alpha, beta), covering |alpha|,|beta| <= d.
    mode 'hankel': values keyed by alpha, covering |alpha| <= 2d.
    """

    n: int
    d: int
    mode: str
    values: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.mode not in ("paired", "hankel"):
            raise ValueError(f"unknown mode {self.mode!r}")

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


@dataclass
class MomentMatrix:
    matrix: np.ndarray
    row_labels: list
    col_labels: list
    kind: str  # moment | localizing | hankel | hypoblock


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


class MomentTable:
    """The values of a MomentSequence over layout(n, order), read in one pass.

    Slot p * N + q of `values` holds y[labels[p], labels[q]] for paired
    data (N labels); slot k holds y[labels[k]] of layout(n, 2 * order) for
    Hankel data. `present` marks the slots whose key the sequence holds;
    keys beyond the layout are left out. Graded-lex labels make the
    matrices of every order t <= order gathers from one table. The table is
    a copy that does not see later changes to the sequence: build it for
    one computation and drop it after.
    """

    def __init__(self, seq, order=None):
        self.n, self.d, self.mode = seq.n, seq.d, seq.mode
        self.order = seq.d if order is None else order
        self.layout = layout(seq.n, self.order)
        if seq.mode == "paired":
            pos, size = self.layout.pos, len(self.layout.labels)
            found = [(pos.get(a), pos.get(b), v) for (a, b), v in seq.values.items()]
            found = [(p * size + q, v) for p, q, v in found if p is not None and q is not None]
            self.index = np.arange(size * size).reshape(size, size)
            slot_count = size * size
        else:
            pos, slot_count = self.slot_layout.pos, len(self.slot_layout.labels)
            found = [(pos.get(a), v) for a, v in seq.values.items()]
            found = [(k, v) for k, v in found if k is not None]
            self.index = self.layout.sums
        slots = np.array([k for k, _ in found], dtype=np.intp)
        self.values = np.zeros(slot_count, dtype=complex)
        self.values[slots] = [v for _, v in found]
        self.present = np.zeros(slot_count, dtype=bool)
        self.present[slots] = True

    @classmethod
    def of(cls, seq, order):
        """`seq` itself when it is a table covering `order`, else the table of seq."""
        if not isinstance(seq, cls):
            return cls(seq, order)
        if seq.order < order:
            raise ValueError(f"a table of order {seq.order} cannot serve order {order}")
        return seq

    @property
    def slot_layout(self):
        """The layout of the keys of Hankel data, layout(n, 2 * order)."""
        return layout(self.n, 2 * self.order)

    def read(self, rows, cols):
        """y[labels[rows[i]], labels[cols[j]]], or y[labels[rows[i]] + labels[cols[j]]].

        `rows` and `cols` are positions of labels of order at most `order`.
        The first absent key in row-major order raises MissingMoment.
        """
        slots = self.index[np.ix_(rows, cols)]
        missing = ~self.present[slots]
        if missing.any():
            slot = int(slots.flat[np.argmax(missing)])
            if self.mode == "paired":
                p, q = divmod(slot, len(self.layout.labels))
                raise MissingMoment((self.layout.labels[p], self.layout.labels[q]))
            raise MissingMoment(self.slot_layout.labels[slot])
        return self.values[slots]


def moment_matrix(seq, d):
    """M_d(y): entry (alpha, beta) = y_{alpha,beta} (or y_{alpha+beta}).

    Like every builder here, it reads `seq`, a MomentSequence, through a
    MomentTable built for the call, or through the table passed in its place.
    """
    labels = list(layout(seq.n, d).labels)
    every = np.arange(len(labels))
    kind = "hankel" if seq.mode == "hankel" else "moment"
    return MomentMatrix(MomentTable.of(seq, d).read(every, every), labels, labels, kind)


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
    read = MomentTable.of(seq, d).read
    labels = list(lay.labels[: lay.size(d - k)])
    m = np.zeros((len(labels), len(labels)), dtype=complex)
    for (gamma, delta), c in g.terms.items():
        m += c * read(lay.shift(gamma, d - k), lay.shift(delta, d - k))
    return MomentMatrix(m, labels, labels, "localizing")


@dataclass
class StructureFlags:
    hermitian: bool
    hankel: bool
    toeplitz: bool


def _row_codes(keys):
    """Integer codes of the rows of an integer array: equal exactly for equal rows.

    Mixed-radix digits, one per column; codes are renumbered densely
    whenever the next digit could overflow int64.
    """
    keys = keys - keys.min(axis=0)
    codes = np.zeros(len(keys), dtype=np.int64)
    for column in keys.T:
        radix = int(column.max()) + 1
        if int(codes.max()) >= np.iinfo(np.int64).max // radix:
            codes = np.unique(codes, return_inverse=True)[1]
        codes = codes * radix + column
    return codes


def classify_structure(m, tol=1e-9):
    """Detect Hermitian / Hankel / Toeplitz structure of a labeled matrix.

    Hankel: entries agree whenever alpha+beta agree; Toeplitz: whenever
    alpha-beta agree. Purely advisory; comparisons use absolute tolerance.
    Each entry is compared with the first entry, in row-major order, that
    has the same key.
    """
    a = m.matrix
    hermitian = bool(np.all(np.abs(a - a.conj().T) <= tol))
    rows = np.asarray(m.row_labels)[:, None, :]
    cols = np.asarray(m.col_labels)[None, :, :]
    values = a.ravel()

    def agrees(keys):
        # a stable sort, so `first` is the first entry of each key in row-major order
        _, first, inverse = np.unique(_row_codes(keys.reshape(values.size, -1)),
                                      return_index=True, return_inverse=True)
        return not np.any(np.abs(values - values[first[inverse]]) > tol)

    return StructureFlags(hermitian=hermitian, hankel=agrees(rows + cols),
                          toeplitz=agrees(rows - cols))


def hyponormality_block(seq, dk, i, j):
    """Data-level joint-hyponormality block for the variable pair (i, j).

    Built from M_{d-dk}-sized sub-blocks; for n == 1 (i == j == 1) the
    two-by-two univariate form is produced instead of the three-by-three one.
    """
    if dk < 1:
        raise OrderTooSmall("hyponormality block needs a gap dk >= 1")
    h = seq.d - dk
    if h < 0:
        raise OrderTooSmall(f"gap dk={dk} exceeds data order d={seq.d}")
    grid = hyponormality_grid(seq.n, i, j)
    lay = layout(seq.n, seq.d)
    read = MomentTable.of(seq, seq.d).read
    m = np.block([[read(lay.shift(gamma, h), lay.shift(delta, h)) for gamma, delta in row]
                  for row in grid])
    labels = list(lay.labels[: lay.size(h)]) * len(grid)
    return MomentMatrix(m, labels, labels, "hypoblock")


# ----------------------------------------------------------------- file IO


def _fmt(x):
    return format(float(x), ".17g")


@contextlib.contextmanager
def _sink(target):
    """A path (opened for writing, closed afterwards) or a file object."""
    if isinstance(target, str):
        with open(target, "w") as fh:
            yield fh
    else:
        yield target


def _source_lines(source):
    """Lines of a path (a one-line string), a text or a file object."""
    if isinstance(source, str) and "\n" not in source:
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
