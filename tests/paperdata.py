"""Reference fixtures for the worked examples, transcribed from the source tables.

Matrices printed with four decimals carry ~1e-4 rounding noise, so tests
against them use Tolerances.printed(). EX3_M3 had one entry fixed for
Hermitian consistency (position (z1^3, z2^3); the printed sign disagrees
with its mirror image and with the moments of the extracted measure).
"""

import logging
from dataclasses import dataclass

import numpy as np

from momext import linalg
from momext.errors import AtomAtZero, FormatError
from momext.hierarchy import SDPBlock
from momext.interp import ExpSumModel, ExpTerm
from momext.moment import MomentSequence, enumerate_indices, layout, moment_matrix

log = logging.getLogger(__name__)


def seq_from_matrix(m, n, d, mode="paired"):
    """Build a MomentSequence whose moment matrix at order d equals m."""
    m = np.asarray(m, dtype=complex)
    labels = enumerate_indices(n, d)
    assert m.shape == (len(labels), len(labels))
    values = {}
    if mode == "paired":
        for i, a in enumerate(labels):
            for j, b in enumerate(labels):
                values[(a, b)] = m[i, j]
    else:
        for i, a in enumerate(labels):
            for j, b in enumerate(labels):
                key = tuple(x + y for x, y in zip(a, b))
                values[key] = m[i, j]
    return MomentSequence(n=n, d=d, mode=mode, values=values)


# ---------------------------------------------------------------- example 1
# univariate, rank-1 but not representable: shift would need T*1 = 1 and T*1 = 2
EX1_M2 = np.array(
    [[1.0, 1.0, 2.0], [1.0, 1.0, 2.0], [2.0, 2.0, 4.0]], dtype=complex
)


def ex1_seq():
    return seq_from_matrix(EX1_M2, n=1, d=2)


# ---------------------------------------------------------------- example 2
# bivariate random Hermitian data, flat but not hyponormal
EX2_M2 = np.array(
    [
        [5.6315 + 0.0000j, 1.5971 - 1.5041j, -3.2028 + 0.0950j,
         -6.8376 - 2.1324j, 7.6557 - 6.1320j, -1.2416 - 0.9424j],
        [1.5971 + 1.5041j, 2.6137 + 0.0000j, -2.0895 - 0.2555j,
         -2.0629 - 2.5862j, 5.3658 - 1.4552j, -1.7395 - 0.0898j],
        [-3.2028 - 0.0950j, -2.0895 + 0.2555j, 4.2547 + 0.0000j,
         4.9178 + 1.7360j, -7.3334 + 5.0916j, 2.2232 + 2.0478j],
        [-6.8376 + 2.1324j, -2.0629 + 2.5862j, 4.9178 - 1.7360j,
         9.6940 + 0.0000j, -7.9417 + 11.7260j, 2.6639 + 0.8871j],
        [7.6557 + 6.1320j, 5.3658 + 1.4552j, -7.3334 - 5.0916j,
         -7.9417 - 11.7260j, 22.1171 + 0.0000j, -1.9300 - 5.1471j],
        [-1.2416 + 0.9424j, -1.7395 + 0.0898j, 2.2232 - 2.0478j,
         2.6639 - 0.8871j, -1.9300 + 5.1471j, 3.2855 + 0.0000j],
    ]
)

# factor printed alongside (rows span the rank-3 column space)
EX2_X = np.array(
    [
        [2.3731 + 0.0j, 0.6730 + 0.6338j, -1.3496 - 0.0400j,
         -2.8813 + 0.8986j, 3.2261 + 2.5840j, -0.5232 + 0.3971j],
        [0.0j, 1.3263 + 0.0j, -0.8715 - 0.4321j,
         -0.5227 + 0.1170j, 1.1738 + 1.3277j, -1.2358 - 0.3839j],
        [0.0j, 0.0j, 1.2188 + 0.0j,
         0.5416 - 0.0658j, -1.0497 - 0.8889j, 0.2380 - 1.0596j],
    ]
)

EX2_T1 = np.array(
    [
        [0.2836 + 0.2671j, -2.1888 + 0.4064j, 1.2431 + 1.9399j],
        [0.5589 + 0.0j, -0.6777 - 0.1789j, 1.1608 + 0.7396j],
        [0.0j, 0.4084 - 0.0496j, -0.5517 - 0.6200j],
    ]
)

EX2_T2 = np.array(
    [
        [-0.5687 - 0.0169j, 2.7130 + 2.2286j, 0.0913 + 2.8438j],
        [-0.3672 - 0.1821j, 0.9844 + 1.2690j, -1.1607 + 0.7277j],
        [0.5136 + 0.0j, -1.0521 - 0.9157j, 0.3364 - 1.8803j],
    ]
)

EX2_OPERATOR_MIN_EIG = -18.4798
EX2_DATA_MIN_EIG = -27.0712
EX2_OPERATOR_SPECTRUM = [-18.4798, -4.4504, -2.9400, 0.9867, 3.9620,
                         5.4116, 13.3779, 20.0161, 30.3167]
EX2_DATA_SPECTRUM = [-27.0712, -15.5635, -9.5314, 7.1774, 9.9912,
                     18.8951, 19.0130, 27.9900, 45.6814]


def ex2_seq():
    return seq_from_matrix(EX2_M2, n=2, d=2)


# ---------------------------------------------------------------- example 3
# ellipse problem, order-3 solution; labels 1,z1,z2,z1^2,z1z2,z2^2,z1^3,...
# transcribed row by row; (z1^3, z2^3) fixed to +0.8584j (see module docstring)
EX3_M3 = np.array(
    [
        [1.0000, -0.1396j, 1.0193, 1.9220, -0.1423j, 1.0390,
         -0.8105j, 1.9591, -0.1451j, 1.0590],
        [0.1396j, 1.9610, 0.1423j, -0.2738j, 1.9989, 0.1451j,
         3.7691, -0.2791j, 2.0375, 0.1479j],
        [1.0193, -0.1423j, 1.0390, 1.9591, -0.1451j, 1.0590,
         -0.8262j, 1.9970, -0.1479j, 1.0795],
        [1.9220, 0.2738j, 1.9591, 3.8456, 0.2791j, 1.9970,
         -0.5369j, 3.9198, 0.2845j, 2.0355],
        [0.1423j, 1.9989, 0.1451j, -0.2791j, 2.0375, 0.1479j,
         3.8419, -0.2845j, 2.0768, 0.1507j],
        [1.0390, -0.1451j, 1.0590, 1.9970, -0.1479j, 1.0795,
         -0.8421j, 2.0355, -0.1507j, 1.1003],
        [0.8105j, 3.7691, 0.8262j, 0.5369j, 3.8419, 0.8421j,
         7.5412, 0.5473j, 3.9161, 0.8584j],
        [1.9591, 0.2791j, 1.9970, 3.9198, 0.2845j, 2.0355,
         -0.5473j, 3.9955, 0.2900j, 2.0748],
        [0.1451j, 2.0375, 0.1479j, -0.2845j, 2.0768, 0.1507j,
         3.9161, -0.2900j, 2.1169, 0.1536j],
        [1.0590, -0.1479j, 1.0795, 2.0355, -0.1507j, 1.1003,
         -0.8584j, 2.0748, -0.1536j, 1.1216],
    ],
    dtype=complex,
)

EX3_X = np.array(
    [
        [1.0000, -0.1396j, 1.0193, 1.9220, -0.1423j, 1.0390,
         -0.8105j, 1.9591, -0.1451j, 1.0590],
        [0.0, 1.3934, 0.0, -0.3891j, 1.4203, 0.0,
         2.6238, -0.3966j, 1.4477, 0.0],
    ],
    dtype=complex,
)

EX3_T1 = np.array([[-0.1396j, 1.3934], [1.3934, -0.1396j]])
EX3_T2 = np.array([[1.0193, 0.0], [0.0, 1.0193]], dtype=complex)

EX3_OPERATOR_SPECTRUM = [0.0, 0.0, 0.0, 0.0, 4.0, 4.0]
EX3_DATA_SPECTRUM_TOP = [7.9175, 8.0825]  # remaining seven entries are zero
EX3_ATOMS = [
    (-1.3934 - 0.1396j, 1.0193 + 0.0j),
    (1.3934 - 0.1396j, 1.0193 + 0.0j),
]
EX3_WEIGHTS = [0.5, 0.5]
EX3_COMBO = (-0.1140, 0.7979)
EX3_P = np.array([[0.7071, 0.7071], [-0.7071, 0.7071]], dtype=complex)
EX3_ORDER3_VALUE = 1.93291
EX3_ORDER2_VALUE = 1.00047


def ex3_seq():
    return seq_from_matrix(EX3_M3, n=2, d=3)


# ---------------------------------------------------------------- example 4
# same feasible set, objective without the |z2|^2 term
EX4_M2_PLAIN = np.array(
    [
        [1.0000, -0.3747j, 0.8485, 1.8272, -0.5100j, 1.0864],
        [0.3747j, 1.9136, 0.5100j, -0.1929j, 1.0505, 0.9313j],
        [0.8485, -0.5100j, 1.0864, 0.9245, -0.9313j, 1.4950],
        [1.8272, 0.1929j, 0.9245, 4.5886, 0.1162j, 0.9324],
        [0.5100j, 1.0505, 0.9313j, -0.1162j, 1.1523, 1.4140j],
        [1.0864, -0.9313j, 1.4950, 0.9324, -1.4140j, 2.1069],
    ],
    dtype=complex,
)

EX4_PLAIN_OPERATOR_MIN_EIG = -1.2759
EX4_PLAIN_DATA_MIN_EIG = -1.5874

# enforced-hyponormality solution is rank one: M = x^* x for the printed row
EX4_X_ENFORCED = np.array(
    [1.0000, -0.8165j, 1.5275, -0.6667, -1.2472j, 2.3333], dtype=complex
)
EX4_M2_ENFORCED = np.outer(EX4_X_ENFORCED.conj(), EX4_X_ENFORCED)

EX4_ATOM = (-0.8165j, 1.5275 + 0.0j)
EX4_PLAIN_VALUE = 0.155089
EX4_ENFORCED_VALUE = 0.428175


def ex4_plain_seq():
    return seq_from_matrix(EX4_M2_PLAIN, n=2, d=2)


def ex4_enforced_seq():
    return seq_from_matrix(EX4_M2_ENFORCED, n=2, d=2)


# ---------------------------------------------------------------- example 5
# torus problem: exact Toeplitz data of the half/half measure on two cube roots
OMEGA = np.exp(2j * np.pi / 3)


def ex5_seq(d=3):
    labels = enumerate_indices(1, d)
    values = {}
    for a in labels:
        for b in labels:
            values[(a, b)] = 0.5 * (1.0 + OMEGA ** (b[0] - a[0]))
    return MomentSequence(n=1, d=d, mode="paired", values=values)


EX5_ATOMS = [(-0.5 + np.sqrt(3) / 2 * 1j,), (1.0 + 0.0j,)]
EX5_WEIGHTS = [0.5, 0.5]
EX5_ORDER3_VALUE = 0.999999
EX5_ORDER4_VALUE = 1.0000
EX5_M3_ENTRY_ZBAR_Z2 = 0.2500 + 0.4330j  # row conj(z), column z^2


# ---------------------------------------------------------------- example 6
# real triangle problem; Hankel values keyed by alpha+beta
EX6_HANKEL = {
    (0, 0): 1.0000, (1, 0): 1.4150, (0, 1): 2.1182,
    (2, 0): 2.2449, (1, 1): 3.0663, (0, 2): 4.5908,
    (3, 0): 3.9048, (2, 1): 4.9625, (1, 2): 6.8415, (0, 3): 10.2450,
    (4, 0): 7.2246, (3, 1): 8.7549, (2, 2): 11.3429, (1, 3): 15.8099,
    (0, 4): 23.6804,
}


def ex6_seq(mode="paired"):
    labels = enumerate_indices(2, 2)
    if mode == "paired":
        values = {
            (a, b): complex(EX6_HANKEL[(a[0] + b[0], a[1] + b[1])])
            for a in labels
            for b in labels
        }
        return MomentSequence(n=2, d=2, mode="paired", values=values)
    values = {s: complex(v) for s, v in EX6_HANKEL.items()}
    return MomentSequence(n=2, d=2, mode="hankel", values=values)


EX6_ATOMS = [(1.0, 2.0), (2.0, 2.0), (2.0, 3.0)]
EX6_WEIGHTS_BY_ATOM = {(1.0, 2.0): 0.5850, (2.0, 2.0): 0.2968, (2.0, 3.0): 0.1182}
EX6_VALUE = -2.0000
EX6_ORDER1_VALUE = -3.0000


# ---------------------------------------------------------------- example 7
# two-term exponential sum; samples are exact evaluations on the integer grid
EX7_TERMS = [
    (0.25 * np.exp(1j * np.pi / 2), (-0.10 + 0.40j, 0.05 - 0.80j)),
    ((1.0 / 3.0) * np.exp(1j * 4 * np.pi / 3), (0.03 - 0.35j, 0.07 - 0.25j)),
]

EX7_H2_ENTRY_00 = -0.1667 - 0.0387j  # value at the origin sample

EX7_T1 = np.array(
    [
        [1.1490 - 0.3385j, -0.1879 - 0.3204j],
        [-0.1879 - 0.3204j, 0.6524 + 0.3376j],
    ]
)
EX7_T2 = np.array(
    [
        [0.9246 - 0.1751j, 0.2857 + 0.0858j],
        [0.2857 + 0.0858j, 0.8470 - 0.8444j],
    ]
)
EX7_X = np.array(
    [
        [-0.1052 + 0.4615j, 0.0369 + 0.6628j, -0.0704 + 0.3889j,
         0.1866 + 0.7691j, 0.1864 + 0.5507j, -0.1207 + 0.3990j],
        [-0.2274 - 0.1285j, 0.0626 - 0.2136j, -0.3707 + 0.2060j,
         0.3184 - 0.2545j, -0.1736 - 0.0412j, -0.1935 + 0.5926j],
    ]
)
EX7_COMBO = (0.8855, -0.1983)
EX7_COORDS1 = [0.9680 - 0.3533j, 0.8334 + 0.3524j]
EX7_COORDS2 = [1.0392 - 0.2653j, 0.7324 - 0.7541j]


def ex7_model():
    return ExpSumModel(
        n=2, terms=[ExpTerm(weight=w, frequencies=f) for w, f in EX7_TERMS]
    )


def brute_moments_paired(atoms, weights, n, d):
    """Independent oracle: y[a,b] = sum w * conj(z)^a z^b by direct summation."""
    labels = enumerate_indices(n, d)
    values = {}
    for a in labels:
        for b in labels:
            acc = 0.0 + 0.0j
            for z, w in zip(atoms, weights):
                z = np.asarray(z, dtype=complex)
                acc += w * np.prod(np.conj(z) ** np.array(a)) * np.prod(z ** np.array(b))
            values[(a, b)] = acc
    return MomentSequence(n=n, d=d, mode="paired", values=values)


def brute_moments_hankel(atoms, weights, n, d):
    """Independent oracle: y[s] = sum w * z^s for |s| <= 2d."""
    values = {}
    for s in enumerate_indices(n, 2 * d):
        acc = 0.0 + 0.0j
        for z, w in zip(atoms, weights):
            z = np.asarray(z, dtype=complex)
            acc += w * np.prod(z ** np.array(s))
        values[s] = acc
    return MomentSequence(n=n, d=d, mode="hankel", values=values)


def block_from_dense(name, size, const, coeffs):
    """SDPBlock from one dense matrix per unknown {var: matrix}, in dict order."""
    mats = [np.ravel(m) for m in coeffs.values()]
    entry = [np.flatnonzero(m) for m in mats]
    return SDPBlock(name, size, np.asarray(const), np.concatenate(entry),
                    np.repeat(list(coeffs), [len(e) for e in entry]),
                    np.concatenate([m[e] for m, e in zip(mats, entry)]))


def evaluate(block, x):
    """The matrix const + sum_i x_i A_i of an SDPBlock at the unknowns x."""
    m = np.zeros(block.size * block.size, dtype=np.result_type(block.const, block.coeff))
    np.add.at(m, block.entry, np.asarray(x)[block.var] * block.coeff)
    return block.const + m.reshape(block.size, block.size)


def values_from_sequence(rmap, seq):
    """Moment sequence -> solver vector of a RelaxationMap (inverse of
    rmap.sequence_from_values)."""
    x = np.zeros(rmap.n_vars)
    if rmap.mode == "hermitian":
        m = moment_matrix(seq, rmap.d).matrix
        v = (m + m.conj().T) / 2.0  # v[b,a] is exactly conj(v[a,b])
        strict = np.triu_indices(len(rmap.indices), 1)
        x[rmap.var[..., 0]] = v.real
        x[rmap.var[..., 1][strict]] = v[strict].imag
    else:
        for i, s in enumerate(layout(rmap.n, 2 * rmap.d).labels):
            beta = _split_index(s, rmap.d)
            alpha = tuple(si - bi for si, bi in zip(s, beta))
            x[i] = complex(seq.get(alpha, beta)).real
    return x


def _split_index(s, d):
    """Some beta <= s componentwise with |beta| <= d and |s - beta| <= d."""
    budget = d
    beta = []
    for si in s:
        take = min(si, budget)
        beta.append(take)
        budget -= take
    return tuple(beta)


@dataclass
class SdpaText:
    n_vars: int
    block_sizes: list
    objective: np.ndarray
    entries: dict  # matno -> list of (blkno, i, j, value)


def read_sdpa(text):
    """Parse SDPA sparse text back into its structural pieces."""
    body = [ln.strip() for ln in text.splitlines() if ln.strip()[:1] not in ("", '"', "*")]
    if len(body) < 4:
        raise FormatError("truncated SDPA input")
    try:
        m = int(body[0].split()[0])
        nblocks = int(body[1].split()[0])
        sizes = [int(tok) for tok in body[2].replace(",", " ").replace("{", " ")
                 .replace("}", " ").replace("(", " ").replace(")", " ").split()]
        objective = np.array([float(tok) for tok in body[3].replace(",", " ").split()])
    except (ValueError, IndexError):
        raise FormatError("malformed SDPA header") from None
    if len(sizes) != nblocks:
        raise FormatError(f"expected {nblocks} block sizes, got {len(sizes)}")
    if objective.size != m:
        raise FormatError(f"expected {m} objective entries, got {objective.size}")
    entries = {}
    for ln in body[4:]:
        toks = ln.replace(",", " ").split()
        if len(toks) != 5:
            raise FormatError(f"malformed entry line {ln!r}")
        try:
            matno, blkno, i, j = (int(t) for t in toks[:4])
            value = float(toks[4])
        except ValueError:
            raise FormatError(f"malformed entry line {ln!r}") from None
        if not (0 <= matno <= m) or not (1 <= blkno <= nblocks):
            raise FormatError(f"entry indices out of range in {ln!r}")
        size = sizes[blkno - 1]
        if not (1 <= i <= abs(size) and 1 <= j <= abs(size)) or (size < 0 and i != j):
            raise FormatError(f"entry outside its block in {ln!r}")
        entries.setdefault(matno, []).append((blkno, i, j, value))
    return SdpaText(n_vars=m, block_sizes=sizes, objective=objective, entries=entries)


def prony_univariate(samples, tol=1e-8):
    """Classical univariate Prony from samples y_0 .. y_{2d}.

    Kernel vector of the Hankel matrix via the smallest eigenvector of
    H^* H, roots via the companion matrix, weights via the Vandermonde
    system. Ill conditioning of the Vandermonde solve is logged, not fatal.
    """
    if isinstance(samples, MomentSequence):
        if samples.mode != "hankel" or samples.n != 1:
            raise ValueError("prony_univariate needs univariate hankel samples")
        y = np.array(
            [samples.values[(a,)] for a in range(2 * samples.d + 1)], dtype=complex
        )
    else:
        y = np.asarray(samples, dtype=complex)
    if y.size < 3 or y.size % 2 == 0:
        raise ValueError("need an odd number of samples y_0..y_{2d} with d >= 1")
    d = (y.size - 1) // 2

    h = np.empty((d + 1, d + 1), dtype=complex)
    for i in range(d + 1):
        h[i] = y[i : i + d + 1]
    vals, vecs = linalg.hermitian_eig(h.conj().T @ h, tol=np.inf)
    scale = max(vals[-1], 1.0)
    # one-dimensional kernel: a lone vanishing eigenvalue well separated
    # from the next one
    if vals.size > 1 and vals[1] <= tol * scale and vals[1] <= 1e4 * max(vals[0], 1e-300):
        raise ValueError(f"second smallest eigenvalue {vals[1]:.3e} also vanishes")
    p = vecs[:, 0]
    if abs(p[d]) < 1e-10:
        raise ValueError("kernel polynomial is not monic-normalizable")
    p = p / p[d]

    companion = np.zeros((d, d), dtype=complex)
    if d > 1:
        companion[1:, :-1] = np.eye(d - 1)
    companion[:, -1] = -p[:d]
    nodes = np.linalg.eigvals(companion)

    vander = np.vander(nodes, N=d, increasing=True).T
    cond = np.linalg.cond(vander)
    if cond > 1e10:
        log.warning("prony: Vandermonde condition %.3e; weights may be inaccurate", cond)
    weights = np.linalg.solve(vander, y[:d])

    terms = []
    for node, w in zip(nodes, weights):
        if abs(node) < 1e-12:
            raise AtomAtZero(f"node {node} too close to zero for log()")
        terms.append(ExpTerm(complex(w), (complex(np.log(node)),)))
    return ExpSumModel(1, terms).canonical()
