"""Reference for the interval-decomposition audit, shared by the unit tests:
the bucket rule as a per-eigenvalue search with edge tolerances, X's
diagonal by a three-operand einsum and every bracket summed through its own
mask of the term matrix.  It shares only the signed terms T with
``entlab.rates.proof_decomposition`` and none of its bucket or bracket code."""

import numpy as np

from entlab.rates import _eigenbasis_terms

BUCKET_LOG_TOL = 1e-12
BUCKET_EDGE_RTOL = 1e-15


def _bucket_index(y: float, p: float) -> int:
    """Bucket k with p^k <= y < p^{k-1}; y >= 1 maps to bucket 1, exact
    boundary y = p^k to bucket k (closed lower bound)."""
    if y >= 1.0:
        return 1
    k = max(1, int(np.ceil(np.log(y) / np.log(p) - BUCKET_LOG_TOL)))
    while y < p**k * (1.0 - BUCKET_EDGE_RTOL):
        k += 1
    while k > 1 and y >= p ** (k - 1):
        k -= 1
    return k


def reference_audit(pair, P) -> dict:
    """Bucket ranges and weights, the bracket values with their bounds, the
    direct and reassembled values and the margins of the audit of (pair, P)."""
    p = pair.p
    T = _eigenbasis_terms(pair, P)[2]
    w, v = pair.Y.eigh
    n = T.shape[0]
    y, vs = w[::-1][:n], v[:, ::-1][:, :n]
    iu = np.triu(np.ones(T.shape, dtype=bool), k=1)

    def part(rows: slice, cols: slice) -> complex:
        mask = np.zeros_like(iu)
        mask[rows, cols] = True
        mask &= iu
        return complex(np.sum(T[mask]))

    ln1p = np.log(1.0 / p)
    xdiag = np.einsum("ij,jk,ki->i", vs.conj().T, pair.X.mat, vs).real
    ks = [_bucket_index(float(val), p) for val in y]
    k_max = max(ks) if ks else 1
    ranges: list[tuple[int, int]] = []
    pk = np.zeros(k_max)
    pos = 0
    for k in range(1, k_max + 1):
        lo = pos
        while pos < len(ks) and ks[pos] == k:
            pos += 1
        ranges.append((lo, pos))
        pk[k - 1] = float(np.sum(xdiag[lo:pos]))
    K = len(ranges)

    line1: list[tuple[float, float]] = []
    line1_signed = 0.0 + 0.0j
    if K == 1:
        lo, hi = ranges[0]
        val = part(slice(lo, hi), slice(lo, hi))
        line1.append((2.0 * abs(val), 2.0 * pk[0] * ln1p))
        line1_signed += val
    else:
        for k in range(K - 1):
            lo = ranges[k][0]
            hi = ranges[k + 1][1]
            val = part(slice(lo, hi), slice(lo, hi))
            line1.append((2.0 * abs(val), 2.0 * (pk[k] + pk[k + 1]) * ln1p))
            line1_signed += val

    line3: list[tuple[float, float]] = []
    line3_signed = 0.0 + 0.0j
    for k in range(1, K - 1):
        lo, hi = ranges[k]
        val = part(slice(lo, hi), slice(lo, hi))
        line3.append((2.0 * abs(val), pk[k] * ln1p))
        line3_signed += val

    sep_signed = 0.0 + 0.0j
    for k in range(K):
        for m in range(k + 2, K):
            sep_signed += part(slice(*ranges[k]), slice(*ranges[m]))
    sep = (2.0 * abs(sep_signed), 4.0 * p * ln1p)

    direct = 2.0 * abs(complex(np.sum(T[iu])).imag)
    reassembled = 2.0 * abs((line1_signed - line3_signed + sep_signed).imag)
    total_bound = 9.0 * p * ln1p
    line3_total = sum(v for v, _ in line3)
    margins = np.array(
        [b - v for v, b in line1]
        + [p * ln1p - line3_total]
        + [sep[1] - sep[0]]
        + [total_bound - direct]
    )
    return {
        "ranges": ranges,
        "weights": pk,
        "line1": line1,
        "line3": line3,
        "separated": sep,
        "direct": direct,
        "reassembled": reassembled,
        "total_bound": total_bound,
        "margins": margins,
    }
