"""The three RPJE energies and their norms.

    E1(h,r,t) = ||h + r - t||
    E2(p,r)   = R(p|h,t) * prod(mu) * ||C(p) - r||
    E3(r,r_e) = ||r - r_e||

R is the PCRA reliability, mu the confidences of the rules applied while
composing p, and C(p) the sum of its residual relations. Norms run over the last
axis, so arguments may carry a leading candidate axis. ``column_dissimilarity``
gives the same norms for candidates laid out as the columns of a
dimension-major table, bit for bit. The margin hinges over these energies, and
their subgradients, are one fused pass in ``training``.
"""

from __future__ import annotations

import numpy as np

from .compose import CompositionResult
from .paths import Path

NORMS = ("L1", "L2")


def dissimilarity(x: np.ndarray, norm: str):
    """L1 or L2 norm of x over its last axis."""
    if norm == "L1":
        return np.abs(x).sum(axis=-1)
    return np.sqrt(np.multiply(x, x).sum(axis=-1))


def column_dissimilarity(a: np.ndarray, b: np.ndarray, norm: str,
                         work: np.ndarray | None = None) -> np.ndarray:
    """L1 or L2 norm of each column of a - b, both (dim, n) or one of them (dim, 1).

    Bit for bit the ``dissimilarity`` of the row-major (n, dim) transpose: each
    column's terms |x| (L1) or x * x (L2) are summed in the order numpy's
    ``pairwise_sum`` sums a row for ``x.sum(axis=-1)``. That order is: below 8
    terms one at a time from 0.0; up to 128 terms into 8 accumulators, term i into
    accumulator i mod 8, combined as ((a0+a1)+(a2+a3))+((a4+a5)+(a6+a7)), then the
    last dim mod 8 terms one at a time; above 128 the two halves, split at a
    multiple of 8, each summed so and then added. Here every step is one numpy
    call over a block of dimensions for all n columns at once. ``work``, shaped
    (2, 8, n), is scratch; without it the scratch is allocated.

    The scan runs with numpy's ufunc buffer at its minimum. With the default
    8192 elements, numpy copies a broadcast (dim, 1) operand into its buffer to
    run inner loops longer than one row of fewer than 8192 columns, and that
    copy costs more than the subtraction. Every operation here is elementwise,
    so the buffer size changes no bits.
    """
    if work is None:
        work = np.empty((2, 8, max(a.shape[1], b.shape[1])))
    bufsize = np.setbufsize(16)
    try:
        total = _pairwise_columns(a, b, 0, len(a), norm, *work)
    finally:
        np.setbufsize(bufsize)
    return total if norm == "L1" else np.sqrt(total)


def _terms(a: np.ndarray, b: np.ndarray, norm: str, out: np.ndarray) -> np.ndarray:
    np.subtract(a, b, out=out)
    return np.abs(out, out=out) if norm == "L1" else np.multiply(out, out, out=out)


def _pairwise_columns(a, b, lo: int, hi: int, norm: str, acc, scratch) -> np.ndarray:
    """Column sums of the terms of dimensions [lo, hi), in ``pairwise_sum`` order;
    ``acc`` and ``scratch`` are (8, n) scratch."""
    n = hi - lo
    if n > 128:
        half = n // 2 - (n // 2) % 8
        return (_pairwise_columns(a, b, lo, lo + half, norm, acc, scratch)
                + _pairwise_columns(a, b, lo + half, hi, norm, acc, scratch))
    if n < 8:
        total = np.zeros(acc.shape[1])
        for i in range(lo, hi):
            total += _terms(a[i], b[i], norm, scratch[0])
        return total
    _terms(a[lo:lo + 8], b[lo:lo + 8], norm, acc)
    rest = hi - n % 8
    for i in range(lo + 8, rest, 8):
        acc += _terms(a[i:i + 8], b[i:i + 8], norm, scratch)
    quads = np.add(acc[0::2], acc[1::2], out=scratch[:4])
    pairs = np.add(quads[0::2], quads[1::2], out=acc[:2])
    total = pairs[0] + pairs[1]
    for i in range(rest, hi):
        total += _terms(a[i], b[i], norm, scratch[0])
    return total


def path_weight(path: Path, cr: CompositionResult) -> float:
    """R(p|h,t) * prod(mu)."""
    return path.reliability * cr.confidence_product


def compose_embedding(cr: CompositionResult, emb) -> np.ndarray:
    """C(p): the sum of the residual relations' embeddings."""
    out = emb.relation_vec(cr.residual[0]).copy()
    for rid in cr.residual[1:]:
        out += emb.relation_vec(rid)
    return out


def triple_energy(h: np.ndarray, r: np.ndarray, t: np.ndarray, norm: str):
    """E1 = ||h + r - t||, computed as ||(h + r) - t||."""
    return dissimilarity(h + r - t, norm)


def path_energy(weight: float, c: np.ndarray, r: np.ndarray, norm: str):
    """E2 = weight * ||C(p) - r||, with weight = R(p|h,t) * prod(mu)."""
    return weight * dissimilarity(c - r, norm)


def relpair_energy(r: np.ndarray, r_e: np.ndarray, norm: str):
    """E3 = ||r - r_e||."""
    return dissimilarity(r - r_e, norm)


def signed_relations(emb) -> np.ndarray:
    """The base relation vectors, then their negations: row r is ``emb.relation_vec(r)``."""
    return np.concatenate((emb.relations, -emb.relations))


def composed_relations(rel: np.ndarray, residual: np.ndarray) -> np.ndarray:
    """C(p) of each row of ``residual`` (relation ids padded with -1), summed left to
    right; ``rel`` is ``signed_relations``."""
    c = rel[residual[:, 0]]
    for k in range(1, residual.shape[1]):
        np.add(c, rel[residual[:, k]], out=c, where=residual[:, k, None] >= 0)
    return c
