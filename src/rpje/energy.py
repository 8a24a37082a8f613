"""The three RPJE energies, their margin hinges and subgradients.

    E1(h,r,t) = ||h + r - t||
    E2(p,r)   = R(p|h,t) * prod(mu) * ||C(p) - r||
    E3(r,r_e) = ||r - r_e||

R is the PCRA reliability, mu the confidences of the rules applied while
composing p, and C(p) the sum of its residual relations. Norms run over the last
axis, so arguments may carry a leading candidate axis. ``column_dissimilarity``
gives the same norms for candidates laid out as the columns of a
dimension-major table, bit for bit. The hinge terms work on a leading hinge
axis: given id arrays they gather the rows, return every hinge's loss and the
subgradient rows of the active ones as a ``Grad``.
"""

from __future__ import annotations

from typing import NamedTuple

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


def dissimilarity_grad(x: np.ndarray, norm: str) -> np.ndarray:
    """Subgradient of the dissimilarity at each vector of x (0 at L1 kinks and at x = 0)."""
    if norm == "L1":
        return np.sign(x)
    n = dissimilarity(x, norm)[..., None]
    return np.divide(x, n, out=np.zeros_like(x), where=n != 0.0)


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


class Grad(NamedTuple):
    """Subgradient rows of the active hinges, in the order a per-hinge loop adds them.

    Row k adds ``values[k]`` to row ``rows[k]`` of its table and belongs to hinge
    ``hinge[k]``; the rows run hinge by hinge. Relation rows keep inverse ids;
    ``fold_inverse`` maps them onto their base rows.
    """

    hinge: np.ndarray
    rows: np.ndarray
    values: np.ndarray


def fold_inverse(rows: np.ndarray, values: np.ndarray, n_base: int):
    """Relation subgradient rows on base ids: an inverse id's vector is negated."""
    inverse = rows >= n_base
    return rows - n_base * inverse, values * np.where(inverse, -1.0, 1.0)[:, None]


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


def _hinge(margin, d, norm, w=None, scale=1.0):
    """Hinges over d of shape (K, 2, dim), each hinge's d+ then d-.

    ``w``, broadcast to (K, 2), weights each side's norm; without it both weights
    and ``scale`` are 1. Returns the K losses, scale * [margin + w+ ||d+|| -
    w- ||d-||]_+ (a NaN stays active), the indices of the active hinges and their
    subgradients wrt d+ and d-, shaped (A, 2, dim).
    """
    n = dissimilarity(d, norm)
    if w is not None:
        n = w * n
    loss = margin + n[:, 0] - n[:, 1]
    inactive = loss <= 0.0
    active = np.flatnonzero(~inactive)
    g = dissimilarity_grad(d[active], norm)
    if w is not None:
        g *= (scale * w)[active, :, None]
    return np.where(inactive, 0.0, scale * loss), active, g


# Per side (d+, d-), the sign of a hinge's subgradient: in L1 at h and t, and at
# r; in L2 at the relation the side subtracts (r for d+, r' for d-).
_TRIPLE_ENTITY_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]])[:, :, None]
_TRIPLE_RELATION_SIGNS = np.array([1.0, -1.0])[:, None]
_SUBTRACTED_SIGNS = np.array([-1.0, 1.0])[:, None]


def triple_hinge(emb, ids: np.ndarray, margin: float, norm: str) -> tuple[np.ndarray, Grad, Grad]:
    """L1 terms [margin + E1(pos) - E1(neg)]_+ over ``ids`` of shape (K, 2, 3).

    ``ids[k]`` holds hinge k's positive then negative (h, r, t). Returns the K
    losses and the entity and relation subgradients: per hinge h, t, h', t' and
    r, r'.
    """
    ent, rel = emb.entities, signed_relations(emb)
    d = ent[ids[..., 0]] + rel[ids[..., 1]] - ent[ids[..., 2]]
    loss, active, g = _hinge(margin, d, norm)
    a = ids[active]
    entity = Grad(
        np.repeat(active, 4),
        a[..., ::2].ravel(),
        (g[:, :, None] * _TRIPLE_ENTITY_SIGNS).reshape(-1, g.shape[-1]),
    )
    relation = Grad(
        np.repeat(active, 2),
        a[..., 1].ravel(),
        (g * _TRIPLE_RELATION_SIGNS).reshape(-1, g.shape[-1]),
    )
    return loss, entity, relation


def path_hinge(emb, residual: np.ndarray, weight: np.ndarray, r: np.ndarray,
               margin: float, norm: str, scale: float = 1.0) -> tuple[np.ndarray, Grad]:
    """L2 terms [margin + E2(p,r) - E2(p,r')]_+ for K paths; C(p) gets gradient from both sides.

    ``residual`` holds the residual of each path's composition, padded with -1,
    ``weight`` their R(p|h,t) * prod(mu), (K,), or one weight per side, (K, 2),
    and ``r`` (K, 2) each hinge's relation and negative relation. Returns the K
    losses and the relation subgradient: per hinge the residual rows, then r,
    then r'.
    """
    rel = signed_relations(emb)
    c = composed_relations(rel, residual)
    w = weight.reshape(len(weight), -1)
    loss, active, g = _hinge(margin, c[:, None] - rel[r], norm, w, scale)
    width = residual.shape[1]
    # per slot: d+ - d- for the residual relations, -d+ for r, d- for r'
    values = np.concatenate(((g[:, 0] - g[:, 1])[:, None], g * _SUBTRACTED_SIGNS), axis=1)
    values = values[:, [0] * width + [1, 2]]
    rows = np.concatenate((residual[active], r[active]), axis=1)
    keep = rows >= 0
    return loss, Grad(np.repeat(active, keep.sum(axis=1)), rows[keep], values[keep])


def relpair_hinge(emb, r: np.ndarray, beta: np.ndarray, margin: float, norm: str,
                  scale: float = 1.0) -> tuple[np.ndarray, Grad]:
    """L3 terms [margin + beta * E3(r,r_e) - E3(r,r')]_+; beta weights the positive side only.

    ``r`` (K, 3) holds each hinge's r, r_e and r'. E3(r, x) is the E2 of the
    one-relation path (r) against x, so this is ``path_hinge`` with side weights
    (beta, 1). Returns the K losses and the relation subgradient: per hinge r,
    r_e, then r'.
    """
    w = np.ones((len(beta), 2))
    w[:, 0] = beta
    return path_hinge(emb, r[:, :1], w, r[:, 1:], margin, norm, scale)
