"""The three RPJE energies, their margin hinges and subgradients.

    E1(h,r,t) = ||h + r - t||
    E2(p,r)   = R(p|h,t) * prod(mu) * ||C(p) - r||
    E3(r,r_e) = ||r - r_e||

R is the PCRA reliability, mu the confidences of the rules applied while
composing p, and C(p) the sum of its residual relations. Norms run over the last
axis, so arguments may carry a leading candidate axis. The hinge terms work on a
leading hinge axis: given id arrays they gather the rows, return every hinge's
loss and the subgradient rows of the active ones as a ``Grad``.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .compose import CompositionResult
from .paths import Path

NORMS = ("L1", "L2")


def dissimilarity(x: np.ndarray, norm: str, out: np.ndarray | None = None):
    """L1 or L2 norm of x over its last axis; ``out`` (shaped like x, may be x) is scratch."""
    if norm == "L1":
        return np.abs(x, out=out).sum(axis=-1)
    return np.sqrt(np.multiply(x, x, out=out).sum(axis=-1))


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


def triple_energy(h: np.ndarray, r: np.ndarray, t: np.ndarray, norm: str,
                  out: np.ndarray | None = None):
    """E1 = ||h + r - t||; ``out``, shaped like the broadcast result, is scratch.

    Either way the arithmetic is (h + r) - t, so the energies are bit-identical;
    with ``out`` nothing of the candidate size is allocated but the result.
    """
    x = np.subtract(np.add(h, r, out=out), t, out=out)
    return dissimilarity(x, norm, out=out)


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
