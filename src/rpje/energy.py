"""The three RPJE energies, their margin hinges and subgradients.

    E1(h,r,t) = ||h + r - t||
    E2(p,r)   = R(p|h,t) * prod(mu) * ||C(p) - r||
    E3(r,r_e) = ||r - r_e||

R is the PCRA reliability, mu the confidences of the rules applied while
composing p, and C(p) the sum of its residual relations. Norms run over the last
axis, so arguments may carry a leading candidate axis. A hinge term returns its
loss and adds its subgradient to an ``add_entity``/``add_relation`` accumulator.
"""

from __future__ import annotations

import numpy as np

from .compose import CompositionResult, confidence_product
from .paths import Path

NORMS = ("L1", "L2")


def dissimilarity(x: np.ndarray, norm: str, out: np.ndarray | None = None):
    """L1 or L2 norm of x over its last axis; ``out`` (shaped like x, may be x) is scratch."""
    if norm == "L1":
        return np.abs(x, out=out).sum(axis=-1)
    return np.sqrt(np.multiply(x, x, out=out).sum(axis=-1))


def dissimilarity_grad(x: np.ndarray, norm: str) -> np.ndarray:
    """Subgradient of the dissimilarity at a vector x (0 at L1 kinks and at x = 0)."""
    if norm == "L1":
        return np.sign(x)
    n = dissimilarity(x, norm)
    return np.zeros_like(x) if n == 0.0 else x / n


def path_weight(path: Path, cr: CompositionResult) -> float:
    """R(p|h,t) * prod(mu)."""
    return path.reliability * confidence_product(cr)


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


def _hinge(margin, dpos, dneg, norm, wpos, wneg, scale):
    """(loss, subgradient wrt d+, subgradient wrt d-); (0.0, None, None) when inactive."""
    loss = margin + wpos * dissimilarity(dpos, norm) - wneg * dissimilarity(dneg, norm)
    if loss <= 0.0:
        return 0.0, None, None
    return (
        scale * float(loss),
        (scale * wpos) * dissimilarity_grad(dpos, norm),
        (scale * wneg) * dissimilarity_grad(dneg, norm),
    )


def triple_hinge(emb, pos, neg, margin: float, norm: str, grads, scale: float = 1.0) -> float:
    """L1 term: [margin + E1(pos) - E1(neg)]_+ for triples pos and neg."""
    (h, r, t), (h2, r2, t2) = pos, neg
    ent, n_base = emb.entities, emb.n_base_relations
    dpos = ent[h] + emb.relation_vec(r) - ent[t]
    dneg = ent[h2] + emb.relation_vec(r2) - ent[t2]
    loss, gpos, gneg = _hinge(margin, dpos, dneg, norm, 1.0, 1.0, scale)
    if gpos is not None:
        grads.add_entity(h, gpos)
        grads.add_relation(r, gpos, n_base)
        grads.add_entity(t, -gpos)
        grads.add_entity(h2, -gneg)
        grads.add_relation(r2, -gneg, n_base)
        grads.add_entity(t2, gneg)
    return loss


def path_hinge(emb, path: Path, cr: CompositionResult, r: int, r_neg: int,
               margin: float, norm: str, grads, scale: float = 1.0) -> float:
    """L2 term: [margin + E2(p,r) - E2(p,r')]_+; C(p) gets gradient from both sides."""
    weight = path_weight(path, cr)
    c = compose_embedding(cr, emb)
    dpos = c - emb.relation_vec(r)
    dneg = c - emb.relation_vec(r_neg)
    loss, gpos, gneg = _hinge(margin, dpos, dneg, norm, weight, weight, scale)
    if gpos is not None:
        n_base = emb.n_base_relations
        for rid in cr.residual:
            grads.add_relation(rid, gpos - gneg, n_base)
        grads.add_relation(r, -gpos, n_base)
        grads.add_relation(r_neg, gneg, n_base)
    return loss


def relpair_hinge(emb, r: int, r_e: int, beta: float, r_neg: int,
                  margin: float, norm: str, grads, scale: float = 1.0) -> float:
    """L3 term: [margin + beta * E3(r,r_e) - E3(r,r')]_+; beta weights the positive side only."""
    rvec = emb.relation_vec(r)
    dpos = rvec - emb.relation_vec(r_e)
    dneg = rvec - emb.relation_vec(r_neg)
    loss, gpos, gneg = _hinge(margin, dpos, dneg, norm, beta, 1.0, scale)
    if gpos is not None:
        n_base = emb.n_base_relations
        grads.add_relation(r, gpos - gneg, n_base)
        grads.add_relation(r_e, -gpos, n_base)
        grads.add_relation(r_neg, gneg, n_base)
    return loss
