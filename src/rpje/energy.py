"""The three RPJE energies and their norms.

    E1(h,r,t) = ||h + r - t||
    E2(p,r)   = R(p|h,t) * prod(mu) * ||C(p) - r||
    E3(r,r_e) = ||r - r_e||

R is the PCRA reliability, mu the confidences of the rules applied while
composing p, and C(p) the sum of its residual relations (``composed_relations``).
Scoring computes E1 with ``triple_energy`` and E2 with ``path_energy``; norms
run over the last axis, so arguments may carry a leading candidate axis.
``Float32Scan`` scans E1 of every row of a table in float32, each within a
proven bound of the float64 energy, so a rank needs only the rows it cannot
decide rescored. Only training uses E3: the margin hinges over all three
energies, and their subgradients, are one fused pass in ``training``.
"""

from __future__ import annotations

import math

import numpy as np

NORMS = ("L1", "L2")


def dissimilarity(x: np.ndarray, norm: str):
    """L1 or L2 norm of x over its last axis. ``np.add.reduce`` is the sum that
    ``ndarray.sum`` reaches through a Python-level call, which a training batch
    of a few hinges would notice."""
    if norm == "L1":
        return np.add.reduce(np.abs(x), axis=-1)
    return np.sqrt(np.add.reduce(x * x, axis=-1))


# Rows holding a magnitude above this, and fixed sides whose magnitudes sum
# above it, are not scanned in float32, so that no step of the scan overflows.
SCAN_LIMIT = 2.0**50
# The bound of ``Float32Scan`` holds up to this dimension (dim + 4 <= 2^23).
SCAN_MAX_DIM = 2**23 - 4
# The scan takes as many dimensions at a time as keep one block of all columns
# within this many float32 values (512 KiB).
_SCAN_BLOCK = 2**17


class Float32Scan:
    """E1 of every row of a table against one fixed side, scanned in float32 from
    a dimension-major copy, each within a proven bound of the exact energy.

    The exact energy of row e is ``triple_energy``'s float64 one. For a tail
    query the fixed side is f = fl(h + r) and the energy is N64(f - e); for a
    head query f = fl(t - r) and the energy is N64(fl(e + r) - t). The scan
    computes s = N32(fl32(e) - fl32(f)). N64 and N32 are the L1 or L2 norm as
    float64 and float32 compute them, in any summation order.

    **The bound.** Let n = dim, u = 2^-24, gamma_k = k u / (1 - k u), and a = h
    (tail) or a = t (head). Let D = h + r - e or e + r - t in real arithmetic,
    m_i = |a_i| + |r_i| + |e_i|, and M = sum_i m_i: the terms are summed before
    they cancel. Assume gradual underflow, n + 4 <= 2^23, and no overflow (see
    below). Then every row whose copy holds no NaN has

        |s - S| <= B = gamma_{n+4} M + n 2^-147 (+ sqrt(n) 2^-73 for L2).

    1. *Differences.* Rounding a float64 x to float32 errs by at most
       u |x| + 2^-150 (half the subnormal step), and fl(a +- r) by 2^-53 of
       |a| + |r|. A float32 subtraction errs by at most u times its result; one
       that lands in the subnormal range is exact. So the scanned difference d
       has |d_i - D_i| <= (2u + 3u^2) m_i + 2^-148, and
       delta = sum_i |d_i - D_i| <= (2u + 3u^2) M + n 2^-148. The float64
       difference x that S is the norm of has |x_i - D_i| <= 2^-51 m_i.
    2. *Norm of a computed vector v of n terms* (Higham, Accuracy and Stability
       of Numerical Algorithms, sections 3.1 and 4.2). L1: the sum of the |v_i|
       errs by at most gamma_{n-1} |v|_1. L2: a square errs by u of itself, or
       by eta where it underflows (eta = 2^-150 in float32, 2^-1075 in float64),
       and their sum by gamma_{n-1} of the terms, so the sum of squares lies
       within gamma_n |v|^2 + 2 n eta of |v|^2. Since sqrt(1 + g) <= 1 + g and
       sqrt(1 - g) >= 1 - g, its square root lies within
       gamma_n |v| + sqrt(2 n eta) of |v|, and rounding the root adds u of it:
       |N(v) - |v|_2| <= c |v|_2 + (1 + u) sqrt(2 n eta), c = gamma_n + u + u gamma_n.
    3. *Both norms are 1-Lipschitz in L1 distance*: ||d| - |D|| <= |d - D|_1,
       for L2 since |p|_2 - |q|_2 <= |p - q|_2 <= |p - q|_1; and |D| <= M.

    Hence |s - |D|| <= c |d| + delta (+ (1 + u) sqrt(2 n eta) for L2), with
    c = gamma_{n-1} for L1 and |d| <= M + delta: at first order
    gamma_{n-1} M + 2u M (L1) or gamma_n M + 3u M (L2).
    Since gamma_{n+4} - gamma_{n-1} >= 5u and gamma_{n+4} - gamma_n >=
    4u (1 + 2 n u) >= 4u + 3u gamma_n, gamma_{n+4} M covers those terms and
    the second-order ones, and leaves at least u M / 2. That covers the float64
    side, |S - |D|| <= (n + 6) 2^-53 M (+ sqrt(n) 2^-537 for L2) by the same
    steps, and the float64 rounding of M and B (relative (n + 6) 2^-53). The
    absolute terms add up to at most (1 + c) n 2^-148 <= n 2^-147, plus
    (1 + u) sqrt(2n) 2^-75 + sqrt(n) 2^-537 <= sqrt(n) 2^-73 for L2: squares
    that underflow need that much, not n 2^-150.

    Both sides of a head query sum |t| + |r|, not |t - r|: when t - r cancels,
    the exact side still rounds e + r, at a cost in proportion to |r|.

    **No overflow.** A row with a magnitude beyond ``SCAN_LIMIT`` (or a NaN) is
    NaN in the copy, so its scan is NaN, and a query whose sum |a| + sum |r|
    exceeds it scans a zero side (see ``cover``). So |d_i| <= 2^51, an L1 sum
    stays below n 2^51 < 2^74, and an L2 sum below n 2^102 < 2^128.

    **Deciding.** A row with s <= lo, a float32 lo <= s_true - B, has
    S <= s + B <= s_true: it is a rival of the true candidate. A row with
    s > hi, a float32 hi >= s_true + B, has S > s_true: it is not. Every
    other row is undecided and must be rescored exactly: the true one and NaN
    rows. ``cover`` decides, per query, whether the bound holds: a query it
    does not cover (a sum |a| + sum |r| beyond ``SCAN_LIMIT`` or NaN, a NaN
    s_true, or any query of a table past ``SCAN_MAX_DIM`` dimensions, whose
    gamma is NaN) gets NaN thresholds, so every row is undecided. ``sizes``
    holds sum |x| of every row in float64, and ``largest`` the largest over
    the rows without a NaN in the copy.
    """

    def __init__(self, rows: np.ndarray, norm: str):
        n, dim = rows.shape
        magnitudes = np.abs(rows)
        self.sizes = magnitudes.sum(axis=1)
        scanned = (magnitudes <= SCAN_LIMIT).all(axis=1)  # NaN fails too
        self.largest = float(self.sizes[scanned].max(initial=0.0))
        with np.errstate(over="ignore"):  # values beyond float32 are masked next
            self.table = np.ascontiguousarray(rows.T, dtype=np.float32)
        self.table[:, ~scanned] = np.nan
        self.norm = norm
        block = max(1, min(dim, _SCAN_BLOCK // max(n, 1)))
        self._work = np.empty((1 + (dim > block), block, n), dtype=np.float32)
        k = (dim + 4) * 2.0**-24
        self._gamma = k / (1 - k) if dim <= SCAN_MAX_DIM else math.nan
        self._absolute = dim * 2.0**-147 + (math.sqrt(dim) * 2.0**-73 if norm == "L2" else 0.0)

    def norms(self, fixed: np.ndarray) -> np.ndarray:
        """s of every row, float32: the norm of fl32(e) - f for the float32 fixed
        side f, whose float64 magnitudes sum to at most ``SCAN_LIMIT``.

        Run it with numpy's ufunc buffer at its minimum (``np.setbufsize(16)``,
        set once around a loop of queries). With the default 8192 elements,
        numpy copies the broadcast (block, 1) operand into its buffer to run
        longer inner loops, and that copy costs more than the subtraction. Every
        operation here is elementwise or a reduction that needs no cast, so the
        buffer size changes no bits.
        """
        acc = self._work[0]
        k = len(acc)
        for lo in range(0, len(fixed), k):
            m = min(k, len(fixed) - lo)
            terms = acc[:m] if lo == 0 else self._work[1, :m]
            np.subtract(self.table[lo:lo + m], fixed[lo:lo + m, None], out=terms)
            if self.norm == "L1":
                np.abs(terms, out=terms)
            else:
                np.multiply(terms, terms, out=terms)
            if lo:
                acc[:m] += terms
        total = acc[:min(k, len(fixed))].sum(axis=0)
        return total if self.norm == "L1" else np.sqrt(total)

    def cover(self, sides: np.ndarray, sizes: np.ndarray,
              s_true: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per query, its float32 fixed side and a float32 lo <= s_true - B and
        hi >= s_true + B, for float64 fixed sides ``sides`` (one row a query)
        whose sums of |a| and |r| are ``sizes``, and exact energies ``s_true``.
        A query the bound does not cover, one whose size exceeds ``SCAN_LIMIT``
        or is NaN, whose s_true is NaN, or any when the table is past
        ``SCAN_MAX_DIM`` dimensions, gets a zero side and NaN thresholds."""
        sizes = np.where(sizes <= SCAN_LIMIT, sizes, math.nan)  # NaN fails too
        bound = self._gamma * (sizes + self.largest) + self._absolute
        lo, hi = _float32_past(s_true - bound, -math.inf), _float32_past(s_true + bound, math.inf)
        # NaN thresholds mark the queries not covered, whose sides are not scanned
        return np.where(np.isnan(lo)[:, None], 0.0, sides).astype(np.float32), lo, hi

    def undecided(self, fixed: np.ndarray, lo: np.float32,
                  hi: np.float32) -> tuple[np.ndarray, np.ndarray]:
        """Rows that are certainly rivals of one query (S <= s_true), as a mask,
        and the indices of the undecided rows, which the mask leaves False: the
        scan of the float32 fixed side ``fixed`` against the query's thresholds
        from ``cover``."""
        s = self.norms(fixed)
        rivals = s <= lo
        return rivals, np.flatnonzero(~(rivals | (s > hi)))


def _float32_past(x: np.ndarray, toward: float) -> np.ndarray:
    """Per value, a float32 past the real value that the float64 x was rounded
    from, toward -inf or inf: one float64 step from x, then one float32 step from
    the float32 nearest that. A value beyond +-2^100 is clipped there first; no
    scan reaches 2^74, so the clipped value decides every row alike. NaN stays
    NaN."""
    x = np.clip(np.nextafter(x, toward), -2.0**100, 2.0**100)
    return np.nextafter(x.astype(np.float32), np.float32(toward))


def triple_energy(h: np.ndarray, r: np.ndarray, t: np.ndarray, norm: str):
    """E1 = ||h + r - t||, computed as ||(h + r) - t||."""
    return dissimilarity(h + r - t, norm)


def path_energy(weight: float, c: np.ndarray, r: np.ndarray, norm: str):
    """E2 = weight * ||C(p) - r||, with weight = R(p|h,t) * prod(mu)."""
    return weight * dissimilarity(c - r, norm)


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
