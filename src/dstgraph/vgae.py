"""From-scratch variational graph auto-encoder on numpy arrays, with no
n x n array held outside one small tile.

Two-layer GCN encoder (shared ReLU layer, linear mean and log-variance
heads), reparameterization trick, inner-product decoder.  The propagation
matrix Â is a read-only `Propagation` operator built from an edge array,
which sums Â's row-sorted nonzeros per row.  Node features are one-hot
(X = I), so the first layer Â X W_s is Â W_s and no feature matrix is
built; one forward pass serves training, the gradient check and
evaluation, where `auc` and `average_precision` rank held-out edges
against matched negatives.  The training objective is the negative
ELBO: weighted full-matrix reconstruction BCE plus a KL term against a
standard-normal prior.  S = Z Z^T is symmetric, so the BCE scores only
its tiles on and right of the diagonal and counts each pair off the
diagonal twice: each band of `_TILE_ROWS` rows scores its square on the
diagonal, then the rest of its rows left to right in tiles `_TILE_COLS`
wide.  It works from
exp(-|S|), with the positive terms gathered at the training edges and no
dense 0/1 target.  Every tile is scored in one workspace of four float and
two boolean arrays of one tile (1.06 MiB, whatever n is), made once per
`train` or `gradient_check` call and freed when it returns, so training
allocates no fresh tile arrays per tile or epoch.  Beyond it, training
holds the weights, Adam's two moments and the n x d activations still
needed, and nothing an epoch makes outlives it: the backward pass keeps
the first layer's ReLU mask, not its pre-activation, and it and the Adam
step work in place, each in the operation order of the expressions they
replaced, so no bit depends on where a result is stored.
`save_checkpoint` turns the weights into JSON text a block of rows at a
time.

A graph of at most `_TILE_ROWS` nodes is one tile and scores S by the
dense expressions exactly; larger graphs agree with them to the last bits
only, as they sum in another order.  That order is fixed by the tile
shape and the segmented sum's rows, so no bit depends on the byte budget
`_BLOCK_BYTES`, and no graph is too large for it.
Backpropagation is hand-derived and verified against central finite
differences, so all arithmetic stays in double precision.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .datasets import atomic_writer, read_json_object
from .graph import EdgeSplit, StateGraph, sorted_unique

PROB_EPS = 1e-12
# bounds of -log p for p clamped to [1e-12, 1 - 1e-12]
_SP_LO = -float(np.log1p(-PROB_EPS))
_SP_HI = -float(np.log(PROB_EPS))
# bytes of the weighted operand rows that `Propagation` gathers for one
# chunk of its segmented sum; the chunking moves no bit of a product
_BLOCK_BYTES = 1 << 20
# rows of one band of S = Z Z^T and columns of one tile right of a band's
# diagonal square.  The objective's workspace holds four float and two
# boolean arrays of one 64 x 512 tile, 1.06 MiB, near the size of a core's
# L2 cache; the tile shape alone fixes the order of the objective's sums.
_TILE_ROWS = 64
_TILE_COLS = 512


class TrainingDiverged(RuntimeError):
    """Raised when the loss goes non-finite; carries the partial history."""

    def __init__(self, epoch: int, history: list["EpochRecord"]):
        super().__init__(f"non-finite loss at epoch {epoch}")
        self.epoch = epoch
        self.history = history


@dataclass(frozen=True)
class VgaeParams:
    """Encoder weights: shared layer plus mean and log-variance heads."""

    w_shared: np.ndarray
    w_mu: np.ndarray
    w_logvar: np.ndarray

    def __post_init__(self):
        ws, wm, wl = self.w_shared, self.w_mu, self.w_logvar
        if ws.ndim != 2 or wm.ndim != 2 or wl.ndim != 2:
            raise ValueError("weights must be 2-d matrices")
        if ws.shape[1] != wm.shape[0] or wm.shape != wl.shape:
            raise ValueError(
                f"inconsistent shapes: shared {ws.shape}, mu {wm.shape}, logvar {wl.shape}"
            )
        for name, w in (("w_shared", ws), ("w_mu", wm), ("w_logvar", wl)):
            if not np.all(np.isfinite(w)):
                raise ValueError(f"{name} contains non-finite entries")

    @property
    def hidden_dim(self) -> int:
        return self.w_shared.shape[1]

    @property
    def latent_dim(self) -> int:
        return self.w_mu.shape[1]

    @property
    def n_features(self) -> int:
        return self.w_shared.shape[0]


@dataclass(frozen=True)
class TrainConfig:
    hidden_dim: int = 32
    latent_dim: int = 16
    learning_rate: float = 0.01
    epochs: int = 200
    kl_weight: float = 1.0
    seed: int = 0
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_epsilon: float = 1e-8

    def __post_init__(self):
        if self.hidden_dim <= 0 or self.latent_dim <= 0:
            raise ValueError("hidden_dim and latent_dim must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")
        if self.kl_weight <= 0:
            raise ValueError("kl_weight must be positive")
        if not (0 <= self.adam_beta1 < 1 and 0 <= self.adam_beta2 < 1):
            raise ValueError("adam betas must lie in [0, 1)")
        if self.adam_epsilon <= 0:
            raise ValueError("adam_epsilon must be positive")


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    bce: float
    kl: float
    total: float
    val_auc: float | None = None


TrainHistory = list[EpochRecord]


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Overflow-free sigma(x) from e = exp(-|x|): 1/(1+e) where x >= 0 and
    e/(1+e) elsewhere."""
    e = np.exp(-np.abs(x))
    # 0 <= e <= 1, so max(e, x >= 0) is 1 where x >= 0 and e elsewhere
    out = np.maximum(e, x >= 0)
    out /= 1.0 + e
    return out


class Propagation:
    """The symmetric GCN propagation matrix Â = D^(-1/2) (A + I) D^(-1/2) of
    an integer (E, 2) array of (i, j) edges over ``n_nodes`` nodes, applied
    by ``prop @ x``.  It holds no mutable state, so one operator may be
    shared between threads.

    D is the degree matrix of A + I, so isolated nodes get degree 1 and
    every weight is finite.  Each unique edge is stored in both
    orientations, plus the diagonal, sorted by row then column, with weight
    inv_sqrt_deg[r] * inv_sqrt_deg[c].  Checks are O(E): edges that are not
    an integer array (a list, or a bool, float or string array), an
    endpoint outside [0, n) or a self-loop raise ValueError; duplicate or
    reversed pairs describe the same edge.

    The product sums each row's weighted operand rows and never holds the
    n x n Â, however many nodes the graph has.
    """

    def __init__(self, n_nodes: int, edges: np.ndarray):
        # a cast would turn 0.7 into 0 and True into 1
        if not isinstance(edges, np.ndarray) or edges.dtype.kind not in "iu":
            got = edges.dtype if isinstance(edges, np.ndarray) else type(edges).__name__
            raise ValueError(f"edge endpoints must be integers, got {got}")
        e = edges.reshape(-1, 2).astype(np.intp)
        if e.size and (e.min() < 0 or e.max() >= n_nodes):
            raise ValueError(f"edge endpoint out of range for {n_nodes} nodes")
        if np.any(e[:, 0] == e[:, 1]):
            raise ValueError("self-loops are not allowed")
        diag = np.arange(n_nodes, dtype=np.intp)
        keys = sorted_unique(
            np.concatenate([e[:, 0] * n_nodes + e[:, 1], e[:, 1] * n_nodes + e[:, 0],
                            diag * n_nodes + diag])
        )
        self.rows, self.cols = np.divmod(keys, n_nodes)
        inv_sqrt_deg = 1.0 / np.sqrt(np.bincount(self.rows, minlength=n_nodes))
        self.weights = inv_sqrt_deg[self.rows] * inv_sqrt_deg[self.cols]
        self.n_nodes = n_nodes
        # start of each row's segment, then nnz; every row holds its
        # diagonal, so no segment is empty
        self.row_start = np.searchsorted(self.rows, np.arange(n_nodes + 1))
        self.longest_row = int(np.diff(self.row_start).max(initial=0))
        for a in (self.rows, self.cols, self.weights, self.row_start):
            a.flags.writeable = False

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """Â @ X: a segmented sum of the weighted operand rows over the
        row-sorted nonzeros.

        The sum runs over chunks of whole rows whose weighted operand rows
        fit in `_BLOCK_BYTES` (at least one row per chunk).  Each row is
        one segment of one `np.add.reduceat`, so its sum depends only on
        that row's terms, in column order, and never on the chunking; the
        order in which reduceat adds them is numpy's, not left to right.
        Each chunk is gathered into the front of one buffer allocated per
        call.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] != self.n_nodes:
            raise ValueError(f"operand {x.shape} does not have {self.n_nodes} rows")
        out = np.empty(x.shape)
        per_chunk = _BLOCK_BYTES // (8 * max(x.shape[1], 1))
        # a chunk holds at most per_chunk nonzeros, or one longer row
        chunk_rows = min(self.row_start[-1], max(per_chunk, self.longest_row))
        buffer = np.empty((chunk_rows, x.shape[1]))
        r0 = 0
        while r0 < self.n_nodes:
            lo = self.row_start[r0]
            r1 = int(np.searchsorted(self.row_start, lo + per_chunk, side="right")) - 1
            r1 = max(r1, r0 + 1)
            hi = self.row_start[r1]
            terms = buffer[: hi - lo]
            # the columns were range-checked in __init__; "clip" gathers
            # straight into ``terms``, where "raise" would buffer the gather
            np.take(x, self.cols[lo:hi], axis=0, out=terms, mode="clip")
            terms *= self.weights[lo:hi, None]
            np.add.reduceat(terms, self.row_start[r0:r1] - lo, out=out[r0:r1])
            r0 = r1
        return out


def _forward(
    prop: Propagation, params: VgaeParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Encoder pass; returns (h, Âh, mu, logvar), all the backward pass
    needs: h > 0 is the first layer's ReLU mask.

    Features are one-hot, so the first layer Â X W_s is Â W_s; h = relu(m)
    overwrites the pre-activation m.
    """
    n = params.n_features
    if prop.n_nodes != n:
        raise ValueError(
            f"propagation over {prop.n_nodes} nodes does not match params for {n} nodes"
        )
    h = prop @ params.w_shared
    np.maximum(h, 0.0, out=h)
    ah = prop @ h
    return h, ah, ah @ params.w_mu, ah @ params.w_logvar


def encode(prop: Propagation, params: VgaeParams) -> tuple[np.ndarray, np.ndarray]:
    """Two GCN layers: h = relu(Â W_s); mu = Â h W_mu; logvar = Â h W_lv."""
    _, _, mu, logvar = _forward(prop, params)
    return mu, logvar


def edge_probabilities(z: np.ndarray, rows, cols) -> np.ndarray:
    """Edge probabilities sigma(z_r . z_c) for index pairs (rows[k], cols[k]),
    clipped into the open unit interval.

    Each pair's dot product is its own 1×d by d×1 product, so a score does
    not depend on which other pairs share the call; a gemm over blocks of
    pairs may reassociate the sum and change the last bits.
    """
    r = np.asarray(rows, dtype=np.intp)
    c = np.asarray(cols, dtype=np.intp)
    if r.ndim != 1 or r.shape != c.shape:
        raise ValueError(
            f"rows and cols must be equal-length 1-d arrays, got {r.shape} and {c.shape}"
        )
    n = z.shape[0]
    if r.size and (min(r.min(), c.min()) < 0 or max(r.max(), c.max()) >= n):
        raise IndexError(f"node index out of range for {n} nodes")
    s = (z[r][:, None, :] @ z[c][:, :, None])[:, 0, 0]
    return np.clip(_sigmoid(s), PROB_EPS, 1.0 - PROB_EPS)


def held_out_scores(
    z: np.ndarray, edges: np.ndarray, negatives: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Probabilities of held-out ``edges`` then their matched ``negatives``
    under embeddings ``z``, with labels (True for an edge): what `auc` and
    `average_precision` score in `train` and `evaluate_split`."""
    scores = edge_probabilities(z, *np.concatenate([edges, negatives]).T)
    return scores, np.arange(len(scores)) < len(edges)


def _average_ranks(scores: np.ndarray) -> np.ndarray:
    """1-based ranks in ascending score order; ties get their average rank."""
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    last = np.cumsum(counts)
    # a tie group spanning ranks first..last gets (first + last) / 2, exact
    return ((last - counts + 1 + last) / 2.0)[inverse]


def auc(scores: Sequence[float], labels: Sequence[bool]) -> float:
    """Probability a random positive outranks a random negative, ties 0.5.

    Rank-based Mann-Whitney formulation; exactly equals brute-force
    pairwise counting because average ranks are half-integer exact.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=bool)
    if s.shape != y.shape:
        raise ValueError("scores and labels must have equal length")
    n_pos = int(y.sum())
    n_neg = len(y) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("auc needs at least one positive and one negative label")
    ranks = _average_ranks(s)
    u = ranks[y].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def average_precision(scores: Sequence[float], labels: Sequence[bool]) -> float:
    """Mean precision at each positive's rank, descending score order.

    Ties are broken by stable input order; AP is not tie-invariant, so the
    policy is part of the contract.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=bool)
    if s.shape != y.shape:
        raise ValueError("scores and labels must have equal length")
    if not y.any():
        raise ValueError("average_precision needs at least one positive label")
    order = np.argsort(-s, kind="stable")
    hit_ranks = np.flatnonzero(y[order]) + 1
    precisions = np.arange(1, len(hit_ranks) + 1) / hit_ranks
    # cumsum adds in sequence; np.sum's pairwise order would change the last bits
    return float(np.cumsum(precisions)[-1] / len(hit_ranks))


class _Workspace:
    """Flat scratch arrays for the objective's tiles, each ``size`` entries
    long: the scores S, exp(-|S|), sigma(S) (turned into dBCE/dS) and
    1 + exp(-|S|), plus two boolean masks.  One workspace serves every tile
    of every `loss_and_grads` call it is handed; it holds the tile being
    scored, so two threads must not share one."""

    def __init__(self, size: int):
        self.s, self.e, self.g, self.w = (np.empty(size) for _ in range(4))
        self.mask, self.mask2 = (np.empty(size, dtype=bool) for _ in range(2))

    def tile(self, buf: np.ndarray, rows: int, cols: int) -> np.ndarray:
        """A C-contiguous rows x cols view of the front of ``buf``."""
        return buf[: rows * cols].reshape(rows, cols)


def _bce(
    s: np.ndarray,
    pos_index,
    pos_weight: float,
    n_pairs: int,
    work: _Workspace,
) -> tuple[float, np.ndarray]:
    """Weighted BCE terms of the scores S against the 0/1 target that is one
    exactly at ``pos_index`` (a (rows, cols) pair of index arrays), summed
    over S, and the gradient of their mean over ``n_pairs`` ordered pairs,
    dBCE/dS.  S may be a tile of the n x n scores, with n_pairs = n * n.

    Positive terms are scaled by pos_weight to counter edge sparsity.  The
    log-probabilities are clamped to [log 1e-12, log(1 - 1e-12)], which
    keeps the loss finite for arbitrary finite S; clamped terms get zero
    gradient.  One e = exp(-|S|) gives sigma(S) and both log terms:
    -log sigma(s) = max(-s, 0) + log1p(e), -log(1 - sigma(s)) = max(s, 0) +
    log1p(e).  Every entry is scored densely as a non-edge, then the
    positive terms are computed at ``pos_index`` only and scattered there.
    S is overwritten.  Every dense step writes into ``work``, a workspace
    of at least S's size, and the returned gradient is a view of it, valid
    until the workspace is used again.
    """
    if pos_weight <= 0:
        raise ValueError("pos_weight must be positive")
    t, g, w, ok, ok2 = (
        work.tile(a, *s.shape) for a in (work.e, work.g, work.w, work.mask, work.mask2)
    )
    np.abs(s, out=t)
    np.exp(np.negative(t, out=t), out=t)
    # sigma(S) from e as `_sigmoid` forms it, turned into dBCE/dS in place
    np.maximum(t, np.greater_equal(s, 0, out=ok), out=g)
    g /= np.add(t, 1.0, out=w)
    np.log1p(t, out=t)
    sp_pos = np.maximum(-s[pos_index], 0.0) + t[pos_index]  # -log sigma(s)
    sig_pos = g[pos_index]
    t += np.maximum(s, 0.0, out=s)  # -log(1 - sigma(s)); S is spent

    np.greater(t, _SP_LO, out=ok)
    ok &= np.less(t, _SP_HI, out=ok2)
    g *= ok
    np.clip(t, _SP_LO, _SP_HI, out=t)
    t[pos_index] = pos_weight * np.clip(sp_pos, _SP_LO, _SP_HI)
    keep_pos = (sp_pos > _SP_LO) & (sp_pos < _SP_HI)
    g[pos_index] = -pos_weight * (1.0 - sig_pos) * keep_pos
    g /= n_pairs
    return t.sum(), g


def kl_divergence(mu: np.ndarray, logvar: np.ndarray) -> float:
    """KL(q(Z) || N(0, I)) averaged over nodes; zero iff mu = logvar = 0."""
    if mu.shape != logvar.shape:
        raise ValueError(f"shape mismatch: mu {mu.shape}, logvar {logvar.shape}")
    n = mu.shape[0]
    return float(-0.5 / n * (1.0 + logvar - mu**2 - np.exp(logvar)).sum())


def glorot_init(n_features: int, config: TrainConfig, rng: np.random.Generator) -> VgaeParams:
    """Glorot-uniform weights, drawn in a fixed order for determinism."""

    def draw(fan_in: int, fan_out: int) -> np.ndarray:
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, size=(fan_in, fan_out))

    w_shared = draw(n_features, config.hidden_dim)
    w_mu = draw(config.hidden_dim, config.latent_dim)
    w_logvar = draw(config.hidden_dim, config.latent_dim)
    return VgaeParams(w_shared=w_shared, w_mu=w_mu, w_logvar=w_logvar)


def _bce_grad_z(
    z: np.ndarray, pos_index, pos_weight: float, work: _Workspace
) -> tuple[float, np.ndarray]:
    """BCE over S = Z Z^T and dBCE/dZ, scoring only the tiles of S on and
    right of the diagonal, one band of `_TILE_ROWS` rows at a time.

    S is symmetric, so pair (a, b) has the loss term and gradient of (b, a).
    Band i:j scores the square S[i:j, i:j] = Z[i:j] Z[i:j]^T, a symmetric
    (syrk) product, then the rest of its rows S[i:j, j:], left to right,
    in tiles S[i:j, J] of at most `_TILE_COLS` columns (general products);
    S[i:j, :i] is the transpose of earlier bands' tiles and is never scored.
    With G = dBCE/dS, the BCE sum is t_square + 2 t_J summed over the tiles
    in order, band i:j of dBCE/dZ gets 2 G_sq Z[i:j] then each 2 G_J Z[J],
    and rows J gain 2 G_J^T Z[i:j].  The bands run bottom-up, so each band
    of the result is assigned before the bands above add to it.

    The tile shape alone fixes the summation order, so the bits do not
    depend on any byte budget.  A graph of at most `_TILE_ROWS` nodes is one
    square tile and the dense expression bit for bit: S and G are exactly
    symmetric, so G + G^T is 2G.  Larger graphs sum in another order and
    agree with it up to the last bits.

    Every tile is scored in ``work``, a workspace of at least `_TILE_ROWS`
    * `_TILE_COLS` entries; a tile's two products with Z have at most
    `_TILE_ROWS` and `_TILE_COLS` rows.
    """
    n = z.shape[0]
    rows, cols = pos_index
    bounds = np.searchsorted(rows, np.arange(0, n + _TILE_ROWS, _TILE_ROWS))
    g_z = np.empty_like(z)
    total = 0.0
    for k in reversed(range(len(bounds) - 1)):
        i = k * _TILE_ROWS
        j = min(i + _TILE_ROWS, n)
        zb = z[i:j]
        r, c = rows[bounds[k]:bounds[k + 1]] - i, cols[bounds[k]:bounds[k + 1]]
        # the band's positives by column, cut at the square and each tile;
        # a column left of the square (c < i) is the mirror of a pair in an
        # earlier band's tile
        by_col = np.argsort(c, kind="stable")
        r, c = r[by_col], c[by_col]
        col_bounds = [i, *range(j, n, _TILE_COLS), n]
        cuts = np.searchsorted(c, col_bounds).tolist()
        s = np.matmul(zb, zb.T, out=work.tile(work.s, j - i, j - i))
        sq = slice(cuts[0], cuts[1])
        t_sum, g = _bce(s, (r[sq], c[sq] - i), pos_weight, n * n, work)
        g *= 2.0
        np.matmul(g, zb, out=g_z[i:j])
        for t in range(1, len(col_bounds) - 1):
            c0, c1 = col_bounds[t], col_bounds[t + 1]
            zt = z[c0:c1]
            s = np.matmul(zb, zt.T, out=work.tile(work.s, j - i, c1 - c0))
            pos = slice(cuts[t], cuts[t + 1])
            t_tile, g = _bce(s, (r[pos], c[pos] - c0), pos_weight, n * n, work)
            t_sum += 2.0 * t_tile
            g_z[i:j] += 2.0 * (g @ zt)
            g_z[c0:c1] += 2.0 * (g.T @ zb)
        total += t_sum
    return float(total / (n * n)), g_z


def loss_and_grads(
    params: VgaeParams,
    prop: Propagation,
    kl_weight: float,
    noise: np.ndarray,
    work: _Workspace,
) -> tuple[float, float, dict[str, np.ndarray]]:
    """Forward pass plus hand-derived gradients of BCE + kl_weight * KL.

    ``prop`` is the training edges' Â.  Its off-diagonal nonzeros are
    exactly the BCE target's positive entries, both orientations of each
    training edge, already sorted by row; pos_weight is the ratio of
    non-edge to edge entries of the n x n target.  ``noise`` is the frozen
    standard-normal draw used by the reparameterization, so the function
    is pure and checkable against finite differences.  No n x n array is
    held: the tiles of S are scored in ``work``, a `_Workspace` of at least
    `_TILE_ROWS` * `_TILE_COLS` entries.  Returns (bce, kl, grads by
    weight name).

    Each n x d array is dropped after its last use, and each gradient is
    accumulated in an array whose value is spent, in the operation order of
    the expressions in the comments, so the bits do not depend on where a
    result is stored.
    """
    n = prop.n_nodes
    off_diagonal = prop.rows != prop.cols
    pos_index = (prop.rows[off_diagonal], prop.cols[off_diagonal])
    n_pos = len(pos_index[0])
    pos_weight = (n * n - n_pos) / n_pos

    h, ah, mu, logvar = _forward(prop, params)
    active = h > 0.0  # relu(m) > 0 exactly where m > 0
    del h
    # std = exp(logvar / 2); z = mu + std * noise
    std = np.divide(logvar, 2.0)
    np.exp(std, out=std)
    z = std * noise
    z += mu

    bce, g_z = _bce_grad_z(z, pos_index, pos_weight, work)
    del z
    kl = kl_divergence(mu, logvar)

    # g_logvar = g_z * noise * 0.5 * std + kl_weight * 0.5 / n * (exp(logvar) - 1)
    g_logvar = g_z * noise
    g_logvar *= 0.5
    g_logvar *= std
    prior = np.exp(logvar, out=std)
    del std, logvar
    prior -= 1.0
    prior *= kl_weight * 0.5 / n
    g_logvar += prior
    del prior
    # g_mu = g_z + kl_weight * mu / n
    mu *= kl_weight
    mu /= n
    g_mu = g_z
    g_mu += mu
    del g_z, mu

    g_w_mu = ah.T @ g_mu
    g_w_logvar = ah.T @ g_logvar
    # g_h = Â (g_mu W_mu^T + g_logvar W_lv^T), the sum formed where Âh was
    g_back = g_mu @ params.w_mu.T
    del g_mu
    g_back += np.matmul(g_logvar, params.w_logvar.T, out=ah)
    del g_logvar, ah
    g_h = prop @ g_back
    del g_back
    g_h *= active  # g_m
    del active
    # Â is exactly symmetric (both orientations carry one weight), so
    # Â^T g_m is Â g_m
    g_w_shared = prop @ g_h

    grads = {"w_shared": g_w_shared, "w_mu": g_w_mu, "w_logvar": g_w_logvar}
    return bce, kl, grads


def train(
    graph: StateGraph, split: EdgeSplit, config: TrainConfig
) -> tuple[VgaeParams, TrainHistory]:
    """Adam-optimize the negative ELBO on the training-edge adjacency.

    Per-epoch losses (and validation AUC, when the split has validation
    edges) are recorded at the pre-update parameters, so record 1 shows
    the initial loss.  Fully deterministic given config.seed: one rng
    drives Glorot init (shared, mu, logvar order) then one noise draw per
    epoch.  Raises TrainingDiverged with the partial history if the loss
    goes non-finite.
    """
    if not len(split.train):
        raise ValueError("training edge set is empty")
    rng = np.random.default_rng(config.seed)
    params = glorot_init(graph.n_nodes, config, rng)

    a_hat = Propagation(graph.n_nodes, split.train)
    # one workspace for every tile of every epoch, freed on return
    work = _Workspace(_TILE_ROWS * _TILE_COLS)
    # validation monitoring mirrors evaluate_split: encode the full graph
    if len(split.val):
        full_graph = Propagation(graph.n_nodes, graph.edges)

    weights = asdict(params)  # copies of the weights, by name
    adam_m = {k: np.zeros_like(v) for k, v in weights.items()}
    adam_v = {k: np.zeros_like(v) for k, v in weights.items()}

    history: TrainHistory = []
    # a diverging run overflows on its way to the non-finite loss or weights
    # that raise TrainingDiverged; numpy need not warn about it as well
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, config.epochs + 1):
            params = VgaeParams(**weights)
            noise = rng.standard_normal((graph.n_nodes, config.latent_dim))
            bce, kl, grads = loss_and_grads(params, a_hat, config.kl_weight, noise, work)
            total = bce + config.kl_weight * kl

            val_auc = None
            if len(split.val):
                # no name keeps the embeddings alive into the next epoch
                mu = encode(full_graph, params)[0]
                val_auc = auc(*held_out_scores(mu, split.val, split.neg_val))
                del mu

            record = EpochRecord(epoch=epoch, bce=bce, kl=kl, total=total, val_auc=val_auc)
            history.append(record)
            if not np.isfinite(total):
                raise TrainingDiverged(epoch, history)

            for name in weights:
                weights[name] = _adam_step(
                    weights[name], grads.pop(name), adam_m[name], adam_v[name],
                    config, epoch,
                )
            if any(not np.all(np.isfinite(w)) for w in weights.values()):
                raise TrainingDiverged(epoch, history)

    return VgaeParams(**weights), history


def _adam_step(
    w: np.ndarray, g: np.ndarray, m: np.ndarray, v: np.ndarray, config: TrainConfig, epoch: int
) -> np.ndarray:
    """One Adam update of ``w`` by gradient ``g``: updates the moments ``m``
    and ``v`` in place and returns the new weights in a fresh array, with
    ``g`` as scratch.  ``w`` itself is not written, since a `VgaeParams`
    may hold it.  Every step keeps the operation order of

        m = b1 * m + (1 - b1) * g;  v = b2 * v + (1 - b2) * g * g
        w - lr * (m / (1 - b1**t)) / (sqrt(v / (1 - b2**t)) + eps)
    """
    b1, b2 = config.adam_beta1, config.adam_beta2
    new = np.multiply(g, 1.0 - b1)
    m *= b1
    m += new
    np.multiply(g, 1.0 - b2, out=new)
    new *= g
    v *= b2
    v += new
    # the denominator in ``new``, the step in ``g``, then the new weights
    np.divide(v, 1.0 - b2**epoch, out=new)
    np.sqrt(new, out=new)
    new += config.adam_epsilon
    np.divide(m, 1.0 - b1**epoch, out=g)
    g *= config.learning_rate
    g /= new
    return np.subtract(w, g, out=new)


def gradient_check(
    params: VgaeParams,
    graph: StateGraph,
    split: EdgeSplit,
    config: TrainConfig,
    epsilon: float = 1e-5,
    n_samples: int = 64,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    The reparameterization noise is frozen to one seeded draw and a random
    subset of at least min(n_samples, total) weight entries is probed.
    Relative error uses a 1e-4 floor in the denominator so exactly-zero
    gradients compare cleanly.
    """
    if not (1e-7 <= epsilon <= 1e-3):
        raise ValueError(f"epsilon must lie in [1e-7, 1e-3], got {epsilon}")
    rng = np.random.default_rng(config.seed)
    a_hat = Propagation(graph.n_nodes, split.train)
    noise = rng.standard_normal((graph.n_nodes, params.latent_dim))
    work = _Workspace(_TILE_ROWS * _TILE_COLS)

    _, _, grads = loss_and_grads(params, a_hat, config.kl_weight, noise, work)

    mats = asdict(params)  # copies of the weights, by name
    # a pick is a row-major offset into the weights laid end to end
    names = list(mats)
    starts = np.cumsum([0] + [w.size for w in mats.values()])
    total = int(starts[-1])
    picks = rng.choice(total, size=min(n_samples, total), replace=False)

    def total_loss() -> float:
        bce, kl, _ = loss_and_grads(VgaeParams(**mats), a_hat, config.kl_weight, noise, work)
        return bce + config.kl_weight * kl

    max_rel = 0.0
    for pick in picks:
        m = int(np.searchsorted(starts, pick, side="right")) - 1
        name = names[m]
        i, j = divmod(int(pick - starts[m]), mats[name].shape[1])
        orig = mats[name][i, j]
        mats[name][i, j] = orig + epsilon
        up = total_loss()
        mats[name][i, j] = orig - epsilon
        down = total_loss()
        mats[name][i, j] = orig
        fd = (up - down) / (2.0 * epsilon)
        an = grads[name][i, j]
        rel = abs(fd - an) / max(abs(fd), abs(an), 1e-4)
        max_rel = max(max_rel, rel)
    return max_rel


CHECKPOINT_FORMAT = "vgae-checkpoint"
CHECKPOINT_VERSION = 1
# rows of a weight matrix turned into Python floats and text at a time
_SAVE_ROWS = 64


def save_checkpoint(path: str | Path, params: VgaeParams, config: TrainConfig) -> None:
    """Write a versioned JSON checkpoint: dims, config, weights row-major.

    The file is exactly ``json.dumps`` of the whole payload, the header
    first, then each weight matrix in blocks of `_SAVE_ROWS` rows, so the
    save holds one block's floats and text, not every weight at once.
    """
    header = json.dumps({
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "n_features": params.n_features,
        "hidden_dim": params.hidden_dim,
        "latent_dim": params.latent_dim,
        "config": asdict(config),
    })
    with atomic_writer(path) as f:
        f.write(header[:-1])  # the payload goes on after the header's keys
        for name in ("w_shared", "w_mu", "w_logvar"):
            w = getattr(params, name)
            f.write(f', "{name}": [')
            for start in range(0, len(w), _SAVE_ROWS):
                if start:
                    f.write(", ")
                # the rows' list text without its brackets
                f.write(json.dumps(w[start:start + _SAVE_ROWS].tolist())[1:-1])
            f.write("]")
        f.write("}")


def _holds_bool(rows: list, w: np.ndarray) -> bool:
    """Whether the JSON matrix ``rows``, inferred by numpy as the numbers
    ``w``, holds a true or false.  Among numbers numpy reads one as 1 or 0,
    so only the entries equal to 0 or 1 are looked up."""
    if w.ndim != 2:
        return False  # not a matrix, which `VgaeParams` rejects
    return any(type(rows[i][j]) is bool for i, j in zip(*np.nonzero((w == 0) | (w == 1))))


def load_checkpoint(path: str | Path) -> tuple[VgaeParams, TrainConfig]:
    """Read a checkpoint written by `save_checkpoint`.  A malformed one, or
    one whose header or config dims disagree with its weights, raises
    ValueError naming the file, and the key where one applies."""
    raw = read_json_object(path)
    if raw.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"{path}: not a VGAE checkpoint")
    if raw.get("version") != CHECKPOINT_VERSION or type(raw["version"]) is not int:
        raise ValueError(f"{path}: unsupported checkpoint version {raw.get('version')}")
    weights = {}
    for key in ("w_shared", "w_mu", "w_logvar"):
        try:
            # inferred, not cast: a string or null entry, or a matrix of
            # booleans, then shows in the dtype
            w = np.array(raw[key])
        except KeyError:
            raise ValueError(f"{path}: no {key!r} weights") from None
        except (TypeError, ValueError) as exc:
            # e.g. a ragged row: numpy's "inhomogeneous shape" text
            raise ValueError(f"{path}: weight {key!r}: {exc}") from exc
        got = None if w.dtype.kind in "iuf" else w.dtype
        if got is None and _holds_bool(raw[key], w):
            got = "bool"
        if got is not None:
            raise ValueError(f"{path}: weight {key!r}: entries must be numbers, got {got}")
        weights[key] = w.astype(np.float64, copy=False)
    try:
        params = VgaeParams(**weights)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    config = raw.get("config")
    if not isinstance(config, dict):
        raise ValueError(f"{path}: no 'config' object")
    fields = TrainConfig.__dataclass_fields__
    unknown = sorted(set(config) - set(fields))
    if unknown:
        raise ValueError(f"{path}: unknown checkpoint config keys: {unknown}")
    for key, value in config.items():
        # every field's default is an int or a float; an int is a valid
        # float, and a bool is neither
        want = type(fields[key].default)
        if not (type(value) is want or (want is float and type(value) is int)):
            raise ValueError(
                f"{path}: config {key!r} must be {want.__name__}, got {value!r}"
            )
    try:
        config = TrainConfig(**config)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    for key in ("n_features", "hidden_dim", "latent_dim"):
        dim = getattr(params, key)
        if type(raw.get(key)) is not int or raw[key] != dim:
            raise ValueError(f"{path}: header {key!r} is {raw.get(key)!r}, weights give {dim}")
        if key in fields and getattr(config, key) != dim:
            raise ValueError(
                f"{path}: config {key!r} is {getattr(config, key)}, weights give {dim}"
            )
    return params, config
