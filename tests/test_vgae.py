import dataclasses
import json
import math
import re
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from dstgraph import vgae
from dstgraph.datasets import fixture_corpus_path, load_corpus
from dstgraph.graph import NodeKind, build_graph, planted_graph, split_edges
from dstgraph.linkpred import CandidateRanker, evaluate_split, mean_embeddings
from dstgraph.vgae import (
    EpochRecord,
    TrainConfig,
    TrainingDiverged,
    Propagation,
    VgaeParams,
    _bce,
    _sigmoid,
    _Workspace,
    auc,
    average_precision,
    edge_probabilities,
    encode,
    glorot_init,
    gradient_check,
    held_out_scores,
    kl_divergence,
    load_checkpoint,
    loss_and_grads,
    save_checkpoint,
    train,
)

from conftest import child_env, edge_set, random_bipartite_graph


def tiny_config(**kw) -> TrainConfig:
    base = dict(hidden_dim=8, latent_dim=4, epochs=40)
    base.update(kw)
    return TrainConfig(**base)


def small_setup(rng, seed=5):
    g = random_bipartite_graph(rng, 3, 12, 0.35)
    split = split_edges(g, 0.85, 0.10, 0.05, seed=seed)
    return g, split


def workspace() -> _Workspace:
    """A fresh workspace of the size `loss_and_grads` scores its tiles in,
    under the tile constants in force."""
    return _Workspace(vgae._TILE_ROWS * vgae._TILE_COLS)


# --- propagation matrix ---


def normalize_adjacency(n, edges):
    """The dense form of the propagation operator of integer (i, j) pairs:
    Â @ I is Â exactly, as each entry is one weight times 1 plus zeros."""
    return Propagation(n, np.array(edges, dtype=np.int64).reshape(-1, 2)) @ np.eye(n)


def dense_reference(n, edges):
    """The dense expression the edge-list builder replaced: A + I, then
    both degree scalings, from a 0/1 adjacency written pair by pair."""
    a = np.zeros((n, n))
    for i, j in edges:
        a[i, j] = a[j, i] = 1.0
    a_hat = a + np.eye(n)
    inv_sqrt_deg = 1.0 / np.sqrt(a_hat.sum(axis=1))
    return a_hat * inv_sqrt_deg[:, None] * inv_sqrt_deg[None, :]


class SegmentedReference:
    """A dense matrix that multiplies as `Propagation` sums: one
    np.add.reduceat over its row-sorted nonzeros, each operand row weighted
    by its nonzero and cut at each row's start.  Every row needs a nonzero,
    as the diagonal of Â gives it."""

    def __init__(self, dense):
        self.dense = dense
        rows, self.cols = np.nonzero(dense)
        self.weights = dense[rows, self.cols]
        self.starts = np.searchsorted(rows, np.arange(len(dense)))

    @property
    def T(self):
        return SegmentedReference(self.dense.T)

    def __matmul__(self, x):
        return np.add.reduceat(x[self.cols] * self.weights[:, None], self.starts)


def test_normalize_adjacency_two_node_hand_value():
    want = np.array([[0.5, 0.5], [0.5, 0.5]])
    assert np.allclose(normalize_adjacency(2, [(0, 1)]), want, atol=1e-15)


def test_normalize_adjacency_isolated_node_stays_finite():
    assert np.array_equal(normalize_adjacency(3, []), np.eye(3))


def test_normalize_adjacency_matches_dense_formula(rng):
    for _ in range(10):
        n = int(rng.integers(2, 15))
        a = (rng.random((n, n)) < 0.3).astype(float)
        a = np.triu(a, 1)
        a = a + a.T
        a_hat = a + np.eye(n)
        d_inv_sqrt = np.diag(1.0 / np.sqrt(a_hat.sum(axis=1)))
        want = d_inv_sqrt @ a_hat @ d_inv_sqrt
        edges = list(zip(*np.nonzero(np.triu(a, 1))))
        assert np.allclose(normalize_adjacency(n, edges), want, atol=1e-14)


def test_normalize_adjacency_equals_dense_reference_bit_for_bit(rng):
    corpus = load_corpus(fixture_corpus_path())
    fixture = build_graph([s for d in corpus.dialogues for s in d.gold_states])
    cases = []
    for g in (fixture, planted_graph()):
        train_edges = split_edges(g, 0.85, 0.10, 0.05, seed=1).train
        cases += [(g.n_nodes, g.edges), (g.n_nodes, train_edges)]
    for n_isolated in (1, 5):
        g = random_bipartite_graph(rng, 4, 30, 0.2)
        cases.append((g.n_nodes + n_isolated, g.edges))
    for n, edges in cases:
        assert np.array_equal(normalize_adjacency(n, edges), dense_reference(n, edges))


def test_normalize_adjacency_validates_input():
    with pytest.raises(ValueError):
        normalize_adjacency(3, [(0, 3)])  # endpoint past the last node
    with pytest.raises(ValueError):
        normalize_adjacency(3, [(-1, 2)])
    with pytest.raises(ValueError):
        normalize_adjacency(3, [(0, 1), (2, 2)])  # self-loop
    # duplicate and reversed pairs describe the same undirected edge
    once = normalize_adjacency(3, [(0, 1)])
    assert np.array_equal(normalize_adjacency(3, [(1, 0)]), once)
    assert np.array_equal(normalize_adjacency(3, [(0, 1), (1, 0), (0, 1)]), once)


def test_propagation_rejects_non_integer_endpoints():
    # a cast to integers would read 0.7 as 0, True as 1 and "1" as 1; a
    # list is not an integer array, even one of integers
    lists = [(0.7, 1.2)], [(True, 2)], [(0, np.True_)], [(0, 1), (1.0, 2)], [("0", "1")]
    arrays = [[0.7, 1.2]], [[True, False]], [["0", "1"]], [[0, 1], [1, 2]]
    edges = [*lists, [(np.int32(0), 1), (1, np.int64(2))]]
    edges += [np.array(a, dtype=kind) for a, kind in zip(arrays, (float, bool, str, object))]
    for given in edges:
        with pytest.raises(ValueError, match="edge endpoints must be integers"):
            Propagation(3, given)
    # integer arrays of any width, and no edges at all
    want = normalize_adjacency(3, [(0, 1), (1, 2)])
    for kind in (np.int32, np.int64, np.uint8):
        prop = Propagation(3, np.array([[0, 1], [1, 2]], dtype=kind))
        assert (prop @ np.eye(3)).tobytes() == want.tobytes()
    no_edges = Propagation(3, np.empty((0, 2), dtype=np.int64))
    assert (no_edges @ np.eye(3)).tobytes() == np.eye(3).tobytes()


def test_propagation_and_auc_leave_numpy_ma_unimported():
    # np.unique's first call in a process imports numpy.ma, 11-16 ms of
    # start-up that every train and predict process would pay
    script = """
import sys
import numpy as np
from dstgraph.vgae import Propagation, auc
path = np.stack([np.arange(3), np.arange(1, 4)], axis=1)
Propagation(4, np.concatenate([path, path[:, ::-1]])) @ np.ones((4, 2))
auc([0.1, 0.4, 0.4, 0.9], [False, True, False, True])
assert "numpy.ma" not in sys.modules, "numpy.ma was imported"
"""
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


# --- encoder ---


def test_encode_shapes_and_relu(rng):
    g, _ = small_setup(rng)
    cfg = tiny_config()
    params = glorot_init(g.n_nodes, cfg, np.random.default_rng(0))
    a_hat = Propagation(g.n_nodes, g.edges)
    mu, logvar = encode(a_hat, params)
    assert mu.shape == (g.n_nodes, cfg.latent_dim)
    assert logvar.shape == mu.shape
    # negated shared weights must change the hidden layer through the relu
    flipped = VgaeParams(
        w_shared=-params.w_shared, w_mu=params.w_mu, w_logvar=params.w_logvar
    )
    mu2, _ = encode(a_hat, flipped)
    assert not np.allclose(mu, mu2)


def test_encode_equals_one_hot_reference_chain(rng):
    g, _ = small_setup(rng)
    params = glorot_init(g.n_nodes, tiny_config(), np.random.default_rng(0))
    a_hat = SegmentedReference(dense_reference(g.n_nodes, g.edges))
    x = np.eye(g.n_nodes)
    h = np.maximum(a_hat @ (x @ params.w_shared), 0.0)
    mu, logvar = encode(Propagation(g.n_nodes, g.edges), params)
    assert np.array_equal(mu, a_hat @ h @ params.w_mu)
    assert np.array_equal(logvar, a_hat @ h @ params.w_logvar)


def test_encode_validates_shapes(rng):
    g, _ = small_setup(rng)
    params = glorot_init(g.n_nodes, tiny_config(), np.random.default_rng(0))
    with pytest.raises(ValueError):
        encode(Propagation(g.n_nodes + 1, g.edges), params)
    fewer = g.edges[g.edges.max(axis=1) < g.n_nodes - 1]
    with pytest.raises(ValueError):
        encode(Propagation(g.n_nodes - 1, fewer), params)
    with pytest.raises(ValueError):
        Propagation(g.n_nodes, g.edges) @ np.ones((g.n_nodes - 1, 2))


# --- decoder and losses ---


def test_edge_probabilities_sigmoid_hand_value():
    # z_0 . z_1 = 4.0; sigma(4) = 0.98201...
    z = np.array([[2.0, 0.0], [2.0, 0.0]])
    (p,) = edge_probabilities(z, [0], [1])
    assert p == pytest.approx(0.9820137900379085, abs=1e-12)


def test_edge_probabilities_clips_to_open_interval():
    z = np.array([[100.0], [100.0], [-100.0]])
    assert edge_probabilities(z, [0, 0], [1, 2]).tolist() == [1.0 - 1e-12, 1e-12]
    assert edge_probabilities(z, [], []).shape == (0,)
    with pytest.raises(IndexError):
        edge_probabilities(z, [0], [9])
    with pytest.raises(IndexError):
        edge_probabilities(z, [-1], [0])


def test_edge_probabilities_rejects_malformed_index_arrays():
    z = np.zeros((3, 2))
    with pytest.raises(ValueError):
        edge_probabilities(z, [0, 1], [2])
    with pytest.raises(ValueError):
        edge_probabilities(z, [[0, 1]], [[1, 2]])


@pytest.mark.parametrize("latent_dim", [1, 2, 16, 17, 64])
def test_edge_probabilities_equal_scalar_reference_bit_for_bit(latent_dim):
    # each score must not depend on the other pairs in the call: a gemm
    # over blocks of pairs reassociates the dot product at some widths
    rng = np.random.default_rng(latent_dim)
    z = rng.standard_normal((40, latent_dim))
    rows = rng.integers(0, 40, size=300)
    cols = rng.integers(0, 40, size=300)
    # the scalar decoder this scorer replaced, one pair per call
    reference = [
        np.clip(_sigmoid(np.array([float(z[i] @ z[j])]))[0], 1e-12, 1.0 - 1e-12)
        for i, j in zip(rows, cols)
    ]
    assert np.array_equal(edge_probabilities(z, rows, cols), np.array(reference))


def masked_sigmoid(x):
    """The boolean-mask sigmoid the shared exp(-|x|) form replaced."""
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_sigmoid_equals_masked_form_bit_for_bit(rng):
    edge = np.array([0.0, -0.0, 1e-300, -1e-300, 40.0, -40.0, 800.0, -800.0])
    for x in (edge, rng.normal(scale=30.0, size=500), np.array([])):
        assert _sigmoid(x).tobytes() == masked_sigmoid(x).tobytes()


def test_reconstruction_loss_at_zero_latent_is_ln2():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    z = np.zeros((2, 3))
    assert _bce(z @ z.T, np.nonzero(a), 1.0, 4, _Workspace(4))[0] / 4 == pytest.approx(
        math.log(2.0), abs=1e-15
    )


def test_reconstruction_loss_pos_weight_scales_positive_terms():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    z = np.zeros((2, 3))
    # at z=0 every pair contributes ln2; positives are half the mass here
    base = _bce(z @ z.T, np.nonzero(a), 1.0, 4, _Workspace(4))[0] / 4
    up = _bce(z @ z.T, np.nonzero(a), 3.0, 4, _Workspace(4))[0] / 4
    assert up == pytest.approx(base + 2 * math.log(2.0) * 2 / 4, abs=1e-12)
    with pytest.raises(ValueError):
        _bce(z @ z.T, np.nonzero(a), 0.0, 4, _Workspace(4))


def test_reconstruction_loss_finite_for_extreme_latents():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    z = np.array([[1e3, 0.0], [-1e3, 0.0]])
    assert np.isfinite(_bce(z @ z.T, np.nonzero(a), 5.0, 4, _Workspace(4))[0])


LOG_LO, LOG_HI = math.log(1e-12), math.log1p(-1e-12)


def softplus(x):
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def dense_loss_reference(params, a_hat, a, pos_weight, kl_weight, noise):
    """The full-matrix objective against a dense 0/1 target ``a``, as it
    was before the one-pass form, with Â a `SegmentedReference`; also
    returns S and both log terms."""
    n = a.shape[0]
    m = a_hat @ params.w_shared
    ah = a_hat @ np.maximum(m, 0.0)
    mu, logvar = ah @ params.w_mu, ah @ params.w_logvar
    std = np.exp(logvar / 2.0)
    z = mu + std * noise
    s = z @ z.T
    logp_raw = -softplus(-s)
    log1mp_raw = -softplus(s)
    logp = np.clip(logp_raw, LOG_LO, LOG_HI)
    log1mp = np.clip(log1mp_raw, LOG_LO, LOG_HI)
    bce = float(-(pos_weight * a * logp + (1.0 - a) * log1mp).sum() / a.size)
    kl = kl_divergence(mu, logvar)
    sig = masked_sigmoid(s)
    m1 = (logp_raw > LOG_LO) & (logp_raw < LOG_HI)
    m2 = (log1mp_raw > LOG_LO) & (log1mp_raw < LOG_HI)
    g_s = (-pos_weight * a * (1.0 - sig) * m1 + (1.0 - a) * sig * m2) / a.size
    g_z = (g_s + g_s.T) @ z
    g_mu = g_z + kl_weight * mu / n
    g_logvar = g_z * noise * 0.5 * std + kl_weight * 0.5 / n * (np.exp(logvar) - 1.0)
    g_h = a_hat @ (g_mu @ params.w_mu.T + g_logvar @ params.w_logvar.T)
    grads = {
        "w_shared": a_hat.T @ (g_h * (m > 0.0)),
        "w_mu": ah.T @ g_mu,
        "w_logvar": ah.T @ g_logvar,
    }
    return bce, kl, grads, s, logp_raw, log1mp_raw


def test_loss_and_grads_equals_dense_reference_bit_for_bit(rng):
    corpus = load_corpus(fixture_corpus_path())
    fixture = build_graph([s for d in corpus.dialogues for s in d.gold_states])
    cases = [(fixture, 0), (planted_graph(), 0)]
    cases += [(random_bipartite_graph(rng, 4, 30, 0.2), k) for k in (1, 5)]
    cfg = tiny_config()
    for g, n_isolated in cases:
        n = g.n_nodes + n_isolated
        split = split_edges(g, 0.85, 0.10, 0.05, seed=1)
        prop = Propagation(n, split.train)
        a_hat = SegmentedReference(dense_reference(n, split.train))
        a = np.zeros((n, n))
        for i, j in split.train:
            a[i, j] = a[j, i] = 1.0
        pos_weight = (n * n - a.sum()) / a.sum()
        base = glorot_init(n, cfg, np.random.default_rng(0))
        noise = np.random.default_rng(1).standard_normal((n, cfg.latent_dim))
        for scale in (1, 30, 300):
            params = VgaeParams(
                w_shared=scale * base.w_shared, w_mu=base.w_mu, w_logvar=base.w_logvar
            )
            bce, kl, grads, s, logp_raw, log1mp_raw = dense_loss_reference(
                params, a_hat, a, pos_weight, 0.5, noise
            )
            got = loss_and_grads(params, prop, 0.5, noise, workspace())
            assert got[0] == bce and got[1] == kl
            for name, want in grads.items():
                # tobytes also tells -0.0 from 0.0
                assert got[2][name].tobytes() == want.tobytes(), name
            # the 2G form of G + G^T rests on z @ z.T being exactly symmetric
            assert np.array_equal(s, s.T)
            if scale > 1:
                # both clamps fire: log sigma and log(1 - sigma) reach log 1e-12
                assert (logp_raw < LOG_LO).any() and (log1mp_raw < LOG_LO).any()
            if scale == 300:
                # also at training edges, where the gathered terms are used
                assert (logp_raw[a == 1.0] < LOG_LO).any()


def test_kl_divergence_hand_values():
    assert kl_divergence(np.zeros((4, 2)), np.zeros((4, 2))) == 0.0
    mu = np.array([[1.0]])
    assert kl_divergence(mu, np.zeros_like(mu)) == pytest.approx(0.5, abs=1e-12)


def test_kl_divergence_nonnegative(rng):
    for _ in range(200):
        shape = (int(rng.integers(1, 6)), int(rng.integers(1, 5)))
        mu = rng.normal(scale=3.0, size=shape)
        logvar = rng.normal(scale=2.0, size=shape)
        assert kl_divergence(mu, logvar) >= 0.0


# --- tiles of the objective ---


def fixture_graph():
    corpus = load_corpus(fixture_corpus_path())
    return build_graph([s for d in corpus.dialogues for s in d.gold_states])


def uneven_block_budget(n):
    """A block budget of n // 3 - 1 rows of n floats, the last of at least
    3 such blocks shorter: `Propagation` cuts its segmented sum of an
    operand of d <= n columns into chunks of at most n * (n // 3 - 1) / d
    nonzeros."""
    rows = n // 3 - 1
    assert rows >= 1 and n % rows and n // rows >= 3
    return 8 * n * rows


def uneven_tiles(monkeypatch, n, narrow=True):
    """Patch the tile constants to bands of n // 3 - 1 rows, at least 3 of
    them and the last shorter.  A ``narrow`` tile is one column wider than
    a band is high, so the rest of a band's rows spans several tiles;
    otherwise it is n columns wide, one tile, and the objective is the row
    block objective of `reference_bce_grad_z` bit for bit."""
    rows = n // 3 - 1
    assert rows >= 1 and n % rows and n // rows >= 3
    cols = rows + 1 if narrow else n
    assert not narrow or (n - rows) % cols and (n - rows) // cols >= 2
    monkeypatch.setattr("dstgraph.vgae._TILE_ROWS", rows)
    monkeypatch.setattr("dstgraph.vgae._TILE_COLS", cols)


def all_rankings(params, g):
    """Every domain's full candidate ranking, as (domain, slot-value) labels."""
    ranker = CandidateRanker(mean_embeddings(params, g), g, g.n_nodes**2)
    domains = [v.index for v in g.nodes if v.kind is NodeKind.DOMAIN]
    return [
        [(rec["domain_label"], rec["slotvalue_label"]) for rec in ranker.rank([d])]
        for d in domains
    ]


def assert_within_1e_12(got, want):
    """Loss terms within 1e-12 relative; each gradient within 1e-12 of its
    largest entry."""
    assert got[0] == pytest.approx(want[0], rel=1e-12, abs=0.0)
    assert got[1] == pytest.approx(want[1], rel=1e-12, abs=0.0)
    for name, w in want[2].items():
        assert np.max(np.abs(got[2][name] - w)) <= 1e-12 * np.max(np.abs(w)), name


@pytest.mark.parametrize("make_graph", [fixture_graph, planted_graph])
def test_blocked_loss_and_grads_match_one_block(make_graph, monkeypatch):
    g = make_graph()
    n = g.n_nodes
    split = split_edges(g, 0.85, 0.10, 0.05, seed=1)
    cfg = tiny_config()
    base = glorot_init(n, cfg, np.random.default_rng(0))
    noise = np.random.default_rng(1).standard_normal((n, cfg.latent_dim))
    # 300 drives both clamps, at training edges too
    params = [
        VgaeParams(w_shared=scale * base.w_shared, w_mu=base.w_mu, w_logvar=base.w_logvar)
        for scale in (1, 300)
    ]
    one_block = Propagation(n, split.train)
    assert n <= vgae._TILE_ROWS
    want = [loss_and_grads(p, one_block, 0.5, noise, workspace()) for p in params]
    monkeypatch.setattr("dstgraph.vgae._BLOCK_BYTES", uneven_block_budget(n))
    uneven_tiles(monkeypatch, n)
    blocked = Propagation(n, split.train)
    eye = np.eye(n)
    assert (blocked @ eye).tobytes() == (one_block @ eye).tobytes()
    for p, w in zip(params, want):
        assert_within_1e_12(loss_and_grads(p, blocked, 0.5, noise, workspace()), w)


@pytest.mark.parametrize("make_graph", [fixture_graph, planted_graph])
def test_blocked_training_matches_one_block(make_graph, monkeypatch):
    cfg = tiny_config(epochs=20, seed=4)
    g = make_graph()
    split = split_edges(g, 0.85, 0.10, 0.05, seed=1)
    want, want_history = train(g, split, cfg)
    want_rankings = all_rankings(want, g)

    # every operator built from here on is blocked, and S is scored in
    # several tiles per band, on the same graph
    monkeypatch.setattr("dstgraph.vgae._BLOCK_BYTES", uneven_block_budget(g.n_nodes))
    uneven_tiles(monkeypatch, g.n_nodes)
    got, history = train(g, split, cfg)
    for name in ("w_shared", "w_mu", "w_logvar"):
        assert np.max(np.abs(getattr(got, name) - getattr(want, name))) <= 1e-12, name
    assert [r.val_auc for r in history] == [r.val_auc for r in want_history]
    assert all_rankings(got, g) == want_rankings


def reference_bce(s, pos_index, pos_weight, n_pairs):
    """The objective's BCE as it was before its workspace: each dense step
    allocates a new array; the arithmetic and its order are the same."""
    lo, hi = vgae._SP_LO, vgae._SP_HI
    t = np.abs(s)
    np.exp(np.negative(t, out=t), out=t)
    g = np.maximum(t, s >= 0)  # sigma(S), turned into dBCE/dS in place
    g /= 1.0 + t
    np.log1p(t, out=t)
    sp_pos = np.maximum(-s[pos_index], 0.0) + t[pos_index]
    sig_pos = g[pos_index]
    t += np.maximum(s, 0.0, out=s)
    g *= (t > lo) & (t < hi)
    np.clip(t, lo, hi, out=t)
    t[pos_index] = pos_weight * np.clip(sp_pos, lo, hi)
    keep_pos = (sp_pos > lo) & (sp_pos < hi)
    g[pos_index] = -pos_weight * (1.0 - sig_pos) * keep_pos
    g /= n_pairs
    return t.sum(), g


def reference_bce_grad_z(z, pos_index, pos_weight, work=None):
    """The objective in row blocks, as it was before its tiles and its
    workspace: block i:j scores its square and the whole rectangle right of
    it, each a new array.  Blocks are `_TILE_ROWS` high, so that with tiles
    as wide as S each band is one block and the tiled objective is this one
    bit for bit.  ``work`` is ignored."""
    n = z.shape[0]
    block_rows = vgae._TILE_ROWS
    rows, cols = pos_index
    bounds = np.searchsorted(rows, np.arange(0, n + block_rows, block_rows))
    g_z = np.empty_like(z)
    total = 0.0
    for k in reversed(range(len(bounds) - 1)):
        i = k * block_rows
        j = min(i + block_rows, n)
        zb = z[i:j]
        r, c = rows[bounds[k]:bounds[k + 1]] - i, cols[bounds[k]:bounds[k + 1]]
        sq, rect = (c >= i) & (c < j), c >= j
        t_sum, g = reference_bce(zb @ zb.T, (r[sq], c[sq] - i), pos_weight, n * n)
        g *= 2.0
        g_zb = g @ zb
        if j < n:
            t_rect, g = reference_bce(zb @ z[j:].T, (r[rect], c[rect] - j), pos_weight, n * n)
            t_sum += 2.0 * t_rect
            g_zb += 2.0 * (g @ z[j:])
            g_z[j:] += 2.0 * (g.T @ zb)
        g_z[i:j] = g_zb
        total += t_sum
    return float(total / (n * n)), g_z


def isolated_nodes_case():
    """A random graph plus 5 isolated nodes, as (n, edges)."""
    g = random_bipartite_graph(np.random.default_rng(1234), 4, 30, 0.2)
    return g.n_nodes + 5, split_edges(g, 0.85, 0.10, 0.05, seed=1).train


def graph_case(make_graph):
    g = make_graph()
    return g.n_nodes, split_edges(g, 0.85, 0.10, 0.05, seed=1).train


@pytest.mark.parametrize(
    "case, uneven",
    [
        (lambda: graph_case(fixture_graph), True),
        (lambda: graph_case(planted_graph), True),
        (isolated_nodes_case, True),
        (lambda: graph_case(multi_block_graph), False),
        (lambda: graph_case(multi_block_graph), True),
    ],
    ids=["fixture-uneven", "planted-uneven", "isolated-uneven", "multi-block-shipped",
         "multi-block-uneven"],
)
def test_loss_and_grads_equals_allocating_reference_bit_for_bit(case, uneven, monkeypatch):
    n, train_edges = case()
    # bands of the shipped height or of an uneven one, each scored in one
    # tile as wide as S, as the reference scores a row block
    if uneven:
        uneven_tiles(monkeypatch, n, narrow=False)
    else:
        monkeypatch.setattr("dstgraph.vgae._TILE_COLS", n)
    assert vgae._TILE_ROWS <= n // 3
    prop = Propagation(n, train_edges)
    cfg = tiny_config()
    base = glorot_init(n, cfg, np.random.default_rng(0))
    noise = np.random.default_rng(1).standard_normal((n, cfg.latent_dim))
    work = workspace()  # reused by every call below
    for scale in (1, 30, 300):  # 30 and 300 drive both clamps
        params = VgaeParams(
            w_shared=scale * base.w_shared, w_mu=base.w_mu, w_logvar=base.w_logvar
        )
        with monkeypatch.context() as m:
            m.setattr("dstgraph.vgae._bce_grad_z", reference_bce_grad_z)
            want = loss_and_grads(params, prop, 0.5, noise, workspace())
        # the reused workspace, and a fresh one
        for got in (loss_and_grads(params, prop, 0.5, noise, work),
                    loss_and_grads(params, prop, 0.5, noise, workspace())):
            assert got[0] == want[0] and got[1] == want[1]
            for name, w in want[2].items():
                assert got[2][name].tobytes() == w.tobytes(), name


@pytest.mark.parametrize(
    "case",
    [lambda: graph_case(fixture_graph), lambda: graph_case(planted_graph),
     isolated_nodes_case, lambda: graph_case(multi_block_graph)],
    ids=["fixture-uneven", "planted-uneven", "isolated-uneven", "multi-block-shipped"],
)
def test_tiled_loss_and_grads_match_row_block_reference(case, monkeypatch):
    # several tiles right of each band's square; the small graphs in
    # uneven tiles, the large one in the shipped tiles
    n, train_edges = case()
    if n <= vgae._TILE_ROWS:
        uneven_tiles(monkeypatch, n)
    assert vgae._TILE_ROWS <= n // 3 and n - vgae._TILE_ROWS > 2 * vgae._TILE_COLS
    prop = Propagation(n, train_edges)
    cfg = tiny_config()
    base = glorot_init(n, cfg, np.random.default_rng(0))
    noise = np.random.default_rng(1).standard_normal((n, cfg.latent_dim))
    for scale in (1, 30, 300):  # 30 and 300 drive both clamps
        params = VgaeParams(
            w_shared=scale * base.w_shared, w_mu=base.w_mu, w_logvar=base.w_logvar
        )
        with monkeypatch.context() as m:
            m.setattr("dstgraph.vgae._bce_grad_z", reference_bce_grad_z)
            want = loss_and_grads(params, prop, 0.5, noise, workspace())
        assert_within_1e_12(loss_and_grads(params, prop, 0.5, noise, workspace()), want)


def test_objective_allocates_less_than_one_block_given_its_workspace(monkeypatch):
    g = multi_block_graph()
    n = g.n_nodes
    prop = Propagation(n, g.edges)
    off_diagonal = prop.rows != prop.cols
    pos_index = (prop.rows[off_diagonal], prop.cols[off_diagonal])
    pos_weight = (n * n - len(pos_index[0])) / len(pos_index[0])
    z = np.random.default_rng(0).standard_normal((n, 16))
    want = reference_bce_grad_z(z, pos_index, pos_weight)
    # the shipped tiles, then tiles as wide as S, whose bands are the
    # reference's row blocks
    for cols in (vgae._TILE_COLS, n):
        monkeypatch.setattr("dstgraph.vgae._TILE_COLS", cols)
        work = workspace()
        tracemalloc.start()
        try:
            got = vgae._bce_grad_z(z, pos_index, pos_weight, work)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the n x 16 gradient, a tile's two products of at most n x 16 and the
        # small index arrays; one block's allocating BCE alone takes several
        # times the budget
        assert peak < vgae._BLOCK_BYTES
        if cols == n:
            assert got[0] == want[0] and got[1].tobytes() == want[1].tobytes()
        else:
            assert got[0] == pytest.approx(want[0], rel=1e-12, abs=0.0)
            assert np.max(np.abs(got[1] - want[1])) <= 1e-12 * np.max(np.abs(want[1]))


def test_train_and_gradient_check_make_one_workspace_each(rng, monkeypatch):
    made = []

    class Counting(vgae._Workspace):
        def __init__(self, size):
            made.append(size)
            super().__init__(size)

    monkeypatch.setattr("dstgraph.vgae._Workspace", Counting)
    tile = vgae._TILE_ROWS * vgae._TILE_COLS
    # one tile's entries, whatever n is
    for g in (multi_block_graph(), sparse_planted_graph()):
        made.clear()
        train(g, split_edges(g, 0.85, 0.10, 0.05, seed=1), tiny_config(epochs=1))
        assert made == [tile], g.n_nodes
    g, split = small_setup(rng)
    cfg = tiny_config(epochs=5)
    made.clear()
    params, _ = train(g, split, cfg)
    assert made == [tile]
    gradient_check(params, g, split, cfg, n_samples=4)
    assert made == [tile] * 2


def test_concurrent_trainings_match_sequential_bit_for_bit():
    g = multi_block_graph()
    split = split_edges(g, 0.85, 0.10, 0.05, seed=1)
    # two seeds, so that a workspace shared between the runs would show
    configs = [TrainConfig(epochs=3, seed=seed) for seed in (1, 2)]
    want = [train(g, split, cfg) for cfg in configs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            got = list(pool.map(lambda cfg: train(g, split, cfg), configs, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for (params, history), (want_params, want_history) in zip(got, want):
        assert history == want_history
        for name in ("w_shared", "w_mu", "w_logvar"):
            assert getattr(params, name).tobytes() == getattr(want_params, name).tobytes()


def test_objective_scores_each_pair_once(monkeypatch):
    # in the shipped tiles, on a graph that spans many bands and tiles
    g = multi_block_graph()
    n = g.n_nodes
    split = split_edges(g, 0.85, 0.10, 0.05, seed=1)
    cfg = TrainConfig(seed=1)
    prop = Propagation(n, split.train)
    b, w = vgae._TILE_ROWS, vgae._TILE_COLS
    assert b <= n // 3 and n - b > 2 * w
    params = glorot_init(n, cfg, np.random.default_rng(0))
    noise = np.random.default_rng(1).standard_normal((n, cfg.latent_dim))
    scored = []

    def counting_bce(s, *args):
        scored.append(s.size)
        return _bce(s, *args)

    monkeypatch.setattr("dstgraph.vgae._bce", counting_bce)
    loss_and_grads(params, prop, 1.0, noise, workspace())
    # the square on the diagonal and the rest of the band right of it, in
    # tiles at most w wide, per band
    want, tiles = 0, 0
    for i in range(0, n, b):
        j = min(i + b, n)
        want += (j - i) ** 2 + (j - i) * (n - j)
        tiles += 1 + -(-(n - j) // w)
    assert sum(scored) == want and len(scored) == tiles
    assert max(scored) <= b * w
    assert want <= n * (n + b) / 2


def test_blocked_pipeline_allocates_no_n_by_n_array():
    # at the shipped budget and tiles, on a graph that spans many tiles
    g = planted_graph(n_domains=30, values_per_domain=50, intra_p=0.1, inter_p=0.002)
    n = g.n_nodes
    split = split_edges(g, 0.85, 0.10, 0.05, seed=1)
    cfg = TrainConfig(epochs=2, seed=1)
    prop = Propagation(n, split.train)
    assert vgae._TILE_ROWS <= n // 3
    params = glorot_init(n, cfg, np.random.default_rng(0))
    noise = np.random.default_rng(1).standard_normal((n, cfg.latent_dim))
    domain = next(v.index for v in g.nodes if v.kind is NodeKind.DOMAIN)

    def peak_bytes(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    n_by_n = 8 * n * n

    def one_loss():
        loss_and_grads(params, prop, 1.0, noise, workspace())

    assert peak_bytes(one_loss) < n_by_n
    assert peak_bytes(lambda: encode(Propagation(n, g.edges), params)) < n_by_n
    assert peak_bytes(lambda: train(g, split, cfg)) < n_by_n
    assert peak_bytes(lambda: evaluate_split(params, g, split)) < n_by_n
    mu = mean_embeddings(params, g)
    assert peak_bytes(lambda: CandidateRanker(mu, g, 5).rank([domain])) < n_by_n


def sparse_planted_graph():
    """8,080 nodes and 462 edges: the n x d arrays and the workspace, not
    Â, make up what one training epoch holds."""
    return planted_graph(80, values_per_domain=100, intra_p=0.02, inter_p=0.0005, seed=1)


def traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_one_training_epoch_holds_no_per_epoch_temporaries():
    g = sparse_planted_graph()
    split = split_edges(g, 0.85, 0.10, 0.05, seed=1)
    one, two = (
        traced_peak(lambda: train(g, split, TrainConfig(epochs=epochs, seed=1)))
        for epochs in (1, 2)
    )
    # the weights, both Adam moments, the 1.06 MiB workspace and the live
    # activations take about 16.7 MiB; the epoch peaked at 19.9 MiB with
    # a 4.25 MiB workspace of row blocks, and at 29.5 MiB while it held
    # every activation, gradient and Adam temporary at once
    assert one < 19 * 2**20
    # nothing outlives its epoch: the validation embeddings, 2 MiB, did
    assert two < one + 2**19


def test_checkpoint_save_holds_one_block_of_rows(tmp_path):
    g = sparse_planted_graph()
    cfg = TrainConfig(seed=1)
    params = glorot_init(g.n_nodes, cfg, np.random.default_rng(0))
    path = tmp_path / "model.json"
    peak = traced_peak(lambda: save_checkpoint(path, params, cfg))
    # the whole payload as Python floats and one text took 19.6 MiB
    assert peak < 10**6
    assert np.array_equal(load_checkpoint(path)[0].w_shared, params.w_shared)


def test_propagation_and_encode_run_past_131072_nodes():
    # one row of 131,073 float64 entries exceeds the 1 MiB block budget;
    # nothing of a model stage is sized by such a row
    n = 140_000
    edges = np.array([[0, 1], [2, n - 1], [n - 3, 5]])
    cfg = TrainConfig(hidden_dim=4, latent_dim=2)
    params = glorot_init(n, cfg, np.random.default_rng(0))
    got = []
    peak = traced_peak(lambda: got.append(encode(Propagation(n, edges), params)))
    # the operator's four n-long arrays and the four n x d activations
    # take 128 bytes a node; an n x n array would take 157 GB
    assert peak < 160 * n
    mu, logvar = got[0]
    # an isolated node's Â row is its own: mu = relu(W_s[k]) W_mu
    k = n // 2
    want = np.maximum(params.w_shared[k:k + 1], 0.0) @ params.w_mu
    assert np.allclose(mu[k:k + 1], want, rtol=1e-15, atol=0.0)
    assert mu.shape == logvar.shape == (n, 2) and np.all(np.isfinite(logvar))


def test_training_bits_do_not_depend_on_the_block_budget(tmp_path, monkeypatch):
    # under every budget, Â's segmented sum is chunked differently and S is
    # scored in the same tiles.  The goldens' 28-node fixture graph: the 82
    # nonzeros of its full Â, and the fewer of its training Â, in one chunk
    # of an n x 32 operand, then in chunks of 20 nonzeros and of one row.
    # Then 1,008 nodes: 16 bands of S, most with two tiles right of the
    # square.
    fixture = fixture_graph()
    assert len(Propagation(fixture.n_nodes, fixture.edges).cols) == 82
    large = planted_graph(n_domains=8, values_per_domain=125, intra_p=0.1, inter_p=0.005)
    cases = [
        (fixture, (1 << 20, 8 * 32 * 20, 8)),
        (large, (1 << 20, 1 << 22, 3 * 8 * large.n_nodes * 37)),
    ]
    cfg = TrainConfig(epochs=5, seed=1)
    for g, budgets in cases:
        split = split_edges(g, 0.85, 0.10, 0.05, seed=1)
        checkpoints = set()
        for budget in budgets:
            monkeypatch.setattr("dstgraph.vgae._BLOCK_BYTES", budget)
            params, _ = train(g, split, cfg)
            path = tmp_path / f"model-{g.n_nodes}-{budget}.json"
            save_checkpoint(path, params, cfg)
            checkpoints.add(path.read_bytes())
        assert len(checkpoints) == 1, g.n_nodes


def multi_block_graph():
    """1,530 nodes: more than one block at the shipped budget, and 24 bands
    of S with two or three tiles right of most squares."""
    return planted_graph(n_domains=30, values_per_domain=50, intra_p=0.1, inter_p=0.002)


def test_multi_block_propagation_does_not_depend_on_block_budget(monkeypatch):
    g = multi_block_graph()
    n = g.n_nodes
    w = np.random.default_rng(0).standard_normal((n, 32))
    products = set()
    for rows in (100, 64, 8):
        monkeypatch.setattr("dstgraph.vgae._BLOCK_BYTES", 8 * n * rows)
        prop = Propagation(n, g.edges)
        products.add((prop @ w).tobytes())
    assert len(products) == 1
    got = np.frombuffer(products.pop()).reshape(n, 32)
    assert np.max(np.abs(got - dense_reference(n, g.edges) @ w)) <= 1e-15


def dense_bipartite_graph():
    """2,020 nodes with 43,452 nonzeros in Â: the weighted operand rows of one
    n x 32 product span many block budgets."""
    return planted_graph(n_domains=20, values_per_domain=100, intra_p=0.9, inter_p=0.5)


def test_segmented_sum_chunks_match_one_reduceat_bit_for_bit(monkeypatch):
    g = dense_bipartite_graph()
    prop = Propagation(g.n_nodes, g.edges)
    x = np.random.default_rng(0).standard_normal((g.n_nodes, 32))
    want = np.add.reduceat(x[prop.cols] * prop.weights[:, None], prop.row_start[:-1])
    assert len(prop.cols) * 32 * 8 > 8 * vgae._BLOCK_BYTES  # at least 9 chunks
    assert (prop @ x).tobytes() == want.tobytes()
    # a budget below one row's nonzeros still takes whole rows, one per
    # chunk; at 1,000 nonzeros a domain row fills a chunk alone and a run of
    # slot-value rows shares one, so the chunks gathered into the one
    # buffer differ in length
    for budget_rows in (4, 1000):
        monkeypatch.setattr("dstgraph.vgae._BLOCK_BYTES", 8 * 32 * budget_rows)
        assert (prop @ x).tobytes() == want.tobytes()


def test_segmented_sum_of_a_graph_without_nodes_is_empty():
    prop = Propagation(0, np.empty((0, 2), dtype=np.int64))
    assert (prop @ np.empty((0, 3))).shape == (0, 3)


def test_segmented_sum_memory_is_bounded_by_the_block_budget():
    g = dense_bipartite_graph()
    n = g.n_nodes
    prop = Propagation(n, g.edges)
    x = np.random.default_rng(0).standard_normal((n, 32))
    tracemalloc.start()
    try:
        prop @ x
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the n x 32 result plus one chunk of weighted operand rows, with room
    # for the small index arrays; a single nnz x 32 gather takes 11 MB
    assert peak < 8 * n * 32 + 2 * vgae._BLOCK_BYTES


@pytest.mark.parametrize("make_graph", [fixture_graph, multi_block_graph])
def test_one_operator_serves_threads_bit_for_bit(make_graph):
    g = make_graph()
    prop = Propagation(g.n_nodes, g.edges)
    rng = np.random.default_rng(0)
    operands = [rng.standard_normal((g.n_nodes, 32)) for _ in range(8)]
    want = [(prop @ x).tobytes() for x in operands]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            for _ in range(5):
                got = pool.map(lambda x: (prop @ x).tobytes(), operands, timeout=60)
                assert list(got) == want
    finally:
        sys.setswitchinterval(interval)


def test_propagation_arrays_are_read_only(rng):
    g, _ = small_setup(rng)
    big = multi_block_graph()
    for graph in (g, big):
        prop = Propagation(graph.n_nodes, graph.edges)
        for a in (prop.rows, prop.cols, prop.weights, prop.row_start):
            assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            prop.weights[0] = 1.0


# --- initialization ---


def test_glorot_init_bounds_and_determinism():
    cfg = tiny_config()
    p1 = glorot_init(10, cfg, np.random.default_rng(9))
    p2 = glorot_init(10, cfg, np.random.default_rng(9))
    assert np.array_equal(p1.w_shared, p2.w_shared)
    assert np.array_equal(p1.w_mu, p2.w_mu)
    assert p1.w_shared.shape == (10, cfg.hidden_dim)
    assert p1.w_mu.shape == (cfg.hidden_dim, cfg.latent_dim)
    limit = math.sqrt(6.0 / (10 + cfg.hidden_dim))
    assert np.abs(p1.w_shared).max() <= limit
    limit2 = math.sqrt(6.0 / (cfg.hidden_dim + cfg.latent_dim))
    assert np.abs(p1.w_mu).max() <= limit2
    assert not np.array_equal(p1.w_mu, p1.w_logvar)


def test_vgae_params_validation():
    with pytest.raises(ValueError):
        VgaeParams(
            w_shared=np.zeros((4, 3)), w_mu=np.zeros((5, 2)), w_logvar=np.zeros((5, 2))
        )
    with pytest.raises(ValueError):
        VgaeParams(
            w_shared=np.full((4, 3), np.nan),
            w_mu=np.zeros((3, 2)),
            w_logvar=np.zeros((3, 2)),
        )


# --- training loop ---


def test_train_history_and_determinism(rng):
    g, split = small_setup(rng)
    cfg = tiny_config(seed=3)
    params1, hist1 = train(g, split, cfg)
    params2, hist2 = train(g, split, cfg)
    assert np.array_equal(params1.w_shared, params2.w_shared)
    assert hist1 == hist2
    assert len(hist1) == cfg.epochs
    assert [r.epoch for r in hist1] == list(range(1, cfg.epochs + 1))
    assert all(np.isfinite(r.total) for r in hist1)
    assert all(r.total == r.bce + cfg.kl_weight * r.kl for r in hist1)
    assert hist1[-1].bce < hist1[0].bce  # it actually learns


def test_train_seed_changes_outcome(rng):
    g, split = small_setup(rng)
    p1, _ = train(g, split, tiny_config(seed=0))
    p2, _ = train(g, split, tiny_config(seed=1))
    assert not np.array_equal(p1.w_shared, p2.w_shared)


def test_train_records_val_auc_iff_val_edges(rng):
    g, split = small_setup(rng)
    _, hist = train(g, split, tiny_config(epochs=3))
    if len(split.val):
        assert all(r.val_auc is not None for r in hist)
        assert all(0.0 <= r.val_auc <= 1.0 for r in hist)


def test_train_val_auc_is_auc_of_held_out_scores_at_glorot_params():
    g = planted_graph(n_domains=12)
    split = split_edges(g, 0.85, 0.10, 0.05, seed=1)
    assert len(split.val) >= 10 and len(split.neg_val) >= 10
    cfg = tiny_config(epochs=1, seed=3)
    _, history = train(g, split, cfg)
    # record 1 is taken at the initial weights, Glorot's first draw of the seed
    params = glorot_init(g.n_nodes, cfg, np.random.default_rng(cfg.seed))
    mu = mean_embeddings(params, g)
    assert history[0].val_auc == auc(*held_out_scores(mu, split.val, split.neg_val))


def test_held_out_scores_are_edges_then_negatives_with_their_labels():
    g = planted_graph(n_domains=12)
    split = split_edges(g, 0.85, 0.10, 0.05, seed=1)
    params = glorot_init(g.n_nodes, tiny_config(), np.random.default_rng(0))
    mu = mean_embeddings(params, g)
    scores, labels = held_out_scores(mu, split.test, split.neg_test)
    k = len(split.test)
    assert scores.tobytes() == np.concatenate(
        [edge_probabilities(mu, *split.test.T), edge_probabilities(mu, *split.neg_test.T)]
    ).tobytes()
    assert labels.tolist() == [True] * k + [False] * len(split.neg_test)
    assert evaluate_split(params, g, split) == {
        "auc": auc(scores, labels), "ap": average_precision(scores, labels)
    }


def test_train_adjacency_contains_only_train_edges(rng):
    g, split = small_setup(rng)
    n = g.n_nodes
    a_hat = Propagation(n, split.train)
    dense = a_hat @ np.eye(n)
    assert dense.tobytes() == dense_reference(n, split.train).tobytes()
    reference = SegmentedReference(dense)
    # the loss's positives are Â's off-diagonal nonzeros, sorted by row
    off_diagonal = a_hat.rows != a_hat.cols
    rows, cols = a_hat.rows[off_diagonal], a_hat.cols[off_diagonal]
    positives = set(zip(rows.tolist(), cols.tolist()))
    train_edges = edge_set(split.train)
    assert positives == train_edges | {(j, i) for i, j in train_edges}
    assert len(rows) == 2 * len(split.train)
    assert positives.isdisjoint(edge_set(split.test))
    assert np.all(np.diff(rows) >= 0)
    # loss_and_grads scores exactly those positives at this pos_weight
    a = np.zeros((n, n))
    a[rows, cols] = 1.0
    n_pos = 2 * len(split.train)
    pos_weight = (n**2 - n_pos) / n_pos
    params = glorot_init(n, tiny_config(), np.random.default_rng(0))
    noise = np.random.default_rng(1).standard_normal((n, params.latent_dim))
    want = dense_loss_reference(params, reference, a, pos_weight, 0.5, noise)[0]
    assert loss_and_grads(params, a_hat, 0.5, noise, workspace())[0] == want
    other = dense_loss_reference(params, reference, a, 2 * pos_weight, 0.5, noise)[0]
    assert other != want


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_diverges_cleanly_on_huge_learning_rate(rng):
    g, split = small_setup(rng)
    cfg = tiny_config(epochs=200, learning_rate=1e18)
    with pytest.raises(TrainingDiverged) as exc_info:
        train(g, split, cfg)
    assert len(exc_info.value.history) == exc_info.value.epoch


def test_epoch_record_is_plain_data():
    r = EpochRecord(epoch=1, bce=0.5, kl=0.1, total=0.6, val_auc=None)
    assert r.total == 0.6


# --- gradient verification ---


def test_gradient_check_small_graph(rng):
    g, split = small_setup(rng)
    cfg = tiny_config(seed=11)
    params = glorot_init(g.n_nodes, cfg, np.random.default_rng(11))
    assert gradient_check(params, g, split, cfg, n_samples=60) < 1e-4


def test_gradient_check_multi_block(rng, monkeypatch):
    # reaches the rows that gain the transposed tiles of earlier bands
    g, split = small_setup(rng)
    monkeypatch.setattr("dstgraph.vgae._BLOCK_BYTES", uneven_block_budget(g.n_nodes))
    uneven_tiles(monkeypatch, g.n_nodes)
    cfg = tiny_config(seed=11)
    params = glorot_init(g.n_nodes, cfg, np.random.default_rng(11))
    assert gradient_check(params, g, split, cfg, n_samples=60) < 1e-4


def test_gradient_check_epsilon_bounds(rng):
    g, split = small_setup(rng)
    cfg = tiny_config()
    params = glorot_init(g.n_nodes, cfg, np.random.default_rng(0))
    with pytest.raises(ValueError):
        gradient_check(params, g, split, cfg, epsilon=1e-8)
    with pytest.raises(ValueError):
        gradient_check(params, g, split, cfg, epsilon=1e-2)


# --- checkpoints ---


def test_checkpoint_round_trip(tmp_path, rng):
    g, split = small_setup(rng)
    cfg = tiny_config(epochs=5, seed=2)
    params, _ = train(g, split, cfg)
    path = tmp_path / "model.json"
    save_checkpoint(path, params, cfg)
    loaded, loaded_cfg = load_checkpoint(path)
    assert np.array_equal(loaded.w_shared, params.w_shared)
    assert np.array_equal(loaded.w_mu, params.w_mu)
    assert np.array_equal(loaded.w_logvar, params.w_logvar)
    assert loaded_cfg == cfg


def reference_checkpoint_text(params, config) -> str:
    """The checkpoint as one ``json.dumps`` of the whole payload."""
    return json.dumps({
        "format": vgae.CHECKPOINT_FORMAT,
        "version": vgae.CHECKPOINT_VERSION,
        "n_features": params.n_features,
        "hidden_dim": params.hidden_dim,
        "latent_dim": params.latent_dim,
        "config": dataclasses.asdict(config),
        "w_shared": params.w_shared.tolist(),
        "w_mu": params.w_mu.tolist(),
        "w_logvar": params.w_logvar.tolist(),
    })


# the floats whose text json.dumps has to match: a signed zero, the least
# subnormal, a tiny and the largest normal, a power of ten past 2**53 that
# prints with an exponent, and one with no exact binary value
SPECIAL_FLOATS = [-0.0, 5e-324, 1e-300, 1.7976931348623157e308, 1e16, 0.1]
B = vgae._SAVE_ROWS


@pytest.mark.parametrize("rows", [0, 1, B - 1, B, B + 1, 2 * B + 1])
def test_streamed_checkpoint_is_the_json_dumps_of_its_payload(rows, tmp_path):
    rng = np.random.default_rng(rows)

    def matrix(shape):
        w = rng.standard_normal(shape).ravel()
        for k, value in enumerate(SPECIAL_FLOATS[: w.size]):
            w[k] = value if k % 2 else -value
        return w.reshape(shape)

    cfg = TrainConfig(seed=3)
    # ``rows`` rows in the shared layer, then in both heads
    for shared, head in [((rows, 3), (3, 2)), ((2, rows), (rows, 2))]:
        params = VgaeParams(w_shared=matrix(shared), w_mu=matrix(head), w_logvar=matrix(head))
        path = tmp_path / "model.json"
        save_checkpoint(path, params, cfg)
        assert path.read_bytes() == reference_checkpoint_text(params, cfg).encode()


def test_checkpoint_rejects_foreign_json(tmp_path):
    path = tmp_path / "other.json"
    path.write_text('{"format": "something-else", "version": 1}', encoding="utf-8")
    with pytest.raises(ValueError):
        load_checkpoint(path)


def test_checkpoint_locates_malformed_weights(tmp_path, rng):
    g, split = small_setup(rng)
    cfg = tiny_config(epochs=1)
    params, _ = train(g, split, cfg)
    path = tmp_path / "model.json"
    save_checkpoint(path, params, cfg)
    good = json.loads(path.read_text())
    not_numbers = "entries must be numbers, got "
    cases = [
        ("w_shared", lambda w: w[2].pop(), "weight 'w_shared': .*inhomogeneous shape"),
        ("w_logvar", lambda w: w[0].__setitem__(0, "x"), "weight 'w_logvar': "),
        ("w_mu", lambda w: w.pop(), r"inconsistent shapes"),
        # a number written as a string, which a float64 cast would accept
        ("w_mu", lambda w: w[0].__setitem__(0, str(w[0][0])),
         f"weight 'w_mu': {not_numbers}<U"),
        ("w_shared", lambda w: w[1].__setitem__(1, None),
         f"weight 'w_shared': {not_numbers}object"),
        ("w_logvar", lambda w: w.__setitem__(slice(None), [[True] * len(r) for r in w]),
         f"weight 'w_logvar': {not_numbers}bool"),
        # numpy reads a true or false among numbers as 1.0 or 0.0
        ("w_mu", lambda w: w[0].__setitem__(0, True), f"weight 'w_mu': {not_numbers}bool"),
        ("w_shared", lambda w: w.__setitem__(0, [True] * len(w[0])),
         f"weight 'w_shared': {not_numbers}bool"),
        ("w_logvar", lambda w: w[-1].__setitem__(-1, False),
         f"weight 'w_logvar': {not_numbers}bool"),
    ]
    for key, damage, message in cases:
        raw = json.loads(json.dumps(good))
        damage(raw[key])
        path.write_text(json.dumps(raw), encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {message}"):
            load_checkpoint(path)
    del good["w_mu"]
    path.write_text(json.dumps(good), encoding="utf-8")
    with pytest.raises(ValueError, match="no 'w_mu' weights"):
        load_checkpoint(path)


def test_checkpoint_rejects_unknown_version(tmp_path, rng):
    g, split = small_setup(rng)
    cfg = tiny_config(epochs=1)
    params, _ = train(g, split, cfg)
    path = tmp_path / "model.json"
    save_checkpoint(path, params, cfg)
    raw = json.loads(path.read_text())
    raw["version"] = 99
    path.write_text(json.dumps(raw), encoding="utf-8")
    with pytest.raises(ValueError):
        load_checkpoint(path)
