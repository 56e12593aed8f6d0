"""Differential tests pinning :func:`scatter_add` to ``np.add.at``.

The occurrence-rank scatter must be byte-identical to ``ufunc.at``: every
case below compares ``tobytes()`` of the two results.  The size floor, the
narrow-row gate and the hub tail are module constants, so the tests patch
them to drive every path (ufunc.at only, rank rounds only, rounds then tail,
tail only) over the same inputs.
"""

import numpy as np
import pytest

from repro.graph.datasets import load_dataset
from repro.graph.generators import rmat_graph
from repro.nn import tensor_utils as tu
from repro.nn.graphsage import GraphSAGE, SAGELayer
from repro.sampling.neighbor_sampler import LoopNeighborSampler, NeighborSampler

PATHS = {
    # name: (SCATTER_FLOOR, SCATTER_MIN_ROW, SCATTER_MIN_ROUND)
    "default": (tu.SCATTER_FLOOR, tu.SCATTER_MIN_ROW, tu.SCATTER_MIN_ROUND),
    "rounds-only": (0, 1, 0),
    "rounds-then-tail": (0, 1, 64),
    "tail-only": (0, 1, 1 << 62),
}


@pytest.fixture(params=sorted(PATHS))
def path(request, monkeypatch):
    floor, min_row, min_round = PATHS[request.param]
    monkeypatch.setattr(tu, "SCATTER_FLOOR", floor)
    monkeypatch.setattr(tu, "SCATTER_MIN_ROW", min_row)
    monkeypatch.setattr(tu, "SCATTER_MIN_ROUND", min_round)
    return request.param


def assert_matches_ufunc_at(out, index, values, op=np.add):
    expected = out.copy()
    op.at(expected, index, values)
    got = out.copy()
    assert tu.scatter_add(got, index, values, op) is got
    assert got.tobytes() == expected.tobytes()


def _case(rng, num_rows, num_entries, trailing, sort):
    index = rng.integers(0, num_rows, size=num_entries)
    if sort:
        index = np.sort(index)
    values = rng.standard_normal((num_entries,) + trailing).astype(np.float32)
    out = np.zeros((num_rows,) + trailing, dtype=np.float32)
    return out, index, values


@pytest.mark.parametrize("trailing", [(), (3,), (16,), (2, 8)], ids=str)
@pytest.mark.parametrize("sort", [True, False], ids=["sorted", "unsorted"])
def test_matches_add_at_on_every_path(path, trailing, sort):
    rng = np.random.default_rng(len(trailing) + 10 * sort)
    out, index, values = _case(rng, 300, 2000, trailing, sort)
    assert_matches_ufunc_at(out, index, values)


@pytest.mark.parametrize("num_entries", [40, 4000], ids=["below-floor", "above-floor"])
def test_both_sides_of_the_default_floor(num_entries):
    rng = np.random.default_rng(num_entries)
    out, index, values = _case(rng, num_entries // 8, num_entries, (16,), sort=False)
    assert (values.size >= tu.SCATTER_FLOOR) == (num_entries == 4000)
    assert_matches_ufunc_at(out, index, values)


def test_empty_index(path):
    out = np.ones((4, 16), dtype=np.float32)
    assert_matches_ufunc_at(out, np.zeros(0, dtype=np.int64), np.zeros((0, 16), np.float32))


def test_non_contiguous_values_and_nonzero_out(path):
    rng = np.random.default_rng(3)
    base = rng.standard_normal((3000, 40)).astype(np.float32)
    values = base[::2, ::2]  # strided in both dimensions
    assert not values.flags.c_contiguous
    index = rng.integers(0, 200, size=len(values))
    out = rng.standard_normal((200, 20)).astype(np.float32)
    assert_matches_ufunc_at(out, index, values)


def test_signed_zero_inf_and_nan(path):
    rng = np.random.default_rng(4)
    out, index, values = _case(rng, 64, 1500, (16,), sort=False)
    out[:8] = -0.0
    values[index < 8] = -0.0  # rows 0-7 receive only -0.0: the sum stays -0.0
    values[::97, 0] = np.inf
    values[::89, 1] = -np.inf
    values[::83, 2] = np.nan
    out[10, 3] = np.inf
    assert_matches_ufunc_at(out, index, values)
    assert np.signbit(out[:8]).all()


def test_broadcast_values(path):
    rng = np.random.default_rng(5)
    index = rng.integers(0, 50, size=3000)
    out = np.zeros((50, 16), dtype=np.float32)
    assert_matches_ufunc_at(out, index, np.float32(0.1) * np.ones((1, 16), np.float32))


def test_maximum_as_the_op(path):
    rng = np.random.default_rng(6)
    out, index, values = _case(rng, 300, 2000, (16,), sort=False)
    out[:] = -np.inf
    values[::31] = np.nan
    assert_matches_ufunc_at(out, index, values, np.maximum)


def test_falls_back_for_other_indices_and_casts(path):
    rng = np.random.default_rng(7)
    index = rng.integers(-100, 100, size=4000)
    out = np.zeros((100, 16), dtype=np.float32)
    values = rng.standard_normal((4000, 16)).astype(np.float32)
    assert_matches_ufunc_at(out, index, values)  # negative indices
    assert_matches_ufunc_at(out, np.abs(index) % 100, values.astype(np.float64))  # a cast
    assert_matches_ufunc_at(out, list(np.abs(index) % 100), values)  # a list
    square = np.zeros((100, 100, 16), dtype=np.float32)
    pairs = (np.abs(index) % 100, np.arange(4000) % 100)
    assert_matches_ufunc_at(square, pairs, values)  # a tuple indexes two axes


def _hub_indices(graph):
    """Edge destinations of a CSR graph: a hub's in-edges are one long run."""
    return np.repeat(np.arange(graph.num_nodes), np.diff(graph.indptr))


@pytest.mark.parametrize("source", ["rmat", "products"])
@pytest.mark.parametrize("sort", [True, False], ids=["sorted", "unsorted"])
def test_hub_heavy_indices_from_the_generators(path, source, sort):
    if source == "rmat":
        graph = rmat_graph(10, 8, seed=0)
    else:
        graph = load_dataset("products", scale=0.05, seed=0).graph
    index = _hub_indices(graph)
    assert np.bincount(index).max() >= 50
    rng = np.random.default_rng(8)
    if not sort:
        index = index[rng.permutation(len(index))]
    values = rng.standard_normal((len(index), 8)).astype(np.float32)
    out = rng.standard_normal((graph.num_nodes, 8)).astype(np.float32)
    assert_matches_ufunc_at(out, index, values)


# --------------------------------------------------------------------------- #
# GraphSAGE layers through the kernel vs. an np.add.at reference layer
# --------------------------------------------------------------------------- #
class AddAtSAGELayer(SAGELayer):
    """SAGELayer with its scatters written out as ``np.add.at`` (the reference)."""

    def forward(self, block, h_src):
        h_dst = h_src[: block.num_dst]
        sums = np.zeros((block.num_dst,) + h_src.shape[1:], dtype=h_src.dtype)
        np.add.at(sums, block.edge_dst, h_src[block.edge_src])
        counts = np.maximum(np.bincount(block.edge_dst, minlength=block.num_dst), 1)
        agg = sums / counts.astype(h_src.dtype)[:, None]
        pre = h_dst @ self.w_self.value + agg @ self.w_neigh.value + self.bias.value
        out = tu.ACTIVATIONS[self.activation][0](pre)
        self._cache = {"block": block, "h_src": h_src, "h_dst": h_dst, "agg": agg, "pre": pre}
        return out

    def backward(self, grad_out):
        cache, block = self._cache, self._cache["block"]
        grad_pre = tu.ACTIVATIONS[self.activation][1](grad_out, cache["pre"])
        self.w_self.grad += cache["h_dst"].T @ grad_pre
        self.w_neigh.grad += cache["agg"].T @ grad_pre
        self.bias.grad += grad_pre.sum(axis=0)
        grad_h_src = np.zeros_like(cache["h_src"])
        grad_h_src[: block.num_dst] += grad_pre @ self.w_self.value.T
        grad_agg = grad_pre @ self.w_neigh.value.T
        counts = np.maximum(np.bincount(block.edge_dst, minlength=block.num_dst), 1)
        grad_messages = (grad_agg / counts.astype(grad_agg.dtype)[:, None])[block.edge_dst]
        np.add.at(grad_h_src, block.edge_src, grad_messages)
        self._cache = None
        return grad_h_src


@pytest.fixture(scope="module")
def products():
    return load_dataset("products", scale=0.1, seed=5)


@pytest.mark.parametrize("sampler_cls", [LoopNeighborSampler, NeighborSampler],
                         ids=["loop", "vectorized"])
def test_sage_layers_byte_equal_to_add_at_reference(products, sampler_cls):
    seeds = np.random.default_rng(9).choice(products.graph.num_nodes, 256, replace=False)
    batch = sampler_cls(products.graph, [10, 25], seed=1).sample(seeds)
    features = products.features[batch.input_local]
    # The outer block is large enough to take the rank path by default.
    assert batch.blocks[0].num_edges * features.shape[1] >= tu.SCATTER_FLOOR

    models = []
    for layer_cls in (SAGELayer, AddAtSAGELayer):
        model = GraphSAGE(features.shape[1], 32, products.num_classes, seed=0)
        for layer in model.layers:
            layer.__class__ = layer_cls
        models.append(model)
    kernel, reference = models
    logits = [m.forward(batch.blocks, features) for m in models]
    assert logits[0].tobytes() == logits[1].tobytes()

    grad_logits = np.random.default_rng(10).standard_normal(logits[0].shape).astype(np.float32)
    grad_inputs = [m.backward(grad_logits) for m in models]
    assert grad_inputs[0].tobytes() == grad_inputs[1].tobytes()
    ours, ref = kernel.named_parameters(), reference.named_parameters()
    assert list(ours) == list(ref)
    for name in ours:
        assert ours[name].grad.tobytes() == ref[name].grad.tobytes(), name
