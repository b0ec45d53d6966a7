"""Model tests: positional encodings, attention bias construction, subset
selection, dropout masks, the forward contract, and update semantics."""

import numpy as np
import pytest

from csprefine.csp import CspInstance, build_graph_coloring, build_nurse_rostering, build_sudoku
from csprefine.model import (
    ArityMismatch,
    InstanceContext,
    ModelConfig,
    ModelWeights,
    _dropout_mask,
    apply_update,
    ape_table,
    forward,
    gumbel_noise,
    init_weights,
    select_subset,
)
from conftest import tiny_config, toy_alldiff


def test_config_validation():
    tiny_config()  # the valid base; each case below changes one field of it
    for bad in [
        dict(d_model=10, heads=3), dict(select_p=0.0), dict(select_p=1.5),
        dict(select_p=1e-4),  # select_subset could redraw for ever
        dict(rpe_mode="banded"), dict(ape_mode="learned"), dict(sampler="argmax"),
        dict(tau=0.0),
        # an integer past float64, which 1/tau cannot take
        dict(tau=10**400),
        # the deleted variants: no relative encoding, and the 1-D index
        dict(rpe_mode="none"), dict(ape_mode="1d"),
        # sizes must be ints; a weight file's JSON header may hold 1.0 or true
        dict(layers=1.0), dict(heads=1.0), dict(d_model=16.0), dict(ffn_mult=True),
        # and a bool where a number belongs
        dict(tau=True), dict(select_p=True), dict(dropout=False),
    ]:
        with pytest.raises(ValueError):
            tiny_config(**bad)



def test_default_config_builds():
    # the paper-scale defaults are a valid config that init_weights accepts
    cfg = ModelConfig()
    w = init_weights(cfg, 3, np.random.default_rng(0))
    assert w.config == cfg
    assert w["l0.wq"].shape == (cfg.d_model, cfg.d_model)


def _line(n: int) -> CspInstance:
    """n unconstrained variables indexed 0..n-1."""
    return build_graph_coloring(n, [], 2)


def _grid_cell(row: int, col: int) -> CspInstance:
    """One variable indexed (row, col)."""
    return CspInstance(1, 2, ((row, col),), (), (None,))


def test_sinusoidal_pe_position_zero():
    table = ape_table(_line(4), tiny_config(d_model=8, ape_mode="multi"))
    assert np.allclose(table[0], [0, 1, 0, 1, 0, 1, 0, 1])


def test_sinusoidal_pe_first_pair():
    table = ape_table(_line(4), tiny_config(d_model=8, ape_mode="multi"))
    assert np.isclose(table[3, 0], np.sin(3.0))
    assert np.isclose(table[3, 1], np.cos(3.0))
    assert np.all(np.abs(table) <= 1.0)


def test_multi_dim_ape_concatenates():
    enc = ape_table(_grid_cell(2, 5), tiny_config(d_model=8, ape_mode="multi"))
    assert enc.shape == (1, 8)
    half = ape_table(_line(6), tiny_config(d_model=4, ape_mode="multi"))
    assert np.allclose(enc[0, :4], half[2])
    assert np.allclose(enc[0, 4:], half[5])
    nurse = build_nurse_rostering(1, 1, 1, 2)  # (day, shift, slot) indices
    with pytest.raises(ArityMismatch, match="index arity 3"):
        ape_table(nurse, tiny_config(d_model=8, ape_mode="multi"))
    # "none" has no encoding
    assert ape_table(nurse, tiny_config(d_model=8, ape_mode="none")).shape == (nurse.n, 8)


def test_ape_table_modes():
    inst = build_sudoku([0] * 81)
    cfg = tiny_config(ape_mode="none")
    assert np.all(ape_table(inst, cfg) == 0.0)
    table = ape_table(inst, tiny_config(ape_mode="multi"))
    assert table.shape == (81, 16)
    # cells (1,1) and (1,2) share the row half of the encoding
    assert np.allclose(table[10][:8], table[11][:8])
    assert not np.allclose(table[10][8:], table[11][8:])
    # an odd half width: sin takes the extra column
    odd = ape_table(inst, tiny_config(d_model=18, heads=1, ape_mode="multi"))
    assert np.allclose(odd[13, :9:2], np.sin(1.0 * np.power(10000.0, -2.0 * np.arange(5) / 9)))
    assert np.allclose(odd[13, 9::2], np.sin(4.0 * np.power(10000.0, -2.0 * np.arange(5) / 9)))


def test_context_keep_diag_and_edges():
    inst = build_graph_coloring(3, [(0, 1)], 2)
    keep = InstanceContext.build(inst, tiny_config()).keep
    assert keep.dtype == bool
    assert np.array_equal(keep, [[1, 1, 0], [1, 1, 0], [0, 0, 1]])


def test_rpe_bias_modes():
    inst = build_graph_coloring(3, [(0, 1)], 2)
    masked = InstanceContext.build(inst, tiny_config(rpe_mode="masked")).keep
    # masked mode attends only where keep is 1: the edges and the diagonal
    assert masked[0, 2] == 0.0
    assert masked[0, 1] == 1.0 and masked[0, 0] == 1.0
    # learned mode adds c * (1 - keep) with c = -softplus(rpe_theta), about -1 at init
    cfg = tiny_config(rpe_mode="learned")
    ctx = InstanceContext.build(inst, cfg)
    assert np.array_equal(ctx.keep, masked)
    c = -np.log1p(np.exp(init_weights(cfg, 2, np.random.default_rng(0))["rpe_theta"].item()))
    learned = c * (1.0 - ctx.keep)
    assert np.isclose(learned[0, 2], -1.0) and learned[0, 1] == 0.0 and learned[0, 0] == 0.0


def test_init_weights_shapes():
    cfg = tiny_config(layers=2, rpe_mode="learned")
    w = init_weights(cfg, 5, np.random.default_rng(0))
    assert w["embed"].shape == (5, 16)
    assert w["w_out"].shape == (16, 5)
    assert "l1.wq" in w.params
    assert "rpe_theta" in w.params
    assert all(p.requires_grad for _, p in w.named_parameters())
    # softplus of the initial theta puts the learned offset near -1
    assert np.isclose(np.log1p(np.exp(w["rpe_theta"].item())), 1.0)


def test_select_subset_respects_fixed_and_nonempty():
    rng = np.random.default_rng(0)
    fixed = np.array([True, False, False, True])
    for _ in range(200):
        sel = select_subset(fixed, 0.3, rng)
        assert sel.any()
        assert not sel[fixed].any()


def test_select_subset_all_fixed_is_empty():
    sel = select_subset(np.array([True, True]), 0.9, np.random.default_rng(0))
    assert not sel.any()


def test_gumbel_noise_deterministic():
    a = gumbel_noise([np.random.default_rng(4)] * 3, (3, 2))
    b = gumbel_noise([np.random.default_rng(4)] * 3, (3, 2))
    assert np.array_equal(a, b)
    assert np.all(np.isfinite(a))


class _Fill:
    """A stand-in generator whose every draw is ``values``."""

    def __init__(self, values):
        self.values = values

    def random(self, out):
        out[...] = self.values


def test_gumbel_noise_equals_the_clip_form():
    # draws at and past both ends of the clip, and between them
    u = np.array([0.0, 1e-300, 1e-13, 1e-12, 0.3, 0.5, 1.0 - 1e-12, 1.0 - 1e-13,
                  np.nextafter(1.0, 0.0)])
    rows = [_Fill(u), _Fill(u[::-1])]
    ref = -np.log(-np.log(np.clip(np.stack([u, u[::-1]]), 1e-12, 1.0 - 1e-12)))
    assert np.array_equal(gumbel_noise(rows, (2, len(u))), ref)


def _toy_forward_setup(**cfg_kw):
    inst = toy_alldiff(4)
    cfg = tiny_config(**cfg_kw)
    w = init_weights(cfg, inst.m, np.random.default_rng(1))
    ctx = InstanceContext.build(inst, cfg)
    return inst, cfg, w, ctx


def test_forward_rows_are_distributions():
    inst, cfg, w, ctx = _toy_forward_setup()
    values = np.array([[0, 1, 2, 3], [3, 3, 0, 0]])
    selected = np.array([[True, True, False, False]] * 2)
    out = forward(w, ctx, values, selected)
    assert out.shape == (2, 4, 4)
    assert np.allclose(out.data.sum(axis=-1), 1.0)
    assert np.all(out.data >= 0.0)


def test_forward_deterministic_without_sampling():
    inst, cfg, w, ctx = _toy_forward_setup(sampler="softmax")
    values = np.array([[0, 1, 1, 2]])
    selected = np.array([[True, False, True, False]])
    a = forward(w, ctx, values, selected)
    b = forward(w, ctx, values, selected)
    assert np.array_equal(a.data, b.data)


def test_gumbel_noise_needs_one_generator_per_row():
    rngs = [np.random.default_rng([4, c]) for c in range(3)]
    assert gumbel_noise(rngs, (3, 2, 5)).shape == (3, 2, 5)
    for shape in [(2, 2, 5), (4, 2, 5)]:
        with pytest.raises(ValueError):
            gumbel_noise(rngs, shape)


def test_forward_gumbel_needs_an_rng():
    inst, cfg, w, ctx = _toy_forward_setup(sampler="gumbel")
    values = np.array([[0, 1, 2, 3]])
    selected = np.array([[True, False, False, False]])
    with pytest.raises(ValueError):
        forward(w, ctx, values, selected)
    out = forward(w, ctx, values, selected, [np.random.default_rng(2)])
    assert np.allclose(out.data.sum(axis=-1), 1.0)


def test_dropout_mask_scale():
    # kept entries are scaled by 1 / (1 - rate), so the mean stays near 1
    keep = _dropout_mask([np.random.default_rng(1)], (1, 100_000), 0.3, np.float64)
    assert np.allclose(keep[keep > 0], 1.0 / 0.7)
    assert abs(keep.mean() - 1.0) < 0.02


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_dropout_mask_matches_the_where_form(dtype):
    # (draw >= rate) * scale is np.where(draw >= rate, scale, 0), in the dtype
    keep = _dropout_mask([np.random.default_rng(2)] * 2, (2, 4, 3), 0.3, dtype)
    u = np.random.default_rng(2).random((2, 4, 3))
    assert keep.dtype == dtype
    assert np.array_equal(keep, np.where(u >= 0.3, 1 / np.dtype(dtype).type(0.7), 0))


def _dropout_forward_setup():
    inst, cfg, w, ctx = _toy_forward_setup(sampler="softmax", dropout=0.5)
    return w, ctx, np.array([[0, 1, 2, 3], [3, 3, 0, 0]]), np.array([[True, True, False, False]] * 2)


def test_forward_draws_no_dropout_outside_training():
    # outside training, and at rate 0 in training, dropout is the identity and draws nothing
    w, ctx, values, selected = _dropout_forward_setup()
    plain = ModelWeights(tiny_config(sampler="softmax", dropout=0.0), w.domain_size, w.params)
    want = forward(w, ctx, values, selected).data
    rng = np.random.default_rng(5)
    assert np.array_equal(forward(w, ctx, values, selected, [rng] * 2).data, want)
    assert np.array_equal(forward(plain, ctx, values, selected, [rng] * 2, training=True).data, want)
    assert rng.bit_generator.state == np.random.default_rng(5).bit_generator.state


def test_forward_dropout_is_deterministic_given_seed():
    w, ctx, values, selected = _dropout_forward_setup()
    a, b, c = (forward(w, ctx, values, selected, [np.random.default_rng(seed)] * 2, training=True).data
               for seed in (3, 3, 4))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_forward_dropout_in_training_needs_rngs():
    w, ctx, values, selected = _dropout_forward_setup()
    with pytest.raises(ValueError):
        forward(w, ctx, values, selected, training=True)
    with pytest.raises(ValueError):  # one generator per row
        forward(w, ctx, values, selected, [np.random.default_rng(0)], training=True)


def test_forward_selection_marker_changes_output():
    inst, cfg, w, ctx = _toy_forward_setup(sampler="softmax")
    values = np.array([[0, 1, 2, 3]])
    sel_a = np.array([[True, False, False, False]])
    sel_b = np.array([[False, False, False, True]])
    a = forward(w, ctx, values, sel_a)
    b = forward(w, ctx, values, sel_b)
    assert not np.allclose(a.data, b.data)


def test_forward_learned_rpe_runs():
    inst, cfg, w, ctx = _toy_forward_setup(sampler="softmax", rpe_mode="learned")
    values = np.array([[0, 1, 2, 3]])
    selected = np.array([[True, True, True, True]])
    out = forward(w, ctx, values, selected)
    assert np.allclose(out.data.sum(axis=-1), 1.0)


def test_forward_vertex_relabel_consistency():
    # with no positional encoding, relabeling the vertices of a graph
    # permutes the output rows the same way
    edges = [(0, 1), (1, 2), (2, 3), (0, 3)]
    inst = build_graph_coloring(4, edges, 3)
    perm = np.array([2, 0, 3, 1])  # new index of each old vertex
    pedges = [(int(perm[u]), int(perm[v])) for u, v in edges]
    pinst = build_graph_coloring(4, pedges, 3)

    cfg = tiny_config(sampler="softmax", ape_mode="none")
    w = init_weights(cfg, 3, np.random.default_rng(6))
    values = np.array([[0, 1, 2, 0]])
    selected = np.array([[True, False, True, True]])
    out = forward(w, InstanceContext.build(inst, cfg), values, selected)

    pvalues = np.empty_like(values)
    psel = np.empty_like(selected)
    pvalues[0, perm] = values[0]
    psel[0, perm] = selected[0]
    pout = forward(w, InstanceContext.build(pinst, cfg), pvalues, psel)
    assert np.allclose(pout.data[0, perm], out.data[0], atol=1e-12)


def test_apply_update_only_touches_selected():
    values = np.array([[0, 1, 2]])
    selected = np.array([[False, True, False]])
    yhat = np.array([[[0.9, 0.1, 0.0], [0.1, 0.2, 0.7], [0.8, 0.1, 0.1]]])
    out = apply_update(values, selected, yhat)
    assert np.array_equal(out, [[0, 2, 2]])


def test_apply_update_tie_goes_to_lowest_index():
    values = np.array([[1]])
    selected = np.array([[True]])
    yhat = np.array([[[0.4, 0.4, 0.2]]])
    assert apply_update(values, selected, yhat)[0, 0] == 0


def test_apply_update_empty_selection_is_identity():
    values = np.array([[2, 0, 1]])
    selected = np.zeros((1, 3), dtype=bool)
    yhat = np.random.default_rng(0).random((1, 3, 3))
    assert np.array_equal(apply_update(values, selected, yhat), values)
