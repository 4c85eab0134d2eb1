"""Templates, expansion codes, channel resolution, and geometry."""

import dataclasses
import itertools
import json
import re
import struct
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from binwidth import checkpoint, config, cost, net, ops, runner, search, space, templates
from binwidth.errors import ConfigError, FormatError, InputError

from helpers import count_cost_reference, layer_geometry_reference, replace_layer, specs

ratio = st.sampled_from(space.RATIOS)


def code_for(template_name):
    n = templates.get_template(template_name).n_genes
    return st.tuples(*([ratio] * n))


class TestTemplates:
    def test_gene_counts(self):
        assert templates.vgg_small().n_genes == 7
        assert templates.resnet18().n_genes == 12
        assert templates.vgg_small_mini().n_genes == 4
        assert templates.resnet_mini().n_genes == 6

    def test_registry_lookup(self):
        assert templates.get_template("vgg_small").name == "vgg_small"
        with pytest.raises(InputError):
            templates.get_template("lenet")

    @pytest.mark.parametrize("name", sorted(templates.TEMPLATES))
    def test_first_and_last_weighted_layers_full_precision(self, name):
        t = templates.get_template(name)
        weighted = [l for l in specs(t) if l.kind in ("conv", "fc")]
        assert not weighted[0].binarized
        assert not weighted[-1].binarized
        for layer in weighted[1:-1]:
            assert layer.binarized, layer.name

    def test_projection_shortcuts_are_binarized(self):
        t = templates.resnet18()
        projections = [l for b in t.layers if isinstance(b, templates.BlockSpec) for l in b.shortcut if l.kind == "conv"]
        assert len(projections) == 3
        assert all(p.binarized for p in projections)

    def test_resnet18_has_twenty_convs_and_classifier(self):
        t = templates.resnet18()
        convs = sum(1 for l in specs(t) if l.kind == "conv")
        fcs = sum(1 for l in specs(t) if l.kind == "fc")
        assert convs == 20
        assert fcs == 1

    def test_rejects_misplaced_binarization(self):
        bad = [
            templates._conv("conv1", 16, 3, binarized=True, gene=0),
            templates._fc("fc1", 10, binarized=False),
        ]
        with pytest.raises(InputError):
            templates.NetworkTemplate("bad", tuple(bad), (3, 8, 8))

    def test_rejects_duplicate_gene_indices(self):
        bad = [
            templates._conv("conv1", 16, 3, binarized=False, gene=0),
            templates._conv("conv2", 16, 3, gene=0),
            templates._fc("fc1", 10, binarized=False),
        ]
        with pytest.raises(InputError):
            templates.NetworkTemplate("bad", tuple(bad), (3, 8, 8))

    def test_rejects_base_width_not_divisible_by_four(self):
        bad = [
            templates._conv("conv1", 18, 3, binarized=False, gene=0),
            templates._fc("fc1", 10, binarized=False),
        ]
        with pytest.raises(InputError):
            templates.NetworkTemplate("bad", tuple(bad), (3, 8, 8))

    def test_rejects_gened_base_width_of_zero(self):
        bad = [
            templates._conv("conv1", 0, 3, binarized=False, gene=0),
            templates._fc("fc1", 10, binarized=False),
        ]
        with pytest.raises(InputError, match="gened layer 'conv1' base width 0 is not positive"):
            templates.NetworkTemplate("bad", tuple(bad), (3, 8, 8))

    @pytest.mark.parametrize("layer, head, message", [
        (templates.LayerSpec("pool", "pool", (2, 4), 2), 3, "pool 'pool' has kernel (2, 4); it must be an integer >= 1"),
        (templates._pool("pool", 2, 0), 3, "pool 'pool' has stride 0; it must be an integer >= 1"),
        (templates._pool("pool", 0, 1), 3, "pool 'pool' has kernel 0; it must be an integer >= 1"),
        (templates._pool("pool", 2, 2, pad=-1), 3, "pool 'pool' has pad -1; it must be an integer >= 0"),
        (templates._pool("pool", 2, 2, pad=2), 3, "pool 'pool' pads 2 around a 2-wide window, "
                                                   "so a window can hold only padding"),
        (templates._act("act"), templates._fc("fc", 12, binarized=False, gene=1),
         "final fc 'fc' carries gene 1, but its width is the class count"),
        (templates._act("act"), 0, "fc 'fc' has base_out 0; it must be an integer >= 1"),
        (templates._conv("conv1", 8, 3, gene=1), 3, "template 'probe' names two layers 'conv1'"),
        (templates.LayerSpec("bn", "bn", kernel=5, gene_index=9), 3,
         "bn 'bn' sets {'kernel': 5, 'gene_index': 9}, fields its kind does not read"),
        (templates._act("act"), templates.LayerSpec("fc", "fc", kernel=7, stride=0, base_out=3),
         "fc 'fc' sets {'kernel': 7, 'stride': 0}, fields its kind does not read"),
        (templates.LayerSpec("act", "act", base_out=8, binarized=True), 3,
         "act 'act' sets {'base_out': 8, 'binarized': True}, fields its kind does not read"),
    ], ids=["two_extent_pool_kernel", "pool_stride_0", "pool_kernel_0", "negative_pool_pad", "pool_pad_of_a_window",
            "gened_classifier", "classifier_width_0", "duplicate_layer_name", "bn_with_gene_and_kernel",
            "fc_with_kernel_and_stride", "act_with_width_and_precision"])
    def test_rejects_a_layer_the_ops_cannot_run_as_planned(self, layer, head, message):
        # Unchecked, the two-extent kernel is planned 4x3 but run 4x4, stride 0
        # divides by zero, kernel 0 fails in forward, a pad as wide as the window
        # emits -inf, a gened classifier scales the class count with the code,
        # and a field the layer's kind does not read states what no op runs.
        if isinstance(head, int):
            head = templates._fc("fc", head, binarized=False)
        layers = (templates._conv("conv1", 8, 3, binarized=False, gene=0), layer, head)
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            templates.NetworkTemplate("probe", layers, (1, 8, 8))

    @pytest.mark.parametrize("shape", [(0, 8, 8), (1, 8), (1, 8.0, 8)])
    def test_rejects_an_input_shape_of_other_than_three_positive_ints(self, shape):
        layers = (templates._conv("conv1", 8, 3, binarized=False, gene=0), templates._fc("fc", 3, binarized=False))
        with pytest.raises(InputError, match=f"^template 'probe' input shape {re.escape(str(shape))} is not"):
            templates.NetworkTemplate("probe", layers, shape)

    def test_class_count_is_the_final_fc_width(self):
        # The class count is derived, so it cannot disagree with the
        # classifier: a 3-wide final fc means 3 classes and 3 logits.
        layers = (templates._conv("conv1", 8, 3, binarized=False, gene=0), templates._gap("gap"),
                  templates._fc("fc", 3, binarized=False))
        t = templates.NetworkTemplate("probe", layers, (1, 8, 8))
        assert (t.n_genes, t.class_count) == (1, 3)
        network = net.instantiate(t, (1.0,), seed=0)
        assert network.forward(np.zeros((2, 1, 8, 8), dtype=np.float32)).shape == (2, 3)

    @pytest.mark.parametrize("layer, message", [
        ("s2b1_proj_conv", "block 's2b1' adds a 32x32 shortcut to a 16x16 main path"),
        ("s1b1_conv1", "block 's1b1' adds a 32x32 shortcut to a 16x16 main path"),
    ], ids=["stride_1_projection", "stride_2_identity_block"])
    def test_rejects_branches_of_different_extent_when_built(self, layer, message):
        # The projection's stride is no longer assumed: each branch walks
        # its own kernels, strides and pads from the block input's extent.
        t = templates.resnet_mini()
        stride = 1 if layer == "s2b1_proj_conv" else 2
        with pytest.raises(InputError, match=re.escape(message)):
            dataclasses.replace(t, layers=replace_layer(t.layers, layer, stride=stride))

    def test_tie_error_names_the_shortcut_end_that_holds_layers(self):
        # The shortcut is a bn of the block input (gene 0), the main path
        # ends at gene 1: the branches tie only where the two genes agree.
        t = templates.NetworkTemplate("probe", (
            templates._conv("stem", 8, 3, binarized=False, gene=0),
            templates.BlockSpec("b", (templates._conv("c1", 8, 3, gene=1),), (templates._bn("sbn"),)),
            templates._fc("fc", 3, binarized=False),
        ), (1, 6, 6))
        net.instantiate(t, (2.0, 2.0), seed=0)
        message = "shortcut of block 'b' ends at 'sbn' with 8 channels, its main path with 16"
        for call in (space.layer_geometry, cost.count_cost, layer_geometry_reference,
                     lambda t, code: net.instantiate(t, code, seed=0)):
            with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
                call(t, (1.0, 2.0))

    @pytest.mark.parametrize("name", sorted(templates.TEMPLATES))
    def test_library_never_calls_block_at(self, name, monkeypatch):
        def refuse(self, layer_index):
            raise AssertionError("block_at called")

        monkeypatch.setattr(templates.NetworkTemplate, "block_at", refuse)
        t = templates.get_template(name)
        code = space.uniform_code(1, t.n_genes)
        space.layer_geometry(t, code)
        cost.count_cost(t, code)
        net.instantiate(t, code, seed=0)


class TestCodes:
    def test_uniform(self):
        assert space.uniform_code(1, 5) == (1.0,) * 5
        assert space.uniform_code(4, 2) == (4.0, 4.0)

    def test_uniform_rejects_foreign_ratio(self):
        with pytest.raises(InputError):
            space.uniform_code(1.5, 3)

    def test_validate_rejects_wrong_length(self):
        with pytest.raises(InputError):
            space.validate_code((1.0, 2.0), n_genes=3)

    @pytest.mark.parametrize(
        "code",
        [(1.0, 0.3), ["a"], [None], ["1"], [True], [[1.0]], [np.True_], [Decimal("0.5")], [float("nan")]],
        ids=["foreign_float", "string", "null", "numeric_string", "bool", "list", "numpy_bool", "decimal", "nan"])
    def test_validate_rejects_foreign_ratio(self, code):
        with pytest.raises(InputError):
            space.validate_code(code)

    @pytest.mark.parametrize("ratio, value", [(np.float32(0.25), 0.25), (np.int64(2), 2.0), (Fraction(1, 4), 0.25)],
                             ids=["numpy_float32", "numpy_int64", "fraction"])
    def test_validate_accepts_other_real_ratios_as_floats(self, ratio, value):
        code = space.validate_code([1, ratio])
        assert code == (1.0, value)
        assert all(type(r) is float for r in code)

    @given(st.integers(1, 12), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_random_codes_stay_in_candidate_set(self, n, seed):
        code = space.random_code(n, np.random.default_rng(seed))
        assert len(code) == n
        assert all(r in space.RATIOS for r in code)


class TestResolveChannels:
    def test_resnet18_all_ones(self):
        t = templates.resnet18()
        ch = space.resolve_channels(t, space.uniform_code(1, t.n_genes))
        assert ch["stem_conv"] == (3, 64)
        assert ch["s1b2_conv2"] == (64, 64)
        assert ch["s2b1_conv2"][1] == 128
        assert ch["s3b1_conv2"][1] == 256
        assert ch["s4b2_conv2"] == (512, 512)
        assert ch["fc"] == (512, 1000)

    def test_vgg_small_all_fours(self):
        t = templates.vgg_small()
        ch = space.resolve_channels(t, space.uniform_code(4, 7))
        widths = [ch[f"conv{i}"][1] for i in range(1, 7)]
        assert widths == [512, 512, 1024, 1024, 2048, 2048]

    def test_quarter_ratio_divides_exactly(self):
        t = templates.resnet18()
        code = [1.0] * t.n_genes
        code[0] = 0.25
        ch = space.resolve_channels(t, code)
        assert ch["stem_conv"] == (3, 16)

    def test_identity_block_output_tied_to_block_input(self):
        t = templates.resnet_mini()
        code = list(space.uniform_code(1, t.n_genes))
        code[0] = 2.0  # widen the stem; stage-1 identity block must follow
        code[1] = 3.0  # its mid gene stays free
        ch = space.resolve_channels(t, code)
        assert ch["s1b1_conv1"] == (32, 48)
        assert ch["s1b1_conv2"] == (48, 32)

    def test_projection_adopts_stage_gene(self):
        t = templates.resnet_mini()
        code = list(space.uniform_code(1, t.n_genes))
        code[3] = 2.0  # stage-2 output gene
        ch = space.resolve_channels(t, code)
        assert ch["s2b1_conv2"][1] == 64
        assert ch["s2b1_proj_conv"] == (ch["s2b1_conv1"][0], 64)

    def test_wrong_length_rejected(self):
        t = templates.vgg_small()
        with pytest.raises(InputError):
            space.resolve_channels(t, (1.0, 1.0))

    @pytest.mark.parametrize("name", sorted(templates.TEMPLATES))
    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_channel_consistency_along_every_edge(self, name, data):
        t = templates.get_template(name)
        code = data.draw(code_for(name))
        geoms = {g.spec.name: g for g in space.layer_geometry(t, code)}

        def walk(items, c):
            for spec in items:
                assert geoms[spec.name].in_ch == c, spec.name
                c = geoms[spec.name].out_ch
            return c

        c = t.input_shape[0]
        for item in t.layers:
            if isinstance(item, templates.BlockSpec):
                main = walk(item.main, c)
                assert walk(item.shortcut, c) == main, item.name  # both summands of the add
                c = main
            else:
                c = walk([item], c)


class TestGeometry:
    def test_resnet18_spatial_walk(self):
        t = templates.resnet18()
        geoms = {g.spec.name: g for g in space.layer_geometry(t, space.uniform_code(1, t.n_genes))}
        assert (geoms["stem_conv"].h_out, geoms["stem_conv"].w_out) == (112, 112)
        assert (geoms["stem_pool"].h_out, geoms["stem_pool"].w_out) == (56, 56)
        assert (geoms["s2b1_conv1"].h_out, geoms["s2b1_conv1"].w_out) == (28, 28)
        assert (geoms["s4b2_conv2"].h_out, geoms["s4b2_conv2"].w_out) == (7, 7)
        assert (geoms["gap"].h_out, geoms["gap"].w_out) == (1, 1)
        assert geoms["fc"].shapes["weight"][0] == 512

    def test_vgg_small_classifier_features(self):
        t = templates.vgg_small()
        geoms = {g.spec.name: g for g in space.layer_geometry(t, space.uniform_code(1, 7))}
        assert geoms["fc1"].shapes["weight"][0] == 512 * 4 * 4
        assert geoms["fc2"].shapes["weight"][0] == 1024

    def test_projection_geometry_matches_block_output(self):
        t = templates.resnet_mini()
        geoms = space.layer_geometry(t, space.uniform_code(2, t.n_genes))
        by_name = {g.spec.name: g for g in geoms}
        proj = by_name["s2b1_proj_conv"]
        main = by_name["s2b1_conv2"]
        assert (proj.h_out, proj.w_out) == (main.h_out, main.w_out)
        assert proj.out_ch == main.out_ch


@st.composite
def drawn_templates(draw):
    """A small template: a stem conv, a few conv/bn/act/pool layers and
    residual blocks, then an fc head; most build, some are malformed
    (among them a kernel or stride of 0, a negative pad, a gened
    classifier, and, flagged as `stray`, a layer that sets a field its
    kind does not read)."""
    names = itertools.count()
    genes = itertools.count()

    def conv(binarized=True, gened=True):
        k = draw(st.sampled_from((1, 2, 3)))
        pad = k // 2 if draw(st.booleans()) else draw(st.integers(0, k // 2 + 1))
        return templates.LayerSpec(
            f"conv{next(names)}", "conv", k, draw(st.sampled_from((1, 1, 2))), pad,
            draw(st.sampled_from((4, 8))) if gened else 0, binarized, next(genes) if gened else None)

    def simple(force_gene):
        kind = draw(st.sampled_from(("conv", "conv", "bn", "act", "pool", "gap")))
        if kind == "conv":
            return conv(gened=force_gene or draw(st.booleans()))
        if kind == "pool":
            k = draw(st.integers(0, 3))
            return templates.LayerSpec(f"pool{next(names)}", "pool", k, draw(st.integers(0, 2)),
                                       draw(st.integers(-1, k // 2)))
        return templates.LayerSpec(f"{kind}{next(names)}", kind)

    layers = [conv(binarized=False)]
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.booleans()):
            main = [simple(force_gene=False) for _ in range(draw(st.integers(1, 4)))]
            shortcut = [conv(gened=draw(st.booleans()))] if draw(st.booleans()) else []
            shortcut += [templates.LayerSpec(f"bn{next(names)}", "bn")] if draw(st.booleans()) else []
            layers.append(templates.BlockSpec(f"block{next(names)}", main, shortcut))
        else:
            layers.append(simple(force_gene=True))
    if draw(st.booleans()):
        layers += [templates.LayerSpec("fc_hidden", "fc", base_out=8, binarized=True, gene_index=next(genes))]
        layers += [templates.LayerSpec(n, k) for n, k in (("bn_head", "bn"), ("act_head", "act"))
                   if draw(st.booleans())]
    stray = not draw(st.integers(0, 7))
    if stray:
        kind, field, value = draw(st.sampled_from((
            ("pool", "base_out", 4), ("bn", "gene_index", 0), ("act", "binarized", True), ("gap", "kernel", 2),
            ("fc", "stride", 2))))
        layers.append(templates.LayerSpec("stray", kind, **{field: value}))
    if draw(st.integers(0, 7)):
        layers.append(templates.LayerSpec("fc", "fc", base_out=3))
    else:
        layers.append(templates.LayerSpec("fc", "fc", base_out=4, gene_index=next(genes)))
    shape = (draw(st.integers(1, 3)), draw(st.integers(3, 10)), draw(st.integers(3, 10)))
    code = draw(st.tuples(*[st.sampled_from(space.RATIOS)] * next(genes)))
    return layers, shape, code, stray


def _recording(fn, shapes):
    def recorded(*args, **kwargs):
        out = fn(*args, **kwargs)
        shapes.append(out[0].shape[1:] + (1,) * (4 - out[0].ndim))  # an fc output as (c, 1, 1)
        return out
    return recorded


class TestDrawnTemplates:
    """Every template that builds runs as its plan says and is priced as it runs."""

    @given(drawn=drawn_templates())
    @settings(max_examples=200, deadline=None)
    def test_builds_and_runs_as_planned_or_is_rejected(self, drawn):
        layers, shape, code, stray = drawn
        try:
            t = templates.NetworkTemplate("drawn", layers, shape)
        except InputError as e:
            # One statistic per message: names and numbers blanked.
            event("rejected when built: " + re.sub(r"'[^']*'|[0-9]+", "_", str(e)))
            return
        assert not stray, "a layer that sets a field its kind does not read was built"
        try:
            network = net.instantiate(t, code, seed=0)
        except InputError as e:  # a tie between a block's two branches, broken by this code
            event("rejected at this code")
            assert "shortcut of block" in str(e)
            with pytest.raises(InputError, match=f"^{re.escape(str(e))}$"):
                cost.count_cost(t, code)
            with pytest.raises(InputError, match=f"^{re.escape(str(e))}$"):
                layer_geometry_reference(t, code)
            return
        event("ran")
        assert (t.n_genes, t.class_count) == (len(code), 3)
        geoms = space.layer_geometry(t, code)
        assert geoms == layer_geometry_reference(t, code)
        x = np.random.default_rng(0).standard_normal((2, *shape)).astype(np.float32)
        shapes = []
        with mock.patch.object(ops, "conv2d_forward", _recording(ops.conv2d_forward, shapes)), \
                mock.patch.object(ops, "fully_connected_forward", _recording(ops.fully_connected_forward, shapes)):
            logits = network.forward(x, train=True)
        assert logits.shape == (2, 3)
        assert shapes == [(g.out_ch, g.h_out, g.w_out) for g in geoms if g.spec.kind in ("conv", "fc")]
        network.backward(np.ones_like(logits))
        assert {k: g.shape for k, g in network.grads.items()} == {k: p.shape for k, p in network.params.items()}
        try:
            priced = cost.count_cost(t, code).layers
        except InputError as e:  # a tie this code holds but the uniform-1x baseline breaks
            event("ran; the 1x baseline breaks a tie, so no cost")
            with pytest.raises(InputError, match=f"^{re.escape(str(e))}$"):
                layer_geometry_reference(t, space.uniform_code(1, t.n_genes))
            with pytest.raises(InputError, match=f"^{re.escape(str(e))}$"):
                count_cost_reference(t, code)
            return
        assert len(priced) == len(shapes)
        for layer, (_, h, w) in zip(priced, shapes):
            assert layer.macs == network.params[layer.name + ".weight"].size * h * w, layer.name


class TestCodeFiles:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "code.json")
        code = (0.25, 0.5, 1.0, 2.0, 3.0, 4.0)
        space.write_code_file(path, "resnet_mini", code)
        name, got = space.read_code_file(path)
        assert name == "resnet_mini"
        assert got == code

    def test_exact_decimal_serialization(self, tmp_path):
        path = str(tmp_path / "code.json")
        space.write_code_file(path, "vgg_small_mini", (0.25, 0.5, 1.0, 4.0))
        text = open(path).read()
        assert "0.25" in text and "0.5" in text
        assert " 1," in text or " 1\n" in text  # whole ratios stay integers
        assert "1.0" not in text

    def test_rejects_malformed_json(self, tmp_path):
        path = tmp_path / "code.json"
        path.write_text("not json")
        with pytest.raises(FormatError):
            space.read_code_file(str(path))

    def test_rejects_unexpected_keys(self, tmp_path):
        path = tmp_path / "code.json"
        path.write_text('{"template": "x", "ratios": [1], "extra": 1}')
        with pytest.raises(FormatError):
            space.read_code_file(str(path))
        path.write_text('{"template": "x", "ratios": 5}')  # ratios must be a list
        with pytest.raises(FormatError):
            space.read_code_file(str(path))

    @pytest.mark.parametrize("template", ["null", "7", '["vgg_small_mini"]'])
    def test_rejects_non_string_template(self, tmp_path, template):
        path = tmp_path / "code.json"
        path.write_text(f'{{"template": {template}, "ratios": [1, 1, 1, 1]}}')
        with pytest.raises(FormatError, match=f"^code file {re.escape(str(path))}: 'template' must be a string, got "):
            space.read_code_file(str(path))

    def test_rejects_foreign_ratio(self, tmp_path):
        path = tmp_path / "code.json"
        path.write_text('{"template": "x", "ratios": [1.5]}')
        with pytest.raises(FormatError, match=f"code file {re.escape(str(path))}: 'ratios': ratio 1.5 at gene 0"):
            space.read_code_file(str(path))


# Each reader: a sound object, a required key and the JSON type it takes,
# and a key that holds numbers (a code's ratio list where no float is).
SOUND = {
    "config": ({"template": "vgg_small_mini", "dataset": {"kind": "idx"}, "search": {"lambda": 4}, "output_dir": "o"},
               "dataset.kind", "a string", "search.lambda"),
    "log": (json.loads(search.SearchLogRecord(
        generation=0, index=0, code=(1.0,), acc=1.0, flops=1.0, flops_norm=1.0, fitness=1.0, eval_seed=0,
        wall_time=0.0, diverged=False, random_parents=False).to_json()), "acc", "a finite number", "acc"),
    "code_file": ({"template": "t", "ratios": [1]}, "template", "a string", "ratios"),
    "metadata": ({"template": "t", "ratios": [1], "seed": 0}, "seed", "an integer", "ratios"),
}


def _read(reader: str, text: bytes, tmp_path):
    """Run `reader` on `text`: its error type, the location every message
    starts with, the metadata's byte offset, and the call."""
    path = tmp_path / "object"
    path.write_bytes(text + b"\n")
    if reader == "config":
        return ConfigError, f"config file '{path}': ", None, lambda: config.load_run_config(str(path))
    if reader == "log":
        return FormatError, f"{path}:1: ", None, lambda: runner.read_search_log(str(path))
    if reader == "code_file":
        return FormatError, f"code file {path}: ", None, lambda: space.read_code_file(str(path))
    blob = checkpoint.serialize_checkpoint(checkpoint.Checkpoint({}, "t", (1.0,), 0))
    head = blob[: blob.rindex(b"{") - 4] + struct.pack("<I", len(text))
    return FormatError, "metadata: ", len(head), lambda: checkpoint.deserialize_checkpoint(head + text)


@pytest.mark.parametrize("fault", ["unknown_key", "missing_key", "wrong_type", "nan", "not_utf8"])
@pytest.mark.parametrize("reader", list(SOUND))
def test_every_reader_rejects_a_fault_naming_where_it_is(tmp_path, reader, fault):
    sound, key, expected, numbers = SOUND[reader]
    payload = json.loads(json.dumps(sound))
    *parents, leaf = (numbers if fault == "nan" else key).split(".")
    section = payload
    for name in parents:
        section = section[name]
    if fault == "unknown_key":
        payload["bogus"], message = 1, "unknown key(s) ['bogus']; allowed: "
    elif fault == "missing_key":
        del section[leaf]
        message = f"missing key '{key}'"
    elif fault == "wrong_type":
        section[leaf], message = [], f"'{key}' must be {expected}, got []"
    elif fault == "nan":
        section[leaf] = [float("nan")] if leaf == "ratios" else float("nan")
        message = f"'{numbers}': ratio nan at gene 0" if leaf == "ratios" else f"'{numbers}' must be a finite number"
    text = json.dumps(payload).encode()
    if fault == "not_utf8":
        text, message = b'{"\xff": 0, ' + text[1:], "not valid JSON: 'utf-8' codec can't decode byte 0xff"
    error, where, offset, read = _read(reader, text, tmp_path)
    with pytest.raises(error) as e:
        read()
    assert str(e.value).startswith(where + message), str(e.value)
    assert getattr(e.value, "offset", None) == offset
