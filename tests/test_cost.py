"""Operation-count model: MACs, normalized cost, speedup, weight bits."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binwidth import cost, space, templates
from binwidth import net as net_mod
from binwidth.errors import InputError
from helpers import count_cost_reference, layer_geometry_reference, replace_layer, specs

ratio = st.sampled_from(space.RATIOS)


class TestSingleLayers:
    def test_conv_mac_formula(self):
        # 64 -> 64 channels, 3x3 kernel, 4x4 output: 64*64*3*3*4*4 MACs.
        t = templates.vgg_small_mini()
        rep = cost.count_cost(t, space.uniform_code(1, t.n_genes))
        layer = {l.name: l for l in rep.layers}["conv2"]
        g = {x.spec.name: x for x in space.layer_geometry(t, space.uniform_code(1, t.n_genes))}["conv2"]
        expect = g.in_ch * g.out_ch * 9 * g.h_out * g.w_out
        assert layer.macs == expect
        assert layer.flops == expect / 64

    def test_zero_cost_layers(self):
        # Batch norm, activation, pooling and residual adds cost nothing and
        # are left out: the report lists exactly the conv/fc layers of the
        # walk, projection shortcuts included, in walk order.
        listed = set()
        for name in sorted(templates.TEMPLATES):
            t = templates.get_template(name)
            code = space.uniform_code(2, t.n_genes)
            weighted = [(g.spec.name, g.spec.kind) for g in space.layer_geometry(t, code) if g.spec.kind in ("conv", "fc")]
            assert [(l.name, l.kind) for l in cost.count_cost(t, code).layers] == weighted, name
            listed.update(layer for layer, _ in weighted)
        assert {"s2b1_proj_conv", "s3b1_proj_conv"} <= listed

    def test_full_precision_layers_uncompressed(self):
        t = templates.vgg_small_mini()
        rep = cost.count_cost(t, space.uniform_code(1, t.n_genes))
        by_name = {l.name: l for l in rep.layers}
        assert by_name["conv1"].flops == by_name["conv1"].macs
        assert by_name["fc2"].flops == by_name["fc2"].macs
        assert by_name["conv2"].flops == by_name["conv2"].macs / 64
        assert by_name["fc1"].flops == by_name["fc1"].macs / 64

    def test_binary_flag_off_counts_everything_full(self):
        t = templates.vgg_small_mini()
        rep = cost.count_cost(t, space.uniform_code(1, t.n_genes), binary=False)
        assert all(l.flops == l.macs for l in rep.layers)


class TestReferenceTables:
    """Published operation counts for the two full-size templates."""

    def test_resnet18_full_precision(self):
        t = templates.resnet18()
        rep = cost.count_cost(t, space.uniform_code(1, 12), binary=False)
        assert rep.flops == pytest.approx(1820e6, rel=0.05)

    @pytest.mark.parametrize(
        "r,flops_m,speedup",
        [(1, 149, 12.2), (2, 352, 5.2), (3, 607, 3.0), (4, 915, 2.0)],
    )
    def test_resnet18_binary_uniform(self, r, flops_m, speedup):
        t = templates.resnet18()
        rep = cost.count_cost(t, space.uniform_code(r, 12))
        assert rep.flops == pytest.approx(flops_m * 1e6, rel=0.05)
        assert rep.speedup == pytest.approx(speedup, rel=0.05)

    def test_vgg_small_full_precision(self):
        t = templates.vgg_small()
        rep = cost.count_cost(t, space.uniform_code(1, 7), binary=False)
        assert rep.flops == pytest.approx(608e6, rel=0.03)

    @pytest.mark.parametrize(
        "r,flops_m", [(1, 13.2), (2, 45.3), (3, 96.2), (4, 166)]
    )
    def test_vgg_small_binary_uniform(self, r, flops_m):
        t = templates.vgg_small()
        rep = cost.count_cost(t, space.uniform_code(r, 7))
        assert rep.flops == pytest.approx(flops_m * 1e6, rel=0.03)


class TestNormalization:
    def test_uniform_one_normalizes_to_one(self):
        for name in templates.TEMPLATES:
            t = templates.get_template(name)
            rep = cost.count_cost(t, space.uniform_code(1, t.n_genes))
            assert rep.flops_norm == pytest.approx(1.0)

    def test_norm_is_ratio_of_binary_costs(self):
        t = templates.vgg_small()
        base = cost.count_cost(t, space.uniform_code(1, 7))
        rep = cost.count_cost(t, space.uniform_code(3, 7))
        assert rep.flops_norm == pytest.approx(rep.flops / base.flops)

    def test_speedup_times_flops_recovers_full_precision(self):
        t = templates.resnet_mini()
        fp = cost.count_cost(t, space.uniform_code(1, t.n_genes), binary=False)
        for r in (1, 2, 4):
            rep = cost.count_cost(t, space.uniform_code(r, t.n_genes))
            assert rep.speedup * rep.flops == pytest.approx(fp.flops)

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_widening_any_gene_never_reduces_cost(self, data):
        t = templates.resnet_mini()
        code = list(data.draw(st.tuples(*([ratio] * t.n_genes))))
        i = data.draw(st.integers(0, t.n_genes - 1))
        wider = [r for r in space.RATIOS if r > code[i]]
        if not wider:
            return
        bumped = list(code)
        bumped[i] = data.draw(st.sampled_from(wider))
        lo = cost.count_cost(t, code)
        hi = cost.count_cost(t, bumped)
        assert hi.flops >= lo.flops
        assert hi.weight_bits >= lo.weight_bits


class TestWeightBits:
    def test_hand_computed_mini_model(self):
        t = templates.vgg_small_mini()
        code = space.uniform_code(1, t.n_genes)
        geoms = {g.spec.name: g for g in space.layer_geometry(t, code)}
        bits = 0
        for name in ("conv1", "conv2", "conv3", "fc1", "fc2"):
            g = geoms[name]
            n = g.in_ch * g.out_ch * 9 if g.spec.kind == "conv" else g.shapes["weight"][0] * g.out_ch
            bits += n * (1 if g.spec.binarized else 32)
            if g.spec.binarized:
                bits += 32  # one scale scalar per binary tensor
        rep = cost.count_cost(t, code)
        assert rep.weight_bits == bits

    @pytest.mark.parametrize("name, code", [
        ("vgg_small", (0.5, 1, 0.25, 2, 0.5, 0.25, 1)),
        ("vgg_small_mini", (0.25, 2, 0.5, 3)),
        ("resnet_mini", (0.25, 2, 0.5, 3, 1, 0.5)),  # both projection shortcuts widen
    ])
    def test_bits_match_the_instantiated_weight_arrays(self, name, code):
        t = templates.get_template(name)
        net = net_mod.instantiate(t, code, seed=0)
        weighted = [l for l in specs(t) if l.kind in ("conv", "fc")]
        assert sum(k.endswith(".weight") for k in net.params) == len(weighted)
        sizes = [(net.params[l.name + ".weight"].size, l.binarized) for l in weighted]
        assert cost.count_cost(t, code).weight_bits == sum(n + 32 if b else 32 * n for n, b in sizes)

    def test_binary_dominates_storage_compression(self):
        t = templates.vgg_small()
        code = space.uniform_code(1, 7)
        b = cost.count_cost(t, code).weight_bits
        f = cost.count_cost(t, code, binary=False).weight_bits
        assert f > 5 * b


def _exact(value):
    """`value` with every float as its hex string and every type named, so
    equal results are equal bit for bit and field for field."""
    if isinstance(value, float):
        return ("float", value.hex())
    if isinstance(value, (tuple, list)):
        return (type(value).__name__,) + tuple(_exact(v) for v in value)
    if isinstance(value, dict):
        return ("dict",) + tuple((k, _exact(v)) for k, v in value.items())
    if dataclasses.is_dataclass(value):
        return (type(value).__name__,) + tuple(_exact(getattr(value, f.name)) for f in dataclasses.fields(value))
    return (type(value).__name__, value)


class TestReferenceWalk:
    """The geometry plan against the per-call walk it replaced (`helpers`)."""

    @pytest.mark.parametrize("binary", [True, False])
    @pytest.mark.parametrize("name", sorted(templates.TEMPLATES))
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_reports_and_geometry_match_the_walk(self, name, binary, data):
        t = templates.get_template(name)
        # Past 2**24 pixels a side, MAC counts outgrow a float's 53 bits, so
        # the order in which layer FLOPs are summed shows in the totals.
        extent = data.draw(st.one_of(st.none(), st.tuples(st.integers(2**24, 2**30), st.integers(2**24, 2**30))))
        if extent is not None:
            t = dataclasses.replace(t, input_shape=(t.input_shape[0], *extent))
        code = data.draw(st.tuples(*([ratio] * t.n_genes)))
        assert _exact(cost.count_cost(t, code, binary=binary)) == _exact(count_cost_reference(t, code, binary=binary))
        assert _exact(space.layer_geometry(t, code)) == _exact(layer_geometry_reference(t, code))

    @pytest.mark.parametrize("base, stem", [(16, 0.5), (16, 1.0), (32, 2.0)],
                             ids=["tie_broken", "tie_held", "tie_held_baseline_broken"])
    def test_per_code_tie_check_matches_the_walk(self, base, stem):
        # A gene on resnet_mini's identity-block output conv: the tie to the
        # block input then holds for some codes only, and the uniform-1x
        # baseline breaks it when the two base widths differ.
        t = templates.resnet_mini()
        layers = replace_layer(t.layers, "s1b1_conv2", base_out=base, gene_index=t.n_genes)
        t = dataclasses.replace(t, layers=layers)
        code = (stem,) + (1.0,) * (t.n_genes - 1)

        def outcome(call):
            try:
                return _exact(call(t, code))
            except InputError as e:
                return str(e)

        geometry = outcome(space.layer_geometry)
        assert geometry == outcome(layer_geometry_reference)
        assert isinstance(geometry, str) == (stem == 0.5)
        priced = outcome(cost.count_cost)
        assert priced == outcome(count_cost_reference)
        assert isinstance(priced, str) == (stem != 1.0)

    def test_structural_error_keeps_the_walks_message(self):
        # A structural error is the template's, raised once when it is built.
        t = templates.vgg_small_mini()
        layers = list(t.layers)
        layers[0] = dataclasses.replace(layers[0], kernel=31, pad=0)  # wider than the 28x28 input
        with pytest.raises(InputError) as got:
            dataclasses.replace(t, layers=tuple(layers))
        assert str(got.value) == "kernel 31 exceeds padded extent 28"


class TestPlanPerInstance:
    """The plan is found through the template instance, never its value."""

    def test_no_template_hash_or_compare(self, monkeypatch):
        def refuse(self, *args):
            raise AssertionError("template hashed or compared")

        code = (0.5, 2.0, 1.0, 4.0, 0.25, 3.0, 1.0)
        for t in (templates.vgg_small(), templates.vgg_small()):
            with monkeypatch.context() as m:
                m.setattr(templates.NetworkTemplate, "__hash__", refuse)
                m.setattr(templates.NetworkTemplate, "__eq__", refuse)
                reports = [cost.count_cost(t, code, binary=b) for b in (True, False)]
                geoms = space.layer_geometry(t, code)
            assert _exact(reports) == _exact([count_cost_reference(t, code, binary=b) for b in (True, False)])
            assert _exact(geoms) == _exact(layer_geometry_reference(t, code))

    def test_same_name_different_width_prices_apart(self):
        t = templates.vgg_small_mini()
        wider = dataclasses.replace(
            t, layers=tuple(dataclasses.replace(l, base_out=64) if l.name == "conv3" else l for l in t.layers))
        assert wider.name == t.name
        code = space.uniform_code(2, t.n_genes)
        a, b = cost.count_cost(t, code), cost.count_cost(wider, code)
        assert a.flops < b.flops and a.weight_bits < b.weight_bits
        assert _exact(b) == _exact(count_cost_reference(wider, code))
        assert _exact(cost.count_cost(t, code)) == _exact(a)

    def test_fresh_equal_instance_gets_the_identical_report(self):
        code = (2.0, 0.25, 1.0, 3.0, 4.0, 0.5, 1.0, 2.0, 0.5, 4.0, 1.0, 0.25)
        first = cost.count_cost(templates.resnet18(), code)
        fresh = templates.resnet18()
        assert _exact(cost.count_cost(fresh, code)) == _exact(first)
        assert repr(cost.count_cost(fresh, code)) == repr(first)
