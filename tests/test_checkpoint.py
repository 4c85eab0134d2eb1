"""Checkpoint binary format and supernet weight inheritance."""

import ast
import dataclasses
import json
import os
import pathlib
import struct

import numpy as np
import pytest

from binwidth import checkpoint as ck
from binwidth import net as net_mod
from binwidth import space, templates
from binwidth.errors import FormatError, InputError

from helpers import replace_layer


def small_ckpt(seed=0):
    t = templates.vgg_small_mini()
    net = net_mod.instantiate(t, space.uniform_code(1, t.n_genes), seed=seed)
    return ck.Checkpoint(
        arrays=net.state_dict(),
        template=t.name,
        code=space.uniform_code(1, t.n_genes),
        seed=seed,
    )


class TestSerialization:
    def test_round_trip_byte_identical(self):
        c = small_ckpt()
        blob = ck.serialize_checkpoint(c)
        back = ck.deserialize_checkpoint(blob)
        assert ck.serialize_checkpoint(back) == blob
        assert back.template == c.template
        assert back.code == c.code
        assert back.seed == c.seed
        assert set(back.arrays) == set(c.arrays)
        for k in c.arrays:
            np.testing.assert_array_equal(back.arrays[k], c.arrays[k], err_msg=k)

    def test_serialize_is_deterministic(self):
        c = small_ckpt()
        assert ck.serialize_checkpoint(c) == ck.serialize_checkpoint(c)

    def test_header_layout(self):
        c = small_ckpt()
        blob = ck.serialize_checkpoint(c)
        assert blob[:8] == b"BNASCKPT"
        version, count = struct.unpack_from("<II", blob, 8)
        assert version == ck.FORMAT_VERSION
        assert count == len(c.arrays)

    def test_payload_little_endian_float32(self):
        arrays = {"w": np.array([1.0, -2.5], dtype=np.float32)}
        c = ck.Checkpoint(arrays=arrays, template="t", code=(1.0,), seed=0)
        blob = ck.serialize_checkpoint(c)
        name_at = 16
        assert struct.unpack_from("<H", blob, name_at)[0] == 1
        assert blob[name_at + 2 : name_at + 3] == b"w"
        rank_at = name_at + 3
        assert struct.unpack_from("<I", blob, rank_at)[0] == 1
        assert struct.unpack_from("<I", blob, rank_at + 4)[0] == 2
        np.testing.assert_array_equal(
            np.frombuffer(blob, dtype="<f4", count=2, offset=rank_at + 8),
            arrays["w"],
        )

    def test_rejects_non_float32(self):
        c = ck.Checkpoint(
            arrays={"w": np.zeros(2, dtype=np.float64)}, template="t", code=(1.0,), seed=0
        )
        with pytest.raises(InputError):
            ck.serialize_checkpoint(c)

    def test_file_round_trip(self, tmp_path):
        c = small_ckpt()
        path = str(tmp_path / "model.ckpt")
        ck.write_checkpoint(path, c)
        again = ck.read_checkpoint(path)
        assert ck.serialize_checkpoint(again) == ck.serialize_checkpoint(c)

    def test_empty_arrays_round_trip(self):
        c = ck.Checkpoint(arrays={}, template="t", code=(2.0,), seed=7)
        back = ck.deserialize_checkpoint(ck.serialize_checkpoint(c))
        assert back.arrays == {}
        assert back.code == (2.0,)


class TestMalformedInput:
    def blob(self):
        return ck.serialize_checkpoint(small_ckpt())

    def test_bad_magic_offset_zero(self):
        blob = b"XXASCKPT" + self.blob()[8:]
        with pytest.raises(FormatError) as e:
            ck.deserialize_checkpoint(blob)
        assert e.value.offset == 0

    def test_bad_version_offset_eight(self):
        blob = bytearray(self.blob())
        struct.pack_into("<I", blob, 8, 999)
        with pytest.raises(FormatError) as e:
            ck.deserialize_checkpoint(bytes(blob))
        assert e.value.offset == 8
        assert "999" in str(e.value)

    def test_truncated_header(self):
        with pytest.raises(FormatError):
            ck.deserialize_checkpoint(b"BNASCK")

    def test_truncated_payload_reports_offset(self):
        blob = self.blob()
        cut = len(blob) // 2
        with pytest.raises(FormatError) as e:
            ck.deserialize_checkpoint(blob[:cut])
        assert e.value.offset is not None
        assert e.value.offset <= cut

    def test_trailing_garbage_rejected(self):
        with pytest.raises(FormatError) as e:
            ck.deserialize_checkpoint(self.blob() + b"\x00")
        assert "trailing" in str(e.value)

    def test_duplicate_names_rejected(self):
        a = ck.Checkpoint(arrays={"w": np.zeros(1, dtype=np.float32)}, template="t", code=(1.0,), seed=0)
        blob = bytearray(ck.serialize_checkpoint(a))
        struct.pack_into("<I", blob, 12, 2)  # claim two entries
        entry = blob[16 : 16 + 2 + 1 + 4 + 4 + 4]
        blob[16:16] = entry  # duplicate the single "w" entry
        with pytest.raises(FormatError) as e:
            ck.deserialize_checkpoint(bytes(blob))
        assert "duplicate" in str(e.value)

    def test_non_json_metadata(self):
        c = ck.Checkpoint(arrays={}, template="t", code=(1.0,), seed=0)
        blob = ck.serialize_checkpoint(c)
        meta = json.dumps({"template": "t", "ratios": [1], "seed": 0}, sort_keys=True).encode()
        head = blob[: len(blob) - 4 - len(meta)]
        bad = b"{nope"
        with pytest.raises(FormatError):
            ck.deserialize_checkpoint(head + struct.pack("<I", len(bad)) + bad)

    def test_metadata_missing_keys(self):
        c = ck.Checkpoint(arrays={}, template="t", code=(1.0,), seed=0)
        blob = ck.serialize_checkpoint(c)
        meta = json.dumps({"template": "t", "ratios": [1], "seed": 0}, sort_keys=True).encode()
        head = blob[: len(blob) - 4 - len(meta)]
        bad = json.dumps({"template": "t"}).encode()
        with pytest.raises(FormatError) as e:
            ck.deserialize_checkpoint(head + struct.pack("<I", len(bad)) + bad)
        assert "metadata" in str(e.value)

    @pytest.mark.parametrize("field", [
        {"ratios": 5}, {"ratios": [7, 7, 7, 7]}, {"ratios": {}}, {"seed": "x"}, {"seed": True}, {"seed": 1.5},
        {"template": 3}, {"extra": 1},
    ], ids=["ratios_number", "ratios_foreign", "ratios_object", "seed_string", "seed_bool", "seed_float",
            "template_number", "unknown_key"])
    def test_metadata_of_wrong_type_is_format_error_at_its_offset(self, field):
        blob = ck.serialize_checkpoint(ck.Checkpoint(arrays={}, template="t", code=(1.0,), seed=0))
        meta = json.dumps({"template": "t", "ratios": [1], "seed": 0}, sort_keys=True).encode()
        head = blob[: len(blob) - len(meta)]
        bad = json.dumps({"template": "t", "ratios": [1], "seed": 0, **field}).encode()
        with pytest.raises(FormatError) as e:
            ck.deserialize_checkpoint(head[:-4] + struct.pack("<I", len(bad)) + bad)
        assert "metadata" in str(e.value)
        assert e.value.offset == len(head)


class TestAtomicWrites:
    def test_no_partial_file_on_failure(self, tmp_path):
        target = tmp_path / "out.bin"
        ck.atomic_write_bytes(str(target), b"hello")
        assert target.read_bytes() == b"hello"
        leftovers = [p for p in tmp_path.iterdir() if p.name != "out.bin"]
        assert leftovers == []

    def test_overwrites_existing(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("old")
        ck.atomic_write_text(str(target), "new")
        assert target.read_text() == "new"

    def test_makes_the_directory(self, tmp_path):
        target = tmp_path / "a" / "b" / "out.bin"
        ck.atomic_write_bytes(str(target), b"hello")
        assert target.read_bytes() == b"hello"
        assert os.listdir(target.parent) == ["out.bin"]

    def test_package_writes_files_only_through_it(self):
        """Builtin open() in the package reads ("rb"), except the search
        log's append and its torn-tail truncation; every other file is
        written by atomic_write_bytes, the one caller of os.fdopen."""
        allowed = {("runner.py", "run_search", "'a'"), ("runner.py", "_drop_torn_tail", "'rb+'"),
                   ("checkpoint.py", "atomic_write_bytes", "fdopen")}
        found = set()

        def visit(node, path, function):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    visit(child, path, child.name)
                    continue
                if isinstance(child, ast.Call):
                    func = child.func
                    if isinstance(func, ast.Name) and func.id == "open":
                        mode = child.args[1] if len(child.args) > 1 else next(
                            (k.value for k in child.keywords if k.arg == "mode"), None)
                        found.add((path.name, function, "'r'" if mode is None else ast.unparse(mode)))
                    elif isinstance(func, ast.Attribute) and func.attr in ("fdopen", "write_bytes", "write_text"):
                        found.add((path.name, function, func.attr))
                visit(child, path, function)

        for path in sorted(pathlib.Path(ck.__file__).parent.glob("*.py")):
            visit(ast.parse(path.read_text(encoding="utf-8")), path, None)
        assert {site for site in found if site[2] != "'rb'"} == allowed


def supernet_for(template_name, seed=21):
    t = templates.get_template(template_name)
    code4 = space.uniform_code(4, t.n_genes)
    net = net_mod.instantiate(t, code4, seed=seed)
    return ck.Checkpoint(arrays=net.state_dict(), template=t.name, code=code4, seed=seed)


class TestInheritance:
    def test_all_four_code_is_identity(self):
        sup = supernet_for("vgg_small_mini")
        t = templates.vgg_small_mini()
        child = ck.inherit_weights(sup, t, space.uniform_code(4, t.n_genes))
        assert set(child.arrays) == set(sup.arrays)
        for k in sup.arrays:
            np.testing.assert_array_equal(child.arrays[k], sup.arrays[k], err_msg=k)

    @pytest.mark.parametrize("template_name", ["vgg_small_mini", "resnet_mini"])
    def test_child_arrays_load_into_child_net(self, template_name):
        sup = supernet_for(template_name)
        t = templates.get_template(template_name)
        rng = np.random.default_rng(3)
        code = tuple(rng.choice(space.RATIOS, size=t.n_genes))
        child = ck.inherit_weights(sup, t, code)
        net = net_mod.instantiate(t, code, seed=0)
        net.load_state_dict(child.arrays)  # raises on any shape mismatch
        assert child.code == tuple(code)

    def test_prefix_slice_semantics(self):
        # Fill the supernet with arange values so every slice is checkable.
        sup = supernet_for("vgg_small_mini")
        for k, v in sup.arrays.items():
            sup.arrays[k] = np.arange(v.size, dtype=np.float32).reshape(v.shape)
        t = templates.vgg_small_mini()
        code = space.uniform_code(1, t.n_genes)
        child = ck.inherit_weights(sup, t, code)
        for name, arr in child.arrays.items():
            full = sup.arrays[name]
            if name.endswith("conv1.weight"):
                np.testing.assert_array_equal(arr, full[: arr.shape[0], : arr.shape[1]])
            if name.startswith("bn1."):
                np.testing.assert_array_equal(arr, full[: arr.shape[0]])

    def test_fc_rows_follow_flattened_channel_prefix(self):
        # Child fc input features must be the leading rows of the supernet
        # fc weight because channels vary slowest in the flatten order.
        sup = supernet_for("vgg_small_mini")
        for k, v in sup.arrays.items():
            sup.arrays[k] = np.arange(v.size, dtype=np.float32).reshape(v.shape)
        t = templates.vgg_small_mini()
        code = space.uniform_code(2, t.n_genes)
        child = ck.inherit_weights(sup, t, code)
        w_child = child.arrays["fc1.weight"]
        w_full = sup.arrays["fc1.weight"]
        np.testing.assert_array_equal(
            w_child, w_full[: w_child.shape[0], : w_child.shape[1]]
        )

    def test_inherited_forward_matches_sliced_supernet_head(self):
        # The first conv consumes the original input; with a 1x code its
        # output must equal the first 1x-many channels of the supernet's.
        sup = supernet_for("vgg_small_mini")
        t = templates.vgg_small_mini()
        code1 = space.uniform_code(1, t.n_genes)
        child = ck.inherit_weights(sup, t, code1)

        big = net_mod.instantiate(t, space.uniform_code(4, t.n_genes), seed=1)
        big.load_state_dict(sup.arrays)
        small = net_mod.instantiate(t, code1, seed=2)
        small.load_state_dict(child.arrays)

        x = np.random.default_rng(5).uniform(0, 1, (2, 1, 28, 28)).astype(np.float32)
        from binwidth.ops import conv2d_forward

        big_out = conv2d_forward(x, big.params["conv1.weight"], stride=1, pad=1)[0]
        small_out = conv2d_forward(x, small.params["conv1.weight"], stride=1, pad=1)[0]
        np.testing.assert_allclose(small_out, big_out[:, : small_out.shape[1]], rtol=1e-6)

    def test_wrong_template_rejected(self):
        sup = supernet_for("vgg_small_mini")
        t = templates.resnet_mini()
        with pytest.raises(InputError):
            ck.inherit_weights(sup, t, space.uniform_code(1, t.n_genes))

    def test_supernet_checks_precede_the_child_walk(self):
        # A gene on resnet_mini's identity-block output conv: stem 0.5 then
        # breaks the tie to the block input, an error of the child's walk.
        t = templates.resnet_mini()
        layers = replace_layer(t.layers, "s1b1_conv2", base_out=16, gene_index=t.n_genes)
        t = dataclasses.replace(t, layers=layers)
        code = (0.5,) + (1.0,) * (t.n_genes - 1)
        with pytest.raises(InputError, match="identity shortcut"):
            space.layer_geometry(t, code)
        with pytest.raises(InputError, match="supernet is for template 'vgg_small_mini', not 'resnet_mini'"):
            ck.inherit_weights(supernet_for("vgg_small_mini"), t, code)

    def test_non_4x_supernet_rejected(self):
        t = templates.vgg_small_mini()
        net = net_mod.instantiate(t, space.uniform_code(2, t.n_genes), seed=0)
        sup = ck.Checkpoint(
            arrays=net.state_dict(), template=t.name, code=space.uniform_code(2, t.n_genes), seed=0
        )
        with pytest.raises(InputError):
            ck.inherit_weights(sup, t, space.uniform_code(1, t.n_genes))

    def test_unknown_entry_rejected(self):
        sup = supernet_for("vgg_small_mini")
        sup.arrays["mystery.weight"] = np.zeros((2, 2), dtype=np.float32)
        t = templates.vgg_small_mini()
        with pytest.raises(InputError):
            ck.inherit_weights(sup, t, space.uniform_code(1, t.n_genes))

    def test_shape_head_mismatch_rejected(self):
        sup = supernet_for("vgg_small_mini")
        name = "conv2.weight"
        sup.arrays[name] = sup.arrays[name][:, :-1]
        t = templates.vgg_small_mini()
        with pytest.raises(InputError):
            ck.inherit_weights(sup, t, space.uniform_code(1, t.n_genes))

    def test_wrong_kernel_extent_rejected(self):
        # The channel axes are right; only the kernel's width is short.
        sup = supernet_for("vgg_small_mini")
        sup.arrays["conv2.weight"] = np.ascontiguousarray(sup.arrays["conv2.weight"][:, :, :, :2])
        t = templates.vgg_small_mini()
        with pytest.raises(InputError, match="conv2.weight"):
            ck.inherit_weights(sup, t, space.uniform_code(1, t.n_genes))
