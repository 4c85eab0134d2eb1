"""Command line verbs, flag handling, and exit codes."""

import json
import os
import shutil

import numpy as np
import pytest

from binwidth import cli, runner, space, synth, templates
from binwidth.checkpoint import read_checkpoint, serialize_checkpoint, write_checkpoint, Checkpoint, inherit_weights
from binwidth.net import instantiate
from binwidth.search import SearchLogRecord

GOLDEN_LOG = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "resnet_mini_search_log.jsonl")


def write_config(tmp_path, **overrides):
    paths = synth.write_gray_files(str(tmp_path / "data"), train_per_class=8, test_per_class=2, seed=0)
    payload = {
        "template": "vgg_small_mini",
        "dataset": {
            "kind": "idx",
            "train_images": paths["train_images"],
            "train_labels": paths["train_labels"],
            "test_images": paths["test_images"],
            "test_labels": paths["test_labels"],
            "proxy_train_per_class": 5,
            "proxy_val_per_class": 2,
        },
        "search": {
            "population_size": 4,
            "generations": 2,
            "proxy_epochs": 1,
            "elitism_count": 1,
            "master_seed": 11,
        },
        "proxy_train": {"batch_size": 25},
        "full_train": {"epochs": 1, "batch_size": 25, "augment": False},
        "output_dir": str(tmp_path / "run"),
    }
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(payload.get(key), dict):
            payload[key].update(value)
        else:
            payload[key] = value
    cfg_path = str(tmp_path / "run.json")
    with open(cfg_path, "w") as f:
        json.dump(payload, f)
    return cfg_path


def supernet_ckpt(tmp_path, template_name="vgg_small_mini", seed=3):
    t = templates.get_template(template_name)
    code4 = space.uniform_code(4, t.n_genes)
    net = instantiate(t, code4, seed=seed)
    path = str(tmp_path / "supernet.ckpt")
    write_checkpoint(path, Checkpoint(net.state_dict(), t.name, code4, seed))
    return path


class TestFlops:
    def test_uniform_report(self, capsys):
        assert cli.main(["flops", "--template", "vgg_small", "--uniform", "1"]) == 0
        out = capsys.readouterr().out
        assert "flops_norm     1.0000" in out
        assert "csv template,code," in out

    def test_code_file_input(self, tmp_path, capsys):
        code_path = tmp_path / "code.json"
        code_path.write_text(space.code_file_text("vgg_small_mini", (0.5, 1.0, 2.0, 1.0)))
        assert cli.main(["flops", "--template", "vgg_small_mini", "--code", str(code_path)]) == 0
        assert "0.5 1.0 2.0 1.0" in capsys.readouterr().out

    def test_out_file_holds_csv(self, tmp_path, capsys):
        out = tmp_path / "cost.csv"
        cli.main(["flops", "--template", "resnet_mini", "--uniform", "2", "--out", str(out)])
        lines = out.read_text().splitlines()
        assert lines[0].startswith("template,code,binary")
        assert lines[1].startswith("resnet_mini,2")
        assert os.listdir(tmp_path) == ["cost.csv"]  # no temp file left behind

    def test_out_makes_its_directory(self, tmp_path):
        out = tmp_path / "new" / "cost.csv"
        assert cli.main(["flops", "--template", "resnet_mini", "--uniform", "2", "--out", str(out)]) == 0
        assert out.read_text().startswith("template,code,binary")
        assert os.listdir(out.parent) == ["cost.csv"]

    def test_full_precision_flag(self, capsys):
        cli.main(["flops", "--template", "vgg_small_mini", "--uniform", "1", "--full-precision"])
        out = capsys.readouterr().out
        assert "full-precision" in out
        assert "speedup        1.00x" in out

    def test_binary_is_the_default_not_a_flag(self, capsys):
        with pytest.raises(SystemExit) as e:
            cli.main(["flops", "--template", "vgg_small_mini", "--uniform", "1", "--binary"])
        assert e.value.code == 2
        assert "--binary" in capsys.readouterr().err

    def test_missing_code_and_uniform_is_input_error(self, capsys):
        assert cli.main(["flops", "--template", "vgg_small"]) == 2
        assert "input error" in capsys.readouterr().err

    def test_code_and_uniform_together_are_refused(self, tmp_path, capsys):
        code_path = tmp_path / "code.json"
        code_path.write_text(space.code_file_text("vgg_small_mini", space.uniform_code(1, 4)))
        with pytest.raises(SystemExit) as e:
            cli.main(["flops", "--template", "vgg_small_mini", "--code", str(code_path), "--uniform", "2"])
        assert e.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    def test_unknown_template_is_input_error(self, capsys):
        assert cli.main(["flops", "--template", "nope", "--uniform", "1"]) == 2

    def test_foreign_ratio_is_input_error(self):
        assert cli.main(["flops", "--template", "vgg_small", "--uniform", "1.7"]) == 2

    def test_template_mismatch_in_code_file(self, tmp_path):
        code_path = tmp_path / "code.json"
        code_path.write_text(space.code_file_text("resnet_mini", space.uniform_code(1, 6)))
        assert cli.main(["flops", "--template", "vgg_small", "--code", str(code_path)]) == 2

    def test_code_file_without_template_string_is_format_error(self, tmp_path, capsys):
        code_path = tmp_path / "code.json"
        code_path.write_text('{"template": null, "ratios": [1, 1, 1, 1]}')
        assert cli.main(["flops", "--template", "vgg_small_mini", "--code", str(code_path)]) == 3
        err = capsys.readouterr().err
        assert "format error" in err and "None" not in err

    def test_code_file_with_foreign_ratio_is_format_error_naming_it(self, tmp_path, capsys):
        code_path = tmp_path / "code.json"
        code_path.write_text('{"template": "vgg_small_mini", "ratios": [1, 1.5, 1, 1]}')
        assert cli.main(["flops", "--template", "vgg_small_mini", "--code", str(code_path)]) == 3
        assert f"format error: code file {code_path}: 'ratios': ratio 1.5 at gene 1" in capsys.readouterr().err

    def test_code_file_not_utf8_is_format_error_naming_it(self, tmp_path, capsys):
        code_path = tmp_path / "code.json"
        code_path.write_bytes(b'{"template": "vgg_small_mini\xff", "ratios": [1, 1, 1, 1]}')
        assert cli.main(["flops", "--template", "vgg_small_mini", "--code", str(code_path)]) == 3
        assert f"format error: code file {code_path}: not valid JSON: 'utf-8' codec" in capsys.readouterr().err


class TestSearch:
    def test_end_to_end_run(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path)
        assert cli.main(["search", "--config", cfg_path]) == 0
        out = capsys.readouterr().out
        assert "best fitness:" in out
        run_dir = str(tmp_path / "run")
        assert os.path.exists(os.path.join(run_dir, "search_log.jsonl"))
        assert os.path.exists(os.path.join(run_dir, "best_code.json"))

    def test_out_and_seed_overrides(self, tmp_path):
        cfg_path = write_config(tmp_path)
        other = tmp_path / "elsewhere"
        assert cli.main(["search", "--config", cfg_path, "--out", str(other), "--seed", "42"]) == 0
        records = [json.loads(l) for l in (other / "search_log.jsonl").read_text().splitlines()]
        from binwidth.seeding import derive_seed

        assert records[0]["eval_seed"] == derive_seed(42, "eval", 0, 0)

    def test_missing_dataset_file_leaves_no_output_dir(self, tmp_path, capsys):
        gone = tmp_path / "gone.idx"
        cfg_path = write_config(tmp_path, dataset={"train_images": str(gone)})
        assert cli.main(["search", "--config", cfg_path]) == 2
        assert f"config error: dataset file '{gone}' (train_images) does not exist" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "run")

    def test_missing_config_is_config_error(self, capsys):
        assert cli.main(["search", "--config", "/no/such.json"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_config_not_utf8_is_config_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_bytes(b'{"template": "vgg_small_mini\xff"}')
        assert cli.main(["search", "--config", str(cfg_path)]) == 2
        assert f"config error: config file '{cfg_path}': not valid JSON: 'utf-8' codec" in capsys.readouterr().err


class TestTrain:
    def test_trains_and_reports(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path)
        assert cli.main(["train", "--config", cfg_path, "--uniform", "1", "--epochs", "1"]) == 0
        out = capsys.readouterr().out
        assert "train top-1:" in out
        assert "test top-1:" in out
        ckpt = read_checkpoint(str(tmp_path / "run" / "model.ckpt"))
        assert ckpt.template == "vgg_small_mini"

    def test_zero_epochs_checkpoint_equals_fresh_init(self, tmp_path):
        cfg_path = write_config(tmp_path)
        assert cli.main([
            "train", "--config", cfg_path, "--uniform", "1",
            "--epochs", "0", "--seed", "5", "--out", str(tmp_path / "zero"),
        ]) == 0
        ckpt = read_checkpoint(str(tmp_path / "zero" / "model.ckpt"))
        t = templates.vgg_small_mini()
        fresh = instantiate(t, space.uniform_code(1, 4), seed=5)
        expect = fresh.state_dict()
        assert set(ckpt.arrays) == set(expect)
        for k in expect:
            np.testing.assert_array_equal(ckpt.arrays[k], expect[k], err_msg=k)

    def test_inherit_flag_uses_supernet_weights(self, tmp_path):
        cfg_path = write_config(tmp_path)
        sup_path = supernet_ckpt(tmp_path)
        out_dir = str(tmp_path / "inh")
        assert cli.main([
            "train", "--config", cfg_path, "--uniform", "1", "--epochs", "0",
            "--inherit", sup_path, "--out", out_dir,
        ]) == 0
        ckpt = read_checkpoint(os.path.join(out_dir, "model.ckpt"))
        sup = read_checkpoint(sup_path)
        t = templates.vgg_small_mini()
        expect = inherit_weights(sup, t, space.uniform_code(1, 4))
        for k in expect.arrays:
            np.testing.assert_array_equal(ckpt.arrays[k], expect.arrays[k], err_msg=k)

    @pytest.mark.parametrize("missing", ["test_images", "test_labels"])
    def test_half_a_test_pair_is_config_error_naming_the_missing_path(self, tmp_path, capsys, missing):
        cfg_path = write_config(tmp_path, dataset={missing: None})
        assert cli.main(["train", "--config", cfg_path, "--uniform", "1", "--epochs", "0"]) == 2
        assert f"config error: dataset kind 'idx' needs '{missing}'" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "run")


class TestEvalVerb:
    def test_eval_matches_train_output(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path)
        cli.main(["train", "--config", cfg_path, "--uniform", "1", "--epochs", "1", "--seed", "7"])
        train_out = capsys.readouterr().out
        reported = float(train_out.split("test top-1:")[1].split("%")[0])
        ckpt_path = str(tmp_path / "run" / "model.ckpt")
        assert cli.main(["eval", "--config", cfg_path, "--ckpt", ckpt_path]) == 0
        eval_out = capsys.readouterr().out
        assert float(eval_out.split("test top-1:")[1].split("%")[0]) == pytest.approx(reported)

    def test_train_split(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path)
        cli.main(["train", "--config", cfg_path, "--uniform", "1", "--epochs", "0"])
        capsys.readouterr()
        ckpt_path = str(tmp_path / "run" / "model.ckpt")
        assert cli.main(["eval", "--config", cfg_path, "--ckpt", ckpt_path, "--split", "train"]) == 0
        assert "train top-1:" in capsys.readouterr().out

    def test_corrupt_checkpoint_is_format_error(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path)
        bad = str(tmp_path / "bad.ckpt")
        with open(bad, "wb") as f:
            f.write(b"junkjunkjunkjunk")
        assert cli.main(["eval", "--config", cfg_path, "--ckpt", bad]) == 3
        assert "format error" in capsys.readouterr().err

    @pytest.mark.parametrize("field", [{"ratios": 5}, {"seed": "x"}, {"ratios": [7, 7, 7, 7]}],
                             ids=["ratios_number", "seed_string", "ratios_foreign"])
    def test_checkpoint_metadata_of_wrong_type_is_format_error(self, tmp_path, capsys, field):
        cfg_path = write_config(tmp_path)
        bad = str(tmp_path / "bad.ckpt")
        empty = serialize_checkpoint(Checkpoint({}, "vgg_small_mini", space.uniform_code(1, 4), 0))
        meta = json.dumps({"template": "vgg_small_mini", "ratios": [1, 1, 1, 1], "seed": 0, **field}).encode()
        with open(bad, "wb") as f:
            f.write(empty[:16] + len(meta).to_bytes(4, "little") + meta)  # magic, version, 0 entries
        assert cli.main(["eval", "--config", cfg_path, "--ckpt", bad]) == 3
        assert "format error" in capsys.readouterr().err


class TestTemplateMustFitData:
    """resnet_mini takes 3x32x32 images; the config's IDX data is 1x28x28."""

    MESSAGE = ("input error: template 'resnet_mini' takes (3, 32, 32) images (C, H, W), "
               "but the data holds (1, 28, 28)")

    def test_search_refuses_before_any_evaluation(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, template="resnet_mini", supernet_init=True)
        assert cli.main(["search", "--config", cfg_path]) == 2
        assert self.MESSAGE in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "run")  # no supernet, no log, no directory

    def test_train_refuses(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, template="resnet_mini")
        assert cli.main(["train", "--config", cfg_path, "--uniform", "1", "--epochs", "1"]) == 2
        assert self.MESSAGE in capsys.readouterr().err

    def test_eval_refuses(self, tmp_path, capsys, monkeypatch):
        cfg_path = write_config(tmp_path)
        code = space.uniform_code(1, 6)
        ckpt_path = str(tmp_path / "resnet.ckpt")
        network = instantiate(templates.resnet_mini(), code, seed=0)
        write_checkpoint(ckpt_path, Checkpoint(network.state_dict(), "resnet_mini", code, 0))
        # The data are checked before any work on the network.
        monkeypatch.setattr(cli, "instantiate", lambda *args, **kwargs: pytest.fail("network built first"))
        assert cli.main(["eval", "--config", cfg_path, "--ckpt", ckpt_path]) == 2
        assert self.MESSAGE in capsys.readouterr().err


class TestEmptyDataIsRefused:
    """Zero-byte record files parse to datasets that hold no images."""

    def config(self, tmp_path):
        paths = {name: str(tmp_path / f"{name}.bin") for name in ("train", "test")}
        for path in paths.values():
            open(path, "wb").close()
        payload = {"template": "resnet_mini", "dataset": {"kind": "records", **paths},
                   "output_dir": str(tmp_path / "run")}
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(payload))
        return str(cfg_path)

    def test_train_refuses_before_training(self, tmp_path, capsys):
        cfg_path = self.config(tmp_path)
        assert cli.main(["train", "--config", cfg_path, "--uniform", "1"]) == 2
        err = capsys.readouterr().err
        assert "input error: template 'resnet_mini' got train data with no images" in err
        assert "Traceback" not in err
        assert not os.path.exists(tmp_path / "run")

    def test_eval_refuses(self, tmp_path, capsys):
        cfg_path = self.config(tmp_path)
        code = space.uniform_code(1, 6)
        ckpt_path = str(tmp_path / "resnet.ckpt")
        network = instantiate(templates.resnet_mini(), code, seed=0)
        write_checkpoint(ckpt_path, Checkpoint(network.state_dict(), "resnet_mini", code, 0))
        assert cli.main(["eval", "--config", cfg_path, "--ckpt", ckpt_path]) == 2
        err = capsys.readouterr().err
        assert "input error: template 'resnet_mini' got test data with no images" in err
        assert "Traceback" not in err


class TestInherit:
    def test_slices_match_library_call(self, tmp_path, capsys):
        sup_path = supernet_ckpt(tmp_path)
        out_path = str(tmp_path / "child.ckpt")
        assert cli.main(["inherit", "--supernet", sup_path, "--uniform", "2", "--out", out_path]) == 0
        child = read_checkpoint(out_path)
        sup = read_checkpoint(sup_path)
        t = templates.vgg_small_mini()
        expect = inherit_weights(sup, t, space.uniform_code(2, 4))
        assert child.code == expect.code
        for k in expect.arrays:
            np.testing.assert_array_equal(child.arrays[k], expect.arrays[k], err_msg=k)

    def test_out_makes_its_directory(self, tmp_path):
        out_path = tmp_path / "new" / "child.ckpt"
        assert cli.main(["inherit", "--supernet", supernet_ckpt(tmp_path), "--uniform", "1",
                         "--out", str(out_path)]) == 0
        assert read_checkpoint(str(out_path)).code == space.uniform_code(1, 4)
        assert os.listdir(out_path.parent) == ["child.ckpt"]

    def test_identity_slice_round_trips_bytes(self, tmp_path):
        from binwidth.checkpoint import serialize_checkpoint

        sup_path = supernet_ckpt(tmp_path)
        out_path = str(tmp_path / "same.ckpt")
        cli.main(["inherit", "--supernet", sup_path, "--uniform", "4", "--out", out_path])
        assert serialize_checkpoint(read_checkpoint(out_path)) == serialize_checkpoint(
            read_checkpoint(sup_path)
        )

    def test_supernet_missing_an_array_is_input_error(self, tmp_path, capsys):
        sup = read_checkpoint(supernet_ckpt(tmp_path, "resnet_mini"))
        del sup.arrays["s1b1_conv1.weight"]
        sup_path = str(tmp_path / "partial.ckpt")
        write_checkpoint(sup_path, sup)
        out_path = str(tmp_path / "child.ckpt")
        assert cli.main(["inherit", "--supernet", sup_path, "--uniform", "1", "--out", out_path]) == 2
        assert "supernet lacks 1 array(s) of 'resnet_mini': s1b1_conv1.weight" in capsys.readouterr().err
        assert not os.path.exists(out_path)


class TestReportVerb:
    def test_emits_three_tables(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path)
        cli.main(["search", "--config", cfg_path])
        capsys.readouterr()
        rep_dir = str(tmp_path / "rep")
        assert cli.main(["report", "--run", str(tmp_path / "run"), "--out", rep_dir]) == 0
        for name in ("fitness.csv", "channels.csv", "flops.csv"):
            assert os.path.exists(os.path.join(rep_dir, name))

    def test_tables_are_pinned_byte_for_byte(self, tmp_path, capsys):
        # The golden resnet_mini log and its best record's code file, as a search leaves them.
        run = tmp_path / "run"
        run.mkdir()
        shutil.copyfile(GOLDEN_LOG, run / runner.LOG_NAME)
        best = max(runner.read_search_log(str(run / runner.LOG_NAME)), key=lambda r: r.fitness)
        (run / runner.BEST_CODE_NAME).write_text(space.code_file_text("resnet_mini", best.code))
        assert cli.main(["report", "--run", str(run), "--out", str(tmp_path / "rep")]) == 0
        capsys.readouterr()
        tables = {name: (tmp_path / "rep" / name).read_bytes() for name in ("fitness.csv", "channels.csv", "flops.csv")}
        assert tables == {
            "fitness.csv": (
                b"generation,evaluations,best_fitness,mean_fitness,best_acc\r\n"
                b"0,4,3.688019,2.083266,5.0000\r\n"
                b"1,3,8.168052,5.121022,10.0000\r\n"),
            "channels.csv": (
                b"layer,kind,searched,uniform_1x,uniform_2x,uniform_3x,uniform_4x\r\n"
                b"stem_conv,conv,4,16,32,48,64\r\n"
                b"s1b1_conv1,conv,64,16,32,48,64\r\n"
                b"s1b1_conv2,conv,4,16,32,48,64\r\n"
                b"s2b1_conv1,conv,16,32,64,96,128\r\n"
                b"s2b1_conv2,conv,32,32,64,96,128\r\n"
                b"s2b1_proj_conv,conv,32,32,64,96,128\r\n"
                b"s3b1_conv1,conv,192,64,128,192,256\r\n"
                b"s3b1_conv2,conv,16,64,128,192,256\r\n"
                b"s3b1_proj_conv,conv,16,64,128,192,256\r\n"
                b"fc,fc,10,10,10,10,10\r\n"),
            "flops.csv": (
                b"label,code,binary,flops,flops_norm,speedup,weight_bits\r\n"
                b"full_precision_1x,1 1 1 1 1 1,0,12501632.0,19.799108,1.0000,2475520\r\n"
                b"uniform_1x,1 1 1 1 1 1,1,631424.0,1.000000,19.7991,110848\r\n"
                b"uniform_2x,2 2 2 2 2 2,1,1639680.0,2.596797,7.6244,374016\r\n"
                b"uniform_3x,3 3 3 3 3 3,1,3024768.0,4.790391,4.1331,789760\r\n"
                b"uniform_4x,4 4 4 4 4 4,1,4786688.0,7.580782,2.6117,1358080\r\n"
                b"searched,0.25 4 0.5 1 3 0.25,1,289184.0,0.457987,43.2307,102208\r\n"),
        }

    def test_log_line_not_utf8_is_format_error_at_its_line(self, tmp_path, capsys):
        (tmp_path / "best_code.json").write_text(space.code_file_text("vgg_small_mini", (1.0,) * 4))
        record = SearchLogRecord(generation=0, index=0, code=(1.0,) * 4, acc=50.0, flops=1.0, flops_norm=1.0,
                                 fitness=0.5, eval_seed=7, wall_time=0.0, diverged=False, random_parents=False)
        log_path = tmp_path / "search_log.jsonl"
        log_path.write_bytes(record.to_json().encode() + b"\n" + record.to_json().encode()[:-1] + b"\xff}\n")
        assert cli.main(["report", "--run", str(tmp_path)]) == 3
        assert f"format error: {log_path}:2: not valid JSON: 'utf-8' codec can't decode byte 0xff" in capsys.readouterr().err

    def test_missing_run_dir_is_io_error(self, tmp_path, capsys):
        run = str(tmp_path / "no" / "run")
        for out in ([], ["--out", str(tmp_path / "rep")]):
            assert cli.main(["report", "--run", run, *out]) == 1
            assert "io error" in capsys.readouterr().err
            assert os.listdir(tmp_path) == []  # neither the run directory nor --out


class TestSynthVerb:
    def test_idx_files_parse(self, tmp_path, capsys):
        d = tmp_path / "mk"
        assert cli.main(["synth", "--kind", "idx", "--dir", str(d), "--train-per-class", "3",
                         "--test-per-class", "2", "--seed", "1"]) == 0
        from binwidth.data import parse_mnist_idx

        out = capsys.readouterr().out
        assert "train_images" in out
        train = parse_mnist_idx((d / "train-images.idx").read_bytes(), (d / "train-labels.idx").read_bytes())
        assert len(train) == 30

    def test_records_files_parse(self, tmp_path):
        d = tmp_path / "mk"
        assert cli.main(["synth", "--kind", "records", "--dir", str(d), "--train-per-class", "2",
                         "--test-per-class", "1"]) == 0
        from binwidth.data import parse_cifar10_bin

        test = parse_cifar10_bin((d / "test.bin").read_bytes())
        assert len(test) == 10


class TestDivergenceExit:
    def test_training_blowup_exits_four(self, tmp_path, capsys):
        cfg_path = write_config(
            tmp_path,
            full_train={
                "epochs": 3,
                "batch_size": 25,
                "augment": False,
                "weight_decay": 1e-4,
                "schedule": {"base_lr": 1e18},
            },
        )
        with np.errstate(all="ignore"):
            rc = cli.main(["train", "--config", cfg_path, "--uniform", "1"])
        assert rc == 4
        assert "divergence" in capsys.readouterr().err
