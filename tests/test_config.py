"""Run-configuration parsing: defaults, overrides, loud failure on typos."""

import json

import pytest

from binwidth import cli
from binwidth import config as cm
from binwidth import synth
from binwidth.errors import ConfigError


def write_data(tmp_path, kind="idx", train_per_class=8, test_per_class=2):
    d = str(tmp_path / "data")
    if kind == "idx":
        return synth.write_gray_files(d, train_per_class, test_per_class, seed=0)
    return synth.write_rgb_files(d, train_per_class, test_per_class, seed=0)


def minimal_payload(paths, kind="idx", **extra):
    dataset = {"kind": kind, "proxy_train_per_class": 5, "proxy_val_per_class": 2}
    if kind == "idx":
        dataset.update(
            train_images=paths["train_images"], train_labels=paths["train_labels"],
            test_images=paths["test_images"], test_labels=paths["test_labels"],
        )
    else:
        dataset.update(train=paths["train"], test=paths["test"])
    payload = {
        "template": "vgg_small_mini",
        "dataset": dataset,
        "output_dir": "runs/demo",
    }
    payload.update(extra)
    return payload


class TestParsing:
    def test_minimal_config_gets_defaults(self, tmp_path):
        cfg = cm.parse_run_config(minimal_payload(write_data(tmp_path)))
        assert cfg.template == "vgg_small_mini"
        assert cfg.search.population_size == 32
        assert cfg.search.lambda_ == 4.0
        assert cfg.proxy_train.epochs == cfg.search.proxy_epochs
        assert cfg.proxy_train.augment is False
        assert cfg.full_train.epochs == 200
        assert cfg.full_train.augment is True
        assert cfg.supernet_init is False

    def test_lambda_key_maps_to_field(self, tmp_path):
        payload = minimal_payload(write_data(tmp_path), search={"lambda": 2.5})
        cfg = cm.parse_run_config(payload)
        assert cfg.search.lambda_ == 2.5

    def test_proxy_epochs_flow_into_proxy_train(self, tmp_path):
        payload = minimal_payload(write_data(tmp_path), search={"proxy_epochs": 3})
        cfg = cm.parse_run_config(payload)
        assert cfg.proxy_train.epochs == 3

    def test_explicit_proxy_epochs_override(self, tmp_path):
        payload = minimal_payload(
            write_data(tmp_path), search={"proxy_epochs": 3}, proxy_train={"epochs": 7}
        )
        cfg = cm.parse_run_config(payload)
        assert cfg.proxy_train.epochs == 7

    def test_schedule_section(self, tmp_path):
        payload = minimal_payload(
            write_data(tmp_path),
            full_train={"schedule": {"base_lr": 0.02, "decay_epochs": [5, 9]}},
        )
        cfg = cm.parse_run_config(payload)
        assert cfg.full_train.schedule.base_lr == 0.02
        assert cfg.full_train.schedule.decay_epochs == (5, 9)
        assert cfg.full_train.schedule.decay_factor == 0.1

    def test_unknown_top_level_key(self, tmp_path):
        payload = minimal_payload(write_data(tmp_path))
        payload["serach"] = {}
        with pytest.raises(ConfigError) as e:
            cm.parse_run_config(payload)
        assert "serach" in str(e.value)

    def test_unknown_search_key_lists_alternatives(self, tmp_path):
        payload = minimal_payload(write_data(tmp_path), search={"poulation_size": 8})
        with pytest.raises(ConfigError) as e:
            cm.parse_run_config(payload)
        assert "poulation_size" in str(e.value)
        assert "population_size" in str(e.value)

    def test_unknown_schedule_key(self, tmp_path):
        payload = minimal_payload(write_data(tmp_path), proxy_train={"schedule": {"lr": 0.1}})
        with pytest.raises(ConfigError):
            cm.parse_run_config(payload)

    def test_unknown_dataset_key(self, tmp_path):
        payload = minimal_payload(write_data(tmp_path))
        payload["dataset"]["trian"] = "x"
        with pytest.raises(ConfigError):
            cm.parse_run_config(payload)

    def test_unknown_template(self, tmp_path):
        payload = minimal_payload(write_data(tmp_path))
        payload["template"] = "alexnet"
        with pytest.raises(ConfigError) as e:
            cm.parse_run_config(payload)
        assert "alexnet" in str(e.value)

    def test_missing_dataset_section(self):
        with pytest.raises(ConfigError):
            cm.parse_run_config({"template": "vgg_small_mini", "output_dir": "x"})

    def test_missing_output_dir(self, tmp_path):
        payload = minimal_payload(write_data(tmp_path))
        payload.pop("output_dir")
        with pytest.raises(ConfigError):
            cm.parse_run_config(payload)

    def test_bad_dataset_kind(self, tmp_path):
        payload = minimal_payload(write_data(tmp_path))
        payload["dataset"]["kind"] = "csv"
        with pytest.raises(ConfigError):
            cm.parse_run_config(payload)


@pytest.mark.parametrize("key, value", [
    ("full_train.augment", "false"),
    ("supernet_init", "false"),
    ("search.population_size", 8.7),
    ("search.population_size", "abc"),
    ("full_train.schedule.decay_epochs", "12"),
    ("proxy_train.schedule.decay_epochs", [1.5]),
    ("search.lambda", True),
    ("search.lambda", float("nan")),
    ("search.lambda", float("inf")),
    pytest.param("search.lambda", 10**400, id="search.lambda-int_beyond_float"),
    ("search.mutation_rate", "0.1"),
    ("proxy_train.epochs", True),
    ("proxy_train.momentum", None),
    ("dataset.train_images", 5),
    ("output_dir", 7),
    ("template", None),
])
def test_value_of_wrong_json_type_names_its_dotted_key(tmp_path, capsys, key, value):
    payload = minimal_payload(write_data(tmp_path))
    *parents, leaf = key.split(".")
    section = payload
    for name in parents:
        section = section.setdefault(name, {})
    section[leaf] = value
    with pytest.raises(ConfigError) as e:
        cm.parse_run_config(payload)
    assert f"'{key}'" in str(e.value)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(payload))
    assert cli.main(["search", "--config", str(path)]) == 2
    assert f"'{key}'" in capsys.readouterr().err


@pytest.mark.parametrize("key, value, section", [
    ("search.population_size", 1, "search"),
    ("proxy_train.batch_size", 0, "proxy_train"),
    ("full_train.schedule.base_lr", -1, "full_train.schedule"),
])
def test_value_out_of_range_names_its_section_and_file(tmp_path, capsys, key, value, section):
    payload = minimal_payload(write_data(tmp_path))
    *parents, leaf = key.split(".")
    inner = payload
    for name in parents:
        inner = inner.setdefault(name, {})
    inner[leaf] = value
    path = tmp_path / "run.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ConfigError, match=f"^config file '{path}': '{section}': {leaf} must "):
        cm.load_run_config(str(path))
    assert cli.main(["search", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: config file '{path}': '{section}': {leaf} ")


@pytest.mark.parametrize("kind, key", [("records", "train_images"), ("idx", "train")])
def test_path_the_dataset_kind_does_not_read_names_its_key(tmp_path, capsys, kind, key):
    payload = minimal_payload(write_data(tmp_path, kind=kind), kind=kind)
    payload["dataset"][key] = "unused.bin"
    with pytest.raises(ConfigError, match=f"^'dataset.{key}' is a path for dataset kind '.*', not '{kind}'$"):
        cm.parse_run_config(payload)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(payload))
    assert cli.main(["search", "--config", str(path)]) == 2
    assert f"'dataset.{key}'" in capsys.readouterr().err


class TestLoading:
    def test_load_from_file(self, tmp_path):
        payload = minimal_payload(write_data(tmp_path))
        path = tmp_path / "run.json"
        path.write_text(json.dumps(payload))
        cfg = cm.load_run_config(str(path))
        assert cfg.output_dir == "runs/demo"

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            cm.load_run_config("/nonexistent/run.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text("{broken")
        with pytest.raises(ConfigError):
            cm.load_run_config(str(path))

    def test_non_object_payload(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError):
            cm.load_run_config(str(path))


class TestDatasetConfig:
    def test_idx_loading_and_splits(self, tmp_path):
        paths = write_data(tmp_path, train_per_class=8)
        cfg = cm.parse_run_config(minimal_payload(paths)).dataset
        train = cfg.load_train()
        assert len(train) == 80
        assert cfg.has_test()
        proxy_train, proxy_val = cfg.proxy_splits()
        assert len(proxy_train) == 50
        assert len(proxy_val) == 20
        assert proxy_val.split == "val"

    def test_records_loading(self, tmp_path):
        paths = write_data(tmp_path, kind="records", train_per_class=6)
        cfg = cm.parse_run_config(minimal_payload(paths, kind="records")).dataset
        train = cfg.load_train()
        assert len(train) == 60
        assert train.images.shape[1:] == (3, 32, 32)
        assert cfg.load_test().split == "test"

    def test_missing_path_for_kind(self, tmp_path):
        paths = write_data(tmp_path)
        payload = minimal_payload(paths)
        payload["dataset"].pop("train_labels")
        cfg = cm.parse_run_config(payload).dataset
        with pytest.raises(ConfigError) as e:
            cfg.load_train()
        assert "train_labels" in str(e.value)

    def test_nonexistent_file_reported(self, tmp_path):
        paths = dict(write_data(tmp_path))
        payload = minimal_payload(paths)
        payload["dataset"]["train_images"] = str(tmp_path / "gone.idx")
        cfg = cm.parse_run_config(payload).dataset
        with pytest.raises(ConfigError) as e:
            cfg.load_train()
        assert "gone.idx" in str(e.value)
