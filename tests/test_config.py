"""Config parsing, validation, seed streams, and run manifests."""

import dataclasses
import hashlib

import numpy as np
import pytest

from graphflow import config as C
from graphflow.flow import TrainConfig
from graphflow.rl import PpoConfig, RewardConfig
from graphflow.sampler import SamplerConfig


def test_defaults_are_valid():
    cfg = C.load_run_config()
    assert cfg == C.RunConfig()


def test_render_parse_round_trip():
    cfg = C.RunConfig(
        seed=11,
        dataset="community",
        dataset_communities=4,
        max_size=9,
        lr=5e-4,
        valency_check=False,
        scorer="toy:atom-fraction:N",
        output_dir="runs/x",
    )
    text = C.render_config(cfg)
    raw = C.parse_config_text(text)
    rebuilt = C.RunConfig(**{k: C._convert(k, v) for k, v in raw.items()})
    assert rebuilt == cfg
    # every field appears exactly once
    assert len(raw) == len(dataclasses.fields(C.RunConfig))


def test_file_comments_and_overrides(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# full line comment\n"
        "\n"
        "seed = 3\n"
        "lr = 0.01  # trailing comment\n"
        "valency_check = false\n"
    )
    cfg = C.load_run_config(path)
    assert cfg.seed == 3
    assert cfg.lr == pytest.approx(0.01)
    assert cfg.valency_check is False
    cfg = C.load_run_config(path, overrides={"seed": "9", "epochs": 2})
    assert cfg.seed == 9  # override beats the file
    assert cfg.epochs == 2


def test_trailing_comment_follows_any_whitespace():
    # a tab before the # starts a comment as a space does; a # with no
    # whitespace before it belongs to the value
    raw = C.parse_config_text("output_dir = runs/x\t# note\nscorer = exec:cmd#1 # note\n")
    assert raw == {"output_dir": "runs/x", "scorer": "exec:cmd#1"}


def test_parse_errors_name_the_line():
    with pytest.raises(C.ConfigError, match="line 2.*unknown"):
        C.parse_config_text("seed = 1\nbogus_key = 2\n")
    with pytest.raises(C.ConfigError, match="line 3.*duplicate"):
        C.parse_config_text("seed = 1\nlr = 0.1\nseed = 2\n")
    with pytest.raises(C.ConfigError, match="key = value"):
        C.parse_config_text("seed equals one\n")
    with pytest.raises(C.ConfigError, match="empty key"):
        C.parse_config_text("= 5\n")


def test_conversion_errors_name_the_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("epochs = three\n")
    with pytest.raises(C.ConfigError, match="epochs"):
        C.load_run_config(path)
    path.write_text("valency_check = yes\n")
    with pytest.raises(C.ConfigError, match="valency_check"):
        C.load_run_config(path)
    with pytest.raises(C.ConfigError, match="unknown"):
        C.load_run_config(None, overrides={"nope": "1"})


@pytest.mark.parametrize(
    "key,value,hint",
    [
        ("lr", "0", "lr"),
        ("lr", "inf", "lr"),
        ("temperature", "inf", "temperature"),
        ("rl_t1", "inf", "rl_t1"),
        ("rl_t2", "inf", "rl_t2"),
        ("rl_lr", "inf", "rl_lr"),
        ("constrained_rounds", "0", "constrained_rounds"),
        ("constrained_rounds", "-1", "constrained_rounds"),
        ("epochs", "0", "epochs"),
        ("beta1", "1.0", "beta1"),
        ("beta2", "-0.1", "beta2"),
        ("rl_gamma", "0", "rl_gamma"),
        ("rl_gamma", "1.5", "rl_gamma"),
        ("rl_clip_ratio", "1.0", "rl_clip_ratio"),
        ("rl_shaping", "cubic", "rl_shaping"),
        ("dataset", "zinc", "dataset"),
        ("scorer", "magic", "scorer"),
        ("constrained_delta", "1.5", "constrained_delta"),
        ("max_size", "1", "max_size"),
        ("seed", "-1", "seed"),
        ("max_resample", "-2", "max_resample"),
        ("atoms", "C4", "atoms"),
        ("atoms", "C:four", "atoms"),
        ("atoms", "", "atoms"),
        ("bond_orders", "1,two", "bond_orders"),
    ],
)
def test_validation_rejections(key, value, hint):
    with pytest.raises(C.ConfigError, match=hint):
        C.load_run_config(None, overrides={key: value})


def test_library_keys_feed_every_library_field_once():
    # a library config field with no run key would silently keep its
    # library default and bypass the run's validation
    fed = list(C.LIBRARY_KEYS.values())
    assert len(fed) == len(set(fed))
    want = {
        (cls, f.name)
        for cls in (TrainConfig, SamplerConfig, RewardConfig, PpoConfig)
        for f in dataclasses.fields(cls)
    }
    assert set(fed) == want
    assert set(C.LIBRARY_KEYS) <= {f.name for f in dataclasses.fields(C.RunConfig)}


def test_library_config_from_defaults():
    cfg = C.RunConfig()
    assert C.library_config(cfg, TrainConfig) == TrainConfig(10, 32, 1e-3, 0.9, 0.999)
    assert C.library_config(cfg, SamplerConfig) == SamplerConfig(True, 100, 1.0)
    assert C.library_config(cfg, RewardConfig) == RewardConfig(0.97, "linear", 4.0, 1.0)
    assert C.library_config(cfg, PpoConfig) == PpoConfig(0.2, 4, 64, 2e-3, 5)


def test_community_needs_room():
    with pytest.raises(C.ConfigError, match="max_size"):
        C.load_run_config(
            None, overrides={"dataset": "community", "dataset_communities": "9"}
        )
    cfg = C.load_run_config(
        None,
        overrides={"dataset": "community", "dataset_communities": "6", "max_size": "12"},
    )
    assert cfg.max_size == 12


def test_molt_path_dataset_is_accepted(tmp_path):
    cfg = C.load_run_config(None, overrides={"dataset": "somewhere/train.molt"})
    assert cfg.dataset.endswith(".molt")


def test_vocab_from_config():
    cfg = C.RunConfig()
    vocab, bonds = C.vocab_from_config(cfg)
    assert vocab.symbols == ("C", "N", "O")
    assert vocab.valences == (4, 3, 2)
    assert bonds.orders == (1, 2, 3)
    cfg = C.RunConfig(atoms=" C:4 , S:6 ", bond_orders="1, 2")
    vocab, bonds = C.vocab_from_config(cfg)
    assert vocab.symbols == ("C", "S")
    assert vocab.valences == (4, 6)
    assert bonds.orders == (1, 2)
    cfg = C.RunConfig(dataset="community", dataset_communities=3, max_size=6)
    vocab, bonds = C.vocab_from_config(cfg)
    assert vocab.size == 6
    assert bonds.orders == (1,)


def test_stream_seeds_are_stable_and_distinct():
    want = int.from_bytes(hashlib.sha256(b"7:data").digest()[:16], "big")
    assert C.stream_seed(7, "data") == want
    assert C.stream_seed(7, "data") != C.stream_seed(7, "noise")
    assert C.stream_seed(7, "data") != C.stream_seed(8, "data")
    a = C.substream(7, "sampler").random(4)
    b = C.substream(7, "sampler").random(4)
    c = C.substream(7, "rl").random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_manifest_contents_and_determinism(tmp_path):
    (tmp_path / "b.txt").write_text("beta\n")
    (tmp_path / "a.txt").write_text("alpha\n")
    cfg = C.RunConfig(seed=5)
    path = C.write_manifest(tmp_path, cfg, ["b.txt", "a.txt"])
    text = path.read_text()
    lines = text.splitlines()
    assert lines[0] == "# run manifest"
    assert lines[1] == "seed = 5"
    assert lines[2] == f"config_sha256 = {C.sha256_text(C.render_config(cfg))}"
    # outputs are hashed in sorted order regardless of call order
    alpha_sha = hashlib.sha256(b"alpha\n").hexdigest()
    beta_sha = hashlib.sha256(b"beta\n").hexdigest()
    assert lines[3] == f"output a.txt = {alpha_sha}"
    assert lines[4] == f"output b.txt = {beta_sha}"
    assert lines[5] == "# --- effective config ---"
    assert text.endswith(C.render_config(cfg))
    again = C.write_manifest(tmp_path, cfg, ["a.txt", "b.txt"]).read_text()
    assert again == text


def test_manifest_requires_outputs_to_exist(tmp_path):
    with pytest.raises(FileNotFoundError):
        C.write_manifest(tmp_path, C.RunConfig(), ["missing.molt"])
