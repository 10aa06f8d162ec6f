"""Config parsing, checkpoint persistence, CLI subcommands and exit codes."""

import csv
import json
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from xferlearn.checkpoint import (CheckpointError, load_checkpoint, save_checkpoint)
from xferlearn import cli
from xferlearn.cli import CSV_FIELDS, main
from xferlearn.config import Config, ConfigError, dump_config, load_config
from xferlearn.data import synth_digits, write_idx
from xferlearn.metrics import evaluate
from xferlearn.layers import PRESETS, EmbeddingNetwork, synth_embedding_spec


# any config key, and values of every kind that a key may be given
CONFIG_KEYS = st.sampled_from([f.name for f in fields(Config)])
RAW_VALUES = st.one_of(st.text(st.characters(exclude_categories=())),
                       st.text("0123456789-.,e #=\t\n\x0b\x85\udcffabfl"),
                       st.floats().map(repr),
                       st.lists(st.integers(-1, 600)).map(lambda v: ",".join(map(str, v))))


class TestConfig:
    def test_defaults(self):
        cfg = load_config()
        assert cfg.alpha == 0.1 and cfg.beta == 0.1
        assert cfg.tau_st == 2.0 and cfg.tau_tt == 1.0
        assert cfg.gamma == 0.1 and cfg.lr == 1e-3
        assert cfg.seeds == (0, 1, 2)

    def test_file_parsing_with_comments(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("alpha = 0.3  # stronger adversary\n\nsteps=5\nseeds=4,5\n"
                     "methods=full,fine_tune\ndeterministic=true\n")
        cfg = load_config(p)
        assert cfg.alpha == 0.3 and cfg.steps == 5
        assert cfg.seeds == (4, 5)
        assert cfg.methods == ("full", "fine_tune")
        assert cfg.deterministic is True

    def test_overrides_beat_file(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("alpha=0.3\n")
        cfg = load_config(p, {"alpha": "0.7", "experiment": "synth"})
        assert cfg.alpha == 0.7 and cfg.experiment == "synth"

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("alhpa=0.3\n")
        with pytest.raises(ConfigError, match="alhpa"):
            load_config(p)
        with pytest.raises(ConfigError, match="unknown"):
            load_config(None, {"bogus": "1"})

    def test_malformed_line_names_location(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("alpha=0.3\nnot a pair\n")
        with pytest.raises(ConfigError, match=":2"):
            load_config(p)

    def test_invalid_value_rejected(self):
        with pytest.raises(ConfigError):
            load_config(None, {"steps": "many"})
        with pytest.raises(ConfigError):
            load_config(None, {"alpha": "-1"})

    @pytest.mark.parametrize("key, raw", [
        ("steps", "-1"), ("pretrain_steps", "-3"), ("eval_every", "-1"),
        ("batch_source", "0"), ("batch_unlabeled", "0"), ("src_proto_per_class", "0"),
        ("lr", "0"), ("lr", "-0.001"), ("lr", "inf"), ("lr", "nan"),
        ("grad_clip", "0"), ("grad_clip", "-1"), ("grad_clip", "nan"), ("seeds", ""),
        ("seeds", "a"), ("k_values", "2,x"), ("k_values", "0"), ("k_values", "-1"),
        ("head_widths", "0"), ("head_widths", "32,-1"), ("alpha", "nan"), ("beta", "inf"),
        ("tau_st", "nan"), ("tau_tt", "inf"), ("tau_tt", "0"), ("seeds", "0,-1"),
        ("source_classes", "0,0,1"), ("target_classes", "3,4,3"), ("experiment", "foo"),
        ("fusion", "max"), ("methods", "full,bogus"), ("source_subsample", "-1"),
        ("methods", ""), ("k_values", ""), ("seeds", "1,1"), ("k_values", "2,5,2"),
        ("methods", "full,full"), ("seed", "-1"),
        # each raised "'<=' not supported between instances of 'int' and 'NoneType'"
        ("alpha", ""), ("lr", ""),
    ])
    def test_out_of_range_value_rejected(self, key, raw):
        with pytest.raises(ConfigError, match=key):
            load_config(None, {key: raw})

    def test_range_boundaries_accepted(self):
        cfg = load_config(None, {"steps": "0", "pretrain_steps": "0", "eval_every": "0",
                                 "batch_source": "1", "batch_unlabeled": "1",
                                 "src_proto_per_class": "1", "lr": "1e-9", "grad_clip": "",
                                 "seeds": "7"})
        assert cfg.grad_clip is None and cfg.seeds == (7,)
        assert load_config(None, {"grad_clip": "0.5"}).grad_clip == 0.5

    def test_dump_roundtrip(self, tmp_path):
        cfg = load_config(None, {"alpha": "0.25", "seeds": "3,4",
                                 "experiment": "synth"})
        p = tmp_path / "echo.cfg"
        p.write_text(dump_config(cfg))
        back = load_config(p)
        assert back == cfg

    @settings(max_examples=500, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(key=CONFIG_KEYS, raw=RAW_VALUES)
    def test_a_loaded_config_reads_back_from_its_dump(self, tmp_path, key, raw):
        # 'runs/#3' once read back as 'runs/', and '\udcff' could not be written
        try:
            cfg = load_config(None, {key: raw})
        except ConfigError:
            return
        p = tmp_path / "config.txt"
        p.write_text(dump_config(cfg), encoding="utf-8")
        assert load_config(p) == cfg


class TestCheckpoint:
    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        tensors = {"a.w": rng.normal(0, 1, (3, 4)).astype(np.float32),
                   "b": rng.normal(0, 1, (5,)).astype(np.float32),
                   "scalar": np.float32(2.5)}
        p = tmp_path / "t.ckpt"
        save_checkpoint(p, tensors, config_text="alpha=0.1\n", step=77)
        ckpt = load_checkpoint(p)
        assert ckpt.step == 77
        assert ckpt.config_text == "alpha=0.1\n"
        assert set(ckpt.tensors) == set(tensors)
        np.testing.assert_array_equal(ckpt.tensors["a.w"], tensors["a.w"])
        np.testing.assert_array_equal(ckpt.tensors["b"], tensors["b"])

    def test_network_state_roundtrip(self, tmp_path):
        net = EmbeddingNetwork(synth_embedding_spec(n_classes=3), seed=4)
        p = tmp_path / "net.ckpt"
        save_checkpoint(p, net.state_dict())
        other = EmbeddingNetwork(synth_embedding_spec(n_classes=3), seed=9)
        other.load_state_dict(load_checkpoint(p).tensors)
        for name in net.params:
            np.testing.assert_array_equal(net.params[name].data.astype(np.float32),
                                          other.params[name].data)

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "bad.ckpt"
        p.write_bytes(b"NOTACKPT" + bytes(16))
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(p)

    def test_truncated_rejected(self, tmp_path):
        p = tmp_path / "t.ckpt"
        save_checkpoint(p, {"a": np.ones(10, dtype=np.float32)})
        p.write_bytes(p.read_bytes()[:-8])
        with pytest.raises(CheckpointError):
            load_checkpoint(p)

    def test_a_tensor_named_twice_rejected(self, tmp_path):
        p = tmp_path / "t.ckpt"
        save_checkpoint(p, {"a": np.ones(2, dtype=np.float32), "b": np.zeros(2, dtype=np.float32)})
        p.write_bytes(p.read_bytes().replace(b"\x01\x00b", b"\x01\x00a"))
        with pytest.raises(CheckpointError, match="'a' named twice"):
            load_checkpoint(p)

    def test_truncated_config_snapshot_named(self, tmp_path):
        p = tmp_path / "t.ckpt"
        save_checkpoint(p, {"a": np.ones(2, dtype=np.float32)}, config_text="alpha=0.1\n")
        p.write_bytes(p.read_bytes()[:-4])
        with pytest.raises(CheckpointError, match="truncated config snapshot$"):
            load_checkpoint(p)

    def test_trailing_bytes_rejected(self, tmp_path):
        p = tmp_path / "t.ckpt"
        save_checkpoint(p, {"a": np.ones(2, dtype=np.float32)})
        p.write_bytes(p.read_bytes() + b"xx")
        with pytest.raises(CheckpointError, match="trailing"):
            load_checkpoint(p)


def test_metrics_columns_are_the_benchmark_terms():
    """perfbench reads each step's loss terms from a metrics row by these names."""
    reference = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"
    assert CSV_FIELDS[1:-1] == json.loads(reference.read_text())["terms"]


SYNTH_ARGS = ["--experiment", "synth", "--pretrain_steps", "30", "--steps", "20",
              "--batch_source", "64", "--batch_unlabeled", "64", "--eval_every", "0",
              "--head_widths", "32,32"]


def read_csv(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


@pytest.fixture(scope="module")
def two_step_source(tmp_path_factory):
    """The checkpoint of a 2-step pretrain on the 5 synth source classes."""
    pre = tmp_path_factory.mktemp("pre")
    assert main(["pretrain", *SYNTH_ARGS, "--output_dir", str(pre), "--pretrain_steps", "2"]) == 0
    return pre / "source.ckpt"


@pytest.fixture(scope="module")
def eval_files(tmp_path_factory):
    """The bytes of an ablation net's checkpoint and of an IDX image and label
    file of 6 images of 2 classes, by the name that eval is given."""
    tmp = tmp_path_factory.mktemp("eval")
    ds = synth_digits(3, (0, 1), image_size=28, seed=0)
    write_idx(tmp / "images", ds.images, tmp / "labels", ds.labels)
    net = EmbeddingNetwork(PRESETS["ablation"](n_classes=2), seed=0)
    save_checkpoint(tmp / "checkpoint", net.state_dict())
    return {name: (tmp / name).read_bytes() for name in ("checkpoint", "images", "labels")}


class TestCli:
    def test_missing_config_path_is_usage_error(self, capsys):
        assert main(["pretrain", "--config", "/nonexistent/x.cfg"]) == 2

    def test_unknown_override_is_usage_error(self):
        assert main(["pretrain", "--bogus", "1"]) == 2

    @pytest.mark.parametrize("flag, value", [
        ("--pretrain_steps", "-3"),  # died in save_checkpoint with a struct.error traceback
        ("--grad_clip", "-1"),  # exited 0 after Adam had climbed the loss
        ("--grad_clip", "0"),  # exited 0 after zeroing every update
        ("--seeds", ""),  # exited 0 with an empty seeds.txt
    ])
    def test_out_of_range_config_is_usage_error(self, tmp_path, capsys, flag, value):
        out = tmp_path / "pre"
        assert main(["pretrain", *SYNTH_ARGS, "--output_dir", str(out), flag, value]) == 2
        err = capsys.readouterr().err
        assert flag[2:] in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [
        ("--head_widths", "0"),  # an OverflowError traceback building the discriminator
        ("--seeds", "a"),  # exited 1: "invalid literal for int()"
        ("--k_values", "2,x"),  # the same
        ("--k_values", "0"),  # exited 1: "empty dataset"
        ("--k_values", "-1"),  # exited 1: "negative dimensions are not allowed"
        ("--alpha", "nan"),  # exited 1: the total loss was NaN at step 1
        ("--tau_st", "nan"),  # exited 1: "entropy: rows must sum to 1"
        ("--tau_tt", "inf"),  # exited 0 after training
        ("--seeds", "-1"),  # exited 1 from numpy's seeding after writing config.txt
        ("--source_classes", "0,0,1"),  # exited 1: "entropy: rows must sum to 1"
        ("--target_classes", "3,4,4"),
        ("--fusion", "max"),  # exited 1: "unknown fusion", after every fine_tune run's output
        ("--methods", "fine_tune,bogus"),  # raised after fine_tune's outputs were written
        ("--source_subsample", "-1"),  # exited 1: "negative dimensions are not allowed"
        ("--methods", ""),  # exited 0 with header-only CSVs
        ("--k_values", ""),
        # each exited 0, overwrote its runs' files and aggregated the copies
        # (n_seeds 4 and a zero standard error from two seeds, for instance)
        ("--seeds", "0,0"),
        ("--k_values", "2,2"),
        ("--methods", "fine_tune,fine_tune"),
    ])
    def test_bad_transfer_config_is_usage_error(self, tmp_path, capsys, flag, value):
        ckpt = tmp_path / "source.ckpt"
        ckpt.write_bytes(b"")  # never read: the config is checked first
        out = tmp_path / "tr"
        code = main(["transfer", *SYNTH_ARGS, "--output_dir", str(out), "--checkpoint", str(ckpt),
                     "--source_classes", "0,1,2", "--target_classes", "3,4", flag, value])
        assert code == 2
        err = capsys.readouterr().err
        assert flag[2:] in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["pretrain", "eval"])
    def test_unknown_experiment_is_usage_error(self, tmp_path, capsys, command):
        # Config rejects it before any data are read; it was once a KeyError
        # traceback from the image size after the IDX files were read
        ds = synth_digits(2, (0, 1), image_size=8, seed=0)
        images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"
        write_idx(images, ds.images, labels, ds.labels)
        ckpt = tmp_path / "source.ckpt"
        ckpt.write_bytes(b"")  # never read: the config is checked first
        out = tmp_path / "out"
        code = main([command, "--experiment", "foo", "--output_dir", str(out),
                     "--checkpoint", str(ckpt), "--source_images", str(images),
                     "--source_labels", str(labels), "--test_images", str(images),
                     "--test_labels", str(labels)])
        assert code == 2
        err = capsys.readouterr().err
        assert "experiment" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["pretrain", "transfer", "uda"])
    def test_a_negative_seed_is_usage_error(self, tmp_path, capsys, command):
        # pretrain exited 1 from numpy's seeding after writing config.txt and seeds.txt
        ds = synth_digits(2, (0, 1), image_size=28, seed=0)
        images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"
        write_idx(images, ds.images, labels, ds.labels)
        ckpt = tmp_path / "source.ckpt"
        ckpt.write_bytes(b"")  # never read: the config is checked first
        out = tmp_path / "out"
        data = [arg for role in ("source", "target", "test")
                for arg in (f"--{role}_images", str(images), f"--{role}_labels", str(labels))]
        code = main([command, "--experiment", "ablation", "--seed", "-1", "--seeds", "0",
                     "--checkpoint", str(ckpt), "--output_dir", str(out), *data])
        captured = capsys.readouterr()
        assert code == 2
        assert "seed must be >= 0" in captured.err and "Traceback" not in captured.err
        assert captured.out == "" and not out.exists()

    def test_uda_with_target_classes_outside_the_source_is_usage_error(self, tmp_path, capsys):
        ckpt = tmp_path / "source.ckpt"
        ckpt.write_bytes(b"")  # never read: the label spaces are checked first
        out = tmp_path / "uda"
        code = main(["uda", *SYNTH_ARGS, "--output_dir", str(out), "--checkpoint", str(ckpt),
                     "--source_classes", "0,1,2", "--target_classes", "2,3,4", "--seeds", "0"])
        assert code == 2
        captured = capsys.readouterr()
        assert "[3, 4]" in captured.err and "Traceback" not in captured.err
        assert captured.out == "" and not out.exists()

    def test_uda_with_a_repeated_seed_is_usage_error(self, tmp_path, capsys):
        # exited 0 and reported a zero standard error over one seed run twice
        ckpt = tmp_path / "source.ckpt"
        ckpt.write_bytes(b"")  # never read: the config is checked first
        out = tmp_path / "uda"
        code = main(["uda", *SYNTH_ARGS, "--output_dir", str(out), "--checkpoint", str(ckpt),
                     "--seeds", "1,1"])
        assert code == 2
        captured = capsys.readouterr()
        assert "seeds" in captured.err and "Traceback" not in captured.err
        assert captured.out == "" and not out.exists()

    def test_missing_checkpoint_is_usage_error(self, tmp_path):
        code = main(["transfer", *SYNTH_ARGS, "--output_dir", str(tmp_path / "o"),
                     "--checkpoint", str(tmp_path / "missing.ckpt")])
        assert code == 2

    def test_target_only_transfer_never_reads_the_checkpoint(self, tmp_path, capsys):
        ckpt = tmp_path / "source.ckpt"
        ckpt.write_bytes(b"")  # exited 1 with "bad magic b''": every run loaded it
        out = tmp_path / "tr"
        code = main(["transfer", *SYNTH_ARGS, "--output_dir", str(out), "--checkpoint", str(ckpt),
                     "--methods", "target_only", "--seeds", "0", "--k_values", "3"])
        assert code == 0
        assert (out / "runs.csv").exists()

    def test_an_unreadable_checkpoint_stops_transfer_before_any_output(self, tmp_path, capsys):
        ckpt = tmp_path / "source.ckpt"
        ckpt.write_bytes(b"")
        out = tmp_path / "tr"
        code = main(["transfer", *SYNTH_ARGS, "--output_dir", str(out), "--checkpoint", str(ckpt),
                     "--methods", "fine_tune", "--seeds", "0", "--k_values", "3"])
        assert code == 1
        captured = capsys.readouterr()
        assert "magic" in captured.err and "Traceback" not in captured.err
        assert captured.out == "" and not out.exists()

    def test_a_command_reads_the_source_checkpoint_once(self, tmp_path, monkeypatch,
                                                        two_step_source):
        reads, scored = [], []

        def reading(path):
            reads.append(path)
            return load_checkpoint(path)

        def scoring(net, dataset):
            scored.append(net)
            return evaluate(net, dataset)

        monkeypatch.setattr(cli, "load_checkpoint", reading)
        monkeypatch.setattr(cli, "evaluate", scoring)
        source = ["--checkpoint", str(two_step_source), "--steps", "2", "--seeds", "0,1"]
        assert main(["transfer", *SYNTH_ARGS, *source, "--output_dir", str(tmp_path / "tr"),
                     "--methods", "fine_tune,full", "--k_values", "3"]) == 0
        assert reads == [str(two_step_source)] and len(scored) == 4  # each run's net
        reads.clear()
        scored.clear()
        assert main(["uda", *SYNTH_ARGS, *source, "--output_dir", str(tmp_path / "uda")]) == 0
        # the source net once, then each seed's adapted net
        assert reads == [str(two_step_source)] and len(set(map(id, scored))) == len(scored) == 3
        rows = read_csv(tmp_path / "uda" / "uda.csv")
        assert rows[0]["source_only"] == rows[1]["source_only"]

    def test_pretrain_then_transfer_then_eval(self, tmp_path, capsys):
        pre = tmp_path / "pre"
        code = main(["pretrain", *SYNTH_ARGS, "--output_dir", str(pre),
                     "--source_classes", "0,1,2"])
        assert code == 0
        assert (pre / "source.ckpt").exists()
        assert (pre / "config.txt").exists()
        # it trains at the seed key only, not at each of seeds
        assert (pre / "seeds.txt").read_text().split() == ["0"]
        rows = read_csv(pre / "pretrain_metrics.csv")
        assert list(rows[0]) == CSV_FIELDS
        assert len(rows) == 30

        tr = tmp_path / "tr"
        code = main(["transfer", *SYNTH_ARGS, "--output_dir", str(tr),
                     "--checkpoint", str(pre / "source.ckpt"),
                     "--source_classes", "0,1,2", "--target_classes", "3,4",
                     "--methods", "fine_tune,full", "--k_values", "3",
                     "--seeds", "0,1"])
        assert code == 0
        runs = read_csv(tr / "runs.csv")
        assert len(runs) == 4  # 2 methods x 1 k x 2 seeds
        agg = read_csv(tr / "aggregate.csv")
        assert {r["method"] for r in agg} == {"fine_tune", "full"}
        metrics = read_csv(tr / "metrics_full_k3_seed0.csv")
        assert list(metrics[0]) == CSV_FIELDS
        assert float(metrics[-1]["loss_total"]) > 0

        code = main(["eval", *SYNTH_ARGS,
                     "--checkpoint", str(tr / "full_k3_seed0.ckpt"),
                     "--target_classes", "3,4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "accuracy" in out

    def test_uda_writes_table(self, tmp_path):
        pre = tmp_path / "pre"
        assert main(["pretrain", *SYNTH_ARGS, "--output_dir", str(pre)]) == 0
        ud = tmp_path / "uda"
        code = main(["uda", *SYNTH_ARGS, "--output_dir", str(ud),
                     "--checkpoint", str(pre / "source.ckpt"), "--seeds", "0"])
        assert code == 0
        rows = read_csv(ud / "uda.csv")
        assert list(rows[0]) == ["seed", "source_only", "adapted"]
        assert 0.0 <= float(rows[0]["adapted"]) <= 1.0

    def test_uda_scores_target_classes_in_the_source_label_order(self, tmp_path):
        classes = ["--source_classes", "0,1,2", "--target_classes", "1,2"]
        pre = tmp_path / "pre"
        assert main(["pretrain", *SYNTH_ARGS, "--output_dir", str(pre), *classes]) == 0
        ud = tmp_path / "uda"
        assert main(["uda", *SYNTH_ARGS, "--output_dir", str(ud), *classes,
                     "--checkpoint", str(pre / "source.ckpt"), "--seeds", "0"]) == 0
        # the source net on the uda test images, labelled by their class ids,
        # which are the source head's outputs for classes 0, 1 and 2
        net = EmbeddingNetwork(synth_embedding_spec(n_classes=3), seed=0)
        net.load_state_dict(load_checkpoint(pre / "source.ckpt").tensors)
        test = synth_digits(50, (1, 2), image_size=16, seed=999, domain_shift=True)
        want = evaluate(net, test).accuracy
        assert float(read_csv(ud / "uda.csv")[0]["source_only"]) == want

    def test_synth_source_classes_are_numbered_from_zero(self, tmp_path):
        pre = tmp_path / "pre"
        assert main(["pretrain", *SYNTH_ARGS, "--output_dir", str(pre),
                     "--source_classes", "2,3,4"]) == 0
        assert load_checkpoint(pre / "source.ckpt").tensors["fc2.b"].shape == (3,)

    def test_deterministic_reruns_bit_identical(self, tmp_path):
        outs = []
        for sub in ("a", "b"):
            pre = tmp_path / sub
            assert main(["pretrain", *SYNTH_ARGS, "--output_dir", str(pre),
                         "--deterministic", "true"]) == 0
            # the checkpoint embeds the resolved config (which names the
            # output dir), so compare the weight payload, not raw bytes
            ckpt = load_checkpoint(pre / "source.ckpt")
            outs.append(((pre / "pretrain_metrics.csv").read_bytes(), ckpt.tensors))
        assert outs[0][0] == outs[1][0]
        assert set(outs[0][1]) == set(outs[1][1])
        for name in outs[0][1]:
            np.testing.assert_array_equal(outs[0][1][name], outs[1][1][name])

    def test_eval_checkpoint_missing_key_is_runtime_error(self, tmp_path, capsys):
        state = EmbeddingNetwork(synth_embedding_spec(n_classes=5), seed=0).state_dict()
        del state["fc1.b"]
        p = tmp_path / "partial.ckpt"
        save_checkpoint(p, state)
        assert main(["eval", "--experiment", "synth", "--checkpoint", str(p)]) == 1
        assert "fc1.b" in capsys.readouterr().err

    def test_eval_truncated_config_snapshot_is_runtime_error(self, tmp_path, capsys):
        state = EmbeddingNetwork(synth_embedding_spec(n_classes=5), seed=0).state_dict()
        p = tmp_path / "cut.ckpt"
        save_checkpoint(p, state, config_text="experiment = synth\n")
        p.write_bytes(p.read_bytes()[:-4])
        assert main(["eval", "--experiment", "synth", "--checkpoint", str(p)]) == 1
        err = capsys.readouterr().err
        assert "truncated config snapshot" in err and "Traceback" not in err

    def test_eval_checkpoint_with_a_tensor_named_twice_is_runtime_error(self, tmp_path, capsys):
        # the later copy was kept, and eval exited 0 with a zero head
        state = EmbeddingNetwork(synth_embedding_spec(n_classes=5), seed=0).state_dict()
        state["fc2.x"] = np.zeros_like(state["fc2.w"])
        p = tmp_path / "twice.ckpt"
        save_checkpoint(p, state)
        p.write_bytes(p.read_bytes().replace(b"fc2.x", b"fc2.w"))
        assert main(["eval", "--experiment", "synth", "--checkpoint", str(p)]) == 1
        err = capsys.readouterr().err
        assert "'fc2.w' named twice" in err and "Traceback" not in err

    def test_eval_on_a_truncated_idx_header_is_runtime_error(self, tmp_path, capsys):
        images = tmp_path / "images.idx"
        images.write_bytes(bytes([0, 0, 8, 3, 0, 0]))  # a struct.error traceback
        ckpt = tmp_path / "net.ckpt"
        ckpt.write_bytes(b"")  # never read: the test set is loaded first
        assert main(["eval", "--checkpoint", str(ckpt), "--test_images", str(images),
                     "--test_labels", str(images)]) == 1
        err = capsys.readouterr().err
        assert "truncated header" in err and "Traceback" not in err

    def test_eval_on_images_without_pixels_is_runtime_error(self, tmp_path, capsys):
        # an IndexError traceback from resize_bilinear
        images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"
        write_idx(images, np.zeros((4, 1, 0, 0), np.uint8), labels, np.arange(4))
        ckpt = tmp_path / "net.ckpt"
        ckpt.write_bytes(b"")  # never read: the test set is loaded first
        assert main(["eval", "--experiment", "digits", "--checkpoint", str(ckpt),
                     "--test_images", str(images), "--test_labels", str(labels)]) == 1
        err = capsys.readouterr().err
        assert "no pixels" in err and "Traceback" not in err

    @pytest.mark.parametrize("command, flags, named", [
        # each exited 1 after the runs before the failing one had written
        # their checkpoints and metrics, or after config.txt and seeds.txt
        ("transfer", ["--methods", "target_only,fine_tune,full", "--disc_taps", "bogus"],
         "'bogus'"),
        ("transfer", ["--embed_layer", "conv9"], "'conv9'"),
        ("transfer", ["--disc_taps", "fc2", "--target_classes", "0,1"],
         "'fc2' is 5 wide in the source net but 2"),
        ("transfer", ["--k_values", "2,500"], "needs >= 500"),
        ("uda", ["--disc_taps", "nope"], "'nope'"),
        # each exited 0: the first with a discriminator that read fc1 twice,
        # the second with the taps fused deep to shallow
        ("transfer", ["--methods", "full", "--disc_taps", "fc1,fc1"],
         "['fc1', 'fc1'] must name each tap once, shallow to deep: ['fc1']"),
        ("transfer", ["--methods", "full", "--disc_taps", "fc1,flat"],
         "['fc1', 'flat'] must name each tap once, shallow to deep: ['flat', 'fc1']"),
        # each exited 0 and wrote taps into config.txt that no adaptation accepts
        ("transfer", ["--methods", "fine_tune", "--disc_taps", "fc1,fc1"],
         "['fc1', 'fc1'] must name each tap once"),
        ("transfer", ["--methods", "target_only", "--embed_layer", "nope"], "'nope'"),
    ], ids=["disc_taps", "embed_layer", "resized_head_tap", "k_values", "uda_disc_taps",
            "repeated_disc_tap", "disc_taps_deep_to_shallow", "fine_tune_taps",
            "target_only_embed_layer"])
    def test_config_that_cannot_fit_the_net_or_data_is_usage_error(
            self, tmp_path, capsys, two_step_source, command, flags, named):
        out = tmp_path / command
        code = main([command, *SYNTH_ARGS, "--output_dir", str(out),
                     "--checkpoint", str(two_step_source), "--seeds", "0", *flags])
        captured = capsys.readouterr()
        assert code == 2
        assert named in captured.err and "Traceback" not in captured.err
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("command, flags, named", [
        # each exited 1 with "batchnorm2d needs batch size >= 2 in train mode"
        # after writing config.txt and seeds.txt
        ("pretrain", ["--batch_source", "1"], "batch_source on 1000 images"),
        ("transfer", ["--methods", "full", "--batch_unlabeled", "1"],
         "batch_unlabeled on a D3 of 990 at k 2"),
        ("transfer", ["--methods", "adv_only", "--batch_unlabeled", "1"], "batch_unlabeled"),
        ("transfer", ["--methods", "fine_tune", "--target_classes", "3", "--k_values", "1"],
         "k_values 1 of 1 classes"),
        ("uda", ["--batch_unlabeled", "1"], "batch_unlabeled on 1000 images"),
    ], ids=["pretrain", "full", "adv_only", "one_image_d2", "uda"])
    def test_a_one_image_training_batch_on_batchnorm_is_usage_error(
            self, tmp_path, capsys, two_step_source, command, flags, named):
        out = tmp_path / command
        code = main([command, *SYNTH_ARGS, "--output_dir", str(out), "--k_values", "2",
                     "--checkpoint", str(two_step_source), "--seeds", "0", *flags])
        captured = capsys.readouterr()
        assert code == 2
        assert named in captured.err and "a training batch of 1 image" in captured.err
        assert "Traceback" not in captured.err and captured.out == "" and not out.exists()

    @pytest.mark.parametrize("command, flags", [
        ("transfer", ["--methods", "full"]), ("transfer", ["--methods", "adv_only"]), ("uda", [])])
    def test_an_adaptation_takes_one_image_source_batches(self, tmp_path, two_step_source,
                                                          command, flags):
        # the source batch runs through the source net in eval mode
        out = tmp_path / command
        assert main([command, *SYNTH_ARGS, "--output_dir", str(out), "--steps", "2",
                     "--checkpoint", str(two_step_source), "--seeds", "0", "--k_values", "2",
                     "--batch_source", "1", *flags]) == 0

    def test_the_ablation_net_trains_on_one_image_batches(self, tmp_path):
        # it has no batchnorm
        ds = synth_digits(2, (0, 1), image_size=28, seed=0)
        images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"
        write_idx(images, ds.images, labels, ds.labels)
        out = tmp_path / "pre"
        assert main(["pretrain", "--experiment", "ablation", "--source_images", str(images),
                     "--source_labels", str(labels), "--pretrain_steps", "2",
                     "--batch_source", "1", "--eval_every", "0",
                     "--output_dir", str(out)]) == 0
        assert (out / "source.ckpt").exists()

    @pytest.mark.parametrize("value", ["runs/#3", "out\x0bdir", "out\udcff"],
                             ids=["comment", "line_break", "not_utf8"])
    def test_a_value_that_cannot_read_back_is_usage_error(self, tmp_path, capsys, value):
        # the first exited 0 with a config.txt that reads back as 'runs/', the
        # second with one whose reload fails, the third exited 1 after mkdir
        out = tmp_path / value
        code = main(["pretrain", *SYNTH_ARGS, "--output_dir", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert "output_dir" in captured.err and "Traceback" not in captured.err
        assert captured.out == "" and not out.exists() and not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("command", ["pretrain", "transfer", "uda"])
    def test_an_empty_output_dir_is_usage_error(self, tmp_path, monkeypatch, capsys,
                                                two_step_source, command):
        # pretrain exited 0 and wrote its four files into the working directory
        monkeypatch.chdir(tmp_path)
        code = main([command, *SYNTH_ARGS, "--pretrain_steps", "2", "--steps", "2",
                     "--seeds", "0", "--k_values", "2", "--checkpoint", str(two_step_source),
                     "--output_dir", ""])
        captured = capsys.readouterr()
        assert code == 2
        assert "output_dir" in captured.err and "Traceback" not in captured.err
        assert captured.out == "" and list(tmp_path.iterdir()) == []

    def test_adv_only_is_full_at_beta_zero(self, tmp_path, two_step_source):
        # trainer.ADAPTATIONS fixes adv_only's beta; every other byte is full's
        run = ["transfer", *SYNTH_ARGS, "--checkpoint", str(two_step_source), "--steps", "3",
               "--seeds", "1", "--k_values", "2"]
        assert main([*run, "--output_dir", str(tmp_path / "adv"), "--methods", "adv_only"]) == 0
        assert main([*run, "--output_dir", str(tmp_path / "full"), "--methods", "full",
                     "--beta", "0"]) == 0
        adv, full = tmp_path / "adv", tmp_path / "full"
        assert ((adv / "metrics_adv_only_k2_seed1.csv").read_bytes()
                == (full / "metrics_full_k2_seed1.csv").read_bytes())
        adv_ckpt = load_checkpoint(adv / "adv_only_k2_seed1.ckpt")
        full_ckpt = load_checkpoint(full / "full_k2_seed1.ckpt")
        assert set(adv_ckpt.tensors) == set(full_ckpt.tensors)
        for name, tensor in adv_ckpt.tensors.items():
            np.testing.assert_array_equal(tensor, full_ckpt.tensors[name])
        # each snapshot holds its own command's config: beta and methods differ by design
        assert "beta=0.1" in adv_ckpt.config_text and "beta=0.0" in full_ckpt.config_text
        differ = set(adv_ckpt.config_text.splitlines()) ^ set(full_ckpt.config_text.splitlines())
        assert {line.split("=")[0] for line in differ} == {"beta", "methods", "output_dir"}

    @settings(max_examples=300, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(key=CONFIG_KEYS, raw=RAW_VALUES,
           text=st.one_of(st.text(),
                          st.lists(st.tuples(CONFIG_KEYS, RAW_VALUES)).map(
                              lambda pairs: "\n".join(f"{k}={v}" for k, v in pairs))))
    def test_eval_fails_cleanly_on_any_value_or_config_file(self, tmp_path, monkeypatch, capsys,
                                                            key, raw, text):
        # eval writes no files, so any value and any config file may reach it
        monkeypatch.chdir(tmp_path)
        config = tmp_path / "fuzz.cfg"
        config.write_text(text, encoding="utf-8", errors="surrogatepass")
        for argv in (["eval", f"--{key}", raw.replace("/", "")], ["eval", "--config", str(config)]):
            assert main(argv) in (1, 2)
            assert "Traceback" not in capsys.readouterr().err

    @settings(max_examples=400, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(target=st.sampled_from(["checkpoint", "images", "labels"]), draw=st.data())
    def test_eval_fails_cleanly_on_a_mutated_checkpoint_or_idx_file(self, tmp_path, capsys,
                                                                     eval_files, target, draw):
        # the header fields: (offset, byte order) of each u32 that sizes what follows
        fields = {"checkpoint": [(8, "little"), (12, "little"), (16, "little")],
                  "images": [(0, "big"), (4, "big"), (8, "big"), (12, "big")],
                  "labels": [(0, "big"), (4, "big")]}[target]
        files = dict(eval_files)
        buf = bytearray(files[target])
        mutation = draw.draw(st.sampled_from(["truncate", "overwrite", "append", "field"]))
        # half the positions fall in the header, where the parsers read sizes
        pos = draw.draw(st.one_of(st.integers(0, 24), st.integers(0, len(buf) - 1)))
        if mutation == "truncate":
            del buf[pos:]
        elif mutation == "overwrite":
            junk = draw.draw(st.binary(min_size=1, max_size=8))
            buf[pos:pos + len(junk)] = junk
        elif mutation == "append":
            buf += draw.draw(st.binary(min_size=1, max_size=16))
        else:
            offset, order = draw.draw(st.sampled_from(fields))
            value = draw.draw(st.sampled_from([0, 1, 2**31, 2**32 - 1]))
            buf[offset:offset + 4] = value.to_bytes(4, order)
        files[target] = bytes(buf)
        for name, content in files.items():
            (tmp_path / name).write_bytes(content)
        code = main(["eval", "--experiment", "ablation", "--checkpoint",
                     str(tmp_path / "checkpoint"), "--test_images", str(tmp_path / "images"),
                     "--test_labels", str(tmp_path / "labels")])
        captured = capsys.readouterr()
        assert code in (0, 1, 2)
        assert "Traceback" not in captured.out + captured.err

    def test_a_config_file_that_is_not_utf8_is_usage_error(self, tmp_path, capsys):
        # exited 1
        p = tmp_path / "run.cfg"
        p.write_bytes(b"output_dir=out\xff\n")
        assert main(["pretrain", "--config", str(p)]) == 2
        err = capsys.readouterr().err
        assert str(p) in err and "Traceback" not in err

    def test_only_the_kept_source_images_are_resized(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(0)
        images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"
        write_idx(images, rng.integers(0, 256, (120, 1, 9, 9), dtype=np.uint8),
                  labels, np.arange(120) % 3)
        cfg = load_config(None, {"experiment": "ablation", "source_images": str(images),
                                 "source_labels": str(labels), "seed": "4"})
        every = cli._load_data(cfg, "source")
        resized = []
        resize = cli.D.resize_bilinear
        monkeypatch.setattr(cli.D, "resize_bilinear",
                            lambda x, size: resized.append(len(x)) or resize(x, size))
        kept = cli._load_data(replace(cfg, source_subsample=50), "source")
        assert resized == [50]
        idx = np.sort(np.random.default_rng((4, 41)).choice(120, size=50, replace=False))
        np.testing.assert_array_equal(kept.images, every.images[idx])
        np.testing.assert_array_equal(kept.labels, every.labels[idx])

    def test_gradcheck_clean_passes(self, capsys):
        assert main(["gradcheck", "--instances", "2", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out

    def test_gradcheck_corrupt_fails(self, capsys):
        assert main(["gradcheck", "--instances", "2", "--seed", "0",
                     "--corrupt"]) == 1
        assert "FAIL" in capsys.readouterr().out
