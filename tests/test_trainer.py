"""Training procedures on the synthetic fixture: pretraining, adaptation,
baselines, the degenerate equivalence, and determinism."""

import contextlib
import inspect
from dataclasses import replace

import numpy as np
import pytest

from xferlearn import losses, metrics, tensor, trainer
from xferlearn.data import (UnlabeledDataset, filter_classes, make_splits, normalize_batch,
                            synth_digits)
from xferlearn.discriminator import MultiLayerDiscriminator
from xferlearn.layers import (EmbeddingNetwork, clone_into_target, digit_embedding_spec,
                              synth_embedding_spec)
from xferlearn.metrics import evaluate
from xferlearn.optim import Adam
from xferlearn.tensor import Tensor
from xferlearn.trainer import (SourceTaps, TrainConfig, TrainDivergence, adapt_joint,
                               adapt_unsupervised, pretrain_source, run_baseline,
                               source_prototypes)

SYNTH_TAPS = ("flat", "fc1")

MAX_STEP_LOSS = 4 * np.log(2) + 1.0  # loose per-step ceiling on logged losses


def quick_config(**kw):
    base = dict(steps=30, pretrain_steps=60, batch_source=64, batch_unlabeled=64,
                eval_every=0, seed=0, disc_taps=SYNTH_TAPS,
                head_widths=(32, 32))
    base.update(kw)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def source_setup():
    """Pretrained source net on synth classes 0-2 plus the source set."""
    d1 = synth_digits(40, range(3), seed=0)
    config = quick_config()
    net, record = pretrain_source(d1, synth_embedding_spec(n_classes=3), config)
    return net, record, d1


@pytest.fixture(scope="module")
def target_splits():
    """Disjoint-label target pool (classes 3-4 remapped to 0-1), k=3."""
    pool = filter_classes(synth_digits(40, range(5), seed=1), [3, 4])
    d2, d3 = make_splits(pool, k=3, seed=0)
    test = filter_classes(synth_digits(30, range(5), seed=2), [3, 4])
    return d2, d3, test


class TestPretrain:
    def test_fits_training_set(self, source_setup):
        net, record, d1 = source_setup
        assert evaluate(net, d1).accuracy >= 0.95
        assert record.rows[-1]["loss_sup"] < record.rows[0]["loss_sup"]

    def test_deterministic(self):
        d1 = synth_digits(20, range(3), seed=0)
        cfg = quick_config(pretrain_steps=10)
        a, _ = pretrain_source(d1, synth_embedding_spec(n_classes=3), cfg)
        b, _ = pretrain_source(d1, synth_embedding_spec(n_classes=3), cfg)
        for name in a.params:
            np.testing.assert_array_equal(a.params[name].data, b.params[name].data)

    def test_loss_rows_within_window(self, source_setup):
        _, record, _ = source_setup
        for row in record.rows:
            assert 0.0 < row["loss_total"] < MAX_STEP_LOSS


class TestSourcePrototypes:
    def test_shape_and_determinism(self, source_setup):
        net, _, d1 = source_setup
        cfg = quick_config()
        a = source_prototypes(SourceTaps(net, d1, ("fc1",)), cfg)
        b = source_prototypes(SourceTaps(net, d1, ("fc1",)), cfg)
        assert a.shape == (3, 32)
        np.testing.assert_array_equal(a.data, b.data)

    def test_subsample_cap_respected(self, source_setup):
        net, _, d1 = source_setup
        capped = source_prototypes(SourceTaps(net, d1, ("fc1",)),
                                   quick_config(src_proto_per_class=5))
        full = source_prototypes(SourceTaps(net, d1, ("fc1",)), quick_config())
        assert (capped.data != full.data).any()

    def test_cached_taps_equal_a_fresh_eval_forward(self, source_setup):
        net, _, d1 = source_setup
        source = SourceTaps(net, d1, SYNTH_TAPS)
        first = np.arange(0, 70)
        source(first)
        later = np.random.default_rng(0).choice(len(d1), size=64, replace=False)
        cached = source(later)  # some rows forwarded above, the others now
        assert 0 < np.isin(later, first).sum() < later.size
        _, taps = net.forward(normalize_batch(d1.images[later]), training=False)
        for name, tap in taps:
            if name in SYNTH_TAPS:
                np.testing.assert_allclose(cached[name].data,
                                           tap.data.reshape(later.size, -1), rtol=0, atol=1e-6)


    def test_cached_rows_are_the_bytes_of_one_eval_forward(self, source_setup):
        net, _, d1 = source_setup
        source = SourceTaps(net, d1, SYNTH_TAPS)
        first = np.arange(0, 70)  # blocks of 32, 32 and 6 images
        source(first)
        later = np.random.default_rng(0).choice(len(d1), size=64, replace=False)
        cached = source(later)
        new = int((~np.isin(later, first)).sum())
        # a one-image block takes other BLAS kernels, which sum in another order
        assert 1 < new % metrics.EVAL_BLOCK and new < later.size
        with tensor.no_grad():
            _, taps = net.forward(normalize_batch(d1.images[later]), training=False)
        for name in SYNTH_TAPS:
            want = dict(taps)[name].data.reshape(later.size, -1)
            np.testing.assert_array_equal(cached[name].data.view(np.uint32),
                                          want.view(np.uint32))

    def test_lookups_with_one_image_tails_give_the_bytes_of_one_eval_forward(self):
        # a one-image forward of the digit net differs from the same image
        # forwarded with others in the last bits; the 64->5 head (fc2)
        # depends on the row count in any forward, so only the conv body's
        # and fc1's taps are compared
        net = EmbeddingNetwork(digit_embedding_spec(n_classes=5), seed=0)
        d1 = synth_digits(20, range(5), image_size=32, seed=0)
        idx = np.random.default_rng(0).permutation(len(d1))[:99]
        source = SourceTaps(net, d1, ("pool4_flat", "fc1"))
        for start, stop in ((0, 1), (1, 34), (34, 99)):  # 1, 33 and 65 misses
            source(idx[start:stop])
        cached = source(idx)
        with tensor.no_grad():
            _, taps = net.forward(normalize_batch(d1.images[idx]), training=False)
        for name in ("pool4_flat", "fc1"):
            want = dict(taps)[name].data.reshape(idx.size, -1)
            np.testing.assert_array_equal(cached[name].data.view(np.uint32),
                                          want.view(np.uint32))


class TestAdaptJoint:
    def test_improves_over_initialization(self, source_setup, target_splits):
        net, _, d1 = source_setup
        d2, d3, test = target_splits
        cfg = quick_config(steps=60)
        adapted, record = adapt_joint(net, d1, d2, d3, cfg, reinit_head=True)
        acc = evaluate(adapted, test).accuracy
        assert acc >= 0.7
        assert all(np.isfinite(row["loss_total"]) for row in record.rows)

    def test_source_net_untouched(self, source_setup, target_splits):
        net, _, d1 = source_setup
        d2, d3, _ = target_splits
        before = {n: t.data.copy() for n, t in net.params.items()}
        stats_before = {n: (m.copy(), v.copy()) for n, (m, v) in net.running_stats.items()}
        adapt_joint(net, d1, d2, d3, quick_config(steps=5), reinit_head=True)
        for n, t in net.params.items():
            np.testing.assert_array_equal(before[n], t.data)
        for n, (m, v) in net.running_stats.items():
            np.testing.assert_array_equal(stats_before[n][0], m)
            np.testing.assert_array_equal(stats_before[n][1], v)

    def test_deterministic_trajectory(self, source_setup, target_splits):
        net, _, d1 = source_setup
        d2, d3, _ = target_splits
        cfg = quick_config(steps=8)
        a, ra = adapt_joint(net, d1, d2, d3, cfg, reinit_head=True)
        b, rb = adapt_joint(net, d1, d2, d3, cfg, reinit_head=True)
        assert ra.rows == rb.rows
        for name in a.params:
            np.testing.assert_array_equal(a.params[name].data, b.params[name].data)

    def test_all_loss_terms_populated(self, source_setup, target_splits):
        net, _, d1 = source_setup
        d2, d3, _ = target_splits
        _, record = adapt_joint(net, d1, d2, d3, quick_config(steps=3), reinit_head=True)
        row = record.rows[-1]
        for key in ("loss_sup", "loss_dt_d", "loss_dt_e", "loss_st_src",
                    "loss_st_sup", "loss_st_unsup"):
            assert row[key] > 0.0

    def test_stop_grad_prototypes_changes_the_update_not_the_first_losses(
            self, source_setup, target_splits):
        net, _, d1 = source_setup
        d2, d3, _ = target_splits
        (a, ra), (b, rb) = [
            adapt_joint(net, d1, d2, d3, quick_config(steps=2, stop_grad_prototypes=stop),
                        reinit_head=True) for stop in (False, True)]
        assert ra.rows[0] == rb.rows[0]
        assert any((p.data != b.params[name].data).any() for name, p in a.params.items())

    def test_source_prototypes_get_tau_st_and_target_prototypes_tau_tt(
            self, monkeypatch, source_setup, target_splits):
        net, _, d1 = source_setup
        d2, d3, _ = target_splits
        made, calls, real = [], [], losses.entropy_transfer

        def protos(*args):
            made.append(source_prototypes(*args))
            return made[-1]

        def entropy(queries, support, tau):
            calls.append((support, tau))
            return real(queries, support, tau)

        monkeypatch.setattr(trainer, "source_prototypes", protos)
        monkeypatch.setattr(losses, "entropy_transfer", entropy)
        adapt_joint(net, d1, d2, d3, quick_config(steps=1, tau_st=3.0, tau_tt=0.5),
                    reinit_head=True)
        assert len(made) == 1 and len(calls) == 2
        assert sorted((support is made[0], tau) for support, tau in calls) == [
            (False, 0.5), (True, 3.0)]

    @pytest.mark.parametrize("stop", [False, True])
    def test_stop_grad_prototypes_reaches_semantic_total(self, monkeypatch, source_setup,
                                                         target_splits, stop):
        net, _, d1 = source_setup
        d2, d3, _ = target_splits
        real, seen = losses.semantic_total, []

        def spy(*args, **kwargs):
            bound = inspect.signature(real).bind(*args, **kwargs)
            bound.apply_defaults()
            seen.append(bound.arguments["detach_prototypes"])
            return real(*args, **kwargs)

        monkeypatch.setattr(losses, "semantic_total", spy)
        adapt_joint(net, d1, d2, d3, quick_config(steps=1, stop_grad_prototypes=stop),
                    reinit_head=True)
        assert seen == [stop]

    def test_degenerate_weights_match_fine_tune_exactly(self, source_setup, target_splits):
        net, _, d1 = source_setup
        d2, _, _ = target_splits
        d3 = target_splits[1]
        cfg = quick_config(steps=12, alpha=0.0, beta=0.0)
        joint, rj = adapt_joint(net, d1, d2, d3, cfg, reinit_head=True)
        base, rb = run_baseline("fine_tune", d2, cfg, source_net=net, reinit_head=True)
        for name in joint.params:
            np.testing.assert_array_equal(joint.params[name].data, base.params[name].data)
        assert [r["loss_total"] for r in rj.rows] == [r["loss_total"] for r in rb.rows]


class TestBaselines:
    def test_fine_tune_fits_support(self, source_setup, target_splits):
        net, _, _ = source_setup
        d2, _, _ = target_splits
        tuned, _ = run_baseline("fine_tune", d2, quick_config(steps=60),
                                source_net=net, reinit_head=True)
        assert evaluate(tuned, d2).accuracy == 1.0

    def test_target_only_needs_spec(self, target_splits):
        d2, _, _ = target_splits
        with pytest.raises(ValueError, match="spec"):
            run_baseline("target_only", d2, quick_config())

    def test_target_only_trains_from_scratch(self, target_splits):
        d2, _, _ = target_splits
        net, record = run_baseline("target_only", d2, quick_config(steps=40),
                                   net_spec=synth_embedding_spec(n_classes=2))
        assert record.rows[-1]["loss_sup"] < record.rows[0]["loss_sup"]

    def test_unknown_kind_rejected(self, target_splits):
        d2, _, _ = target_splits
        with pytest.raises(ValueError, match="unknown baseline"):
            run_baseline("zero_shot", d2, quick_config())


class TestAdaptUnsupervised:
    def test_head_is_frozen(self, source_setup):
        net, _, d1 = source_setup
        shifted = synth_digits(40, range(3), seed=5, domain_shift=True)
        from xferlearn.data import UnlabeledDataset
        d3 = UnlabeledDataset(images=shifted.images, name="shifted")
        adapted, record = adapt_unsupervised(net, d1, d3, quick_config(steps=8))
        np.testing.assert_array_equal(adapted.params["fc2.w"].data,
                                      net.params["fc2.w"].data)
        assert (adapted.params["conv1.w"].data != net.params["conv1.w"].data).any()
        assert all(np.isfinite(r["loss_dt_d"]) for r in record.rows)

    def test_zero_alpha_leaves_encoder_unchanged(self, source_setup):
        net, _, d1 = source_setup
        shifted = synth_digits(20, range(3), seed=5, domain_shift=True)
        from xferlearn.data import UnlabeledDataset
        d3 = UnlabeledDataset(images=shifted.images, name="shifted")
        adapted, _ = adapt_unsupervised(net, d1, d3, quick_config(steps=5, alpha=0.0))
        for name in net.params:
            np.testing.assert_array_equal(adapted.params[name].data, net.params[name].data)


def _shifted_unlabeled(n_per_class=20):
    shifted = synth_digits(n_per_class, range(3), seed=5, domain_shift=True)
    return UnlabeledDataset(images=shifted.images, name="shifted")


def _forwards(monkeypatch, source_net, run):
    """(net role, batch size) of every EmbeddingNetwork.forward made by run()."""
    calls = []
    forward = EmbeddingNetwork.forward

    def counted(net, x, **kwargs):
        calls.append(("source" if net is source_net else "target", x.shape[0]))
        return forward(net, x, **kwargs)

    monkeypatch.setattr(EmbeddingNetwork, "forward", counted)
    run()
    monkeypatch.setattr(EmbeddingNetwork, "forward", forward)
    return calls


def _forwards_per_step(monkeypatch, source_net, procedure):
    """Forwards of a two-step run minus those of a one-step run: one step's worth,
    without the set-up's source-prototype forwards."""
    one = _forwards(monkeypatch, source_net, lambda: procedure(quick_config(steps=1)))
    two = _forwards(monkeypatch, source_net, lambda: procedure(quick_config(steps=2)))
    assert two[:len(one)] == one
    return two[len(one):]


class TestAdversarialStep:
    def test_joint_step_forwards_each_batch_once(self, monkeypatch, source_setup,
                                                 target_splits):
        net, _, d1 = source_setup
        d2, d3, _ = target_splits
        step = _forwards_per_step(monkeypatch, net, lambda cfg: adapt_joint(
            net, d1, d2, d3, cfg, reinit_head=True))
        # the prototype pass cached every source image: x_unl, then the full
        # D2 batch, through the target net and nothing through the source net
        assert step == [("target", 64), ("target", len(d2))]

    def test_encoder_half_scores_the_source_batch_without_a_graph(
            self, monkeypatch, source_setup, target_splits):
        net, _, d1 = source_setup
        d2, d3, _ = target_splits
        cfg = quick_config(steps=3)
        scored = []
        forward = MultiLayerDiscriminator.forward

        def recording(self, taps):
            out = forward(self, taps)
            scored.append(out.node is not None)
            return out

        monkeypatch.setattr(MultiLayerDiscriminator, "forward", recording)
        a, ra = adapt_joint(net, d1, d2, d3, cfg, reinit_head=True)
        # per step: D scores the source and the detached target batch, then
        # the encoder half scores the source batch and the target batch
        assert scored == [True, True, False, True] * 3
        # the same run with the encoder half's source scoring recorded
        monkeypatch.setattr(trainer, "no_grad", contextlib.contextmanager(lambda: (yield)))
        b, rb = adapt_joint(net, d1, d2, d3, cfg, reinit_head=True)
        assert scored[12:] == [True] * 12
        assert ra.rows == rb.rows
        for name, p in a.params.items():
            np.testing.assert_array_equal(p.data, b.params[name].data)

    def test_joint_step_records_only_nodes_that_its_backwards_sweep(
            self, monkeypatch, source_setup, target_splits):
        net, _, d1 = source_setup
        d2, d3, _ = target_splits
        recorded, swept = [], []

        class CountingNode(tensor.GraphNode):
            __slots__ = ()

            def __init__(self, op, inputs, backward_fn):
                def counted(g):
                    swept.append(op)
                    return backward_fn(g)

                recorded.append(op)
                super().__init__(op, inputs, counted)

        def run():
            return adapt_joint(net, d1, d2, d3, quick_config(steps=2), reinit_head=True)

        monkeypatch.setattr(tensor, "GraphNode", CountingNode)
        a, ra = run()
        monkeypatch.undo()
        assert recorded and sorted(swept) == sorted(recorded)
        # the unlabeled batch stops at fc1, the deepest tap the step reads;
        # running the whole net instead changes no loss and no weight
        forward = EmbeddingNetwork.forward
        monkeypatch.setattr(EmbeddingNetwork, "forward",
                            lambda self, x, until=None, training=True:
                            forward(self, x, training=training))
        b, rb = run()
        assert ra.rows == rb.rows
        for name, p in a.params.items():
            np.testing.assert_array_equal(p.data, b.params[name].data)

    def test_each_optimizer_zeroes_its_gradients_once_per_step(self, monkeypatch, source_setup,
                                                               target_splits):
        net, _, d1 = source_setup
        d2, d3, _ = target_splits
        zeroed = []
        zero_grads = Adam.zero_grads

        def counted(opt):
            zeroed.append(opt)
            zero_grads(opt)

        monkeypatch.setattr(Adam, "zero_grads", counted)
        adapt_joint(net, d1, d2, d3, quick_config(steps=3), reinit_head=True)
        # the discriminator's optimizer, then the encoder's, each just before
        # the backward that fills its gradients
        disc_opt, enc_opt = zeroed[:2]
        assert disc_opt is not enc_opt and zeroed == [disc_opt, enc_opt] * 3

    def test_unsupervised_step_forwards_each_batch_once(self, monkeypatch, source_setup):
        net, _, d1 = source_setup
        d3 = _shifted_unlabeled()
        # step 1 draws, and so caches, every source image
        step = _forwards_per_step(monkeypatch, net, lambda cfg: adapt_unsupervised(
            net, d1, d3, replace(cfg, batch_source=len(d1))))
        assert step == [("target", 60)]

    def test_source_images_are_forwarded_at_most_once_per_run(self, monkeypatch,
                                                              source_setup):
        net, _, d1 = source_setup
        d3 = _shifted_unlabeled()
        calls = _forwards(monkeypatch, net, lambda: adapt_unsupervised(
            net, d1, d3, quick_config(steps=6)))
        source = [n for role, n in calls if role == "source"]
        # 6 steps draw 384 source images; only the unseen ones are forwarded
        assert len(source) > 1
        assert 64 < sum(source) <= len(d1)

    @pytest.mark.parametrize("taps", [("conv1",), ("nope",), ("flat", "nope")])
    def test_unknown_disc_tap_rejected_before_the_first_step(self, monkeypatch, source_setup,
                                                            target_splits, taps):
        net, _, d1 = source_setup
        d2, d3, _ = target_splits
        cfg = quick_config(steps=2, disc_taps=taps)
        bad = taps[-1]
        calls = []
        monkeypatch.setattr(trainer, "adversarial_step", lambda *a: calls.append(a))
        with pytest.raises(ValueError, match=rf"'{bad}'.*\['flat', 'fc1', 'fc2'\]"):
            adapt_joint(net, d1, d2, d3, cfg, reinit_head=True)
        with pytest.raises(ValueError, match=rf"'{bad}'.*\['flat', 'fc1', 'fc2'\]"):
            adapt_unsupervised(net, d1, _shifted_unlabeled(), cfg)
        assert calls == []

    def test_unknown_embed_layer_rejected(self, source_setup, target_splits):
        net, _, d1 = source_setup
        d2, d3, _ = target_splits
        with pytest.raises(ValueError, match=r"'conv2'.*\['flat', 'fc1', 'fc2'\]"):
            adapt_joint(net, d1, d2, d3, quick_config(steps=1, embed_layer="conv2"),
                        reinit_head=True)

    def test_zero_alpha_target_forward_records_no_graph(self, monkeypatch, source_setup):
        net, _, d1 = source_setup
        d3 = _shifted_unlabeled()
        recorded = []
        forward = EmbeddingNetwork.forward

        def recording(self, x, **kwargs):
            logits, taps = forward(self, x, **kwargs)
            if self is not net:
                outputs = [logits, *dict(taps).values()]
                recorded.append(any(t.node is not None for t in outputs))
            return logits, taps

        monkeypatch.setattr(EmbeddingNetwork, "forward", recording)
        adapt_unsupervised(net, d1, d3, quick_config(steps=2, alpha=0.0))
        assert recorded == [False, False]
        adapt_unsupervised(net, d1, d3, quick_config(steps=1, alpha=0.1))
        assert recorded[-1] is True

    def test_zero_alpha_graph_free_forward_changes_no_result(self, monkeypatch, source_setup):
        net, _, d1 = source_setup
        d3 = _shifted_unlabeled()
        cfg = quick_config(steps=3, alpha=0.0)
        a, ra = adapt_unsupervised(net, d1, d3, cfg)
        # the same run with the target forward recording its graph
        monkeypatch.setattr(trainer, "no_grad", contextlib.contextmanager(lambda: (yield)))
        b, rb = adapt_unsupervised(net, d1, d3, cfg)
        assert ra.rows == rb.rows
        for name, (mean, var) in a.running_stats.items():
            np.testing.assert_array_equal(mean, b.running_stats[name][0])
            np.testing.assert_array_equal(var, b.running_stats[name][1])

    def test_zero_alpha_step_records_only_the_discriminator_graph(self, monkeypatch,
                                                                  source_setup):
        net, _, d1 = source_setup
        d3 = _shifted_unlabeled()
        graph_node, no_grad_calls = tensor.GraphNode, []

        def nodes_and_rows(steps):
            nodes = []

            class Counted(graph_node):
                def __init__(self, *args):
                    nodes.append(args[0])
                    super().__init__(*args)

            monkeypatch.setattr(tensor, "GraphNode", Counted)
            no_grad_calls.clear()
            _, record = adapt_unsupervised(net, d1, d3, quick_config(steps=steps, alpha=0.0))
            return len(nodes), record.rows

        one, _ = nodes_and_rows(1)
        two, rows = nodes_and_rows(2)
        assert two - one == one == 33  # the discriminator update's graph alone
        # the same run with the encoder-side scoring recorded: the target
        # forward's no_grad is made once at set-up, every later one scores
        def scoring_recorded(real=trainer.no_grad):
            no_grad_calls.append(1)
            return real() if len(no_grad_calls) == 1 else contextlib.nullcontext()

        monkeypatch.setattr(trainer, "no_grad", scoring_recorded)
        one, _ = nodes_and_rows(1)
        two, recorded_rows = nodes_and_rows(2)
        assert two - one == one == 66
        assert recorded_rows == rows

    def test_joint_rejects_taps_of_different_widths_before_set_up(self, monkeypatch,
                                                                 source_setup, target_splits):
        net, _, d1 = source_setup  # 3 source classes; the target head gets 2
        d2, d3, _ = target_splits
        monkeypatch.setattr(trainer, "_build_discriminator", lambda *a: pytest.fail("built"))

        def run():
            with pytest.raises(ValueError, match=r"tap 'fc2' is 3 wide in the source "
                                                 r"net but 2 in the target net"):
                adapt_joint(net, d1, d2, d3, quick_config(steps=1, disc_taps=("flat", "fc2")),
                            reinit_head=True)

        assert _forwards(monkeypatch, net, run) == []

    @pytest.mark.parametrize("source_classes, reinit_head, want", [
        (3, False, ("flat", "fc1")),  # the head's width changes
        (2, True, ("flat", "fc1")),  # a re-initialised head of the same width
        (2, False, ("flat", "fc1", "fc2")),  # the source head, carried over
    ])
    def test_joint_default_taps_leave_out_a_new_head(self, monkeypatch, target_splits,
                                                      source_classes, reinit_head, want):
        d2, d3, _ = target_splits  # 2 target classes
        d1 = synth_digits(20, range(source_classes), seed=0)
        net = EmbeddingNetwork(synth_embedding_spec(n_classes=source_classes), seed=0)
        built = []

        def build(net, taps, cfg, real=trainer._build_discriminator):
            built.append(taps)
            return real(net, taps, cfg)

        monkeypatch.setattr(trainer, "_build_discriminator", build)
        adapt_joint(net, d1, d2, d3, quick_config(steps=1, disc_taps=()),
                    reinit_head=reinit_head)
        assert built == [want]

    def test_joint_step_updates_bn_running_stats_once_per_batch(
            self, monkeypatch, source_setup, target_splits):
        net, _, d1 = source_setup
        d2, d3, _ = target_splits
        inputs = []
        forward = EmbeddingNetwork.forward

        def recording(self, x, **kwargs):
            if self is not net:
                inputs.append(x)
            return forward(self, x, **kwargs)

        monkeypatch.setattr(EmbeddingNetwork, "forward", recording)
        adapted, _ = adapt_joint(net, d1, d2, d3, quick_config(steps=1), reinit_head=True)
        monkeypatch.setattr(EmbeddingNetwork, "forward", forward)
        x_unl, x_d2 = inputs

        # replay on a fresh clone: one momentum update from x_unl, then one from x_d2
        def replay(*batches):
            fresh = clone_into_target(net, head_classes=2, head_seed=3, reinit_head=True)
            for x in batches:
                fresh.forward(x)
            return fresh.running_stats

        assert set(adapted.running_stats) == {"bn1", "bn2"}
        expected, thrice = replay(x_unl, x_d2), replay(x_unl, x_d2, x_unl)
        for name, (mean, var) in adapted.running_stats.items():
            np.testing.assert_array_equal(mean, expected[name][0])
            np.testing.assert_array_equal(var, expected[name][1])
            assert (mean != thrice[name][0]).any()

    @pytest.mark.parametrize("term", ["entropy_transfer", "domain_loss_D"])
    def test_divergence_names_the_term_and_the_step(self, monkeypatch, source_setup,
                                                    target_splits, term):
        net, _, d1 = source_setup
        d2, d3, _ = target_splits
        calls = []
        original = getattr(losses, term)

        def diverging(*args, **kwargs):
            calls.append(1)
            out = original(*args, **kwargs)
            # the third step's call (entropy_transfer runs twice per step)
            per_step = 2 if term == "entropy_transfer" else 1
            if len(calls) > 2 * per_step:
                return Tensor(np.nan)
            return out

        monkeypatch.setattr(losses, term, diverging)
        field = "st_src" if term == "entropy_transfer" else "dt_d"
        with pytest.raises(TrainDivergence, match=f"'{field}' became non-finite at step 3"):
            adapt_joint(net, d1, d2, d3, quick_config(steps=5), reinit_head=True)

    def test_fine_tune_divergence_names_the_step(self, monkeypatch, source_setup,
                                                 target_splits):
        net, _, _ = source_setup
        d2, _, _ = target_splits
        monkeypatch.setattr(losses, "supervised_ce", lambda logits, labels: Tensor(np.inf))
        with pytest.raises(TrainDivergence, match="'sup' became non-finite at step 1"):
            run_baseline("fine_tune", d2, quick_config(steps=2), source_net=net, reinit_head=True)


class TestDiscriminatorTaps:
    SPEC = synth_embedding_spec(n_classes=3)  # taps flat, fc1, fc2

    @pytest.mark.parametrize("taps, error", [
        (("fc1", "fc1"), r"\['fc1', 'fc1'\] must name each tap once, shallow to deep: "
                         r"\['fc1'\]"),
        (("flat", "fc1", "flat"), r"each tap once, shallow to deep: \['flat', 'fc1'\]"),
        (("fc1", "flat"), r"each tap once, shallow to deep: \['flat', 'fc1'\]"),
        (("fc2", "flat", "fc1"), r"each tap once, shallow to deep: \['flat', 'fc1', 'fc2'\]"),
    ])
    def test_a_repeated_or_deep_to_shallow_tap_rejected(self, taps, error):
        # the discriminator fuses its taps shallow to deep, one stage each
        with pytest.raises(ValueError, match=error):
            trainer.discriminator_taps(self.SPEC, quick_config(disc_taps=taps))
        with pytest.raises(ValueError, match=error):
            trainer.discriminator_taps(self.SPEC, quick_config(disc_taps=taps), 3, True,
                                       embed=True)

    @pytest.mark.parametrize("taps", [("flat",), ("flat", "fc2"), ("flat", "fc1", "fc2")])
    def test_distinct_shallow_to_deep_taps_pass(self, taps):
        assert trainer.discriminator_taps(self.SPEC, quick_config(disc_taps=taps)) == taps


class TestSourceNetUnchanged:
    """A run trains a clone of the caller's source net and only reads the
    net itself, which keeps its bytes and can still be trained."""

    RUNS = {
        "fine_tune": lambda net, d1, d2, d3, cfg: run_baseline(
            "fine_tune", d2, cfg, source_net=net, reinit_head=True),
        "adapt_joint": lambda net, d1, d2, d3, cfg: adapt_joint(
            net, d1, d2, d3, cfg, reinit_head=True),
        "adapt_unsupervised": lambda net, d1, d2, d3, cfg: adapt_unsupervised(
            net, d1, _shifted_unlabeled(), cfg),
    }

    @pytest.mark.parametrize("procedure", list(RUNS))
    def test_the_source_net_keeps_its_bytes_and_still_trains(self, target_splits, procedure):
        d2, d3, _ = target_splits
        d1 = synth_digits(20, range(3), seed=0)
        net = EmbeddingNetwork(synth_embedding_spec(n_classes=3), seed=0)
        before = {key: a.tobytes() for key, a in net.state_dict().items()}
        self.RUNS[procedure](net, d1, d2, d3, quick_config(steps=2))
        assert all(p.requires_grad for p in net.parameters())
        assert {key: a.tobytes() for key, a in net.state_dict().items()} == before
        conv1 = net.params["conv1.w"].data.copy()
        trainer._supervised_step(net, Adam(net.parameters(), lr=1e-3),
                                 normalize_batch(d1.images[:8]), d1.labels[:8], 1)
        assert (net.params["conv1.w"].data != conv1).any()


class TestStepLoopSeam:
    """The benchmark times a procedure through ``trainer.time`` and
    ``TrainRecord.log``: the first ``time()`` call starts the step loop after
    all set-up, and each ``log`` call ends a step."""

    PROCEDURES = {
        "pretrain_source": ([], lambda net, d1, d2, d3, cfg: pretrain_source(
            d1, synth_embedding_spec(n_classes=3), replace(cfg, pretrain_steps=cfg.steps,
                                                           eval_every=2))),
        "target_only": ([], lambda net, d1, d2, d3, cfg: run_baseline(
            "target_only", d2, cfg, net_spec=synth_embedding_spec(n_classes=2))),
        "fine_tune": (["clone"], lambda net, d1, d2, d3, cfg: run_baseline(
            "fine_tune", d2, cfg, source_net=net, reinit_head=True)),
        "adapt_joint": (["clone", "prototypes"], lambda net, d1, d2, d3, cfg: adapt_joint(
            net, d1, d2, d3, cfg, reinit_head=True)),
        "adapt_unsupervised": (["clone"], lambda net, d1, d2, d3, cfg: adapt_unsupervised(
            net, d1, _shifted_unlabeled(), cfg)),
    }

    @pytest.mark.parametrize("procedure", list(PROCEDURES))
    def test_clock_starts_after_set_up_and_log_ends_each_step(
            self, monkeypatch, source_setup, target_splits, procedure):
        net, _, d1 = source_setup
        d2, d3, _ = target_splits
        set_up, run = self.PROCEDURES[procedure]
        events = []

        class Clock:
            @staticmethod
            def time():
                events.append("time")
                return 0.0

        def recorded(event, fn):
            def wrapper(*args, **kwargs):
                events.append(event)
                return fn(*args, **kwargs)
            return wrapper

        log = trainer.TrainRecord.log
        monkeypatch.setattr(trainer, "time", Clock)
        monkeypatch.setattr(trainer, "clone_into_target",
                            recorded("clone", trainer.clone_into_target))
        monkeypatch.setattr(trainer, "source_prototypes",
                            recorded("prototypes", trainer.source_prototypes))
        monkeypatch.setattr(trainer.TrainRecord, "log", lambda record, step, *rest: (
            events.append(("log", step)), log(record, step, *rest)))
        run(net, d1, d2, d3, quick_config(steps=3))
        assert events.count("time") == 2
        start = events.index("time")
        assert events[:start] == set_up
        assert events[start + 1:] == [("log", 1), ("log", 2), ("log", 3), "time"]
