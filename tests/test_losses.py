"""Loss terms: analytic identities, oracle equivalence, temperature behavior."""

import math

import numpy as np
import pytest

from xferlearn.losses import (domain_loss_D, domain_loss_E, entropy_transfer,
                              metric_ce, normalize_rows, prototypes, semantic_total,
                              similarity, supervised_ce, total_objective)
from xferlearn.tensor import ParameterError, Tensor, backward, use_float64


def oracle_ce(logits, labels):
    z = logits - logits.max(axis=-1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    return -logp[np.arange(len(labels)), labels].mean()


class TestSupervisedCE:
    def test_uniform_logits_give_log_k(self):
        with use_float64():
            loss = supervised_ce(Tensor(np.zeros((4, 5))), [0, 1, 2, 3])
        assert abs(loss.item() - math.log(5)) <= 1e-9

    def test_matches_float64_oracle(self):
        rng = np.random.default_rng(0)
        with use_float64():
            for _ in range(20):
                logits = rng.normal(0, 3, (8, 7))
                labels = rng.integers(0, 7, 8)
                got = supervised_ce(Tensor(logits), labels).item()
                assert abs(got - oracle_ce(logits, labels)) <= 1e-9

    def test_confident_correct_logits_near_zero(self):
        logits = np.full((3, 4), -20.0)
        logits[np.arange(3), [1, 2, 3]] = 20.0
        with use_float64():
            assert supervised_ce(Tensor(logits), [1, 2, 3]).item() <= 1e-9

    def test_large_logits_stay_finite(self):
        loss = supervised_ce(Tensor([[1000.0, -1000.0]]), [0])
        assert np.isfinite(loss.item())

    def test_out_of_range_label_rejected(self):
        with pytest.raises(ParameterError):
            supervised_ce(Tensor(np.zeros((2, 3))), [0, 3])


class TestDomainLosses:
    def test_zero_logits_give_2ln2_each(self):
        with use_float64():
            z = Tensor(np.zeros((6, 1)))
            assert abs(domain_loss_D(z, z).item() - 2 * math.log(2)) <= 1e-9
            assert abs(domain_loss_E(z, z).item() - 2 * math.log(2)) <= 1e-9

    def test_perfect_discriminator_loss_near_zero(self):
        src = Tensor(np.full((4, 1), 40.0))
        tgt = Tensor(np.full((4, 1), -40.0))
        assert domain_loss_D(src, tgt).item() <= 1e-9

    def test_fooled_discriminator_makes_encoder_loss_small(self):
        src = Tensor(np.full((4, 1), -40.0))
        tgt = Tensor(np.full((4, 1), 40.0))
        assert domain_loss_E(src, tgt).item() <= 1e-9

    def test_label_swap_relates_D_and_E(self):
        rng = np.random.default_rng(1)
        with use_float64():
            a = Tensor(rng.normal(0, 2, (5, 1)))
            b = Tensor(rng.normal(0, 2, (5, 1)))
            assert abs(domain_loss_D(a, b).item() - domain_loss_E(b, a).item()) <= 1e-12

    def test_extreme_logits_finite(self):
        src = Tensor(np.full((2, 1), -500.0))
        tgt = Tensor(np.full((2, 1), 500.0))
        assert np.isfinite(domain_loss_D(src, tgt).item())


class TestSimilarity:
    def test_orthonormal_support_recovers_coordinates(self):
        with use_float64():
            q = Tensor(np.array([[3.0, -2.0], [0.5, 4.0]]))
            s = Tensor(np.eye(2))
            np.testing.assert_allclose(similarity(q, s).data, q.data, atol=1e-12)

    def test_support_scale_invariance(self):
        rng = np.random.default_rng(2)
        with use_float64():
            q = Tensor(rng.normal(0, 1, (4, 6)))
            s = rng.normal(0, 1, (3, 6))
            a = similarity(q, Tensor(s)).data
            b = similarity(q, Tensor(7.5 * s)).data
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_query_linearity(self):
        rng = np.random.default_rng(3)
        with use_float64():
            q = rng.normal(0, 1, (4, 6))
            s = Tensor(rng.normal(0, 1, (3, 6)))
            np.testing.assert_allclose(similarity(Tensor(2.0 * q), s).data,
                                       2.0 * similarity(Tensor(q), s).data, atol=1e-12)

    def test_zero_norm_support_rejected(self):
        with pytest.raises(ParameterError, match="zero-norm"):
            similarity(Tensor(np.ones((2, 3))), Tensor(np.zeros((1, 3))))

    def test_normalize_rows_unit_length(self):
        rng = np.random.default_rng(4)
        with use_float64():
            out = normalize_rows(Tensor(rng.normal(0, 5, (8, 3)))).data
        np.testing.assert_allclose((out**2).sum(axis=-1), 1.0, atol=1e-12)


class TestPrototypes:
    def test_centroids_match_numpy_groupby(self):
        rng = np.random.default_rng(5)
        emb = rng.normal(0, 1, (12, 4))
        labels = np.array([0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2])
        with use_float64():
            got = prototypes(Tensor(emb), labels, 3).data
        want = np.stack([emb[labels == c].mean(axis=0) for c in range(3)])
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_singleton_class_is_its_own_prototype(self):
        emb = np.array([[1.0, 2.0], [3.0, 4.0]])
        got = prototypes(Tensor(emb), [0, 1], 2).data
        np.testing.assert_allclose(got, emb, atol=1e-6)

    def test_missing_class_rejected(self):
        with pytest.raises(ParameterError, match="class 1"):
            prototypes(Tensor(np.ones((2, 3))), [0, 0], 2)


class TestEntropyTransfer:
    def test_symmetric_support_gives_log_k(self):
        # queries orthogonal to all support differences -> uniform assignment
        with use_float64():
            q = Tensor(np.zeros((3, 4)) + np.array([0.0, 0.0, 0.0, 1.0]))
            s = Tensor(np.concatenate([np.eye(3), np.zeros((3, 1))], axis=1))
            loss = entropy_transfer(q, s, tau=1.0)
        assert abs(loss.item() - math.log(3)) <= 1e-9

    def test_temperature_monotonicity(self):
        rng = np.random.default_rng(6)
        with use_float64():
            q = Tensor(rng.normal(0, 2, (16, 8)))
            s = Tensor(rng.normal(0, 1, (5, 8)))
            vals = [entropy_transfer(q, s, tau).item()
                    for tau in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_high_temperature_limit_is_log_c(self):
        rng = np.random.default_rng(7)
        with use_float64():
            q = Tensor(rng.normal(0, 1, (6, 4)))
            s = Tensor(rng.normal(0, 1, (5, 4)))
            loss = entropy_transfer(q, s, tau=1e6).item()
        assert abs(loss - math.log(5)) <= 1e-6

    def test_confident_assignment_near_zero(self):
        q = Tensor(np.array([[100.0, 0.0]]))
        s = Tensor(np.eye(2))
        assert entropy_transfer(q, s, tau=1.0).item() <= 1e-9

    def test_nonpositive_temperature_rejected(self):
        with pytest.raises(ParameterError):
            entropy_transfer(Tensor(np.ones((1, 2))), Tensor(np.eye(2)), tau=0.0)


class TestMetricCE:
    def test_equals_supervised_ce_of_similarity(self):
        rng = np.random.default_rng(8)
        for trial in range(100):
            q = rng.normal(0, 1.5, (6, 5))
            p = rng.normal(0, 1.0, (4, 5))
            labels = rng.integers(0, 4, 6)
            with use_float64():
                got = metric_ce(Tensor(q), labels, Tensor(p)).item()
                want = supervised_ce(similarity(Tensor(q), Tensor(p)), labels).item()
            assert abs(got - want) <= 1e-7, f"trial {trial}"

    def test_label_without_prototype_rejected(self):
        with pytest.raises(ParameterError):
            metric_ce(Tensor(np.ones((2, 3))), [0, 5], Tensor(np.eye(3)))


class TestSemanticTotal:
    def _setup(self, rng):
        src = Tensor(rng.normal(0, 1, (5, 6)))
        lab = Tensor(rng.normal(0, 1, (8, 6)))
        labels = rng.integers(0, 4, 8)
        labels[:4] = [0, 1, 2, 3]  # every class present
        unl = Tensor(rng.normal(0, 1, (10, 6)))
        return src, lab, labels, unl

    def test_total_is_sum_of_components(self):
        rng = np.random.default_rng(9)
        src, lab, labels, unl = self._setup(rng)
        with use_float64():
            total, a, b, c = semantic_total(src, lab, labels, unl, n_classes=4)
        assert abs(total.item() - (a.item() + b.item() + c.item())) <= 1e-9

    def test_components_match_direct_calls(self):
        rng = np.random.default_rng(10)
        src, lab, labels, unl = self._setup(rng)
        with use_float64():
            _, a, b, c = semantic_total(src, lab, labels, unl,
                                        tau_st=2.0, tau_tt=1.0, n_classes=4)
            protos = prototypes(lab, labels, 4)
            assert abs(a.item() - entropy_transfer(unl, src, 2.0).item()) <= 1e-9
            assert abs(b.item() - metric_ce(lab, labels, protos).item()) <= 1e-9
            assert abs(c.item() - entropy_transfer(unl, protos, 1.0).item()) <= 1e-9

    def test_missing_unlabeled_batch_keeps_only_supervised_term(self):
        rng = np.random.default_rng(11)
        src, lab, labels, _ = self._setup(rng)
        with use_float64():
            total, a, b, c = semantic_total(src, lab, labels, None, n_classes=4)
        assert a.item() == 0.0 and c.item() == 0.0
        assert abs(total.item() - b.item()) <= 1e-12

    def test_detached_prototypes_pass_st_unsup_no_gradient_to_the_labeled_batch(self):
        rng = np.random.default_rng(12)
        src, lab, labels, unl = self._setup(rng)
        lab.requires_grad = unl.requires_grad = True
        with use_float64():
            plain = semantic_total(src, lab, labels, unl, n_classes=4)
            detached = semantic_total(src, lab, labels, unl, n_classes=4,
                                      detach_prototypes=True)
            assert [t.item() for t in detached] == [t.item() for t in plain]
            backward(detached[3])
            assert lab.grad is None or not lab.grad.any()
            assert np.abs(unl.grad).sum() > 0
            # undetached, st_unsup reaches the labeled batch through the prototypes
            backward(plain[3])
            assert np.abs(lab.grad).sum() > 0


class TestTotalObjective:
    def test_weighted_sum(self):
        t = total_objective(Tensor(1.0), Tensor(2.0), Tensor(3.0), alpha=0.1, beta=0.1)
        assert abs(t.item() - 1.5) <= 1e-6

    def test_zero_weights_reduce_to_supervised(self):
        t = total_objective(Tensor(1.25), Tensor(99.0), Tensor(99.0), alpha=0.0, beta=0.0)
        assert t.item() == 1.25

    def test_negative_weight_rejected(self):
        with pytest.raises(ParameterError):
            total_objective(Tensor(1.0), Tensor(1.0), Tensor(1.0), alpha=-0.1, beta=0.1)
