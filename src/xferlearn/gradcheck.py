"""Finite-difference verification of every differentiable op and loss.

Each entry builds random instances in float64 and compares the analytic
gradient against central differences.  Used by both the test suite and
the gradcheck CLI command.
"""

from __future__ import annotations

import numpy as np

from . import losses
from . import tensor as T
from .discriminator import DiscriminatorSpec, MultiLayerDiscriminator
from .tensor import Tensor, grad_check, use_float64

TOLERANCE = 1e-4


def _away_from_zero(z, margin=0.05):
    return np.where(np.abs(z) < margin, margin * 2, z)


def _cases(rng, corrupt=False):
    """Yield (name, make_case) where make_case(rng) -> (f, x) with every
    constant fixed at construction so f is a pure function of x."""

    def rand(*shape):
        return Tensor(rng.normal(0, 1, shape))

    def case_add(r):
        c = rand(4, 3)
        return lambda x: (x + c).sum(), rand(4, 3)

    def case_mul(r):
        c = rand(4, 3)
        return lambda x: (x * c).sum(), rand(4, 3)

    def case_div(r):
        c = Tensor(r.uniform(0.5, 2.0, (4, 3)))
        return lambda x: (x / c).sum(), rand(4, 3)

    def case_exp(r):
        return lambda x: T.exp(x).sum(), rand(3, 3)

    def case_log(r):
        return lambda x: T.log(x).sum(), Tensor(r.uniform(0.5, 3.0, (3, 3)))

    def case_sqrt(r):
        return lambda x: T.sqrt(x).sum(), Tensor(r.uniform(0.5, 3.0, (3, 3)))

    def case_relu(r):
        x = Tensor(_away_from_zero(r.normal(0, 1, (4, 4))))
        c = rand(4, 4)
        return lambda x: (T.relu(x) * c).sum(), x

    def case_leaky(r):
        x = Tensor(_away_from_zero(r.normal(0, 1, (4, 4))))
        c = rand(4, 4)
        return lambda x: (T.leaky_relu(x) * c).sum(), x

    def case_sigmoid(r):
        return lambda x: T.sigmoid(x).sum(), rand(4)

    def case_logsigmoid(r):
        return lambda x: T.log_sigmoid(x).sum(), rand(4)

    def case_mean(r):
        return lambda x: x.mean(axis=0).sum(), rand(5, 3)

    def case_matmul(r):
        b = rand(3, 2)
        return lambda x: T.matmul(x, b).sum(), rand(4, 3)

    def case_matmul_rhs(r):
        a = rand(4, 3)
        c = rand(4, 2)
        return lambda x: (T.matmul(a, x) * c).sum(), rand(3, 2)

    def case_concat(r):
        c = rand(2, 3)
        w = rand(4, 3)
        return lambda x: (T.concat([x, c], axis=0) * w).sum(), rand(2, 3)

    def case_index_select(r):
        w = rand(3, 3)
        return lambda x: (T.index_select(x, [0, 2, 2]) * w).sum(), rand(4, 3)

    def case_conv(r):
        w = rand(2, 3, 3, 3)
        b = rand(2)
        c = rand(2, 2, 5, 5)
        return lambda x: (T.conv2d(x, w, b, stride=1, padding=1) * c).sum(), rand(2, 3, 5, 5)

    def case_conv_w(r):
        x = rand(2, 3, 5, 5)
        b = rand(2)
        c = rand(2, 2, 3, 3)
        return lambda w: (T.conv2d(x, w, b, stride=2, padding=1) * c).sum(), rand(2, 3, 3, 3)

    def case_conv_w_shifted(r):
        # stride 1 with C > 1: the weight gradient of the shifted-GEMM backward
        x = rand(2, 3, 5, 4)
        b = rand(2)
        c = rand(2, 2, 5, 4)
        return lambda w: (T.conv2d(x, w, b, stride=1, padding=1) * c).sum(), rand(2, 3, 3, 3)

    def case_conv_stride2(r):
        w = rand(2, 3, 3, 3)
        b = rand(2)
        c = rand(2, 2, 3, 2)
        return lambda x: (T.conv2d(x, w, b, stride=2, padding=0) * c).sum(), rand(2, 3, 7, 5)

    def case_maxpool(r):
        # distinct values per window keep each maximum away from ties
        x = Tensor(r.permutation(64).reshape(1, 1, 8, 8) * 0.1)
        c = rand(1, 1, 4, 4)
        return lambda x: (T.maxpool2d(x) * c).sum(), x

    def case_maxpool3(r):
        x = Tensor(r.permutation(108).reshape(1, 2, 9, 6) * 0.1)
        c = rand(1, 2, 3, 2)
        return lambda x: (T.maxpool2d(x, size=3, stride=3) * c).sum(), x

    def case_bn_x(r):
        gamma = Tensor(r.uniform(0.5, 1.5, 2))
        beta = rand(2)
        c = rand(4, 2, 3, 3)

        def f(x):
            return (T.batchnorm2d(x, gamma, beta, np.zeros(2), np.ones(2),
                                  training=True) * c).sum()

        return f, rand(4, 2, 3, 3)

    def case_bn_gamma(r):
        x = rand(4, 2, 3, 3)
        beta = rand(2)
        c = rand(4, 2, 3, 3)

        def f(g):
            return (T.batchnorm2d(x, g, beta, np.zeros(2), np.ones(2),
                                  training=True) * c).sum()

        return f, Tensor(r.uniform(0.5, 1.5, 2))

    def case_bn_beta(r):
        x = rand(4, 2, 3, 3)
        gamma = Tensor(r.uniform(0.5, 1.5, 2))
        c = rand(4, 2, 3, 3)

        def f(b):
            return (T.batchnorm2d(x, gamma, b, np.zeros(2), np.ones(2),
                                  training=True) * c).sum()

        return f, rand(2)

    def case_bn_x_eval(r):
        gamma = Tensor(r.uniform(0.5, 1.5, 2))
        beta = rand(2)
        mean, var = r.normal(0, 1, 2), r.uniform(0.5, 2.0, 2)
        c = rand(4, 2, 3, 3)

        def f(x):
            return (T.batchnorm2d(x, gamma, beta, mean, var, training=False) * c).sum()

        return f, rand(4, 2, 3, 3)

    def case_softmax(r):
        c = rand(3, 4)
        return lambda x: (T.softmax(x, temperature=1.5) * c).sum(), rand(3, 4)

    def case_logsoftmax(r):
        c = rand(3, 4)
        return lambda x: (T.log_softmax(x) * c).sum(), rand(3, 4)

    def case_entropy(r):
        return lambda x: T.entropy(T.softmax(x)), rand(2, 5)

    def case_supervised_ce(r):
        labels = r.integers(0, 4, 3)
        return lambda x: losses.supervised_ce(x, labels), rand(3, 4)

    def case_domain_d(r):
        tgt = rand(4, 1)
        return lambda x: losses.domain_loss_D(x, tgt), rand(4, 1)

    def case_domain_e(r):
        src = rand(4, 1)
        return lambda x: losses.domain_loss_E(src, x), rand(4, 1)

    def case_similarity(r):
        s = rand(3, 5)
        c = rand(4, 3)
        return lambda x: (losses.similarity(x, s) * c).sum(), rand(4, 5)

    def case_similarity_support(r):
        q = rand(4, 5)
        c = rand(4, 3)
        return lambda s: (losses.similarity(q, s) * c).sum(), Tensor(
            r.normal(0, 1, (3, 5)) + 0.2
        )

    def case_entropy_transfer(r):
        s = rand(3, 5)
        return lambda x: losses.entropy_transfer(x, s, tau=2.0), rand(4, 5)

    def case_metric_ce(r):
        labels = r.integers(0, 3, 4)
        protos = rand(3, 5)
        return lambda x: losses.metric_ce(x, labels, protos), rand(4, 5)

    def case_semantic_total(r):
        labels = np.arange(3).repeat(2)
        src = rand(3, 5)
        unl = rand(4, 5)

        def f(x):
            total, *_ = losses.semantic_total(src, x, labels, unl)
            return total

        return f, rand(6, 5)

    def case_total_objective(r):
        labels = r.integers(0, 4, 3)
        dt = Tensor(0.3)
        st = Tensor(0.7)

        def f(x):
            return losses.total_objective(losses.supervised_ce(x, labels), dt, st, 0.1, 0.1)

        return f, rand(3, 4)

    def case_disc_tap(r):
        spec = DiscriminatorSpec(tap_widths=[6, 4, 3], head_widths=[8, 8], decay=0.5)
        disc = MultiLayerDiscriminator(spec, seed=int(r.integers(0, 1000)))
        t2, t3 = rand(2, 4), rand(2, 3)
        other = rand(2, 1)

        def f(t1):
            return losses.domain_loss_D(disc.forward([t1, t2, t3]), other)

        return f, rand(2, 6)

    def case_disc_param(r):
        spec = DiscriminatorSpec(tap_widths=[6, 4, 3], head_widths=[8, 8], decay=0.5)
        disc = MultiLayerDiscriminator(spec, seed=int(r.integers(0, 1000)))
        taps = [rand(2, 6), rand(2, 4), rand(2, 3)]
        other = rand(2, 1)
        target = disc.params["mirror1.w"]

        def f(w):
            disc.params["mirror1.w"] = w
            out = losses.domain_loss_D(disc.forward(taps), other)
            disc.params["mirror1.w"] = target
            return out

        return f, Tensor(target.data.copy())

    yield "add", case_add
    yield "mul", case_mul
    yield "div", case_div
    yield "exp", case_exp
    yield "log", case_log
    yield "sqrt", case_sqrt
    yield "relu", case_relu
    yield "leaky_relu", case_leaky
    yield "sigmoid", case_sigmoid
    yield "log_sigmoid", case_logsigmoid
    yield "mean", case_mean
    yield "matmul", case_matmul
    yield "matmul_rhs", case_matmul_rhs
    yield "concat", case_concat
    yield "index_select", case_index_select
    yield "conv2d", case_conv
    yield "conv2d_weight", case_conv_w
    yield "conv2d_weight_stride1", case_conv_w_shifted
    yield "conv2d_stride2", case_conv_stride2
    yield "maxpool2d", case_maxpool
    yield "maxpool2d_size3", case_maxpool3
    yield "batchnorm2d_x", case_bn_x
    yield "batchnorm2d_gamma", case_bn_gamma
    yield "batchnorm2d_beta", case_bn_beta
    yield "batchnorm2d_x_eval", case_bn_x_eval
    yield "softmax", case_softmax
    yield "log_softmax", case_logsoftmax
    yield "entropy", case_entropy
    yield "supervised_ce", case_supervised_ce
    yield "domain_loss_D", case_domain_d
    yield "domain_loss_E", case_domain_e
    yield "similarity", case_similarity
    yield "similarity_support", case_similarity_support
    yield "entropy_transfer", case_entropy_transfer
    yield "metric_ce", case_metric_ce
    yield "semantic_total", case_semantic_total
    yield "total_objective", case_total_objective
    yield "disc_forward_tap", case_disc_tap
    yield "disc_forward_param", case_disc_param

    if corrupt:
        def case_corrupt(r):
            # intentionally wrong backward rule to verify failure detection
            def bad_square(x):
                def bwd(g):
                    return (g * 3.0 * x.data,)  # should be 2x

                return T._make(x.data**2, "bad_square", (x,), bwd)

            return lambda x: bad_square(x).sum(), rand(3)

        yield "corrupted_square", case_corrupt


def run_suite(instances: int = 10, seed: int = 0, corrupt: bool = False):
    """Run the whole suite; returns [(op name, max relative error)]."""
    rng = np.random.default_rng(seed)
    results = []
    with use_float64():
        for name, make_case in _cases(rng, corrupt=corrupt):
            worst = 0.0
            for _ in range(instances):
                f, x = make_case(rng)
                worst = max(worst, grad_check(f, x))
            results.append((name, worst))
    return results
