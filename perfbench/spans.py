"""Outside-in tracing of the xferlearn modules for the benchmark's traced run.

``Tracer.install`` replaces the public functions that the trainer and the
layers reach through module attributes with wrappers that record one span
per call: name, start, end and the parent span.  When a tensor op records a
graph node, the node's ``backward_fn`` is wrapped as well, so the time of
the backward sweep is charged to the op and to the module (``layers``,
``discriminator``, ``losses``) whose call created the node.  Nothing in the
package is edited, and ``uninstall`` puts every attribute back.  Spans stay
in memory until ``write`` at the end of the run.
"""

from __future__ import annotations

import bisect
import json
import os
from time import perf_counter

from xferlearn import checkpoint, data, discriminator, layers, losses, metrics, optim
from xferlearn import tensor, trainer

# tensor-module function -> the op group its per-layer metrics are reported under
OP_GROUPS = {
    "conv2d": "conv2d",
    "maxpool2d": "maxpool2d",
    "batchnorm2d": "batchnorm2d",
    "matmul": "matmul",
    **{op: "elementwise" for op in ("add", "sub", "mul", "div", "exp", "log", "sqrt",
                                     "relu", "leaky_relu", "sigmoid", "log_sigmoid")},
    **{op: "softmax" for op in ("softmax", "log_softmax", "entropy")},
    **{op: "shape" for op in ("reshape", "concat", "index_select", "tsum", "tmean",
                               "transpose")},
}

# losses function -> the loss term it belongs to
LOSS_GROUPS = {
    "supervised_ce": "supervised",
    "domain_loss_D": "domain",
    "domain_loss_E": "domain",
    "prototypes": "semantic",
    "metric_ce": "semantic",
    "entropy_transfer": "semantic",
    "semantic_total": "semantic",
    "similarity": "semantic",
    "normalize_rows": "semantic",
}

MIB = float(1 << 20)

# span fields
NAME, START, END, PARENT, OWNER, WORK = range(6)


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self):
        self._saved = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _conv_work(args, kwargs, out):
    x, w = args[0], args[1]
    f, c, kh, kw = w.shape
    k_by_p = c * kh * kw * out.shape[2] * out.shape[3]
    return {"flop": 2.0 * x.shape[0] * f * k_by_p,
            "im2col_bytes": float(x.shape[0] * k_by_p * x.data.itemsize)}


def _matmul_work(args, kwargs, out):
    (m, k), n = args[0].shape, args[1].shape[1]
    return {"flop": 2.0 * m * k * n}


def _images(args, kwargs, out):
    return {"images": args[1].shape[0]}


def _elements(args, kwargs, out):
    return {"elements": sum(p.data.size for p in args[0].params if p.grad is not None)}


def _file_mib(args, kwargs, out):
    return {"mib": os.path.getsize(args[0]) / MIB}


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index, owner, work]
        self._stack: list[int] = []  # indices of open spans
        self._modules: list[str] = []  # names of open layers/discriminator/losses spans
        self._patches = Patches()

    def install(self) -> None:
        for fn in OP_GROUPS:
            owner = losses if fn == "transpose" else tensor
            attr = "_transpose" if fn == "transpose" else fn
            work = {"conv2d": _conv_work, "matmul": _matmul_work}.get(fn)
            self._wrap(owner, attr, f"tensor.{fn}", op=True, work=work)
        self._wrap(layers.EmbeddingNetwork, "forward", "layers.forward", module=True,
                   work=_images)
        self._wrap(discriminator.MultiLayerDiscriminator, "forward",
                   "discriminator.forward", module=True)
        for fn in LOSS_GROUPS:
            self._wrap(losses, fn, f"losses.{fn}", module=True)
        self._wrap(trainer, "backward", "tensor.backward")
        self._wrap(optim.Adam, "step", "optim.step", work=_elements)
        self._wrap(optim.Adam, "zero_grads", "optim.zero_grads")
        self._wrap(trainer, "normalize_batch", "data.normalize_batch")
        self._wrap(metrics, "normalize_batch", "data.normalize_batch")
        self._wrap(trainer, "source_prototypes", "trainer.source_prototypes")
        self._wrap(trainer, "clone_into_target", "layers.clone_into_target")
        self._wrap(metrics, "evaluate", "metrics.evaluate")
        for fn in ("synth_digits", "filter_classes", "make_splits"):
            self._wrap(data, fn, f"data.{fn}")
        self._wrap(checkpoint, "save_checkpoint", "checkpoint.save", work=_file_mib)
        self._wrap(checkpoint, "load_checkpoint", "checkpoint.load")

    def uninstall(self) -> None:
        self._patches.restore()

    def _wrap(self, owner, attr: str, name: str, *, op: bool = False, module: bool = False,
              work=None) -> None:
        original = vars(owner)[attr]
        spans, stack, modules = self.spans, self._stack, self._modules
        wrap_backward = self._wrap_backward

        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None, None]
            stack.append(len(spans))
            spans.append(span)
            if module:
                modules.append(name)
            span[START] = perf_counter()
            try:
                out = original(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
                if module:
                    modules.pop()
            if work is not None:
                span[WORK] = work(args, kwargs, out)
            if op and out.node is not None:
                span[OWNER] = modules[-1] if modules else "trainer"
                wrap_backward(out.node, name, span[OWNER], span[WORK])
            return out

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", attr)
        self._patches.set(owner, attr, wrapper)

    def _wrap_backward(self, node, name: str, owner: str, work) -> None:
        original = node.backward_fn
        spans, stack = self.spans, self._stack
        bwd_name = f"{name}.bwd"
        # both backward contractions cost what the forward one does
        bwd_work = None if work is None else {k: 2 * v if k == "flop" else v
                                              for k, v in work.items()}

        def backward_fn(g):
            span = [bwd_name, 0.0, 0.0, stack[-1] if stack else -1, owner, bwd_work]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                return original(g)
            finally:
                span[END] = perf_counter()
                stack.pop()

        node.backward_fn = backward_fn

    def write(self, path, step_spans: list) -> None:
        with open(path, "w") as f:
            for i, s in enumerate(self.spans + step_spans):
                f.write(json.dumps({"run": self.run_id, "id": i, "name": s[NAME],
                                    "start": s[START], "end": s[END], "parent": s[PARENT],
                                    "owner": s[OWNER]}) + "\n")

    @staticmethod
    def step_spans(starts: list, ends: list) -> list:
        """One ``trainer.step`` span per completed step."""
        return [["trainer.step", a, b, -1, None, None] for a, b in zip(starts, ends)]

    def summarize(self, step_spans: list, setups: int, evals: int) -> dict:
        """Per-layer metrics: per step in the loop, per set-up, per evaluate call.

        Top-level spans inside the step loop become children of the step that
        contains them, so the self times of all loop spans add up to the
        traced time of the steps; ``trainer.step.self_s``, the step's own
        time outside every wrapped call, is the part no layer accounts for.
        """
        n = len(step_spans)
        loop_start, loop_end = step_spans[0][START], step_spans[-1][END]
        step_starts = [s[START] for s in step_spans]
        spans = self.spans + step_spans
        first_step = len(self.spans)
        parents = [s[PARENT] for s in spans]
        for i in range(first_step):
            s = spans[i]
            if s[PARENT] == -1 and s[START] >= loop_start and s[END] <= loop_end:
                parents[i] = first_step + bisect.bisect_right(step_starts, s[START]) - 1
        covered = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if parents[i] >= 0:
                covered[parents[i]] += s[END] - s[START]

        loop, setup, evaluation = {}, {}, {}

        def add(phase, key, value):
            phase[key] = phase.get(key, 0.0) + value

        for i, s in enumerate(spans):
            name, dur = s[NAME], s[END] - s[START]
            own = dur - covered[i]
            work = s[WORK] or {}
            if s[END] <= loop_start:
                add(setup, name, dur)
                if "mib" in work:
                    add(setup, "checkpoint.mb", work["mib"])
                continue
            if s[START] >= loop_end:
                add(evaluation, name + ".self", own)
                add(evaluation, name, dur)
                if s[OWNER] is not None and not name.endswith(".bwd"):
                    add(evaluation, "nodes", 1)
                continue
            if name.startswith("tensor.") and name != "tensor.backward":
                fn = name.split(".")[1]
                group = OP_GROUPS[fn]
                if name.endswith(".bwd"):
                    add(loop, f"tensor.{group}.bwd_s", own)
                    add(loop, f"{s[OWNER].split('.')[0]}.bwd_s", own)
                    add(loop, "nodes_swept", 1)
                else:
                    add(loop, f"tensor.{group}.fwd_s", own)
                    add(loop, "nodes_recorded", 1 if s[OWNER] is not None else 0)
                if "flop" in work:
                    add(loop, f"tensor.{group}.gflop", work["flop"] / 1e9)
                if "im2col_bytes" in work:
                    add(loop, "tensor.conv2d.im2col_mb", work["im2col_bytes"] / MIB)
            elif name == "tensor.backward":
                add(loop, "tensor.backward.self_s", own)
                add(loop, "tensor.backward.calls", 1)
            elif name == "layers.forward":
                add(loop, "layers.forward.calls", 1)
                add(loop, "layers.forward.images", work["images"])
                add(loop, "layers.forward.self_s", own)
            elif name == "discriminator.forward":
                add(loop, "discriminator.forward.calls", 1)
                add(loop, "discriminator.forward.s", dur)
            elif name.startswith("losses."):
                parent = parents[i]
                if parent < 0 or not spans[parent][NAME].startswith("losses."):
                    add(loop, f"losses.{LOSS_GROUPS[name.split('.')[1]]}.s", dur)
            elif name in ("optim.step", "optim.zero_grads", "data.normalize_batch"):
                add(loop, f"{name}.s", dur)
                if "elements" in work:
                    add(loop, "optim.elements", work["elements"])
            elif name == "trainer.step":
                add(loop, "trainer.step.self_s", own)

        out = {}
        for key in ("conv2d", "maxpool2d", "batchnorm2d", "matmul", "elementwise",
                    "softmax", "shape"):
            out[f"tensor.{key}.fwd_s"] = loop.get(f"tensor.{key}.fwd_s", 0.0) / n
            out[f"tensor.{key}.bwd_s"] = loop.get(f"tensor.{key}.bwd_s", 0.0) / n
        for key in ("tensor.conv2d.gflop", "tensor.conv2d.im2col_mb", "tensor.matmul.gflop",
                    "tensor.backward.self_s", "tensor.backward.calls",
                    "layers.forward.calls", "layers.forward.images",
                    "layers.forward.self_s", "layers.bwd_s",
                    "discriminator.forward.s", "discriminator.forward.calls",
                    "discriminator.bwd_s", "losses.supervised.s", "losses.domain.s",
                    "losses.semantic.s", "losses.bwd_s", "optim.step.s",
                    "optim.zero_grads.s", "optim.elements", "data.normalize_batch.s",
                    "trainer.step.self_s"):
            out[key] = loop.get(key, 0.0) / n
        recorded = loop.get("nodes_recorded", 0.0)
        swept = loop.get("nodes_swept", 0.0)
        out["tensor.graph.nodes_recorded"] = recorded / n
        out["tensor.graph.nodes_swept"] = swept / n
        out["tensor.graph.swept_ratio"] = swept / recorded if recorded else 0.0
        for key, name in (("layers.clone_into_target.s", "layers.clone_into_target"),
                          ("data.synth_digits.s", "data.synth_digits"),
                          ("data.make_splits.s", "data.make_splits"),
                          ("trainer.source_prototypes.s", "trainer.source_prototypes"),
                          ("checkpoint.save.s", "checkpoint.save"),
                          ("checkpoint.load.s", "checkpoint.load"),
                          ("checkpoint.mb", "checkpoint.mb")):
            out[key] = setup.get(name, 0.0) / setups
        out["metrics.evaluate.s"] = evaluation.get("metrics.evaluate", 0.0) / evals
        out["metrics.evaluate.self_s"] = evaluation.get("metrics.evaluate.self", 0.0) / evals
        out["tensor.conv2d.eval_fwd_s"] = evaluation.get("tensor.conv2d.self", 0.0) / evals
        out["tensor.graph.eval_nodes_recorded"] = evaluation.get("nodes", 0.0) / evals
        wall = sum(s[END] - s[START] for s in step_spans)
        out["trace.step_s"] = wall / n
        return out
