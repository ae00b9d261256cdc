"""Per-layer metrics from the span files of one traced CLI run.

Layers are learnpath's modules; `config.*` and the CLI entry count as
set-up. A span's self time is its duration minus its leaves' seconds
minus the part of its interval that child spans cover (children in pool
workers can overlap each other, so the union is taken).
"""

from __future__ import annotations

import glob
import json
import os
from collections import defaultdict

TRAIN_SPANS = ("supervision.train_model", "supervision.train_teacher_filterkd_multi")
TASK_SPANS = ("experiments._distill_group", "experiments._correlate_group")
SCORE_LEAVES = ("pathtrace.base_difficulty", "pathtrace.zigzag_score",
                "pathtrace.ema_filter_path", "pathtrace.barycentric_project",
                "pathtrace.recovery_fraction")


def load(trace_dir: str):
    """(spans, leaves) from every spans-<pid>.jsonl in trace_dir."""
    spans, leaves = [], []
    for path in sorted(glob.glob(os.path.join(trace_dir, "spans-*.jsonl"))):
        with open(path) as fh:
            for line in fh:
                rec = json.loads(line)
                (spans if rec["kind"] == "span" else leaves).append(rec)
    return spans, leaves


def layer_of(name: str) -> str:
    layer = name.split(".", 1)[0]
    return "setup" if layer == "config" else layer


def _covered(t0: float, t1: float, intervals) -> float:
    """Length of [t0, t1] covered by the union of intervals."""
    total, end = 0.0, t0
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, t1)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans, leaves) -> dict:
    """span id -> self seconds."""
    children, leaf_s = defaultdict(list), defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["t0"], s["t1"]))
    for leaf in leaves:
        leaf_s[leaf["parent"]] += leaf["s"]
    return {s["id"]: (s["t1"] - s["t0"]) - leaf_s[s["id"]]
            - _covered(s["t0"], s["t1"], children[s["id"]])
            for s in spans}


def layer_metrics(spans, leaves) -> dict:
    """Every per-layer metric of the benchmark, by name."""
    own = self_times(spans, leaves)

    def leaf_sum(name, via=None, field="s"):
        return sum(leaf[field] for leaf in leaves if leaf["name"] == name
                   and (via is None or leaf["via"] == via))

    def named(*names):
        return [s for s in spans if s["name"] in names]

    def dur(group):
        return sum(s["t1"] - s["t0"] for s in group)

    def attr_sum(group, key):
        return sum(s["attrs"][key] for s in group if s["attrs"])

    m = {}
    # numerics
    kernels = ("numerics.mlp_forward", "numerics.mlp_backward",
               "numerics.sgd_step", "numerics.predict_proba")
    m["numerics.forward_calls"] = leaf_sum("numerics.mlp_forward", field="calls")
    m["numerics.forward_s"] = leaf_sum("numerics.mlp_forward")
    m["numerics.backward_calls"] = leaf_sum("numerics.mlp_backward", field="calls")
    m["numerics.backward_s"] = leaf_sum("numerics.mlp_backward")
    m["numerics.sgd_step_s"] = leaf_sum("numerics.sgd_step")
    steps = leaf_sum("numerics.sgd_step", "supervision", "calls")
    step_s = (leaf_sum("numerics.mlp_forward", "supervision")
              + leaf_sum("numerics.mlp_backward", "supervision")
              + leaf_sum("numerics.sgd_step", "supervision")
              + leaf_sum("supervision.kd_loss_and_grad", "supervision"))
    m["numerics.step_us"] = step_s / steps * 1e6 if steps else 0.0
    busy = sum(leaf_sum(k) for k in kernels)
    flops = sum(leaf_sum(k, field="flops") for k in kernels)
    m["numerics.gflops_computed"] = flops / busy / 1e9 if busy else 0.0
    m["numerics.predict_proba_calls"] = leaf_sum("numerics.predict_proba", field="calls")
    m["numerics.predict_proba_rows"] = leaf_sum("numerics.predict_proba", field="items")
    m["numerics.predict_proba_s"] = leaf_sum("numerics.predict_proba")
    jac = named("numerics.logits_jacobian")
    m["numerics.jacobian_calls"] = len(jac)
    m["numerics.jacobian_s"] = dur(jac)
    # supervision
    train = named(*TRAIN_SPANS)
    epochs = attr_sum(train, "epochs")
    m["supervision.train_runs"] = len(train)
    m["supervision.steps"] = steps
    m["supervision.epochs"] = epochs
    m["supervision.train_s"] = sum(own[s["id"]] for s in train)
    m["supervision.kd_grad_calls"] = leaf_sum("supervision.kd_loss_and_grad",
                                              field="calls")
    m["supervision.kd_grad_s"] = leaf_sum("supervision.kd_loss_and_grad")
    m["supervision.eval_s"] = leaf_sum("numerics.predict_proba", "supervision")
    useful = sum(s["attrs"]["best_epoch"] + 1 for s in train if s["attrs"])
    m["supervision.useful_epoch_ratio"] = useful / epochs if epochs else 0.0
    m["supervision.diverged"] = sum(s["status"] == "DivergenceError" for s in train)
    # pathtrace
    export = named("pathtrace.PathStore.export_csv")
    m["pathtrace.log_calls"] = leaf_sum("pathtrace.PathStore.log", field="calls")
    m["pathtrace.log_s"] = leaf_sum("pathtrace.PathStore.log")
    m["pathtrace.export_rows"] = attr_sum(export, "rows")
    m["pathtrace.export_bytes"] = attr_sum(export, "bytes")
    m["pathtrace.export_s"] = dur(export)
    m["pathtrace.score_s"] = sum(leaf_sum(n) for n in SCORE_LEAVES)
    # ntkcheck
    dec = named("ntkcheck.decompose_pair")
    m["ntkcheck.decompose_calls"] = len(dec)
    m["ntkcheck.decompose_s"] = dur(dec)
    m["ntkcheck.similarity_s"] = dur(named("ntkcheck.similarity_trace_study"))
    m["ntkcheck.trace_s"] = dur(named("ntkcheck.trace_evolution"))
    distinct = len({s["attrs"]["input"] for s in jac if s["attrs"]})
    m["ntkcheck.jacobian_reuse_ratio"] = distinct / len(jac) if jac else 0.0
    # toygauss
    m["toygauss.sample_s"] = (leaf_sum("toygauss.sample_dataset")
                              + leaf_sum("toygauss.split_dataset"))
    m["toygauss.flip_s"] = leaf_sum("toygauss.flip_labels")
    m["toygauss.perturb_calls"] = leaf_sum("toygauss.perturb_target", field="calls")
    m["toygauss.perturb_s"] = leaf_sum("toygauss.perturb_target")
    # metrics
    metric_leaves = [leaf for leaf in leaves if leaf["name"].startswith("metrics.")]
    m["metrics.calls"] = sum(leaf["calls"] for leaf in metric_leaves)
    m["metrics.s"] = sum(leaf["s"] for leaf in metric_leaves)
    # experiments
    writes = named("experiments.write_csv", "experiments._write_summary")
    tasks = named(*TASK_SPANS)
    runner = [s for s in spans if s["name"].startswith("experiments.run_")]
    m["experiments.self_s"] = sum(own[s["id"]] for s in spans
                                  if layer_of(s["name"]) == "experiments")
    m["experiments.write_csv_s"] = dur(writes)
    m["experiments.write_bytes"] = attr_sum(writes, "bytes")
    m["experiments.task_max_s"] = max((s["t1"] - s["t0"] for s in tasks), default=0.0)
    capacity = sum(s["attrs"]["jobs"] * (s["t1"] - s["t0"]) for s in runner)
    m["experiments.pool_busy_frac"] = dur(tasks) / capacity if tasks else 0.0
    # set-up inside the traced process: import, config, CLI entry
    m["setup.self_s"] = sum(own[s["id"]] for s in spans if layer_of(s["name"]) == "setup")
    m["trace.spans"] = len(spans)
    m["trace.leaf_calls"] = sum(leaf["calls"] for leaf in leaves)
    return m
