"""In-memory span tracer for one learnpath CLI process and its pool workers.

install() replaces learnpath functions with timing wrappers in the module
namespaces that call them (`learnpath.supervision.mlp_forward`,
`learnpath.numerics.mlp_backward` inside `logits_jacobian`, ...), so the
same kernel is counted separately per caller and nothing under src/
changes. Two kinds of record are kept:

  span  one per call: id, parent span id, name, calling module, start,
        end, status (ok or the exception's class name), run id, pid and a
        few attributes read from the arguments or the result.
  leaf  hot calls (one per SGD step, per sample or per epoch) folded into
        their enclosing span: per (parent span, name, caller) a call
        count, total seconds, FLOPs computed from array shapes and an item
        count (rows for predict_proba).

A leaf never calls another wrapped function, so a span's self time is its
duration minus its leaves' seconds minus the part of it covered by child
spans (see layers.py). Records stay in memory and are appended to
<trace_dir>/spans-<pid>.jsonl when the process's top-level span closes:
forked pool workers leave through os._exit and never run atexit.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import os
import time

import numpy as np

# learnpath modules whose functions are wrapped where other modules call
# them; rngstreams is plumbing, not a layer
LAYER_MODULES = ("config", "numerics", "toygauss", "supervision", "pathtrace",
                 "metrics", "ntkcheck", "experiments", "cli")

# functions recorded as spans; every other wrapped function is a leaf
SPAN_FUNCTIONS = {
    "load_config", "logits_jacobian",
    "train_model", "train_teacher_filterkd_multi",
    "make_onehot_targets", "make_ls_targets", "make_gt_targets",
    "extract_eskd_targets", "extract_kd_targets",
    "decompose_pair", "similarity_trace_study", "trace_evolution",
}

# experiments' own helpers, wrapped inside experiments itself
EXPERIMENT_SPANS = ("_build_dataset", "_dispatch", "_pool_entry",
                    "_distill_group", "_correlate_group", "_student_row",
                    "_test_metrics", "write_csv", "_write_summary")


class Tracer:
    """Span and leaf records of one process; reset in forked children."""

    def __init__(self, trace_dir: str, run_id: str):
        self.trace_dir = trace_dir
        self.run_id = run_id
        self.main_pid = self.pid = os.getpid()
        self.stack = []       # ids of the open spans, innermost last
        self.base_depth = 0   # open spans inherited from the parent process
        self.spans = []
        self.leaves = {}      # (parent id, name, via) -> [calls, s, flops, items]
        self._next = 0
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self):
        # keep the inherited stack: its top is the dispatching span, which
        # becomes the parent of the worker's top-level spans
        self.pid = os.getpid()
        self.base_depth = len(self.stack)
        self.spans.clear()
        self.leaves.clear()
        self._next = 0

    def new_id(self) -> str:
        self._next += 1
        return f"{self.pid}.{self._next}"

    def record(self, name: str, via: str, t0: float, t1: float) -> None:
        """A span timed by the caller, under the innermost open span."""
        parent = self.stack[-1] if self.stack else None
        self.spans.append((self.new_id(), parent, name, via, t0, t1, "ok", None))

    def flush(self) -> None:
        path = os.path.join(self.trace_dir, f"spans-{self.pid}.jsonl")
        with open(path, "a") as fh:
            for sid, parent, name, via, t0, t1, status, attrs in self.spans:
                fh.write(json.dumps({
                    "kind": "span", "id": sid, "parent": parent, "name": name,
                    "via": via, "t0": t0, "t1": t1, "status": status,
                    "attrs": attrs, "run": self.run_id, "pid": self.pid}) + "\n")
            for (parent, name, via), (calls, s, flops, items) in self.leaves.items():
                fh.write(json.dumps({
                    "kind": "leaf", "parent": parent, "name": name, "via": via,
                    "calls": calls, "s": s, "flops": flops, "items": items,
                    "run": self.run_id, "pid": self.pid}) + "\n")
        self.spans.clear()
        self.leaves.clear()

    def span(self, fn, name: str, via: str, attrs=None):
        """Wrap fn so each call is one span; attrs(args, kwargs, result)."""
        stack, spans, clock = self.stack, self.spans, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self.new_id()
            parent = stack[-1] if stack else None
            stack.append(sid)
            status, result = "ok", None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                status = type(err).__name__
                raise
            finally:
                t1 = clock()
                stack.pop()
                extra = attrs(args, kwargs, result) if attrs and status == "ok" else None
                spans.append((sid, parent, name, via, t0, t1, status, extra))
                if self.pid != self.main_pid and len(stack) == self.base_depth:
                    self.flush()
        return wrapper

    def leaf(self, fn, name: str, via: str, work=None):
        """Wrap fn so its calls add to the enclosing span's leaf record.

        work(args) -> (flops, items) sizes one call; without it each call
        counts as one item.
        """
        stack, leaves, clock = self.stack, self.leaves, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                key = (stack[-1] if stack else None, name, via)
                rec = leaves.get(key)
                if rec is None:
                    rec = leaves[key] = [0, 0.0, 0, 0]
                rec[0] += 1
                rec[1] += dt
                if work is None:
                    rec[3] += 1
                else:
                    flops, items = work(args)
                    rec[2] += flops
                    rec[3] += items
        return wrapper


# ------------------------------------------------------ work from shapes

@functools.lru_cache(maxsize=None)
def _macs(layer_sizes: tuple) -> tuple:
    """(multiply-adds of one forward pass, parameter count)."""
    pairs = list(zip(layer_sizes[:-1], layer_sizes[1:]))
    macs = sum(i * o for i, o in pairs)
    return macs, macs + sum(o for _, o in pairs)


def _forward_work(args):
    return 2 * _macs(args[0].layer_sizes)[0], 1


def _backward_work(args):
    sizes = args[0].layer_sizes
    macs = _macs(sizes)[0]
    # outer products for every layer, W^T delta below the first
    return macs + 2 * (macs - sizes[0] * sizes[1]), 1


def _sgd_work(args):
    return 2 * _macs(args[0].layer_sizes)[1], 1


def _predict_work(args):
    rows = len(args[1])
    return 2 * _macs(args[0].layer_sizes)[0] * rows, rows


WORK = {"mlp_forward": _forward_work, "mlp_backward": _backward_work,
        "sgd_step": _sgd_work, "predict_proba": _predict_work}


# ------------------------------------------------------ span attributes

def _train_attrs(args, kwargs, result):
    res = result[0] if isinstance(result, tuple) else result
    return {"epochs": res.epochs_run, "best_epoch": res.best_epoch}


def _jacobian_attrs(args, kwargs, result):
    x = np.ascontiguousarray(args[1], dtype=np.float64)
    return {"input": hashlib.blake2b(x.tobytes(), digest_size=8).hexdigest()}


def _csv_attrs(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _summary_attrs(args, kwargs, result):
    return {"bytes": os.path.getsize(os.path.join(args[0], "summary.txt"))}


def _export_attrs(args, kwargs, result):
    store, path = args[0], args[1]
    return {"rows": sum(len(p) for p in store.paths.values()),
            "bytes": os.path.getsize(path)}


def _runner_attrs(args, kwargs, result):
    return {"jobs": kwargs.get("jobs", 1)}


ATTRS = {"train_model": _train_attrs, "train_teacher_filterkd_multi": _train_attrs,
         "logits_jacobian": _jacobian_attrs, "write_csv": _csv_attrs,
         "_write_summary": _summary_attrs}


# ------------------------------------------------------------- install

def _wrap(tracer, fn, name, via):
    short = name.rsplit(".", 1)[-1]
    if short in SPAN_FUNCTIONS or short in EXPERIMENT_SPANS:
        return tracer.span(fn, name, via, ATTRS.get(short))
    return tracer.leaf(fn, name, via, WORK.get(short))


def install(trace_dir: str, run_id: str) -> Tracer:
    """Wrap learnpath's functions at their call sites; returns the tracer."""
    tracer = Tracer(trace_dir, run_id)
    mods = {m: importlib.import_module(f"learnpath.{m}") for m in LAYER_MODULES}
    by_module = {mod.__name__: short for short, mod in mods.items()}
    for via, mod in mods.items():
        for attr, fn in list(vars(mod).items()):
            if not inspect.isfunction(fn):
                continue
            home = by_module.get(fn.__module__)
            if home is None or home == via:
                continue  # defined here, or in rngstreams
            setattr(mod, attr, _wrap(tracer, fn, f"{home}.{attr}", via))
    # calls that stay inside their own module
    numerics, supervision = mods["numerics"], mods["supervision"]
    for attr in ("mlp_forward", "mlp_backward"):  # used by logits_jacobian
        setattr(numerics, attr, _wrap(tracer, getattr(numerics, attr),
                                      f"numerics.{attr}", "numerics"))
    supervision.kd_loss_and_grad = _wrap(tracer, supervision.kd_loss_and_grad,
                                         "supervision.kd_loss_and_grad",
                                         "supervision")
    experiments = mods["experiments"]
    for attr in EXPERIMENT_SPANS:
        setattr(experiments, attr, _wrap(tracer, getattr(experiments, attr),
                                         f"experiments.{attr}", "experiments"))
    for command, fn in list(experiments.RUNNERS.items()):
        experiments.RUNNERS[command] = tracer.span(
            fn, f"experiments.{fn.__name__}", "cli", _runner_attrs)
    store = mods["pathtrace"].PathStore
    store.log = tracer.leaf(store.log, "pathtrace.PathStore.log", "supervision")
    store.export_csv = tracer.span(store.export_csv, "pathtrace.PathStore.export_csv",
                                   "experiments", _export_attrs)
    return tracer
