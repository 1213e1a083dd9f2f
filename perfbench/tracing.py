"""Spans around calls into the package, recorded from outside it.

Each traced function is replaced, for the length of one traced operation,
at the module attribute its caller looks it up by (``daechain.models``
calls ``mlp_forward`` through its own global, so that is the attribute
patched). A span holds name, start, end, parent span and operation id.
Spans stay in memory and are written out when the run ends. A layer's self
time is its span's duration minus the time its child spans cover; calls are
nested on one thread, so the children's durations simply add up.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from contextlib import contextmanager

import numpy as np


def _rows(arg_index):
    def work(args, kwargs, result):
        return {"rows": int(np.shape(args[arg_index])[0])}
    return work


def _result_rows(args, kwargs, result):
    return {"rows": int(np.shape(result)[0])}


def _result_values(args, kwargs, result):
    return {"values": int(np.size(result))}


def _param_count(args, kwargs, result):
    mlp = args[0]
    arrays = list(getattr(mlp, "weights", [])) + list(getattr(mlp, "biases", []))
    return {"params": int(sum(np.size(a) for a in arrays))}


def _oracle_nodes(args, kwargs, result):
    # Computed, not observed: calls x nodes_per_dim ** dim of the rule in use.
    quad = args[3] if len(args) > 3 else kwargs.get("quad")
    if quad is None:
        spec = getattr(importlib.import_module("daechain.oracle"), "QuadratureSpec", None)
        quad = spec() if spec is not None else None
    if quad is None:
        return {"nodes": 0}
    if getattr(quad, "method", "gauss_hermite") == "monte_carlo":
        return {"nodes": int(quad.n_samples)}
    return {"nodes": int(quad.nodes_per_dim) ** int(args[0].dim)}


def _chain_updates(args, kwargs, result):
    return {"updates": np.atleast_2d(args[1]).shape[0] * int(args[2].steps)}


def _file_bytes(path_index):
    def work(args, kwargs, result):
        path = args[path_index] if len(args) > path_index else kwargs.get("path")
        return {"bytes": os.path.getsize(path)}
    return work


def _csv_work(args, kwargs, result):
    return {"rows": len(args[0]), **_file_bytes(1)(args, kwargs, result)}


# (module that looks the function up, attribute, span name, counter function)
TARGETS = [
    ("daechain.numeric", "sample_gaussian", "numeric.sample_gaussian", _result_values),
    ("daechain.numeric", "sample_uniform", "numeric.sample_uniform", _result_values),
    ("daechain.nn", "relu", "numeric.relu", None),
    ("daechain.nn", "derivative_of_relu", "numeric.derivative_of_relu", None),
    ("daechain.models", "mlp_forward", "nn.mlp_forward", _rows(1)),
    ("daechain.models", "mlp_backward", "nn.mlp_backward", _rows(2)),
    ("daechain.models", "adam_step", "nn.adam_step", _param_count),
    ("daechain.models", "bce_loss", "losses.bce_loss", None),
    ("daechain.models", "mse_loss", "losses.mse_loss", None),
    ("daechain.models", "kl_to_standard_normal", "losses.kl_to_standard_normal", None),
    ("daechain.models", "adversarial_losses", "losses.adversarial_losses", None),
    ("daechain.models", "dae_train_step", "models.dae_train_step", None),
    ("daechain.models", "dvae_train_step", "models.dvae_train_step", None),
    ("daechain.models", "daae_train_step", "models.daae_train_step", None),
    ("daechain.models", "train", "models.train", None),
    ("daechain.cli", "train", "models.train", None),
    ("daechain.models", "reconstruct", "models.reconstruct", _rows(1)),
    ("daechain.sampler", "reconstruct", "models.reconstruct", _rows(1)),
    ("daechain.cli", "reconstruct", "models.reconstruct", _rows(1)),
    ("daechain.models", "decode_latent", "models.decode_latent", None),
    ("daechain.sampler", "decode_latent", "models.decode_latent", None),
    ("daechain.oracle", "optimal_reconstruction", "oracle.optimal_reconstruction", _oracle_nodes),
    ("daechain.oracle", "mixture_log_pdf_batch", "oracle.mixture_log_pdf_batch", _result_rows),
    ("daechain.sampler", "mixture_log_pdf_batch", "oracle.mixture_log_pdf_batch", _result_rows),
    ("daechain.oracle", "responsibilities", "oracle.responsibilities", _result_rows),
    ("daechain.sampler", "responsibilities", "oracle.responsibilities", _result_rows),
    ("daechain.oracle", "limit_convergence_study", "oracle.limit_convergence_study", None),
    ("daechain.cli", "limit_convergence_study", "oracle.limit_convergence_study", None),
    ("daechain.sampler", "run_chain", "sampler.run_chain", _chain_updates),
    ("daechain.sampler", "chain_diagnostics", "sampler.chain_diagnostics", None),
    ("daechain.cli", "chain_diagnostics", "sampler.chain_diagnostics", None),
    ("daechain.datasets", "build_dataset", "datasets.build_dataset", _result_rows),
    ("daechain.cli", "build_dataset", "datasets.build_dataset", _result_rows),
    ("daechain.cli", "save_checkpoint", "io_formats.save_checkpoint", _file_bytes(1)),
    ("daechain.cli", "load_checkpoint", "io_formats.load_checkpoint", _file_bytes(0)),
    ("daechain.cli", "write_csv", "io_formats.write_csv", _csv_work),
    ("daechain.cli", "write_pgm_grid", "io_formats.write_pgm_grid", _file_bytes(3)),
    ("daechain.cli", "load_config", "config.load_config", None),
    ("daechain.cli", "apply_overrides", "config.apply_overrides", None),
]


class Tracer:
    """In-memory span recorder; ``installed()`` patches TARGETS for one operation."""

    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent index, op id, error)
        self.counters: dict[str, float] = {}
        self.op_id = 0
        self._stack: list[int] = []

    def _record(self, name, fn, work):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if work is not None:
                for key, value in work(args, kwargs, result).items():
                    self.count(f"{name}.{key}", value)
            return result
        return wrapper

    def count(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + value

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, 0.0, 0.0, parent, self.op_id, None))
        self._stack.append(idx)
        start = time.perf_counter()
        error = None
        try:
            yield
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.op_id, error)

    @contextmanager
    def installed(self):
        """Patch every TARGETS attribute that exists now, restore them on exit."""
        saved = []
        try:
            for module_name, attr, name, work in TARGETS:
                # a module nobody imported has no callers to trace
                module = sys.modules.get(module_name)
                fn = getattr(module, attr, None)
                if fn is None:
                    continue
                saved.append((module, attr, fn))
                setattr(module, attr, self._record(name, fn, work))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Span name -> (calls, summed self time in seconds)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, tuple[int, float]] = {}
        for i, (name, start, end, _, _, _) in enumerate(self.spans):
            calls, total = out.get(name, (0, 0.0))
            out[name] = (calls + 1, total + (end - start) - child[i])
        return out

    def errors(self, name: str, error: str) -> int:
        return sum(1 for s in self.spans if s[0] == name and s[5] == error)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start_s,end_s,parent,op,error\n")
            for i, (name, start, end, parent, op, error) in enumerate(self.spans):
                fh.write(f"{i},{name},{start:.9f},{end:.9f},{parent},{op},{error or ''}\n")
