"""Run the bjjsense CLI with a span recorded around each named layer call.

    python3 perfbench/tracer.py SPANS.npz COMMAND [CLI ARGS...]

Each layer function (``LAYERS``) is wrapped once and the wrapper is bound
wherever a bjjsense module holds the original, so calls through a
``from .model import equilibrium_state`` binding are traced as well as
calls through the defining module.  A name the package no longer has is
reported as absent.  Spans stay in memory and are written to SPANS.npz when
the CLI returns; the exit code is the CLI's.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import threading
from time import perf_counter

import numpy as np

# Layer functions by module.  ``eigh_tridiagonal`` and ``least_squares`` are
# the scipy solvers as bound in the module that calls them.
LAYERS = {
    "model": ("eigh_tridiagonal", "equilibrium_state", "diagonalize",
              "eigenvalues_only", "build_hamiltonian", "jz_distribution"),
    "fidelity": ("uhlmann_fidelity", "bhattacharyya_fidelity",
                 "susceptibility_from_fidelity"),
    "criticality": ("scaling_study", "scan_lambda", "optimize_delta",
                    "chi_at_point", "locate_critical_gap"),
    "estimation": ("bootstrap", "fit_double_gaussian", "least_squares",
                   "build_histogram", "fit_gaussian_with_background"),
    "io": ("write_table", "read_series_csv"),
}

# One number recorded per call, from (args, kwargs, result).
COUNTERS = {
    "model.equilibrium_state": lambda a, k, r: r.rank,
    "criticality.scan_lambda": lambda a, k, r: np.asarray(
        (a[0] if a else k["config"]).lambda_grid).size,
    "criticality.optimize_delta": lambda a, k, r: not r.within_tolerance,
    "estimation.least_squares": lambda a, k, r: r.nfev,
    "estimation.fit_double_gaussian": lambda a, k, r: not r.converged,
    "estimation.bootstrap": lambda a, k, r: r.n_failures,
    "io.write_table": lambda a, k, r: os.path.getsize(a[0] if a else k["path"]),
    "io.read_series_csv": lambda a, k, r: sum(x.size for x in r.records),
}


def layer_names() -> list[str]:
    return [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]


class SpanRecorder:
    """In-memory spans: name, start, end, parent span and one counter.

    Each thread keeps its own stack of open spans.  A span opened on a
    worker thread with an empty stack is parented to the span open on the
    main thread, which is the call that handed it the work.
    """

    def __init__(self) -> None:
        self.names = layer_names()
        self.name: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.value: list[float] = []
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.main_thread().ident
        self._lock = threading.Lock()

    def wrap(self, name: str, fn):
        index = self.names.index(name)
        counter = COUNTERS.get(name)
        stacks = self._stacks

        def traced(*args, **kwargs):
            ident = threading.get_ident()
            stack = stacks.setdefault(ident, [])
            if stack:
                parent = stack[-1]
            else:
                main = stacks.get(self._main)
                parent = main[-1] if main and ident != self._main else -1
            with self._lock:
                span = len(self.name)
                self.name.append(index)
                self.parent.append(parent)
                self.start.append(0.0)
                self.end.append(0.0)
                self.value.append(0.0)
            stack.append(span)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[span] = perf_counter()
                self.start[span] = t0
                stack.pop()
            if counter is not None:
                self.value[span] = float(counter(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def save(self, path: str, absent: list[str]) -> None:
        np.savez(
            path,
            name=np.asarray(self.name, dtype=np.int32),
            start=np.asarray(self.start),
            end=np.asarray(self.end),
            parent=np.asarray(self.parent, dtype=np.int64),
            value=np.asarray(self.value),
            names=np.asarray(json.dumps(self.names)),
            absent=np.asarray(json.dumps(absent)),
        )


def install(recorder: SpanRecorder) -> list[str]:
    """Wrap every layer function at every binding site; return absent names."""
    modules = [importlib.import_module(f"bjjsense.{m}") for m in (*LAYERS, "cli")]
    modules.append(importlib.import_module("bjjsense"))
    absent = []
    for mod_name, fns in LAYERS.items():
        home = importlib.import_module(f"bjjsense.{mod_name}")
        for fn_name in fns:
            original = getattr(home, fn_name, None)
            if original is None:
                absent.append(f"{mod_name}.{fn_name}")
                continue
            wrapper = recorder.wrap(f"{mod_name}.{fn_name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
    return absent


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    recorder = SpanRecorder()
    absent = install(recorder)
    from bjjsense import cli

    try:
        return cli.main(cli_args)
    finally:
        recorder.save(spans_path, absent)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
