"""Run one ``hexcc`` request in-process with a timing span around each layer.

Usage (from the checkout root, with ``PYTHONPATH=src``)::

    python benchmarks/e2e/traced.py SPANS.json -- compile heat_3d --show-cuda

The child times ``import repro.cli`` (span ``cli.import``), swaps every
layer function of :data:`LAYERS` for a timing wrapper, then runs
``repro.cli.main(argv)`` (span ``cli.main``) and exits with its return code,
so its output and exit status are those of ``python -m repro.cli argv``.
The spans and the counts read from the wrapped functions' return values are
written to ``SPANS.json`` at exit; ``run.py`` collects them.

A wrapper replaces its original *by identity* in every loaded ``repro``
module (and in every ``repro`` module loaded later, through a meta-path
hook), so re-exports and ``from x import f`` bindings record the span too.
A span nested inside a span of the same name is not recorded: each
``verify.symbolic`` request counts the dispatcher and the strategy check it
dispatches to once.
"""

from __future__ import annotations

import functools
import importlib
import importlib.machinery
import json
import sys
import time
from collections.abc import Callable, Iterable
from types import ModuleType
from typing import Any


def _select_sizes(estimate: Any) -> dict[str, int]:
    rejections = estimate.rejections
    evaluated = rejections["evaluated"]
    return {
        "tiling.select_sizes.evaluated": evaluated,
        "tiling.select_sizes.pruned": sum(rejections.values()) - evaluated,
    }


def _symbolic(verdict: Any) -> dict[str, int]:
    return {
        "verify.symbolic.classes": verdict.classes_checked,
        "verify.symbolic.races": len(verdict.races),
    }


def _cache_get(payload: Any) -> dict[str, int]:
    return {"cache.misses" if payload is None else "cache.hits": 1}


#: (span name, module, qualified name, counts read from the return value).
#: Span names follow the repo's module layout.
LAYERS: tuple[tuple[str, str, str, Callable[[Any], dict[str, int]] | None], ...] = (
    ("api.session_run", "repro.api.session", "Session.run", None),
    ("model.canonicalize", "repro.model.preprocess", "canonicalize", None),
    ("model.instances", "repro.model.preprocess", "CanonicalForm.instances_array",
     lambda rows: {"model.instances.count": len(rows)}),
    ("model.run_reference", "repro.model.program", "StencilProgram.run_reference", None),
    ("tiling.plan", "repro.api.strategies", "HybridStrategy.plan", None),
    ("tiling.plan", "repro.api.strategies", "ClassicalStrategy.plan", None),
    ("tiling.plan", "repro.api.strategies", "DiamondStrategy.plan", None),
    ("tiling.select_sizes", "repro.tiling.tile_size", "select_tile_sizes", _select_sizes),
    ("tiling.validate", "repro.tiling.validate", "validate_hybrid_tiling", None),
    ("codegen.shared_mem", "repro.codegen.shared_mem", "plan_shared_memory", None),
    ("codegen.cuda", "repro.codegen.cuda", "CudaCodeGenerator.generate",
     lambda text: {"codegen.cuda.bytes": len(text.encode())}),
    ("codegen.core_loop", "repro.codegen.kernel_ir", "analyze_core_loop", None),
    ("codegen.analysis", "repro.codegen.analysis", "AnalyticProfiler.estimate", None),
    ("gpu.perf_model", "repro.gpu.perf_model", "PerformanceModel.estimate", None),
    ("gpu.simulate", "repro.gpu.simulator", "FunctionalSimulator.run",
     lambda result: {"gpu.simulate.tiles": result.tiles_executed}),
    ("verify.symbolic", "repro.verify.symbolic", "verify_tiling_plan", _symbolic),
    ("verify.symbolic", "repro.verify.symbolic", "verify_hybrid", _symbolic),
    ("verify.symbolic", "repro.verify.symbolic", "verify_classical", _symbolic),
    ("verify.symbolic", "repro.verify.symbolic", "verify_diamond", _symbolic),
    ("verify.lint", "repro.verify.lint", "lint_cuda",
     lambda report: {"verify.lint.findings": len(report.findings)}),
    ("cache.get", "repro.cache.disk", "DiskCache.get", _cache_get),
    ("cache.put", "repro.cache.disk", "DiskCache.put", None),
    ("obs.history", "repro.obs.history", "RunHistory.append", None),
)

#: Every span name, in reporting order (the two spans around the CLI first).
SPAN_NAMES: tuple[str, ...] = ("cli.import", "cli.main") + tuple(
    dict.fromkeys(name for name, *_ in LAYERS)
)

#: Every count a wrapper can record.
COUNT_NAMES: tuple[str, ...] = (
    "tiling.select_sizes.evaluated",
    "tiling.select_sizes.pruned",
    "model.instances.count",
    "verify.symbolic.classes",
    "verify.symbolic.races",
    "verify.lint.findings",
    "codegen.cuda.bytes",
    "gpu.simulate.tiles",
    "cache.hits",
    "cache.misses",
)


class Tracer:
    """Spans and counts of one process, kept in memory until :meth:`dump`.

    A span is ``[name, start_ns, end_ns, parent]`` where ``parent`` is the
    index of the enclosing span in :attr:`spans` (``-1`` for a root).
    """

    def __init__(self, layers: Iterable[tuple] = LAYERS, package: str = "repro") -> None:
        self.spans: list[list[Any]] = []
        self.counts: dict[str, int] = {}
        self.package = package
        self._open: list[int] = []
        self._targets: dict[str, list[tuple[str, str, Callable | None]]] = {}
        for name, module, qualname, counter in layers:
            self._targets.setdefault(module, []).append((name, qualname, counter))
        # id(original) -> wrapper, for the identity sweep over module globals.
        self._wrappers: dict[int, Callable] = {}
        self._wrapper_ids: set[int] = set()

    def call(self, name: str, function: Callable, *args: Any, **kwargs: Any) -> Any:
        """Call ``function`` inside a span named ``name``."""
        index = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0, self._open[-1] if self._open else -1])
        self._open.append(index)
        try:
            return function(*args, **kwargs)
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter_ns()

    def wrap(self, name: str, function: Callable, counter: Callable | None = None) -> Callable:
        """A wrapper that only adds a span (and counts) around ``function``."""

        @functools.wraps(function)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if any(self.spans[index][0] == name for index in self._open):
                return function(*args, **kwargs)
            result = self.call(name, function, *args, **kwargs)
            if counter is not None:
                for key, value in counter(result).items():
                    self.counts[key] = self.counts.get(key, 0) + value
            return result

        return wrapper

    def owns(self, module_name: str) -> bool:
        return module_name == self.package or module_name.startswith(self.package + ".")

    def _wrap_targets(self, module: ModuleType) -> bool:
        """Wrap the layer functions ``module`` defines; whether any were new."""
        new = False
        for name, qualname, counter in self._targets.get(module.__name__, ()):
            owner: Any = module
            *path, attribute = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, attribute)
            if id(original) in self._wrappers or id(original) in self._wrapper_ids:
                continue
            wrapper = self.wrap(name, original, counter)
            self._wrappers[id(original)] = wrapper
            self._wrapper_ids.add(id(wrapper))
            setattr(owner, attribute, wrapper)
            new = True
        return new

    def _loaded(self) -> list[ModuleType]:
        return [
            module
            for name, module in list(sys.modules.items())
            if module is not None and self.owns(name)
        ]

    def patch_loaded(self) -> None:
        """Wrap the targets of every loaded package module, then rebind all."""
        for module in self._loaded():
            self._wrap_targets(module)
        for module in self._loaded():
            self._rebind(module)

    def patch_module(self, module: ModuleType) -> None:
        """Wrap the targets of a freshly executed module and rebind globals."""
        if self._wrap_targets(module):
            # A module loaded earlier may already hold one of the originals.
            for loaded in self._loaded():
                self._rebind(loaded)
        else:
            self._rebind(module)

    def _rebind(self, module: ModuleType) -> None:
        namespace = vars(module)
        for attribute, value in list(namespace.items()):
            wrapper = self._wrappers.get(id(value))
            if wrapper is not None and wrapper is not value:
                namespace[attribute] = wrapper

    def install_hook(self) -> None:
        """Patch each package module loaded from now on as soon as it executes."""
        sys.meta_path.insert(0, _PatchOnLoad(self))

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "counts": self.counts}, handle)


class _PatchOnLoad:
    """Meta-path finder: after a package module executes, patch it."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer

    def find_spec(self, fullname: str, path: Any, target: Any = None) -> Any:
        if not self.tracer.owns(fullname):
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path, target)
        if spec is None or spec.loader is None:
            return spec
        exec_module = spec.loader.exec_module
        tracer = self.tracer

        def exec_and_patch(module: ModuleType) -> None:
            exec_module(module)
            tracer.patch_module(module)

        spec.loader.exec_module = exec_and_patch
        return spec


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: traced.py SPANS.json -- HEXCC-ARGS...", file=sys.stderr)
        return 2
    spans_path, cli_argv = argv[0], argv[2:]
    tracer = Tracer()
    cli = tracer.call("cli.import", importlib.import_module, "repro.cli")
    tracer.patch_loaded()
    tracer.install_hook()
    try:
        return tracer.call("cli.main", cli.main, cli_argv)
    finally:
        sys.stdout.flush()
        tracer.dump(spans_path)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
