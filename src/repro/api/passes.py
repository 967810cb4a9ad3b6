"""The named passes of the compilation pipeline.

Each :class:`Pass` consumes the artifacts of the passes before it and
produces one typed artifact (see :mod:`repro.api.artifacts`).  A pass also
knows how to compute its **pass-level cache key**: a content hash chaining
the upstream pass's key with everything this pass's output depends on, plus
the strategy name and the artifact's schema version
(:func:`repro.cache.keys.stage_key`).  The session's pass manager uses those
keys to memoise and disk-cache artifacts at pass granularity, so e.g. a
Table-4 ablation recompiles only the memory/codegen stages while the
canonicalisation and tiling artifacts are shared across all six
configurations.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any

from repro.api.artifacts import (
    AnalysisBundle,
    CanonicalIR,
    GeneratedCode,
    MemoryPlan,
    ParsedProgram,
    TilingPlan,
    VerificationReport,
)
from repro.api.errors import StrategyError
from repro.api.strategies import get_strategy
from repro.cache.keys import stage_key


def _config_parts(config: Any) -> str:
    return f"config={config!r}"


class Pass:
    """One named stage of the pipeline."""

    name: str = ""
    produces: type = object

    def key(
        self,
        request: Any,
        artifacts: Mapping[str, Any],
        parent: str | None,
        program_digest: str,
    ) -> str | None:
        """Cache key of this pass's artifact; ``None``: never cached."""
        return None

    def run(self, request: Any, artifacts: Mapping[str, Any]) -> Any:
        raise NotImplementedError

    def _stage_key(self, request: Any, parts: list[str], parent: str | None) -> str:
        return stage_key(
            stage=self.name,
            stage_schema=self.produces.SCHEMA_VERSION,
            strategy=request.strategy,
            parts=parts,
            parent=parent,
        )


class ParsePass(Pass):
    """Front end: accept raw C source or an already-built program."""

    name = "parse"
    produces = ParsedProgram

    # Never cached (no key): wrapping an in-memory program is free, and
    # parsing is a tiny fraction of a compilation — caching it would only
    # duplicate the program object on disk.  The parsed program's content
    # reaches every downstream key through the program digest.

    def run(self, request: Any, artifacts: Mapping[str, Any]) -> ParsedProgram:
        program = request.program
        if isinstance(program, str):
            from repro.frontend import parse_stencil

            return ParsedProgram(program=parse_stencil(program), source=program)
        return ParsedProgram(program=program)


class CanonicalizePass(Pass):
    """Canonical schedule space + dependence analysis (Section 3.2)."""

    name = "canonicalize"
    produces = CanonicalIR

    def key(self, request, artifacts, parent, program_digest):
        return self._stage_key(request, [f"program={program_digest}"], parent)

    def run(self, request: Any, artifacts: Mapping[str, Any]) -> CanonicalIR:
        from repro.model.preprocess import canonicalize

        parsed: ParsedProgram = artifacts["parse"]
        return CanonicalIR(canonical=canonicalize(parsed.program))


class TilingPass(Pass):
    """Tile-size selection + tiling construction via the named strategy."""

    name = "tiling"
    produces = TilingPlan

    def key(self, request, artifacts, parent, program_digest):
        if request.tile_sizes is not None:
            sizes_part = f"tile-sizes={request.tile_sizes!r}"
        else:
            # Model-selected sizes: the selection is a deterministic function
            # of these inputs, so they stand in for the concrete sizes.
            sizes_part = (
                "tile-sizes=auto"
                f";reuse={request.config.inter_tile_reuse != 'none'}"
                f";shared={request.device.shared_memory_per_sm}"
                f";warp={request.device.warp_size}"
            )
        return self._stage_key(request, [sizes_part], parent)

    def run(self, request: Any, artifacts: Mapping[str, Any]) -> TilingPlan:
        canonical_ir: CanonicalIR = artifacts["canonicalize"]
        strategy = get_strategy(request.strategy)
        return strategy.plan(request, canonical_ir.canonical)


class MemoryPass(Pass):
    """Shared-memory planning (Section 4.2)."""

    name = "memory"
    produces = MemoryPlan

    def key(self, request, artifacts, parent, program_digest):
        return self._stage_key(request, [_config_parts(request.config)], parent)

    def run(self, request: Any, artifacts: Mapping[str, Any]) -> MemoryPlan:
        from repro.codegen.shared_mem import plan_shared_memory

        plan: TilingPlan = artifacts["tiling"]
        if not plan.supports_codegen:
            # An expected outcome of the strategy, not a fault: no crash report.
            raise StrategyError(
                f"tiling strategy {plan.strategy!r} produces analysis-only plans; "
                "re-run with strategy='hybrid' or stop_after='tiling'"
            )
        return MemoryPlan(plan=plan_shared_memory(plan.tiling, request.config))


class CodegenPass(Pass):
    """CUDA source generation + core-loop instruction profiling."""

    name = "codegen"
    produces = GeneratedCode

    def key(self, request, artifacts, parent, program_digest):
        return self._stage_key(request, [_config_parts(request.config)], parent)

    def run(self, request: Any, artifacts: Mapping[str, Any]) -> GeneratedCode:
        from repro.codegen.cuda import CudaCodeGenerator
        from repro.codegen.kernel_ir import analyze_core_loop

        plan: TilingPlan = artifacts["tiling"]
        memory: MemoryPlan = artifacts["memory"]
        generator = CudaCodeGenerator(plan.tiling, memory.plan, request.config)
        profiles = analyze_core_loop(
            artifacts["parse"].program,
            unroll=request.config.unroll,
            separate_full_partial=request.config.separate_full_partial,
            use_shared_memory=request.config.use_shared_memory,
        )
        return GeneratedCode(
            cuda_source=generator.generate(),
            core_profiles=tuple(profiles),
        )


class AnalysisPass(Pass):
    """Analytic execution counters + roofline estimate (Section 6)."""

    name = "analysis"
    produces = AnalysisBundle

    def key(self, request, artifacts, parent, program_digest):
        return self._stage_key(request, [f"device={request.device.name}"], parent)

    def run(self, request: Any, artifacts: Mapping[str, Any]) -> AnalysisBundle:
        from repro.codegen.analysis import AnalyticProfiler
        from repro.gpu.perf_model import PerformanceModel

        plan: TilingPlan = artifacts["tiling"]
        memory: MemoryPlan = artifacts["memory"]
        code: GeneratedCode = artifacts["codegen"]
        profiler = AnalyticProfiler(
            plan.tiling, memory.plan, request.config, request.device
        )
        estimate = profiler.estimate(code.core_profiles)
        report = PerformanceModel(request.device).estimate(
            estimate.counters, estimate.launch
        )
        return AnalysisBundle(
            estimate=estimate, report=report, device_name=request.device.name
        )


class VerifyPass(Pass):
    """Static verification: symbolic race detection + generated-CUDA lint.

    Optional tail stage (the default ``stop_after`` of :meth:`Session.run`
    is still ``codegen``): proves the schedule orders every dependence for
    *all* problem sizes and lints the emitted CUDA.  Everything the verdict
    depends on — program, tiling, config, device — already flows
    in through the chained parent key, so no extra parts are needed.
    """

    name = "verify"
    produces = VerificationReport

    def key(self, request, artifacts, parent, program_digest):
        return self._stage_key(request, [], parent)

    def run(self, request: Any, artifacts: Mapping[str, Any]) -> VerificationReport:
        from repro import obs
        from repro.verify.lint import lint_cuda
        from repro.verify.symbolic import verify_tiling_plan

        canonical: CanonicalIR = artifacts["canonicalize"]
        plan: TilingPlan = artifacts["tiling"]
        with obs.span("verify.symbolic", strategy=plan.strategy):
            verdict = verify_tiling_plan(canonical.canonical, plan)

        lint = None
        code: GeneratedCode | None = artifacts.get("codegen")
        if code is not None:
            memory: MemoryPlan | None = artifacts.get("memory")
            with obs.span("verify.lint", kernel_lines=code.cuda_source.count("\n")):
                lint = lint_cuda(
                    code.cuda_source,
                    plan=memory.plan if memory is not None else None,
                    device=request.device,
                )
        return VerificationReport(strategy=plan.strategy, schedule=verdict, lint=lint)


#: The pipeline, in execution order.
PIPELINE_PASSES: tuple[Pass, ...] = (
    ParsePass(),
    CanonicalizePass(),
    TilingPass(),
    MemoryPass(),
    CodegenPass(),
    AnalysisPass(),
    VerifyPass(),
)
