"""API-snapshot test: the public surface of ``repro.api`` is pinned here.

A failure in this file means the public API changed.  That can be the right
thing to do — but it must be deliberate: update the snapshot in the same
change and call the new surface out in the changelog, because downstream
clients (CLI, bench, experiments, examples, users) program against it.
"""

from __future__ import annotations

import inspect

import repro.api as api

#: The exact public surface, sorted (mirrors ``repro.api.__all__``).
EXPECTED_ALL = [
    "AnalysisBundle",
    "CanonicalIR",
    "CompilationRequest",
    "GeneratedCode",
    "MemoryPlan",
    "OptimizationConfig",
    "ParsedProgram",
    "PassEvent",
    "PipelineError",
    "PipelineRun",
    "STAGES",
    "Session",
    "SimulationMismatchError",
    "StrategyError",
    "TileSizes",
    "TilingPlan",
    "VerificationReport",
    "get_stencil",
    "get_strategy",
    "list_stencils",
    "list_strategies",
    "parse_stencil",
    "register_from_source",
    "table4_configurations",
    "unregister",
]


def test_public_surface_is_pinned():
    assert list(api.__all__) == EXPECTED_ALL


def test_every_export_resolves():
    for name in api.__all__:
        assert getattr(api, name) is not None


def test_stage_names_are_pinned():
    assert api.STAGES == (
        "parse",
        "canonicalize",
        "tiling",
        "memory",
        "codegen",
        "analysis",
        "verify",
    )


def _parameter_names(callable_) -> list[str]:
    return list(inspect.signature(callable_).parameters)


def test_session_signatures_are_pinned():
    assert _parameter_names(api.Session.__init__) == [
        "self", "device", "strategy", "disk_cache",
    ]
    assert _parameter_names(api.Session.run) == [
        "self", "program", "tile_sizes", "config", "stop_after",
    ]


def test_stage_key_takes_the_stage_its_parts_and_its_parent():
    from repro.cache.keys import stage_key

    assert _parameter_names(stage_key) == ["stage", "parts", "parent"]


def test_canonicalize_takes_only_the_program():
    from repro.model.preprocess import canonicalize

    assert _parameter_names(canonicalize) == ["program"]


def test_pipeline_run_surface_is_pinned():
    assert _parameter_names(api.PipelineRun.artifact) == ["self", "stage"]
    assert _parameter_names(api.PipelineRun.simulate_and_check) == ["self", "seed"]
    for method in ("artifact", "simulate_and_check", "describe"):
        assert callable(getattr(api.PipelineRun, method))
    assert not hasattr(api.PipelineRun, "timings")
    assert not hasattr(api.PipelineRun, "tuned_entry")
    assert not hasattr(api.Session, "cache_clear")
    assert not hasattr(api.Session, "resolve_tuned")


def test_run_wall_time_is_the_session_run_span(small_jacobi_2d):
    from repro import obs

    recorder = obs.TraceRecorder()
    with obs.use(recorder):
        run = api.Session().run(small_jacobi_2d, stop_after="tiling")
    (span,) = [s for s in recorder.drain() if s.name == "session.run"]
    assert run.wall_s == span.duration_s > 0
    assert run.wall_s >= sum(event.wall_s for event in run.events)


def test_artifact_fields_are_pinned():
    from repro._record import fields

    expected = {
        api.ParsedProgram: ["program", "source"],
        api.CanonicalIR: ["canonical"],
        api.TilingPlan: [
            "strategy", "sizes", "tiling", "tile_cost", "supports_codegen", "details",
        ],
        api.MemoryPlan: ["plan"],
        api.GeneratedCode: ["cuda_source", "core_profiles"],
        api.AnalysisBundle: ["estimate", "report", "device_name"],
        api.VerificationReport: ["strategy", "schedule", "lint"],
    }
    for artifact_type, names in expected.items():
        assert [f.name for f in fields(artifact_type)] == names, artifact_type
        # The code fingerprint in every cache key versions the layout.
        assert not hasattr(artifact_type, "SCHEMA_VERSION"), artifact_type


def test_optimization_config_fields_are_pinned():
    from repro._record import fields

    assert [f.name for f in fields(api.OptimizationConfig)] == [
        "use_shared_memory",
        "interleave_copy_out",
        "align_loads",
        "inter_tile_reuse",
        "unroll",
        "separate_full_partial",
    ]


def test_builtin_strategies_are_registered():
    assert api.list_strategies() == ["classical", "diamond", "hybrid"]
    for name in api.list_strategies():
        assert api.get_strategy(name).name == name
