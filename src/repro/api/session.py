"""The staged pipeline API: :class:`Session`, :class:`PipelineRun`, events.

A :class:`Session` is the library entry point to the compiler: a pass
manager whose inputs are exactly what its passes read.  It owns the target
device, the tiling-strategy selection, a pass-granular in-memory LRU and
(optionally) the persistent on-disk artefact cache, and it orchestrates the
passes of :data:`repro.api.passes.PIPELINE_PASSES`:

``parse → canonicalize → tiling → memory → codegen → analysis → verify``

What a run offers:

* ``stop_after="tiling"`` — run any prefix of the pipeline and inspect the
  typed artifact it produced;
* ``tile_sizes=`` — explicit sizes, e.g. a tuning-database entry's
  (:meth:`repro.tuning.db.TuningDatabase.best_for`, as ``hexcc compile
  --tuned`` looks it up); the strategy chooses them when omitted;
* per-pass instrumentation — every run records a :class:`PassEvent` (wall
  time from the pass span, cache provenance, artifact counters) per
  executed pass;
* caching at **pass granularity** — a pass's key is its parent's key plus
  what the pass reads, so unchanged prefixes of the pipeline are reused from
  the in-memory LRU or the disk cache when downstream options (optimisation
  configuration, device, strategy) change;
* :meth:`PipelineRun.simulate_and_check` — functional simulation of the
  tiled program, checked against the NumPy reference interpreter.
"""

from __future__ import annotations

import hashlib
import math
import os
import time
from collections import OrderedDict
from collections.abc import Mapping
from typing import TYPE_CHECKING, Any

from repro import obs
from repro._record import dataclass, field
from repro.api.artifacts import STAGES
from repro.api.config import OptimizationConfig
from repro.api.errors import PipelineError, SimulationMismatchError, StrategyError
from repro.api.passes import PIPELINE_PASSES
from repro.api.strategies import get_strategy
from repro.cache import DiskCache
from repro.gpu.device import GPUDevice, GTX470
from repro.model.program import StencilProgram
from repro.tiling.hybrid import TileSizes

if TYPE_CHECKING:
    from repro.gpu.simulator import SimulationResult

#: Stage ``Session.run`` stops after by default.
DEFAULT_STOP = "codegen"

#: Deliberate per-pass slowdowns, e.g. ``HEXCC_FAULT_DELAY=tiling:40`` (ms,
#: comma-separated pairs).  The sleep happens inside the pass span, so the
#: injected time is attributed to that pass everywhere — this is how the CI
#: attribution-smoke step (and the tests) manufacture a known-guilty pass.
FAULT_DELAY_ENV = "HEXCC_FAULT_DELAY"


def _fault_delays() -> dict[str, float]:
    """Parse ``$HEXCC_FAULT_DELAY`` into pass-name → seconds (empty if unset)."""
    raw = os.environ.get(FAULT_DELAY_ENV)
    if not raw:
        return {}
    delays: dict[str, float] = {}
    for part in raw.split(","):
        name, _, amount = part.partition(":")
        try:
            milliseconds = float(amount)
        except ValueError:
            continue
        # time.sleep refuses a negative, NaN or infinite length: skip them
        # like unparseable amounts rather than fail the targeted pass.
        if math.isfinite(milliseconds) and milliseconds >= 0:
            delays[name.strip()] = milliseconds / 1e3
    return delays


@dataclass(frozen=True)
class CompilationRequest:
    """Everything one pipeline run depends on (the immutable run inputs)."""

    program: StencilProgram | str
    tile_sizes: TileSizes | None
    config: OptimizationConfig
    strategy: str
    device: GPUDevice


@dataclass(frozen=True)
class PassEvent:
    """Instrumentation record of one executed pass."""

    name: str
    wall_s: float
    source: str  # "computed" | "memory" | "disk"
    counters: Mapping[str, float] = field(default_factory=dict)

    def describe(self) -> str:
        return f"{self.name:<12} {self.wall_s * 1e3:9.3f} ms  [{self.source}]"


def program_digest(program: StencilProgram) -> str:
    """Content digest of one program, pinning its full problem instance.

    The regenerated C source alone is not enough: library stencils that keep
    their extents symbolic (the Figure-1 ``jacobi_2d`` source uses ``N``/``T``
    with no ``#define`` header) regenerate identical text at every problem
    size, so the sizes and step count are hashed explicitly.
    """
    digest = hashlib.sha256()
    digest.update(
        f"name={program.name};sizes={tuple(program.sizes)};"
        f"steps={program.time_steps}\n".encode()
    )
    digest.update(program.c_source().encode())
    return digest.hexdigest()


def _artifact_counters(artifact: Any) -> dict[str, float]:
    """The numeric subset of an artifact summary (instrumentation counters)."""
    counters: dict[str, float] = {}
    summary = getattr(artifact, "summary", None)
    if summary is None:
        return counters
    for name, value in summary().items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        counters[name] = value
    return counters


class PipelineRun:
    """The artifacts and instrumentation events of one :meth:`Session.run`."""

    def __init__(
        self,
        request: CompilationRequest,
        artifacts: dict[str, Any],
        events: list[PassEvent],
        stop_after: str,
        digest: str = "",
        wall_s: float = 0.0,
    ) -> None:
        self.request = request
        self.artifacts = artifacts
        self.events = events
        self.stop_after = stop_after
        #: Content digest of the compiled program (keys run-history records).
        self.digest = digest
        #: Wall time of the whole run: the duration of its ``session.run``
        #: span.
        self.wall_s = wall_s

    def artifact(self, stage: str) -> Any:
        """The artifact one stage produced; raises if the stage did not run."""
        if stage not in STAGES:
            raise ValueError(f"unknown pipeline stage {stage!r}; known: {list(STAGES)}")
        try:
            return self.artifacts[stage]
        except KeyError:
            raise PipelineError(
                f"stage {stage!r} did not run (stopped after {self.stop_after!r})"
            ) from None

    @property
    def stages_run(self) -> tuple[str, ...]:
        """Names of the passes that actually ran, in order."""
        return tuple(event.name for event in self.events)

    def simulate_and_check(self, seed: int = 0) -> SimulationResult:
        """Simulate the tiled program and compare it with the NumPy reference.

        Needs only the ``parse``, ``tiling`` and ``memory`` artifacts and the
        request's configuration, so a run stopped after ``memory`` (as
        ``hexcc validate`` stops) suffices; small problem sizes only, since
        the simulator executes every instance.  Both sides start from
        :meth:`StencilProgram.initial_state` of ``seed``.  Returns the
        :class:`repro.gpu.simulator.SimulationResult`; raises
        :class:`SimulationMismatchError` when the final fields diverge (a
        NaN matches only a NaN at the same position).
        """
        from repro.gpu.simulator import FunctionalSimulator

        program = self.artifact("parse").program
        simulator = FunctionalSimulator(
            self.artifact("tiling").tiling,
            self.artifact("memory").plan,
            self.request.config,
        )
        initial = program.initial_state(seed)
        result = simulator.run(
            initial={k: v.copy() for k, v in initial.items()}, seed=seed
        )
        reference = program.run_reference(
            initial={k: v.copy() for k, v in initial.items()}
        )
        if not result.matches_reference(reference):
            raise SimulationMismatchError(
                f"functional simulation of {program.name} diverges from the reference"
            )
        return result

    def describe(self) -> str:
        """Human-readable stage-by-stage dump (used by ``hexcc inspect``)."""
        lines: list[str] = []
        for event in self.events:
            lines.append(event.describe())
            summary = self.artifacts[event.name].summary()
            for name, value in summary.items():
                lines.append(f"    {name:<24} {value}")
        total = sum(event.wall_s for event in self.events)
        lines.append(f"{'total':<12} {total * 1e3:9.3f} ms")
        return "\n".join(lines)


class Session:
    """A configured pipeline: device + strategy + caches.

    Its spans go to the recorder ambient at :meth:`run` time (see
    :func:`repro.obs.use`), the shared no-op unless a caller activated one.

    Parameters
    ----------
    device:
        Target GPU model (defaults to the paper's GTX 470).
    strategy:
        Tiling strategy name of every run: ``"hybrid"``, ``"classical"`` or
        ``"diamond"``.
    disk_cache:
        Optional persistent artefact cache shared across processes; artifacts
        are stored at pass granularity.
    """

    #: Size of the in-memory pass-artifact LRU.
    CACHE_CAPACITY = 256

    def __init__(
        self,
        device: GPUDevice = GTX470,
        strategy: str = "hybrid",
        disk_cache: DiskCache | None = None,
    ) -> None:
        get_strategy(strategy)  # fail fast on unknown names
        self.device = device
        self.strategy = strategy
        self.disk_cache = disk_cache
        self._artifact_cache: OrderedDict[str, Any] = OrderedDict()

    # -- the pass manager ---------------------------------------------------------

    def run(
        self,
        program: StencilProgram | str,
        tile_sizes: TileSizes | None = None,
        config: OptimizationConfig | None = None,
        stop_after: str | None = None,
    ) -> PipelineRun:
        """Run the pipeline (or a prefix of it) on one stencil program.

        Parameters
        ----------
        program:
            A :class:`StencilProgram` or raw Figure-1-style C source text.
        tile_sizes:
            Explicit ``h, w0..wn`` (e.g. a tuning-database entry's); chosen
            by the strategy (the §3.7 model for ``hybrid``) when omitted.
        config:
            Optimisation configuration (paper's best, (f), when omitted).
        stop_after:
            Last stage to execute (``"codegen"`` by default; use
            ``"analysis"`` for the full pipeline).
        """
        stop = stop_after or DEFAULT_STOP
        if stop not in STAGES:
            raise ValueError(f"unknown pipeline stage {stop!r}; known: {list(STAGES)}")
        request = CompilationRequest(
            program=program,
            tile_sizes=tile_sizes,
            config=config or OptimizationConfig.default(),
            strategy=self.strategy,
            device=self.device,
        )

        recorder = obs.current()
        label = program.name if isinstance(program, StencilProgram) else "<source>"
        stage_keys: dict[str, str] = {}
        with recorder.span(
            "session.run",
            program=label,
            strategy=request.strategy,
            device=request.device.name,
            stop=stop,
        ) as run_span:
            try:
                artifacts, events, digest = self._execute(
                    request, stop, recorder, stage_keys
                )
            except StrategyError:
                # An expected "this strategy cannot express that" outcome,
                # not a pipeline fault: no crash report.
                raise
            except Exception as error:
                obs.log.attach_crash_report(
                    error,
                    obs.write_crash_report(
                        error,
                        context={
                            "operation": "compile",
                            "program": label,
                            "strategy": request.strategy,
                            "device": request.device.name,
                            "stop": stop,
                        },
                        recorder=recorder,
                        stage_keys=stage_keys,
                    ),
                )
                raise
        return PipelineRun(
            request, artifacts, events, stop, digest=digest, wall_s=run_span.duration_s
        )

    def _execute(
        self,
        request: CompilationRequest,
        stop: str,
        recorder: obs.NullRecorder,
        stage_keys: dict[str, str],
    ) -> tuple[dict[str, Any], list[PassEvent], str]:
        """The pass loop; every pass is timed through its span.

        Returns the artifacts, one event per pass and the parsed program's
        :func:`program_digest`.  ``stage_keys`` is filled with the cache key
        of every keyed pass as it runs, so a crash report can name the
        artifacts the run had already produced.
        """
        artifacts: dict[str, Any] = {}
        events: list[PassEvent] = []
        parent_key: str | None = None  # None = pipeline root
        digest = ""
        fault_delays = _fault_delays()
        for pipeline_pass in PIPELINE_PASSES:
            with recorder.span(f"pass.{pipeline_pass.name}") as pass_span:
                delay = fault_delays.get(pipeline_pass.name)
                if delay:
                    # Inside the span: the injected time shows up as this
                    # pass's wall time in every downstream view.
                    time.sleep(delay)
                key = pipeline_pass.key(request, parent_key, digest)
                artifact, source = self._fetch_or_run(
                    pipeline_pass, key, request, artifacts
                )
                if key is not None:
                    # The parse pass has no key and leaves the chain intact:
                    # its content reaches downstream keys via the program
                    # digest.
                    parent_key = key
                    stage_keys[pipeline_pass.name] = key
                pass_span.set(source=source)
            artifacts[pipeline_pass.name] = artifact
            if pipeline_pass.name == "parse":
                digest = program_digest(artifact.program)
            # The span is the single timing source: PassEvent.wall_s, the
            # trace, `hexcc profile` and the bench timings all agree.
            events.append(
                PassEvent(
                    name=pipeline_pass.name,
                    wall_s=pass_span.duration_s,
                    source=source,
                    counters=_artifact_counters(artifact),
                )
            )
            if pipeline_pass.name == stop:
                break
        return artifacts, events, digest

    # -- cache layering -----------------------------------------------------------

    def _fetch_or_run(
        self,
        pipeline_pass: Any,
        key: str | None,
        request: CompilationRequest,
        artifacts: Mapping[str, Any],
    ) -> tuple[Any, str]:
        """Memory LRU → disk cache → compute, returning (artifact, source)."""
        if key is not None:
            cached = self._artifact_cache.get(key)
            if cached is not None:
                self._artifact_cache.move_to_end(key)
                return cached, "memory"
            if self.disk_cache is not None:
                fetched = self.disk_cache.get(key, stage=pipeline_pass.name)
                if isinstance(fetched, pipeline_pass.produces):
                    self._remember(key, fetched)
                    return fetched, "disk"
        artifact = pipeline_pass.run(request, artifacts)
        if key is not None:
            self._remember(key, artifact)
            if self.disk_cache is not None:
                self.disk_cache.put(key, artifact, stage=pipeline_pass.name)
        return artifact, "computed"

    def _remember(self, key: str, artifact: Any) -> None:
        if len(self._artifact_cache) >= self.CACHE_CAPACITY:
            self._artifact_cache.popitem(last=False)
        self._artifact_cache[key] = artifact
        self._artifact_cache.move_to_end(key)

    def __repr__(self) -> str:
        return (
            f"Session(device={self.device.name!r}, strategy={self.strategy!r}, "
            f"disk_cache={self.disk_cache!r})"
        )
