"""Command-line interface: compile, inspect, validate, simulate and benchmark.

The CLI is a pure client of :mod:`repro.api` — the staged pipeline API — and
never reaches into compiler internals.

Examples
--------
::

    hexcc list
    hexcc compile heat_3d --h 2 --widths 7,10,32 --show-cuda
    hexcc inspect heat_2d --stop-after tiling          # staged pipeline view
    hexcc inspect jacobi_2d --strategy diamond --stop-after tiling --json
    hexcc verify jacobi_2d                 # symbolic races + CUDA lint
    hexcc verify all --strategy all        # whole library, every schedule
    hexcc verify heat_3d --json            # machine-readable verdict
    hexcc verify jacobi_2d --mutate phase-swap   # fault injection (exits 1)
    hexcc verify --list-mutations
    hexcc validate jacobi_2d --size 20 --steps 10
    hexcc compile-file examples/custom_stencil.c --show-cuda
    hexcc validate-file examples/custom_stencil.c --sizes 16,16 --steps 6
    hexcc table 1          # regenerate Table 1 (GTX 470 comparison)
    hexcc tables           # regenerate Tables 1-5
    hexcc bench --quick --json bench_out.json   # performance report (CI)
    hexcc cache stats      # on-disk compile cache usage (per-stage breakdown)
    hexcc cache clear      # drop every cached artefact
    hexcc tune heat_3d --budget 32
    hexcc tune jacobi_2d --strategy hillclimb --seed 7
    hexcc compile heat_3d --tuned   # apply the best known configuration
    hexcc tune-table       # tuned-vs-model comparison across the database
    hexcc trace heat3d -o trace.json   # Chrome trace (Perfetto-loadable)
    hexcc profile jacobi_2d            # inclusive/exclusive pass ranking
    hexcc bench --quick --trace bench_trace.json

Exit codes are uniform across every subcommand: **0** on success, **1** on a
compile/validation/verification failure (for ``hexcc verify``: any race,
coverage gap or error-severity lint finding — warnings alone stay 0), **2**
on a usage error (unknown stencil, table, strategy, stage, mutation,
malformed option, or a grid on which a statement updates no point).

Every compiling command shares a persistent on-disk artefact cache
(``~/.cache/hexcc`` by default, override with ``$HEXCC_CACHE_DIR``, disable
with ``$HEXCC_CACHE_DISABLE=1``), layered at pass granularity, so repeated
invocations skip unchanged pipeline prefixes.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys

from repro import obs
from repro.api import (
    STAGES,
    PipelineError,
    Session,
    TileSizes,
    list_strategies,
)
from repro.cache import DiskCache
from repro.frontend.errors import FrontendError
from repro.gpu.device import GTX470, NVS5200M, get_device
from repro.model.preprocess import statement_boxes
from repro.stencils import get_definition, get_stencil, list_stencils

#: Uniform exit codes (see the module docstring).
EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2


class UsageError(Exception):
    """Invalid user input that argparse cannot catch (exit code 2)."""


def _stencil_name(raw: str) -> str:
    """Canonical registry name; ``heat-2d``, ``heat_2d`` and ``heat2d`` work."""
    name = raw.replace("-", "_")
    if name not in list_stencils():
        # Compact spelling: insert the underscore before a trailing
        # dimensionality suffix (``heat3d`` -> ``heat_3d``).
        if len(name) > 2 and name[-1] in "dD" and name[-2].isdigit():
            spaced = f"{name[:-2]}_{name[-2:]}"
            if spaced.replace("-", "_") in list_stencils():
                return spaced.replace("-", "_")
    return name


def _get_stencil_checked(raw_name: str, **kwargs):
    name = _stencil_name(raw_name)
    try:
        return get_stencil(name, **kwargs)
    except KeyError:
        raise UsageError(
            f"unknown stencil {name!r}; known: {', '.join(list_stencils())}"
        ) from None


def _require_instances(program) -> None:
    """Refuse a grid on which a statement updates no point.

    Validating or compiling it would vacuously succeed on zero instances.
    """
    boxes = statement_boxes(program)
    for statement, (lower, upper) in zip(program.statements, boxes):
        for axis, dim in enumerate(program.space_dims):
            if upper[1 + axis] < lower[1 + axis]:
                low, high = statement.lower_margin[axis], statement.upper_margin[axis]
                raise UsageError(
                    f"statement {statement.name} of {program.name} updates no "
                    f"point: axis {dim} has extent {program.sizes[axis]}, but "
                    f"margins {low} and {high} need an extent of at least "
                    f"{low + high + 1}"
                )


def _get_device_checked(name: str):
    try:
        return get_device(name)
    except KeyError as error:
        raise UsageError(error.args[0]) from None


def _parse_tile_sizes(
    args: argparse.Namespace, default_height: int = 2
) -> TileSizes | None:
    """Explicit ``--h``/``--widths`` sizes, or None to let the model choose."""
    if args.widths is None:
        if args.h is not None:
            raise UsageError(
                "--h needs --widths; give both, or neither to let the model "
                "pick the tile sizes"
            )
        return None
    try:
        widths = tuple(int(w) for w in args.widths.split(","))
    except ValueError:
        raise UsageError(
            f"--widths expects comma separated integers, got {args.widths!r}"
        ) from None
    try:
        return TileSizes(default_height if args.h is None else args.h, widths)
    except ValueError as error:
        # A negative height or width: a malformed option, not a tiling the
        # stencil rejects.
        raise UsageError(str(error)) from None


def _disk_cache(args: argparse.Namespace) -> DiskCache | None:
    """The CLI's persistent artefact cache (honours --no-cache and the env)."""
    if getattr(args, "no_cache", False):
        return None
    return DiskCache.default()


def _flush_cache(cache: DiskCache | None) -> None:
    if cache is not None:
        cache.flush_stats()


def _record_run(run) -> None:
    """Append one ``compile`` record of a pipeline run to the run history."""
    from repro.obs import history

    history.RunHistory().append(
        "compile",
        history.compile_record(
            program=run.artifact("parse").program.name,
            digest=run.digest,
            strategy=run.request.strategy,
            device=run.request.device.name,
            stop=run.stop_after,
            wall_ms=run.wall_s * 1e3,
            passes=[
                {
                    "name": event.name,
                    "wall_ms": round(event.wall_s * 1e3, 6),
                    "source": event.source,
                    "counters": dict(event.counters),
                }
                for event in run.events
            ],
        ),
    )


def _cmd_list(_: argparse.Namespace) -> int:
    for name in list_stencils():
        print(name)
    return EXIT_OK


def _compile_and_report(program, args: argparse.Namespace) -> int:
    cache = _disk_cache(args)
    tile_sizes = _parse_tile_sizes(args)
    # Explicit --widths always win; only announce a tuned config when the
    # session will actually apply one.
    tuned = args.tuned and tile_sizes is None
    # --tuning-db is a path or None: the session loads the database only
    # when a tuned run asks for it.
    session = Session(
        _get_device_checked(args.device), disk_cache=cache, tuning_db=args.tuning_db
    )
    if tuned:
        entry = session.resolve_tuned(program)
        if entry is not None:
            best = entry["best"]
            widths = ",".join(str(w) for w in best["widths"])
            print(
                f"applying tuned configuration h={best['height']} w=({widths}) "
                f"[strategy={entry['strategy']}, objective={entry['objective']}, "
                f"score={best['score']:.6g}]"
            )
        else:
            print(
                "no tuned configuration recorded for this program/device; "
                "falling back to the model selection "
                "(run `hexcc tune` to populate the database)"
            )
    run = session.run(
        program, tile_sizes=tile_sizes, tuned=tuned, stop_after="analysis"
    )
    _record_run(run)
    _flush_cache(cache)
    print(f"compilation of {program.name} ({run.request.config.label})")
    print(run.artifact("tiling").tiling.describe())
    print(run.artifact("memory").plan.describe())
    print()
    print(run.artifact("analysis").report.summary())
    if args.show_cuda:
        print()
        print(run.artifact("codegen").cuda_source)
    return EXIT_OK


def _validate_and_report(program, args: argparse.Namespace) -> int:
    from repro.tiling.validate import validate_hybrid_tiling

    cache = _disk_cache(args)
    run = Session(disk_cache=cache).run(
        program, tile_sizes=_parse_tile_sizes(args, default_height=1)
    )
    _record_run(run)
    _flush_cache(cache)
    report = validate_hybrid_tiling(run.artifact("tiling").tiling)
    print(report)
    if not report.ok:
        print("schedule validation failed", file=sys.stderr)
        return EXIT_FAILURE
    run.simulate_and_check()
    print("functional simulation matches the NumPy reference")
    return EXIT_OK


def _cmd_compile(args: argparse.Namespace) -> int:
    return _compile_and_report(_get_stencil_checked(args.stencil), args)


def _cmd_validate(args: argparse.Namespace) -> int:
    name = _stencil_name(args.stencil)
    try:
        definition = get_definition(name)
    except KeyError:
        raise UsageError(
            f"unknown stencil {name!r}; known: {', '.join(list_stencils())}"
        ) from None
    sizes = (args.size,) * definition.dimensions
    program = _get_stencil_checked(name, sizes=sizes, steps=args.steps)
    _require_instances(program)
    return _validate_and_report(program, args)


def _cmd_inspect(args: argparse.Namespace) -> int:
    """Run a pipeline prefix and dump artifact summaries + per-pass timings."""
    if args.strategy not in list_strategies():
        raise UsageError(
            f"unknown tiling strategy {args.strategy!r}; "
            f"known: {', '.join(list_strategies())}"
        )
    program = _get_stencil_checked(args.stencil)
    cache = _disk_cache(args)
    session = Session(
        device=_get_device_checked(args.device),
        strategy=args.strategy,
        disk_cache=cache,
    )
    run = session.run(
        program, tile_sizes=_parse_tile_sizes(args), stop_after=args.stop_after
    )
    _record_run(run)
    _flush_cache(cache)
    if args.json:
        payload = {
            "stencil": program.name,
            "strategy": run.request.strategy,
            "device": session.device.name,
            "stop_after": run.stop_after,
            "passes": [
                {
                    "name": event.name,
                    "wall_s": event.wall_s,
                    "source": event.source,
                    "counters": dict(event.counters),
                }
                for event in run.events
            ],
            # Span-derived per-pass wall times, keyed like the trace/profile
            # span names so the three views agree.
            "timings": {
                f"pass.{event.name}": {"wall_ms": event.wall_s * 1e3}
                for event in run.events
            },
            "artifacts": {
                stage: run.artifacts[stage].summary() for stage in run.stages_run
            },
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"pipeline of {program.name} (strategy={run.request.strategy}, "
              f"stop after {run.stop_after}):")
        print(run.describe())
    return EXIT_OK


def _verify_one(session: Session, program, strategy: str, tile_sizes, mutation):
    """One (stencil, strategy) verification; returns a VerificationReport.

    A mutation with nothing to perturb in this stencil's schedule (an
    inner-tiling mutant on a 1-D stencil) raises :class:`UsageError`.
    """
    from repro.api import VerificationReport
    from repro.verify import verify_hybrid, verify_tiling_plan
    from repro.verify.symbolic import HybridScheduleModel

    if strategy == "hybrid" and mutation is None:
        # Full pipeline: symbolic schedule check plus the generated-CUDA lint.
        run = session.run(program, tile_sizes=tile_sizes, stop_after="verify")
        _record_run(run)
        return run.artifact("verify")
    # Analysis-only schedules (and mutated models) never reach codegen, so
    # verify the tiling plan directly — schedule verdict only, no lint.
    run = session.run(program, tile_sizes=tile_sizes, stop_after="tiling")
    _record_run(run)
    canonical = run.artifact("canonicalize").canonical
    plan = run.artifact("tiling")
    if mutation is not None:
        try:
            model = mutation.apply(HybridScheduleModel.from_tiling(plan.tiling))
        except ValueError as error:
            raise UsageError(str(error)) from None
        verdict = verify_hybrid(canonical, model)
    else:
        verdict = verify_tiling_plan(canonical, plan)
    return VerificationReport(strategy=strategy, schedule=verdict)


def _describe_verification(report) -> str:
    """One-line verdict plus indented findings for the text output."""
    schedule = report.schedule
    parts = [
        f"{len(schedule.races)} race(s)" if schedule.races else "no races",
        "coverage ok" if schedule.coverage_ok else "coverage BROKEN",
        f"{schedule.dependences_checked} dependence(s)",
        f"{schedule.classes_checked} classes",
    ]
    if report.lint is not None:
        parts.append(
            f"lint {len(report.lint.errors)} error(s) / "
            f"{len(report.lint.warnings)} warning(s)"
        )
    lines = [("OK   " if report.ok else "FAIL ") + ", ".join(parts)]
    for race in schedule.races:
        lines.append(f"  race [{race.level}] {race.dependence}: {race.message}")
        if race.source is not None:
            lines.append(f"    source {race.source}")
        if race.sink is not None:
            lines.append(f"    sink   {race.sink}")
    if report.lint is not None:
        for finding in report.lint.findings:
            lines.append(f"  {finding}")
    return "\n".join(lines)


def _cmd_verify(args: argparse.Namespace) -> int:
    """Statically verify schedules (symbolic races) and generated CUDA (lint)."""
    from repro.api import StrategyError

    if args.list_mutations:
        from repro.verify.faults import mutation_corpus

        for mutation in mutation_corpus():
            print(f"{mutation.name:22s} [{mutation.category}] {mutation.description}")
        return EXIT_OK
    if args.stencil is None:
        raise UsageError("a stencil name (or 'all') is required")

    known = list_strategies()
    strategies = tuple(known) if args.strategy == "all" else (args.strategy,)
    for strategy in strategies:
        if strategy not in known:
            raise UsageError(
                f"unknown tiling strategy {strategy!r}; known: {', '.join(known)}"
            )

    mutation = None
    if args.mutate is not None:
        if strategies != ("hybrid",):
            raise UsageError("--mutate applies to the hybrid strategy only")
        from repro.verify.faults import get_mutation

        try:
            mutation = get_mutation(args.mutate)
        except KeyError as error:
            raise UsageError(error.args[0]) from None

    if args.stencil == "all":
        programs = [_get_stencil_checked(name) for name in list_stencils()]
    else:
        programs = [_get_stencil_checked(args.stencil)]

    device = _get_device_checked(args.device)
    tile_sizes = _parse_tile_sizes(args)
    cache = _disk_cache(args)
    multi = len(programs) * len(strategies) > 1
    results: list[dict] = []
    failures = 0
    for strategy in strategies:
        session = Session(device=device, strategy=strategy, disk_cache=cache)
        for program in programs:
            try:
                report = _verify_one(session, program, strategy, tile_sizes, mutation)
            except (StrategyError, UsageError) as error:
                if not multi:
                    raise
                # Strategies that cannot express this stencil (e.g. diamond on
                # higher-order time) and mutations it gives nothing to perturb
                # are skipped, not failed, in sweeps.
                results.append(
                    {
                        "stencil": program.name,
                        "strategy": strategy,
                        "skipped": str(error),
                    }
                )
                continue
            failures += 0 if report.ok else 1
            results.append(
                {
                    "stencil": program.name,
                    "strategy": strategy,
                    "report": report,
                }
            )
    _flush_cache(cache)

    if args.json:
        payload = {
            "device": device.name,
            "mutation": args.mutate,
            "ok": failures == 0,
            "results": [
                {
                    "stencil": row["stencil"],
                    "strategy": row["strategy"],
                    **(
                        {"skipped": row["skipped"]}
                        if "skipped" in row
                        else {
                            "summary": row["report"].summary(),
                            "schedule": row["report"].schedule.summary(),
                            "lint": row["report"].lint.summary()
                            if row["report"].lint is not None
                            else None,
                        }
                    ),
                }
                for row in results
            ],
        }
        print(json.dumps(payload, indent=2))
    else:
        width = max(len(row["stencil"]) for row in results)
        for row in results:
            prefix = f"{row['stencil']:<{width}}  {row['strategy']:<9}  "
            if "skipped" in row:
                print(f"{prefix}SKIP {row['skipped']}")
            else:
                text = _describe_verification(row["report"])
                first, _, rest = text.partition("\n")
                print(prefix + first)
                if rest:
                    print(rest)
        checked = sum(1 for row in results if "report" in row)
        skipped = len(results) - checked
        tail = f"{checked} verified, {failures} failed"
        if skipped:
            # Each SKIP row above says why it was skipped.
            tail += f", {skipped} skipped"
        print(tail)
    return EXIT_FAILURE if failures else EXIT_OK


def _positive_int(text: str) -> int:
    """Argparse type of a grid extent, step count, record limit or repeat count."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _sizes_arg(text: str) -> tuple[int, ...]:
    try:
        sizes = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma separated integers (e.g. 16,16), got {text!r}"
        )
    if any(size <= 0 for size in sizes):
        raise argparse.ArgumentTypeError(
            f"grid extents must be positive, got {text!r}"
        )
    return sizes


def _load_stencil_file(args: argparse.Namespace):
    from repro.frontend import parse_stencil_file

    program = parse_stencil_file(
        args.file,
        sizes=args.sizes,
        time_steps=args.steps,
    )
    _require_instances(program)
    return program


def _cmd_compile_file(args: argparse.Namespace) -> int:
    return _compile_and_report(_load_stencil_file(args), args)


def _cmd_validate_file(args: argparse.Namespace) -> int:
    return _validate_and_report(_load_stencil_file(args), args)


def _check_table_number(number: int) -> None:
    if not 1 <= number <= 5:
        raise UsageError(f"unknown table {number}; the paper has tables 1-5")


def _render_table(number: int, cache: DiskCache | None) -> str:
    _check_table_number(number)
    from repro.experiments import (
        format_comparison,
        format_table3,
        format_table4,
        format_table5,
        run_ablation,
        run_comparison,
        run_counter_ablation,
        table3_characteristics,
    )

    if number == 1:
        return format_comparison(run_comparison(GTX470, disk_cache=cache), GTX470)
    if number == 2:
        return format_comparison(run_comparison(NVS5200M, disk_cache=cache), NVS5200M)
    if number == 3:
        return format_table3(table3_characteristics())
    if number == 4:
        return format_table4(run_ablation(disk_cache=cache))
    return format_table5(run_counter_ablation(disk_cache=cache))


def _cmd_table(args: argparse.Namespace) -> int:
    cache = _disk_cache(args)
    try:
        text = _render_table(args.number, cache)
    finally:
        _flush_cache(cache)
    print(text)
    return EXIT_OK


def _cmd_tables(args: argparse.Namespace) -> int:
    numbers = args.numbers or [1, 2, 3, 4, 5]
    for number in numbers:
        _check_table_number(number)  # before any table is rendered
    cache = _disk_cache(args)
    try:
        for index, number in enumerate(numbers):
            if index:
                print()
            print(_render_table(number, cache))
    finally:
        _flush_cache(cache)
    return EXIT_OK


def _cmd_cache(args: argparse.Namespace) -> int:
    # Inspection and maintenance operate on the cache directory itself, so
    # they deliberately ignore $HEXCC_CACHE_DISABLE.
    cache = DiskCache()
    if args.action == "stats":
        print(cache.stats().describe())
    elif args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached artefact(s) from {cache.root}")
    return EXIT_OK


def _cmd_tune(args: argparse.Namespace) -> int:
    """Autotune one stencil and record the winner in the tuning database."""
    from repro.bench.compare import parse_threshold
    from repro.obs import history
    from repro.tuning import (
        TuningDatabase,
        list_search_strategies,
        resolve_db_path,
        tune,
    )
    from repro.tuning.db import OBJECTIVE, default_db_path

    if args.strategy not in list_search_strategies():
        raise UsageError(
            f"unknown search strategy {args.strategy!r}; "
            f"known: {', '.join(list_search_strategies())}"
        )
    if args.budget <= 0:
        raise UsageError("--budget must be positive")
    try:
        max_regression = parse_threshold(args.max_regression)
    except argparse.ArgumentTypeError as error:
        raise UsageError(f"--max-regression: {error}") from None
    program = _get_stencil_checked(args.stencil)
    cache = _disk_cache(args)
    db_path = resolve_db_path(args.tuning_db) if args.check else (
        args.tuning_db if args.tuning_db is not None else default_db_path()
    )
    db = TuningDatabase.load(db_path)

    result = tune(
        program,
        strategy=args.strategy,
        budget=args.budget,
        seed=args.seed,
        device=_get_device_checked(args.device),
        disk_cache=cache,
    )
    _flush_cache(cache)
    history.RunHistory().append(
        "tune",
        history.tune_record(
            program=result.program_name,
            strategy_space=f"{result.strategy}/{OBJECTIVE}",
            trials=len(result.trials) + 1,  # + the model baseline
            best_score=result.best.score,
            best_config={
                "height": result.best.candidate.height,
                "widths": list(result.best.candidate.widths),
            },
        ),
    )

    if args.json:
        payload = result.to_entry()
        payload["trials"] = [
            {
                "height": trial.candidate.height,
                "widths": list(trial.candidate.widths),
                "score": trial.score,
                "ok": trial.ok,
            }
            for trial in result.trials
        ]
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(result.describe())

    if args.check:
        # CI gate: the freshly-found best must not regress the best score
        # recorded in the database (same program/device/objective).
        stored = [
            entry
            for entry in db.entries_for(result.digest, result.device)
            if entry.get("objective") == OBJECTIVE
        ]
        if not stored:
            print(
                f"check: no {OBJECTIVE!r} entry for {result.program_name} "
                f"on {result.device} in {db_path}",
                file=sys.stderr,
            )
            return EXIT_FAILURE
        reference = min(float(e["best"]["score"]) for e in stored)
        limit = reference * (1.0 + max_regression)
        if result.best.score > limit:
            print(
                f"check FAILED: best score {result.best.score:.6g} regresses the "
                f"recorded {reference:.6g} by more than "
                f"{max_regression:.0%} (limit {limit:.6g})",
                file=sys.stderr,
            )
            return EXIT_FAILURE
        print(
            f"check OK: best score {result.best.score:.6g} vs recorded "
            f"{reference:.6g} (limit {limit:.6g})"
        )
        return EXIT_OK

    db.record(result.to_entry())
    written = db.save(db_path)
    print(f"recorded the winner in {written} ({len(db)} entries)")
    return EXIT_OK


def _cmd_tune_table(args: argparse.Namespace) -> int:
    """Print the tuned-vs-model comparison table from the tuning database."""
    from repro.bench.tuned import format_tuned_table, tuned_rows
    from repro.tuning import TuningDatabase

    db = TuningDatabase.load(args.tuning_db)
    device = _get_device_checked(args.device).name if args.device else None
    print(format_tuned_table(tuned_rows(db, device=device)))
    return EXIT_OK


def _cmd_trace(args: argparse.Namespace) -> int:
    """Record one fully-traced compile (the run ``hexcc profile`` ranks)."""
    from repro.obs.export import write_trace

    program = _get_stencil_checked(args.stencil)
    cache = _disk_cache(args)
    recorder = obs.TraceRecorder()
    session = Session(
        device=_get_device_checked(args.device),
        strategy="hybrid",
        disk_cache=cache,
    )
    # All six stages, so the trace covers the whole pipeline.
    with obs.use(recorder):
        run = session.run(program, stop_after="analysis")
    _record_run(run)
    _flush_cache(cache)
    spans = recorder.drain()
    path = write_trace(args.output, spans)
    print(
        f"wrote {path}: {len(spans)} spans; "
        f"open in https://ui.perfetto.dev or chrome://tracing"
    )
    return EXIT_OK


def _cmd_profile(args: argparse.Namespace) -> int:
    """Rank passes, cache I/O and serialization by inclusive/exclusive time."""
    from repro.obs.profile import format_profile, profile_rows, total_wall_s

    program = _get_stencil_checked(args.stencil)
    cache = _disk_cache(args)
    recorder = obs.TraceRecorder()
    session = Session(
        device=_get_device_checked(args.device),
        strategy="hybrid",
        disk_cache=cache,
    )
    with obs.use(recorder):
        run = session.run(program, stop_after="analysis")
    _record_run(run)
    _flush_cache(cache)
    spans = recorder.drain()
    rows = profile_rows(spans)
    total = total_wall_s(spans)
    if args.json:
        payload = {
            "stencil": program.name,
            "device": session.device.name,
            "total_wall_s": total,
            "rows": [
                {
                    "name": row.name,
                    "count": row.count,
                    "inclusive_s": row.inclusive_s,
                    "exclusive_s": row.exclusive_s,
                }
                for row in rows
            ],
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"profile of {program.name} (one traced compile):")
        print(format_profile(rows, total))
    return EXIT_OK


def _cmd_perf(args: argparse.Namespace) -> int:
    """Run-history views: ``hexcc perf history`` and ``hexcc perf diff``."""
    from repro.obs.attrib import attribute_records
    from repro.obs.history import RunHistory

    store = RunHistory()
    if args.action == "history":
        records = store.records(kind=args.kind, limit=args.limit)
        if args.json:
            print(json.dumps([dict(r.data) for r in records], indent=2))
            return EXIT_OK
        if not records:
            print(f"no run history yet (looked in {store.path})")
            return EXIT_OK
        for record in records:
            print(record.describe())
        return EXIT_OK

    # diff A B — compare two compile records and attribute the delta.
    try:
        old = store.select(args.a, kind="compile")
        new = store.select(args.b, kind="compile")
    except LookupError as error:
        raise UsageError(str(error)) from None
    attribution = attribute_records(old.data, new.data)
    if args.json:
        payload = {
            "old": dict(old.data),
            "new": dict(new.data),
            "attribution": None
            if attribution is None
            else {
                "old_total_ms": attribution.old_total_ms,
                "new_total_ms": attribution.new_total_ms,
                "total_delta_ms": attribution.total_delta_ms,
                "guilty": attribution.guilty,
                "guilty_share": attribution.guilty_share,
                "cache_delta_ms": attribution.cache_delta_ms,
                "passes": [
                    {
                        "name": c.name,
                        "old_ms": c.old_ms,
                        "new_ms": c.new_ms,
                        "delta_ms": c.delta_ms,
                        "significant": c.significant,
                        "cache_transition": c.cache_transition,
                    }
                    for c in attribution.contributions
                ],
            },
        }
        print(json.dumps(payload, indent=2))
        return EXIT_OK
    print(f"old: {old.describe()}")
    print(f"new: {new.describe()}")
    if attribution is None:
        print("no per-pass timings recorded; cannot attribute the delta")
        return EXIT_OK
    print(attribution.describe())
    return EXIT_OK


def _cmd_bench(args: argparse.Namespace) -> int:
    from contextlib import nullcontext
    from pathlib import Path

    from repro.bench import BenchOptions, run_bench, save_report
    from repro.bench.runner import format_report, select_stencils
    from repro.obs import history

    suites = ("compile", "simulate") if args.suite == "all" else (args.suite,)
    recorder = obs.TraceRecorder() if args.trace is not None else None
    try:
        stencils = (
            select_stencils(args.stencils.split(",")) if args.stencils else None
        )
        with obs.use(recorder) if recorder is not None else nullcontext():
            report = run_bench(
                BenchOptions(
                    suites=suites,
                    quick=args.quick,
                    repeats=args.repeats,
                    stencils=stencils,
                    disk_cache=_disk_cache(args),
                )
            )
    except ValueError as error:
        raise UsageError(str(error)) from None
    store = history.RunHistory()
    for suite_name, suite in report["suites"].items():
        entries = [
            {"stencil": name, **entry} for name, entry in suite["stencils"].items()
        ]
        store.append(
            "bench",
            history.bench_record(suite=suite_name, device=GTX470.name, entries=entries),
        )
    print(format_report(report))
    if recorder is not None:
        from repro.obs.export import write_trace

        path = write_trace(args.trace, recorder.drain())
        print(f"wrote {path}")

    if args.json is not None:
        path = save_report(report, args.json)
        print(f"wrote {path}")
        return EXIT_OK
    out_dir = Path(args.out_dir)
    for suite_name, suite in report["suites"].items():
        single = dict(report)
        single["suites"] = {suite_name: suite}
        path = save_report(single, out_dir / f"BENCH_{suite_name}.json")
        print(f"wrote {path}")
    return EXIT_OK


_H_HELP = "tile height h; needs --widths (default with --widths: {})"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hexcc",
        description="Hybrid hexagonal/classical tiling compiler (CGO 2014 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the available stencils").set_defaults(func=_cmd_list)

    compile_parser = sub.add_parser("compile", help="compile a stencil at paper scale")
    compile_parser.add_argument("stencil")
    _add_device_argument(compile_parser)
    compile_parser.add_argument("--h", type=int, default=None, help=_H_HELP.format(2))
    compile_parser.add_argument("--widths", default=None, help="comma separated w0,w1,...")
    compile_parser.add_argument("--show-cuda", action="store_true")
    _add_tuned_arguments(compile_parser)
    _add_no_cache_argument(compile_parser)
    compile_parser.set_defaults(func=_cmd_compile)

    inspect_parser = sub.add_parser(
        "inspect",
        help="run a pipeline prefix and dump stage artifacts + per-pass timings",
    )
    inspect_parser.add_argument("stencil")
    inspect_parser.add_argument(
        "--stop-after", choices=list(STAGES), default="verify", metavar="STAGE",
        help=f"last stage to run (one of: {', '.join(STAGES)}; default: verify)",
    )
    inspect_parser.add_argument(
        "--strategy", default="hybrid",
        help="tiling strategy name (default: hybrid; see repro.api.list_strategies)",
    )
    inspect_parser.add_argument(
        "--json", action="store_true",
        help="emit a machine-readable report instead of the text dump",
    )
    _add_device_argument(inspect_parser)
    inspect_parser.add_argument("--h", type=int, default=None, help=_H_HELP.format(2))
    inspect_parser.add_argument("--widths", default=None, help="comma separated w0,w1,...")
    _add_no_cache_argument(inspect_parser)
    inspect_parser.set_defaults(func=_cmd_inspect)

    verify_parser = sub.add_parser(
        "verify",
        help="statically verify schedules (symbolic races) and generated CUDA",
    )
    verify_parser.add_argument(
        "stencil", nargs="?", default=None,
        help="stencil name, or 'all' for the whole library",
    )
    verify_parser.add_argument(
        "--strategy", default="hybrid",
        help="tiling strategy name or 'all' (default: hybrid)",
    )
    verify_parser.add_argument(
        "--json", action="store_true",
        help="emit the full verdicts (races, lint findings) as JSON",
    )
    verify_parser.add_argument(
        "--mutate", default=None, metavar="NAME",
        help="apply a named illegal schedule mutation first (fault injection; "
             "the verifier must report a race, so the command exits 1)",
    )
    verify_parser.add_argument(
        "--list-mutations", action="store_true",
        help="list the fault-injection mutation corpus and exit",
    )
    _add_device_argument(verify_parser)
    verify_parser.add_argument("--h", type=int, default=None, help=_H_HELP.format(2))
    verify_parser.add_argument("--widths", default=None,
                               help="comma separated w0,w1,...")
    _add_no_cache_argument(verify_parser)
    verify_parser.set_defaults(func=_cmd_verify)

    validate_parser = sub.add_parser(
        "validate", help="exhaustively validate and simulate a small instance"
    )
    validate_parser.add_argument("stencil")
    validate_parser.add_argument("--size", type=_positive_int, default=16)
    validate_parser.add_argument("--steps", type=_positive_int, default=8)
    validate_parser.add_argument("--h", type=int, default=None, help=_H_HELP.format(1))
    validate_parser.add_argument("--widths", default=None)
    _add_no_cache_argument(validate_parser)
    validate_parser.set_defaults(func=_cmd_validate)

    compile_file_parser = sub.add_parser(
        "compile-file", help="compile a C stencil source file with the front end"
    )
    compile_file_parser.add_argument("file", help="path to a .c stencil source")
    _add_device_argument(compile_file_parser)
    compile_file_parser.add_argument(
        "--h", type=int, default=None, help=_H_HELP.format(2)
    )
    compile_file_parser.add_argument("--widths", default=None,
                                     help="comma separated w0,w1,...")
    compile_file_parser.add_argument("--sizes", default=None, type=_sizes_arg,
                                     help="comma separated grid extents, "
                                          "overriding the source's #defines")
    compile_file_parser.add_argument("--steps", type=_positive_int, default=None)
    compile_file_parser.add_argument("--show-cuda", action="store_true")
    _add_tuned_arguments(compile_file_parser)
    _add_no_cache_argument(compile_file_parser)
    compile_file_parser.set_defaults(func=_cmd_compile_file)

    validate_file_parser = sub.add_parser(
        "validate-file",
        help="parse, validate and simulate a C stencil source file",
    )
    validate_file_parser.add_argument("file", help="path to a .c stencil source")
    validate_file_parser.add_argument("--sizes", default=None, type=_sizes_arg,
                                      help="comma separated small grid extents")
    validate_file_parser.add_argument("--steps", type=_positive_int, default=None)
    validate_file_parser.add_argument(
        "--h", type=int, default=None, help=_H_HELP.format(1)
    )
    validate_file_parser.add_argument("--widths", default=None)
    _add_no_cache_argument(validate_file_parser)
    validate_file_parser.set_defaults(func=_cmd_validate_file)

    table_parser = sub.add_parser("table", help="regenerate one of the paper's tables")
    table_parser.add_argument("number", type=int)
    _add_no_cache_argument(table_parser)
    table_parser.set_defaults(func=_cmd_table)

    tables_parser = sub.add_parser(
        "tables",
        help="regenerate several (default: all) of the paper's tables",
    )
    tables_parser.add_argument(
        "numbers", type=int, nargs="*",
        help="table numbers to regenerate (default: 1 2 3 4 5)",
    )
    _add_no_cache_argument(tables_parser)
    tables_parser.set_defaults(func=_cmd_tables)

    cache_parser = sub.add_parser(
        "cache", help="inspect or clear the on-disk compile cache"
    )
    cache_parser.add_argument("action", choices=("stats", "clear"))
    cache_parser.set_defaults(func=_cmd_cache)

    tune_parser = sub.add_parser(
        "tune",
        help="autotune tile sizes on the modelled GPU and record the winner",
    )
    tune_parser.add_argument("stencil")
    tune_parser.add_argument(
        "--strategy", default="random",
        help="search strategy: grid, random or hillclimb (default: random)",
    )
    tune_parser.add_argument(
        "--budget", type=int, default=32, metavar="N",
        help="evaluation budget (the model baseline is always scored extra)",
    )
    tune_parser.add_argument(
        "--seed", type=int, default=0,
        help="search seed; identical seed + budget replays the identical "
             "sweep (default: 0)",
    )
    _add_device_argument(tune_parser)
    tune_parser.add_argument(
        "--tuning-db", default=None, metavar="PATH",
        help="database to update (default: $HEXCC_TUNING_DB or the user db)",
    )
    tune_parser.add_argument(
        "--check", action="store_true",
        help="CI gate: compare against the database instead of updating it; "
             "exit 1 when the found best regresses the recorded score",
    )
    tune_parser.add_argument(
        "--max-regression", default="0.25", metavar="FRACTION",
        help="allowed score regression for --check, e.g. 0.25 or 25%% "
             "(default: 0.25)",
    )
    tune_parser.add_argument(
        "--json", action="store_true",
        help="emit the database entry plus every trial as JSON",
    )
    _add_no_cache_argument(tune_parser)
    tune_parser.set_defaults(func=_cmd_tune)

    tune_table_parser = sub.add_parser(
        "tune-table",
        help="tuned-vs-model comparison table from the tuning database",
    )
    tune_table_parser.add_argument(
        "--tuning-db", default=None, metavar="PATH",
        help="database to read (default resolution chain, see README)",
    )
    tune_table_parser.add_argument(
        "--device", default=None,
        help="only show entries of one device (default: all)",
    )
    tune_table_parser.set_defaults(func=_cmd_tune_table)

    trace_parser = sub.add_parser(
        "trace",
        help="record a Chrome trace of one compile",
    )
    trace_parser.add_argument("stencil")
    trace_parser.add_argument(
        "-o", "--output", default="trace.json", metavar="PATH",
        help="trace file to write (Chrome trace-event JSON; default: trace.json)",
    )
    _add_device_argument(trace_parser)
    _add_no_cache_argument(trace_parser)
    trace_parser.set_defaults(func=_cmd_trace)

    profile_parser = sub.add_parser(
        "profile",
        help="rank pipeline passes and cache I/O by inclusive/exclusive time",
    )
    profile_parser.add_argument("stencil")
    _add_device_argument(profile_parser)
    profile_parser.add_argument(
        "--json", action="store_true",
        help="emit the rows as JSON",
    )
    _add_no_cache_argument(profile_parser)
    profile_parser.set_defaults(func=_cmd_profile)

    perf_parser = sub.add_parser(
        "perf",
        help="persistent run history: list runs or diff two of them",
    )
    perf_sub = perf_parser.add_subparsers(dest="action", required=True)
    perf_history = perf_sub.add_parser(
        "history", help="list recorded compile/bench/tune runs"
    )
    perf_history.add_argument(
        "--kind", choices=("compile", "bench", "tune"), default=None,
        help="only show records of one kind (default: all)",
    )
    perf_history.add_argument(
        "--limit", type=_positive_int, default=20, metavar="N",
        help="show the newest N records (default: 20)",
    )
    perf_history.add_argument(
        "--json", action="store_true",
        help="emit the raw records as JSON",
    )
    perf_history.set_defaults(func=_cmd_perf)
    perf_diff = perf_sub.add_parser(
        "diff",
        help="attribute the wall-time delta between two compile records",
    )
    perf_diff.add_argument(
        "a", help="baseline record: 'last', 'last~N' or an id prefix"
    )
    perf_diff.add_argument(
        "b", help="new record: 'last', 'last~N' or an id prefix"
    )
    perf_diff.add_argument(
        "--json", action="store_true",
        help="emit both records plus the attribution as JSON",
    )
    perf_diff.set_defaults(func=_cmd_perf)

    bench_parser = sub.add_parser(
        "bench",
        help="measure the compiler's own performance and emit BENCH_*.json",
    )
    bench_parser.add_argument(
        "--suite", choices=("compile", "simulate", "all"), default="all",
        help="which suite(s) to run (default: all)",
    )
    bench_parser.add_argument(
        "--quick", action="store_true",
        help="CI mode: representative stencil subset, fewer repeats",
    )
    bench_parser.add_argument(
        "--repeats", type=_positive_int, default=None,
        help="measurement repeats per stencil (default: 3 quick, 5 full)",
    )
    bench_parser.add_argument(
        "--stencils", default=None,
        help="comma separated stencil names (default: suite selection)",
    )
    bench_parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="write one combined report to PATH instead of BENCH_<suite>.json",
    )
    bench_parser.add_argument(
        "--out-dir", default=".",
        help="directory for the per-suite BENCH_*.json files (default: .)",
    )
    bench_parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help="also record the run as a Chrome trace and write it to PATH",
    )
    _add_no_cache_argument(bench_parser)
    bench_parser.set_defaults(func=_cmd_bench)
    return parser


def _add_device_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--device", default="gtx470",
        help="target GPU: gtx470 or nvs5200m (default: gtx470)",
    )


def _add_tuned_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--tuned", action="store_true",
        help="apply the best known configuration from the tuning database "
             "(explicit --widths win; without a database entry the model "
             "selection is used)",
    )
    parser.add_argument(
        "--tuning-db", default=None, metavar="PATH",
        help="tuning database for --tuned (default: $HEXCC_TUNING_DB, the "
             "user db, then the committed baseline)",
    )


def _add_no_cache_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--no-cache", action="store_true",
        help="bypass the persistent on-disk compile cache",
    )


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:
        # argparse exits 2 on usage errors and 0 for --help; normalise both
        # into return codes so embedding callers (and tests) see an int.
        return EXIT_OK if exit_.code in (0, None) else EXIT_USAGE
    try:
        code = args.func(args)
        # Flush inside the try, so that a closed stdout pipe is reported
        # here and not at interpreter exit.
        sys.stdout.flush()
        return code
    except UsageError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_USAGE
    except FrontendError as error:
        print(error.pretty(), file=sys.stderr)
        return EXIT_FAILURE
    except (PipelineError, ValueError) as error:
        # Strategy/pipeline failures, invalid tiling parameters and
        # simulation mismatches (SimulationMismatchError is a PipelineError).
        print(f"error: {error}", file=sys.stderr)
        _print_crash_report_path(error)
        return EXIT_FAILURE
    except BrokenPipeError:
        # The reader went away (e.g. `hexcc ... | head`).  Python's documented
        # recipe: point stdout at devnull, so the exit-time flush cannot fail
        # again, and exit 1 silently.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_FAILURE
    except OSError as error:
        where = f"{error.filename}: " if error.filename else ""
        print(f"error: {where}{error.strerror or error}", file=sys.stderr)
        return EXIT_FAILURE
    except Exception as error:
        # Unexpected faults propagate (full traceback for bug reports), but
        # the crash report's location is printed first so it isn't lost.
        _print_crash_report_path(error)
        raise


def _print_crash_report_path(error: BaseException) -> None:
    path = getattr(error, "crash_report_path", None)
    if path:
        print(f"crash report: {path}", file=sys.stderr)


def process_main() -> int:
    """The ``hexcc`` process: :func:`main` on ``sys.argv``, then a cheap exit.

    While the interpreter shuts down it runs full cyclic collections over
    every object the process loaded, and the process ends only after them.
    ``gc.freeze()`` moves those objects into the collector's permanent
    generation, which shutdown collections skip; exit handlers, stream
    flushes and reference-count deallocation still run.  Only whole-process
    entries (``python -m repro.cli`` and the ``hexcc`` script) call this:
    in-process callers of :func:`main` keep their collector as it was.
    """
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    raise SystemExit(process_main())
