"""CUDA source generation for hybrid-tiled stencils (Section 4.1).

The generator maps the hybrid schedule's output dimensions onto the CUDA
execution model exactly as the paper describes:

* ``T``  — a host-side ``for`` loop that alternately launches the phase-0 and
  phase-1 kernels;
* ``S0`` — the one-dimensional grid of thread blocks (with a stride loop in
  case the grid is larger than the launch limit);
* ``S1 .. Sn`` — sequential loops inside the kernel;
* ``t'`` — a sequential loop with ``__syncthreads()`` after every iteration;
* ``s0' .. sn'`` — the thread dimensions (cyclic distribution when a tile has
  more points than threads).

Full tiles get specialised straight-line (unrolled) code without bounds
checks; partial tiles run the generic guarded code (Section 4.3.1).  The
generated text is valid CUDA C in structure; it is emitted for inspection,
documentation and testing of the code-generation logic (the evaluation
environment has no CUDA toolchain to compile it with).
"""

from __future__ import annotations


from repro.model.program import StencilProgram
from repro.api.config import OptimizationConfig
from repro.polyhedral.constraint import Constraint
from repro.codegen.shared_mem import SharedMemoryPlan
from repro.tiling.hex_schedule import Phase
from repro.tiling.hybrid import HybridTiling


class _Emitter:
    """Tiny indentation-aware text emitter."""

    def __init__(self) -> None:
        self._lines: list[str] = []
        self._indent = 0

    def line(self, text: str = "") -> None:
        self._lines.append(("  " * self._indent + text).rstrip())

    def open(self, text: str) -> None:
        self.line(text + " {")
        self._indent += 1

    def close(self, suffix: str = "") -> None:
        self._indent -= 1
        self.line("}" + suffix)

    def blank(self) -> None:
        self._lines.append("")

    def text(self) -> str:
        return "\n".join(self._lines) + "\n"


def _constraint_to_c(constraint: Constraint, names: dict[str, str]) -> str:
    """Render an affine constraint as a C boolean expression."""
    expr = constraint.expr.scaled_to_integers()
    terms: list[str] = []
    for name, coeff in sorted(expr.coeffs.items()):
        c_name = names.get(name, name)
        coefficient = int(coeff)
        if coefficient == 1:
            terms.append(f"+ {c_name}")
        elif coefficient == -1:
            terms.append(f"- {c_name}")
        elif coefficient < 0:
            terms.append(f"- {-coefficient} * {c_name}")
        else:
            terms.append(f"+ {coefficient} * {c_name}")
    constant = int(expr.constant)
    if constant != 0 or not terms:
        terms.append(f"+ {constant}" if constant >= 0 else f"- {-constant}")
    text = " ".join(terms)
    if text.startswith("+ "):
        text = text[2:]
    op = "==" if constraint.is_equality else ">="
    return f"{text} {op} 0"


class CudaCodeGenerator:
    """Generates host and kernel CUDA source for one hybrid tiling."""

    def __init__(
        self,
        tiling: HybridTiling,
        plan: SharedMemoryPlan,
        config: OptimizationConfig,
    ) -> None:
        self.tiling = tiling
        self.plan = plan
        self.config = config
        self.program: StencilProgram = tiling.canonical.program

    # -- public API -------------------------------------------------------------------

    def generate(self) -> str:
        """The complete CUDA translation unit (host code plus both kernels)."""
        emitter = _Emitter()
        self._emit_prelude(emitter)
        for phase in (Phase.BLUE, Phase.GREEN):
            self._emit_kernel(emitter, phase)
            emitter.blank()
        self._emit_host(emitter)
        return emitter.text()

    def kernel_name(self, phase: Phase) -> str:
        return f"{self.program.name}_phase{int(phase)}"

    # -- pieces ------------------------------------------------------------------------

    def _emit_prelude(self, emitter: _Emitter) -> None:
        program = self.program
        emitter.line(f"/* Generated by repro.codegen.cuda for {program.name}.")
        emitter.line(" * Hybrid hexagonal/classical tiling (CGO 2014 reproduction).")
        emitter.line(f" * Tile sizes: {self.tiling.sizes}; configuration: {self.config.label}.")
        emitter.line(" */")
        emitter.line("#include <cuda_runtime.h>")
        emitter.line("#include <math.h>")
        emitter.blank()
        emitter.line("#define floord(n, d) (((n) < 0) ? -((-(n) + (d) - 1) / (d)) : (n) / (d))")
        emitter.line("#define wrap(n, m) ((((n) % (m)) + (m)) % (m))")
        for axis, size in enumerate(program.sizes):
            emitter.line(f"#define N{axis} {size}")
        emitter.line(f"#define T_STEPS {program.time_steps}")
        emitter.blank()

    def _shared_declarations(self, emitter: _Emitter) -> None:
        if not self.config.use_shared_memory:
            emitter.line("/* configuration (a): no explicit shared memory */")
            return
        for footprint in self.plan.footprints:
            dims = "".join(f"[{extent}]" for extent in footprint.extents)
            for version in range(footprint.versions):
                emitter.line(f"__shared__ float shared_{footprint.field}_{version}{dims};")

    def _emit_kernel(self, emitter: _Emitter, phase: Phase) -> None:
        program = self.program
        tiling = self.tiling
        shape = tiling.shape
        arrays = ", ".join(f"float *{name}" for name in sorted(program.fields))
        emitter.open(
            f"__global__ void {self.kernel_name(phase)}(int T, {arrays})"
        )
        self._shared_declarations(emitter)
        emitter.blank()
        emitter.line(f"/* phase {int(phase)}: S0 tiles mapped to the block grid */")
        emitter.open("for (int S0 = blockIdx.x; ; S0 += gridDim.x)")
        origin = (
            f"S0 * {shape.space_period} - T * {shape.drift}"
            if phase is Phase.GREEN
            else f"S0 * {shape.space_period} - T * {shape.drift} - {shape.floor_delta0_h + shape.width + 1}"
        )
        emitter.line(f"int s0_origin = {origin};")
        emitter.line(f"if (s0_origin >= N0 + {shape.space_period}) break;")
        # Sequential classical tile loops.
        for index, classical in enumerate(tiling.classical, start=1):
            emitter.open(
                f"for (int S{index} = 0; S{index} <= "
                f"floord(N{index} + {classical.width - 1}, {classical.width}); S{index}++)"
            )
        self._emit_copy_in(emitter, phase)
        self._emit_time_loop(emitter, phase)
        if not self.config.interleave_copy_out:
            self._emit_copy_out(emitter)
        for _ in tiling.classical:
            emitter.close()
        emitter.close()  # S0 stride loop
        emitter.close()  # kernel

    def _emit_copy_in(self, emitter: _Emitter, phase: Phase) -> None:
        if not self.config.use_shared_memory:
            return
        emitter.line("/* copy-in: stage the tile footprint into shared memory */")
        reuse = self.config.inter_tile_reuse
        if reuse == "dynamic":
            emitter.line("/* inter-tile reuse (dynamic): shift values kept from the")
            emitter.line("   previous tile to their new shared locations, then load only")
            emitter.line("   the fresh columns (Section 4.2.2) */")
        elif reuse == "static":
            emitter.line("/* inter-tile reuse (static): values stay at a fixed shared")
            emitter.line("   location; only fresh columns are loaded (Section 4.2.2) */")
        for footprint in self.plan.footprints:
            row = footprint.innermost_row_elements
            aligned = "aligned to the cache line" if self.plan.aligned else "unaligned"
            emitter.open(
                f"for (int row = threadIdx.y; row < {footprint.elements // max(row, 1)}; row += blockDim.y)"
            )
            emitter.line(
                f"/* cooperative load of one {row}-element row of {footprint.field} ({aligned}) */"
            )
            emitter.open(f"for (int col = threadIdx.x; col < {row}; col += blockDim.x)")
            emitter.line(
                f"shared_{footprint.field}_0[row][col] = "
                f"{footprint.field}[global_index(s0_origin, row, col)];"
            )
            emitter.close()
            emitter.close()
        emitter.line("__syncthreads();")
        emitter.blank()

    def _emit_time_loop(self, emitter: _Emitter, phase: Phase) -> None:
        tiling = self.tiling
        shape = tiling.shape
        program = self.program
        names = {"a": "tt", "b": "ss0"}
        emitter.line("/* intra-tile time loop; one barrier per logical time step */")
        emitter.open(f"for (int tt = 0; tt < {shape.time_period}; tt++)")
        emitter.line(
            "int l = "
            + (
                f"T * {shape.time_period} + tt - {shape.height + 1};"
                if phase is Phase.BLUE
                else f"T * {shape.time_period} + tt;"
            )
        )
        emitter.line("if (l < 0 || l >= T_STEPS * "
                     f"{tiling.num_statements}) {{ __syncthreads(); continue; }}")
        emitter.blank()
        if self.config.separate_full_partial:
            emitter.open("if (tile_is_full)")
            emitter.line("/* specialised, fully unrolled, divergence-free core (Section 4.3.1) */")
            self._emit_core(emitter, unrolled=self.config.unroll)
            emitter.close()
            emitter.open("else")
            emitter.line("/* generic code for partial (boundary) tiles */")
            self._emit_core(emitter, unrolled=False, guarded=True, names=names)
            emitter.close()
        else:
            self._emit_core(emitter, unrolled=False, guarded=True, names=names)
        emitter.line("__syncthreads();")
        emitter.close()

    def _emit_core(
        self,
        emitter: _Emitter,
        unrolled: bool,
        guarded: bool = False,
        names: dict[str, str] | None = None,
    ) -> None:
        program = self.program
        tiling = self.tiling
        statement_count = tiling.num_statements
        for index, statement in enumerate(program.statements):
            if statement_count > 1:
                emitter.open(f"if (l % {statement_count} == {index})")
            if guarded:
                emitter.line("/* hexagon membership guards (constraints (6),(8),(10),(12)) */")
                for constraint in tiling.shape.constraints:
                    emitter.line(
                        f"/*   {_constraint_to_c(constraint, names or {})} */"
                    )
            loops = []
            source = "shared" if self.config.use_shared_memory else "global"
            target_index = "[ss0][ss1]" if program.ndim >= 2 else "[ss0]"
            body = statement.expr.to_c([f"ss{i}" for i in range(program.ndim)])
            if unrolled:
                emitter.line(
                    f"/* unrolled over {tiling.sizes.widths[0] + 1} points of the hexagon row; "
                    "neighbouring points share loads kept in registers */"
                )
            emitter.open(
                "for (int point = threadIdx.x; point < points_in_row; point += blockDim.x)"
            )
            emitter.line(f"float value = {body};  /* reads from {source} memory */")
            if self.config.use_shared_memory:
                emitter.line(f"shared_{statement.target}_0{target_index} = value;")
            if self.config.interleave_copy_out or not self.config.use_shared_memory:
                emitter.line(
                    f"{statement.target}[global_index(s0_origin, ss0, ss1)] = value;"
                    "  /* interleaved copy-out (Section 4.2.1) */"
                )
            emitter.close()
            if statement_count > 1:
                emitter.close()

    def _emit_copy_out(self, emitter: _Emitter) -> None:
        emitter.line("/* separate copy-out phase (configurations (a)/(b) only) */")
        emitter.open("for (int element = thread_id; element < tile_elements; element += block_threads)")
        for statement in self.program.statements:
            emitter.line(
                f"{statement.target}[global_index(s0_origin, element)] = "
                f"shared_{statement.target}_0[element];"
            )
        emitter.close()
        emitter.line("__syncthreads();")

    def _emit_host(self, emitter: _Emitter) -> None:
        program = self.program
        tiling = self.tiling
        shape = tiling.shape
        arrays = sorted(program.fields)
        emitter.open(f"void {program.name}_hybrid(float *" + ", float *".join(arrays) + ")")
        emitter.line("/* host code: allocate, copy in, iterate time tiles, copy out */")
        for name in arrays:
            emitter.line(f"float *dev_{name};")
            emitter.line(
                f"cudaMalloc(&dev_{name}, sizeof(float) * "
                + " * ".join(f"N{axis}" for axis in range(program.ndim))
                + ");"
            )
            emitter.line(
                f"cudaMemcpy(dev_{name}, {name}, sizeof(float) * "
                + " * ".join(f"N{axis}" for axis in range(program.ndim))
                + ", cudaMemcpyHostToDevice);"
            )
        emitter.blank()
        blocks = f"(N0 + {shape.space_period - 1}) / {shape.space_period}"
        widths = tiling.sizes.widths
        threads = [min(256, max(32, widths[-1]))] + [1] * (len(widths) - 1)
        emitter.line(f"dim3 block({', '.join(str(t) for t in threads)});")
        emitter.line(f"int grid = {blocks};")
        logical_extent = program.time_steps * tiling.num_statements
        time_tiles = (logical_extent + shape.time_period - 1) // shape.time_period + 1
        emitter.open(f"for (int T = 0; T <= {time_tiles}; T++)")
        device_args = ", ".join(f"dev_{name}" for name in arrays)
        emitter.line(f"{self.kernel_name(Phase.BLUE)}<<<grid, block>>>(T, {device_args});")
        emitter.line(f"{self.kernel_name(Phase.GREEN)}<<<grid, block>>>(T, {device_args});")
        emitter.close()
        emitter.blank()
        for name in arrays:
            emitter.line(
                f"cudaMemcpy({name}, dev_{name}, sizeof(float) * "
                + " * ".join(f"N{axis}" for axis in range(program.ndim))
                + ", cudaMemcpyDeviceToHost);"
            )
            emitter.line(f"cudaFree(dev_{name});")
        emitter.close()
