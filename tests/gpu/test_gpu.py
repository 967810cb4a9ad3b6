"""Unit tests for the GPU substrate: devices, counters, memory and perf model."""

import pytest

from repro.gpu.counters import PerformanceCounters
from repro.gpu.device import GTX470, NVS5200M, get_device, list_devices
from repro.gpu.memory import CoalescingModel, SharedMemoryModel
from repro.gpu.perf_model import LaunchConfiguration, PerformanceModel


def test_device_lookup_and_derived_quantities():
    assert get_device("gtx470") is GTX470
    assert get_device("NVS 5200") is NVS5200M
    with pytest.raises(KeyError):
        get_device("volta")
    assert len(list_devices()) == 2
    # GTX 470 is roughly a 1 TFLOP/s part, the NVS 5200M roughly 250 GFLOP/s.
    assert 1000 < GTX470.peak_sp_gflops < 1200
    assert 200 < NVS5200M.peak_sp_gflops < 300
    assert GTX470.dram_bandwidth_gbs > 8 * NVS5200M.dram_bandwidth_gbs


def test_counters_derived_metrics_and_accumulation():
    counters = PerformanceCounters(
        requested_global_bytes=50.0,
        transferred_global_bytes=100.0,
        shared_load_requests=10.0,
        shared_load_transactions=18.0,
    )
    assert counters.gld_efficiency == 0.5
    assert counters.shared_loads_per_request == 1.8
    other = PerformanceCounters(flops=5.0)
    counters.add(other)
    assert counters.flops == 5.0
    scaled = counters.scaled(2.0)
    assert scaled.flops == 10.0
    row = counters.as_table5_row()
    assert row["gld_efficiency_percent"] == 50.0


def test_coalescing_aligned_rows_use_fewer_transactions():
    model = CoalescingModel(GTX470)
    aligned = model.row_transactions(128, aligned=True)
    unaligned = model.row_transactions(128, aligned=False)
    assert aligned < unaligned
    assert model.row_transactions(0, aligned=True) == 0


def test_shared_memory_bank_conflicts():
    model = SharedMemoryModel(GTX470)
    assert model.fits(40 * 1024)
    assert not model.fits(64 * 1024)
    assert model.occupancy_limit(20 * 1024) == 2


def test_perf_model_bandwidth_bound_case():
    """A pure streaming kernel must be DRAM bound and near peak bandwidth."""
    counters = PerformanceCounters(
        flops=1e9,
        instructions=2e9,
        dram_read_transactions=10e9 / 32,
        dram_write_transactions=0,
        stencil_updates=1e9,
    )
    launch = LaunchConfiguration(threads_per_block=256, blocks=10_000)
    report = PerformanceModel(GTX470).estimate(counters, launch)
    assert report.bound_by == "dram"
    implied_bandwidth = 10e9 / report.kernel_time_s / 1e9
    assert implied_bandwidth <= GTX470.dram_bandwidth_gbs * 1.01


def test_perf_model_compute_bound_case():
    counters = PerformanceCounters(
        flops=1e12,
        instructions=1e12,
        dram_read_transactions=1e6,
        stencil_updates=1e9,
    )
    launch = LaunchConfiguration(threads_per_block=512, blocks=10_000)
    report = PerformanceModel(GTX470).estimate(counters, launch)
    assert report.bound_by == "compute"
    assert report.gflops < GTX470.peak_sp_gflops


def test_perf_model_unrolled_faster_than_rolled():
    counters = PerformanceCounters(flops=1e11, instructions=4e11, stencil_updates=1e10)
    fast = PerformanceModel(GTX470).estimate(
        counters, LaunchConfiguration(blocks=10_000, unrolled=True)
    )
    slow = PerformanceModel(GTX470).estimate(
        counters, LaunchConfiguration(blocks=10_000, unrolled=False)
    )
    assert fast.total_time_s < slow.total_time_s


def test_perf_model_divergence_penalty():
    counters = PerformanceCounters(flops=1e11, instructions=4e11, stencil_updates=1e10)
    clean = PerformanceModel(GTX470).estimate(
        counters, LaunchConfiguration(blocks=10_000, divergence_free=True)
    )
    divergent = PerformanceModel(GTX470).estimate(
        counters, LaunchConfiguration(blocks=10_000, divergence_free=False)
    )
    assert clean.total_time_s < divergent.total_time_s


def test_perf_model_separate_copy_out_costs_time():
    counters = PerformanceCounters(
        flops=1e11,
        instructions=2e11,
        dram_read_transactions=1e9,
        dram_write_transactions=1e9,
        stencil_updates=1e10,
    )
    overlapped = PerformanceModel(GTX470).estimate(
        counters, LaunchConfiguration(blocks=10_000, overlap_stores=True)
    )
    separate = PerformanceModel(GTX470).estimate(
        counters, LaunchConfiguration(blocks=10_000, overlap_stores=False)
    )
    assert separate.total_time_s > overlapped.total_time_s


def test_perf_model_gstencils_accounting():
    counters = PerformanceCounters(flops=1e9, instructions=1e9, stencil_updates=5e8)
    report = PerformanceModel(NVS5200M).estimate(
        counters, LaunchConfiguration(blocks=1000)
    )
    assert report.gstencils_per_second == pytest.approx(
        5e8 / report.total_time_s / 1e9
    )
    assert "GStencils" in report.summary()


def test_launch_configuration_validation():
    with pytest.raises(ValueError):
        LaunchConfiguration(threads_per_block=0)
    with pytest.raises(ValueError):
        LaunchConfiguration(useful_fraction=0.0)
