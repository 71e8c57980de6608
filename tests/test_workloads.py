"""Tests for the NAS-like workloads and the microbenchmark generator."""

import numpy as np
import pytest

from repro.compiler.classify import classify_kernel
from repro.compiler.codegen import compile_kernel
from repro.harness.config import PTLSIM_CONFIG
from repro.harness.runner import compile_workload, run_kernel
from repro.isa.program import WORD_SIZE
from repro.workloads import BENCHMARK_ORDER, available_workloads, get_workload
from repro.workloads.microbenchmark import (
    MICRO_MODES,
    MicroMode,
    build_microbenchmark,
)
from repro.harness.runner import run_program
from repro.trace.format import program_fingerprint


def test_registry_contains_the_six_nas_benchmarks():
    assert available_workloads() == ["CG", "EP", "FT", "IS", "MG", "SP"]
    with pytest.raises(KeyError):
        get_workload("LU")


@pytest.mark.parametrize("name", BENCHMARK_ORDER)
def test_workloads_build_and_validate(name):
    kernel = get_workload(name, scale="tiny")
    kernel.validate()
    assert kernel.loops and kernel.loops[0].trip_count > 0


#: Expected guarded-reference counts of the scaled-down kernels (the ratios
#: track the paper's Table 3; SP's 497 references are scaled down, which is
#: documented in EXPERIMENTS.md).
EXPECTED_GUARDED = {"CG": 1, "EP": 1, "FT": 4, "IS": 2, "MG": 1, "SP": 0}


@pytest.mark.parametrize("name", BENCHMARK_ORDER)
def test_guarded_reference_counts_match_paper_shape(name):
    kernel = get_workload(name, scale="tiny")
    cls = classify_kernel(kernel)
    assert cls.guarded_references == EXPECTED_GUARDED[name]
    if name == "SP":
        assert cls.total_references >= 30
    if name == "MG":
        assert cls.total_references >= 30


@pytest.mark.parametrize("name", BENCHMARK_ORDER)
def test_double_store_only_where_the_paper_reports_it(name):
    kernel = get_workload(name, scale="tiny")
    cls = classify_kernel(kernel)
    needs = cls.double_store_references
    if name in ("FT", "IS", "EP"):
        assert needs > 0
    else:
        assert needs == 0


@pytest.mark.parametrize("name", ["CG", "IS", "MG"])
def test_hybrid_and_cache_produce_identical_results(name):
    kernel_h = get_workload(name, scale="tiny")
    kernel_c = get_workload(name, scale="tiny")
    hybrid = run_kernel(kernel_h, mode="hybrid")
    cache = run_kernel(kernel_c, mode="cache")
    # Compare the final contents of every written array.
    for arr_name, decl in cache.compiled.program.arrays.items():
        decl_h = hybrid.compiled.program.arrays.get(arr_name)
        if decl_h is None:
            continue
        n = min(decl.length, decl_h.length)
        vals_c = [cache.system.read_sm_word(decl.base + i * WORD_SIZE) for i in range(n)]
        vals_h = [hybrid.system.read_sm_word(decl_h.base + i * WORD_SIZE) for i in range(n)]
        np.testing.assert_allclose(vals_h, vals_c, err_msg=f"{name}:{arr_name}")


def test_hybrid_runs_use_guarded_instructions_where_expected():
    result = run_kernel(get_workload("IS", scale="tiny"), mode="hybrid")
    assert result.system.guarded_stores > 0
    assert result.sim.memory_stats["directory"]["lookups"] > 0


def test_sp_has_no_guarded_accesses_at_runtime():
    result = run_kernel(get_workload("SP", scale="tiny"), mode="hybrid")
    assert result.system.guarded_loads == 0
    assert result.system.guarded_stores == 0


# ------------------------------------------------------------------- microbenchmark
@pytest.mark.parametrize("mode", ["hybrid", "hybrid-oracle", "cache"])
@pytest.mark.parametrize("name", BENCHMARK_ORDER)
def test_one_core_compile_is_the_whole_kernel(name, mode):
    """One core's shard is the whole kernel: ``compile_workload`` at one
    core compiles the program ``compile_kernel`` builds from the
    unsharded kernel (catches ``shard_kernel(k, 0, 1)`` drifting from
    ``k``)."""
    (shard,) = compile_workload(name, mode, "tiny", PTLSIM_CONFIG, 1)
    whole = compile_kernel(get_workload(name, "tiny"), mode=mode,
                           lm_size=PTLSIM_CONFIG.lm_size,
                           max_buffers=PTLSIM_CONFIG.directory_entries)
    assert (program_fingerprint(shard.program)
            == program_fingerprint(whole.program))
    assert shard.guarded_references == whole.guarded_references
    assert shard.total_references == whole.total_references


def test_micro_modes_and_validation():
    assert set(MICRO_MODES) == {"baseline", "RD", "WR", "RD/WR"}
    with pytest.raises(ValueError):
        build_microbenchmark("XX")
    with pytest.raises(ValueError):
        build_microbenchmark("RD", guarded_fraction=1.5)


def test_micro_guarded_instruction_counts_scale_with_fraction():
    full = build_microbenchmark(MicroMode.RDWR, 1.0, iterations=100, unroll=20)
    half = build_microbenchmark(MicroMode.RDWR, 0.5, iterations=100, unroll=20)
    none = build_microbenchmark(MicroMode.RDWR, 0.0, iterations=100, unroll=20)
    count = lambda p: sum(1 for i in p.instructions if i.is_guarded)
    assert count(full) == 40      # 20 guarded loads + 20 guarded stores
    assert count(half) == 20
    assert count(none) == 0


def test_micro_wr_mode_emits_double_stores_rd_mode_does_not():
    wr = build_microbenchmark(MicroMode.WR, 1.0, iterations=40, unroll=20)
    rd = build_microbenchmark(MicroMode.RD, 1.0, iterations=40, unroll=20)
    assert sum(1 for i in wr.instructions if i.collapse_with_prev) == 20
    assert sum(1 for i in rd.instructions if i.collapse_with_prev) == 0


def test_micro_functional_result_is_mode_independent():
    expected = None
    for mode in MICRO_MODES:
        program = build_microbenchmark(mode, 1.0, iterations=200, unroll=20,
                                       constant=3)
        result = run_program(program, mode="hybrid")
        decl = program.arrays["a"]
        final = [result.system.read_sm_word(decl.base + i * WORD_SIZE)
                 for i in range(200)]
        # a[k] = k * c  (each iteration adds c to the previous element).
        assert final[10] == 10 * 3
        if expected is None:
            expected = final
        assert final == expected
