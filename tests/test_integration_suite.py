"""Integration tests: the full pipeline over the benchmark suite and
its hand-parallelized (manual) variants (small size), checking
sequential equivalence against the bytecode interpreter.

The registry workloads are checked in both engines from the registry
sweep's one run (``conftest.registry_case``); the default tier checks
one per category.  The rest is marked ``slow`` (excluded by ``-m "not
slow"``).
"""

import pytest

from repro.bytecode import run_program
from repro.core.pipeline import Jrpm, outputs_equal
from repro.minijava import compile_source
from repro.workloads import all_workloads, lookup

import regen_report_digests
from conftest import registry_case, registry_oracle, registry_params


@pytest.mark.parametrize("name", registry_params())
def test_workload_pipeline_preserves_semantics(name):
    expected = registry_oracle(name)
    for engine in regen_report_digests.ENGINES:
        report = registry_case(name, engine).report
        assert report.sequential.output == expected.output
        assert outputs_equal(report.tls.output, expected.output), (
            "%s (%s): %r vs %r"
            % (name, engine, report.tls.output, expected.output))
        assert report.profiling_slowdown < 2.0
        assert report.tls_speedup > 0.5


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(
    w.name for w in all_workloads() if w.has_manual_variant))
def test_manual_variant_pipeline_preserves_semantics(name):
    program = compile_source(lookup(name).manual_source("small"))
    oracle = run_program(program)
    report = Jrpm().run(program, name=name + "-manual")
    assert report.sequential.output == oracle.output
    assert report.outputs_match()
