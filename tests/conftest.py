"""Shared test helpers."""

import functools

import pytest

from repro.bytecode import run_program
from repro.hydra.config import HydraConfig
from repro.hydra.machine import Machine
from repro.jit.compiler import compile_annotated, compile_program
from repro.metrics import MetricsRegistry
from repro.metrics.registry import swap_registry
from repro.minijava import compile_source
from repro.workloads import lookup

import regen_report_digests

#: one registry workload per category (integer, floating point,
#: multimedia): the default tier of every registry sweep
FAST_TIER = ("BitOps", "LuFactor", "decJpeg")


@pytest.fixture
def config():
    return HydraConfig()


@pytest.fixture
def fresh_registry():
    """A fresh process-global metrics registry for one test, so its
    ``total()`` reads count only what the test did."""
    registry = MetricsRegistry()
    previous = swap_registry(registry)
    yield registry
    swap_registry(previous)


def interp(src, *args):
    """Compile MiniJava and run on the reference interpreter."""
    return run_program(compile_source(src), *args)


def machine_run(src, *args, config=None, annotated=False, profiler=None):
    """Compile MiniJava through the microJIT and run on the machine."""
    cfg = config or HydraConfig()
    program = compile_source(src)
    builder = compile_annotated if annotated else compile_program
    compiled = builder(program, cfg)
    machine = Machine(compiled, cfg, profiler=profiler)
    return machine.run(*args)


def wrap_main(body, prelude=""):
    """Wrap statements into a minimal main method."""
    return """
class Main {
    %s
    static int main() {
        %s
    }
}
""" % (prelude, body)


def assert_same_behavior(src, *args):
    """The machine must match the reference interpreter exactly."""
    expected = interp(src, *args)
    actual = machine_run(src, *args)
    assert actual.guest_exception is None
    assert actual.output == expected.output
    assert actual.return_value == expected.return_value
    return expected, actual


@functools.lru_cache(maxsize=None)
def registry_case(name, engine):
    """The one traced run of registry workload *name* under *engine*
    (``regen_report_digests.run_case``), memoized so every test of the
    registry sweep checks its property from the same execution.  The
    trace is dropped once digested; what stays is ~2 MB a case."""
    case = regen_report_digests.run_case(name, engine)
    case.report.trace = None
    return case


@functools.lru_cache(maxsize=None)
def registry_oracle(name):
    """The bytecode interpreter's run of registry workload *name*."""
    return run_program(compile_source(
        lookup(name).source(regen_report_digests.SIZE)))


def registry_params():
    """One ``pytest.param`` per registry workload, marked ``slow``
    unless it is in :data:`FAST_TIER`."""
    from repro.workloads import all_workloads
    return [pytest.param(w.name, marks=() if w.name in FAST_TIER
                         else pytest.mark.slow)
            for w in all_workloads()]
