"""Shared test helpers."""

import pytest

from repro.bytecode import run_program
from repro.hydra.config import HydraConfig
from repro.hydra.machine import Machine
from repro.jit.compiler import compile_annotated, compile_program
from repro.metrics import MetricsRegistry
from repro.metrics.registry import swap_registry
from repro.minijava import compile_source


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
