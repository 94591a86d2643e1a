"""Shared test helpers."""

import functools
import os
import time

import pytest

from repro.bytecode import run_program
from repro.hydra.config import HydraConfig
from repro.hydra.machine import Machine
from repro.jit.compiler import compile_annotated, compile_program
from repro.metrics import MetricsRegistry
from repro.metrics.registry import swap_registry
from repro.minijava import compile_source
from repro.service import execute_job
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


# ---------------------------------------------------------------------------
# service test jobs: slow and crashing pool callables, a long-running
# program.  Install a callable on a pool (``JobScheduler._pool.fn``,
# ``SuiteRunner._executor``) before its first batch: the workers fork
# after that and inherit it.
# ---------------------------------------------------------------------------

#: a loop that runs for tens of seconds in the simulator, far past the
#: 0.5 s and 1 s deadlines the timeout tests give it
LONG_RUNNING = wrap_main("""
        int s = 0;
        for (int i = 0; i < 5000000; i = i + 1) { s = s + (i & 7); }
        return s;
""")


class SlowJob:
    """Pool callable: sleep *seconds*, then execute the job."""

    def __init__(self, seconds):
        self.seconds = seconds

    def __call__(self, spec):
        time.sleep(self.seconds)
        return execute_job(spec)


class CrashOnce:
    """Pool callable: the first worker to run a job creates *marker*
    and dies; every later call runs *fn*."""

    def __init__(self, marker, fn):
        self.marker = marker
        self.fn = fn

    def __call__(self, spec):
        if not os.path.exists(self.marker):
            with open(self.marker, "w") as fh:
                fh.write(str(os.getpid()))
            os._exit(17)                   # a worker death mid-job
        return self.fn(spec)


# ---------------------------------------------------------------------------
# differential failures that say where
# ---------------------------------------------------------------------------

class _Missing:
    """What :func:`first_divergence` reads where only one side has a
    key or an item."""

    def __repr__(self):
        return "<missing>"


_MISSING = _Missing()


def first_divergence(a, b, path="$"):
    """The first place two JSON-like values differ, as ``(path, a's
    value, b's value)``, or None if they are equal.  Dicts are walked
    in sorted key order and lists by index; a key or an item that only
    one side has reads ``<missing>`` on the other.  Values of different
    types differ even where Python calls them equal (``1`` and ``1.0``
    encode differently)."""
    if type(a) is not type(b):
        return path, a, b
    if isinstance(a, dict):
        for key in sorted(set(a) | set(b), key=str):
            found = first_divergence(a.get(key, _MISSING),
                                     b.get(key, _MISSING),
                                     "%s.%s" % (path, key))
            if found:
                return found
        return None
    if isinstance(a, list):
        for index in range(max(len(a), len(b))):
            found = first_divergence(
                a[index] if index < len(a) else _MISSING,
                b[index] if index < len(b) else _MISSING,
                "%s[%d]" % (path, index))
            if found:
                return found
        return None
    if a == b or (a != a and b != b):      # NaN equals NaN here
        return None
    return path, a, b
