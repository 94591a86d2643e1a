"""Predecoded threaded-dispatch execution engines.

Both simulators — the Hydra IR machine (:mod:`repro.hydra.machine`) and
the bytecode interpreter (:mod:`repro.bytecode.interpreter`) — run on
**predecoded** tables: at code-install time each code unit is compiled
into a per-instruction table of Python handler closures, straight-line
runs of non-memory, non-signal instructions are fused into single
generated "superinstruction" block functions, and the dispatch loop
re-enters only at branches, memory operations and signal points.

:mod:`.bc_engine` is the bytecode interpreter's only execution loop,
and so the guest-output oracle.  :mod:`.ir_engine` is the machine's
``engine = "fast"``; the ``engine = "reference"`` configuration runs
the machine on ``CpuContext.step_legacy`` (the cycle-accounting
reference) and the stepwise TLS scheduler (the event-order reference)
instead.  The two are **cycle-exact**: instruction counts, cycle costs,
cache hit/miss counters, TLS violation/restart behaviour and
trace/profiler events are bit-identical (enforced by
``tests/test_engine_differential.py`` and the golden report digests) —
see ``docs/performance.md``.
"""

from .bc_engine import bytecode_table, execute_bytecode
from .ir_engine import dispatch_table

__all__ = ["dispatch_table", "bytecode_table", "execute_bytecode"]
