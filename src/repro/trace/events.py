"""Typed trace events.

Every event is a :class:`TraceEvent` — a named tuple kept deliberately
small so emission stays cheap on the simulator's hot control path:

==========  ===========================================================
field       meaning
==========  ===========================================================
``kind``    one of the ``EV_*`` constants below
``ts``      cycle timestamp on the simulated clock (float)
``cpu``     simulated CPU id, or ``None`` for machine-level events
``dur``     span length in cycles (``0.0`` for instant events)
``loop``    STL / prospective-loop id, or ``None``
``data``    kind-specific payload tuple (see the table in
            ``docs/observability.md``)
==========  ===========================================================

Payload layouts (``data``):

* ``EV_THREAD``    — ``(iteration, outcome)`` where outcome is one of
  ``"commit" | "restart" | "squash" | "exit"``; the span covers the
  whole thread attempt (``ts`` .. ``ts + dur``).
* ``EV_VIOLATION`` — ``(store_iteration, victim_iteration, addr,
  source_site, sink_site)``: the RAW arc.  Sites are
  ``(method, line)`` pairs (the closest thing a JIT'd region has to a
  PC) or ``None`` when unknown.
* ``EV_RESTART``   — ``(iteration, cause, primary)``; ``cause`` is
  ``"violation" | "reset" | "switch"``.
* ``EV_OVERFLOW``  — ``(iteration, buffer, lines)`` with ``buffer`` in
  ``{"load", "store"}``.
* ``EV_HANDLER``   — ``(name,)`` for ``startup/shutdown/eoi/restart``;
  ``dur`` carries the Table 1 handler cycles.
* ``EV_STL``       — ``(edge, entries)`` with ``edge`` in
  ``{"enter", "exit"}``.
* ``EV_CACHE``     — ``(l1_hits, l1_misses, l2_hits, l2_misses)``
  cumulative counter snapshot.
* ``EV_LOOP``      — ``(edge,)`` profile-phase loop activation
  (``enter``/``exit``) from the TEST profiler.
* ``EV_BANK``      — ``(what,)`` comparator-bank pressure:
  ``"steal" | "missed"``.
* ``EV_GC``        — ``()``; ``dur`` is the collection's cycles.
* ``EV_ADAPT``     — ``(action, epoch, detail)``: an applied adaptive
  recompilation decision (``decommit | lock_escalate | promote``) from
  :mod:`repro.adapt`; ``loop`` is the affected STL.
* ``EV_PROFDB``    — ``(outcome, name)``: a persistent profile DB
  interaction (:mod:`repro.profdb`): ``outcome`` is the run's profile
  provenance (``cold`` = recorded a fresh profile, ``confirmed`` =
  recorded and reproduced the stored record's plan, ``warm`` = TEST
  profiling skipped and replayed from the DB) and ``name`` is the
  workload name.
"""

from collections import namedtuple

TraceEvent = namedtuple("TraceEvent", ("kind", "ts", "cpu", "dur",
                                       "loop", "data"))

EV_THREAD = "thread"          # one speculative thread attempt (span)
EV_VIOLATION = "violation"    # RAW violation arc (instant)
EV_RESTART = "restart"        # a thread attempt was discarded (instant)
EV_OVERFLOW = "overflow"      # speculative buffer overflow (instant)
EV_HANDLER = "handler"        # STARTUP/SHUTDOWN/EOI/RESTART span
EV_STL = "stl"                # STL region enter/exit (instant)
EV_CACHE = "cache"            # L1/L2 hit-counter snapshot (counter)
EV_LOOP = "loop"              # TEST profile-phase loop enter/exit
EV_BANK = "bank"              # comparator-bank steal / exhaustion
EV_GC = "gc"                  # garbage collection pause (span)
EV_ADAPT = "adapt"            # adaptive recompilation decision (instant)
EV_PROFDB = "profdb"          # profile-DB record / warm-start (instant)

#: Every kind, in documentation order.
EVENT_KINDS = (EV_THREAD, EV_VIOLATION, EV_RESTART, EV_OVERFLOW,
               EV_HANDLER, EV_STL, EV_CACHE, EV_LOOP, EV_BANK, EV_GC,
               EV_ADAPT, EV_PROFDB)

#: Thread-attempt outcomes (EV_THREAD payloads).
OUTCOME_COMMIT = "commit"
OUTCOME_RESTART = "restart"
OUTCOME_SQUASH = "squash"
OUTCOME_EXIT = "exit"
