#!/usr/bin/env bash
# Fast-tier smoke check for the Jrpm reproduction.
#
# 1. runs three representative workloads (one per paper category)
#    through the parallel suite runner — cold cache, 4 workers;
# 2. re-runs the same suite warm to prove the persistent report cache
#    serves it near-instantly (expect a 100% hit rate in the metrics
#    summary printed on stderr);
# 3. runs one traced workload and validates the exported Chrome trace
#    against the repro.trace schema (Perfetto-loadable);
# 4. runs one workload under the adaptive recompilation controller and
#    validates the emitted decision log against the repro.adapt schema;
# 5. checks the golden report digests of one workload per category
#    in both engines (`--engine fast` and `--engine reference`), which
#    share one digest per workload: the engines must be cycle-exact,
#    byte for byte (see docs/performance.md);
# 6. starts the persistent daemon (`jrpm serve`) on a unix socket,
#    pushes a pipelined client burst through it (second identical
#    request must be a store hit; a request carrying a payload key no
#    job reads, here `delay`, must be a `bad-request` that fails no
#    job), drains it gracefully, and checks
#    the daemon exits 0 — the serve → client → drain path of
#    docs/service.md; then a `--profdb` daemon serves BitOps, euler and
#    decJpeg four times each: every reply after the first must be a
#    byte-identical warm start, and no worker may be spawned after the
#    first batch (scripts/check_daemon_warm.py — persistent workers
#    and their compile cache);
# 7. runs one workload twice against a shared profile DB: the first
#    run records a profile, the second must warm-start from
#    it (skipping the baseline and TEST executions) with an identical
#    plan and TLS cycle count, and the exported DB must pass the
#    repro.profdb schema gate (see docs/profdb.md);
# 8. runs the trace and metrics overhead guards
#    (benchmarks/bench_trace_overhead.py: wall-clock budgets for a
#    traced run and a metrics-enabled run against a plain one);
# 9. runs the fast test tier (everything not marked `slow`), which
#    includes the docs link lint (tests/test_docs_links.py).  The
#    exhaustive engine-differential sweep in
#    tests/test_engine_differential.py is `slow`-marked and runs in
#    the full tier only.
#
# Usage: scripts/smoke.sh [extra pytest args]
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

# one integer, one floating-point, one multimedia workload
WORKLOADS="BitOps,euler,decJpeg"
CACHE_DIR="$(mktemp -d)"
trap 'rm -rf "$CACHE_DIR"' EXIT

echo "== smoke: cold cache, --jobs 4 =="
time python -m repro suite --size small --only "$WORKLOADS" \
    --jobs 4 --cache-dir "$CACHE_DIR"

echo
echo "== smoke: warm cache =="
time python -m repro suite --size small --only "$WORKLOADS" \
    --jobs 4 --cache-dir "$CACHE_DIR"

echo
echo "== smoke: traced run + Chrome-trace schema check =="
python -m repro run BitOps --size small \
    --trace-out "$CACHE_DIR/trace.json" > /dev/null
python scripts/check_trace_schema.py "$CACHE_DIR/trace.json"

echo
echo "== smoke: adaptive recompilation + decision-log schema check =="
python -m repro run BitOps --size small --adapt --epochs 3 --json \
    > "$CACHE_DIR/adapt.json"
python scripts/check_adapt_log.py "$CACHE_DIR/adapt.json"

echo
echo "== smoke: registry sweep, golden digests fast == reference (fast tier) =="
python -m pytest -q -m "not slow" tests/test_golden_reports.py

echo
echo "== smoke: serve -> client -> drain =="
SOCKET="$CACHE_DIR/jrpm.sock"
python -m repro serve --socket "$SOCKET" --jobs 2 \
    --cache-dir "$CACHE_DIR" &
SERVE_PID=$!
for _ in $(seq 100); do [ -S "$SOCKET" ] && break; sleep 0.1; done
python - "$SOCKET" <<'PYEOF'
import sys
from repro.metrics import MetricsRegistry
from repro.service import JrpmClient

client = JrpmClient.connect(socket_path=sys.argv[1])
assert client.ping()["pong"] is True
payload = client.job_payload(workload="BitOps", size="small")
(first, _, _), = client.request_many([("run", payload)])
(second, cached_second, _), = client.request_many([("run", payload)])
assert first["report"] == second["report"]
assert cached_second, "second identical request must hit the store"
hooked = dict(payload, delay=5.0)      # a retired test hook
(refused, _, _), = client.request_many([("run", hooked)])
assert getattr(refused, "kind", None) == "bad-request", refused
registry = MetricsRegistry.from_dict(client.metrics()["metrics"])
lookups = registry.total("jrpm_store_lookups")
print("serve:  %d request(s), store hit rate %.0f%%, queue depth %d"
      % (registry.total("jrpm_service_requests"),
         100.0 * registry.total("jrpm_store_lookups", outcome="hit")
         / (lookups or 1),
         client.stats()["scheduler"]["queue_depth"]))
drained = client.drain()
assert drained["drained"] is True and drained["failed"] == 0
client.close()
PYEOF
wait "$SERVE_PID" && echo "serve:  drained cleanly (exit 0)"
python scripts/check_daemon_warm.py --workdir "$(mktemp -d -p "$CACHE_DIR")"

echo
echo "== smoke: profile DB warm start + schema check =="
python - "$CACHE_DIR/profdb" <<'PYEOF'
import sys
from repro import Jrpm, compile_source
from repro.workloads import lookup

db_path = sys.argv[1]
source = lookup("BitOps").source("small")
cold = Jrpm(profdb=db_path).run(compile_source(source), name="BitOps")
warm = Jrpm(profdb=db_path).run(compile_source(source), name="BitOps")
assert cold.profile_provenance == "cold"
assert warm.profile_provenance == "warm", "second run must warm-start"
assert sorted(warm.plans) == sorted(cold.plans)
assert warm.tls.cycles == cold.tls.cycles
print("profdb: warm start plan-equivalent (tls %d cycles, %d plan(s))"
      % (warm.tls.cycles, len(warm.plans)))
PYEOF
python -m repro profdb export --path "$CACHE_DIR/profdb" \
    | python scripts/check_profdb.py -

echo
echo "== smoke: trace + metrics overhead guards =="
python -m pytest -q benchmarks/bench_trace_overhead.py

echo
echo "== smoke: fast test tier (pytest -m 'not slow') =="
python -m pytest -q -m "not slow" "$@"
