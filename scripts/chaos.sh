#!/usr/bin/env bash
# Loop the chaos/fault test suite N times (default 5) to flush out
# timing-sensitive flakes in lease expiry, reconnect and requeue paths.
#
#   scripts/chaos.sh [N]
#
# Exits non-zero on the first failing round, printing which round died.
set -euo pipefail

N="${1:-5}"
cd "$(dirname "$0")/.."

# Build once so the loop times the tests, not the compiler.
cargo test --release --no-run --workspace >/dev/null

for ((round = 1; round <= N; round++)); do
    echo "=== chaos round ${round}/${N} ==="
    # End-to-end chaos over channels + TCP, hang/reconnect/degrade/lossy.
    cargo test --release --test runtime_end_to_end -- \
        chaos hung_worker reconnecting degraded lossy
    # Crash-on-first-grant tests the start barrier makes deterministic
    # (every worker's hello is queued before the master serves), under
    # more test threads than cores, plus the barrier's own regression.
    cargo test --release -p lss-runtime --lib -- --test-threads 8 \
        crashing_worker_does_not_stop_the_loop sharded_run_survives_a_crash \
        late_hello_still_gets_the_crashing_grant
    cargo test --release --test runtime_end_to_end -- --test-threads 8 \
        eight_worker_chaos_over_channels
    # Property-based exactly-once invariants under arbitrary fault plans.
    cargo test --release --test fault_invariants
    # Deterministic simulator fault injection regressions.
    cargo test --release -p lss-sim chaos_tests
done

echo "chaos suite: ${N}/${N} rounds green"
