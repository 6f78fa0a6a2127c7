#!/usr/bin/env bash
# Full verification: configure, build, run the test suite, run every
# experiment bench — then build and run the tier-1 suite a second time
# under ThreadSanitizer, so data races in the runtime thread pool / the
# parallel fleet executor are caught automatically. This is the command
# sequence CI runs and the one the top-level docs reference.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -G Ninja
cmake --build build
ctest --test-dir build --output-on-failure
# The loopback live-ingest suite (simulator feeding efd over real sockets)
# is the M14 acceptance gate: run it explicitly so a filtered or flaky
# ctest invocation can never silently skip it.
ctest --test-dir build --output-on-failure -R 'LiveIngest'
# The BGP interop suite (efd announcing over TCP vs in-process
# enforcement, hold-timer flush, ladder journaling) is the M15
# acceptance gate: same explicit-run rule.
ctest --test-dir build --output-on-failure -R 'BgpInterop'
# The flow-level dataplane suite (ECMP/WCMP hashing, sticky flow table,
# queue conservation, sim integration) is the M17 acceptance gate: same
# explicit-run rule.
ctest --test-dir build --output-on-failure -R 'Dataplane'
# The enforcement-audit suite (divergence classification, bounded
# repair, failsafe audit rung, flap resync, warm restart) is the M18
# acceptance gate: same explicit-run rule.
ctest --test-dir build --output-on-failure -R 'Audit'
for b in build/bench/*; do "$b"; done

# Strict CLI validation: malformed audit/recovery/chaos knobs must exit
# 2 even when the parent feature flag is absent (a typo'd knob silently
# ignored is an unaudited production run), and so must a removed knob
# or a boolean flag given a value (--dataplane=0 must not read as on).
expect_usage_error() {
  local status=0
  "$@" >/dev/null 2>&1 || status=$?
  if [ "$status" -ne 2 ]; then
    echo "check.sh: expected exit 2 from: $* (got $status)" >&2
    exit 1
  fi
}
expect_usage_error ./build/tools/efd --audit-interval=junk
expect_usage_error ./build/tools/efd --audit-max-repairs=-1
expect_usage_error ./build/tools/efd --recover
expect_usage_error ./build/tools/eftool serve --audit-interval=junk
expect_usage_error ./build/tools/eftool chaos --audit-max-repairs=-1
expect_usage_error ./build/tools/eftool chaos --bgp-faults junk
expect_usage_error ./build/tools/eftool chaos --recover
expect_usage_error ./build/tools/efd --decode-threads 2
expect_usage_error ./build/tools/efd --dataplane=0
# Perf numbers (BENCH_alloc.json, BENCH_ingest.json) are recorded
# separately by scripts/bench.sh — run it after allocator or ingest
# changes to refresh the records.

# Chaos gate: seeded fault injection against the failsafe-armed daemon,
# under AddressSanitizer so the fault paths (poisoned streams, severed
# sessions, held cycles) also prove fd/buffer hygiene. Each seed in the
# matrix must replay bitwise-identically (--verify); EF_CHAOS_SEED
# extends the matrix per-run without editing this file. Skipped, loudly,
# only where the toolchain cannot link libasan.
if echo 'int main(){}' | c++ -fsanitize=address -x c++ - -o /dev/null \
    2>/dev/null; then
  cmake -B build-asan -G Ninja -DEF_SANITIZE=address
  cmake --build build-asan
  for seed in 1 7 42 ${EF_CHAOS_SEED:-}; do
    EF_CHAOS_SEED="$seed" ctest --test-dir build-asan \
      --output-on-failure -R 'Chaos\.'
    ./build-asan/tools/eftool chaos --fault-seed "$seed" \
      --poison 0.02 --verify
    ./build-asan/tools/eftool chaos --fault-seed "$seed" \
      --blackout 3:7 --verify
    # BGP-path chaos: faults on the announcer's UPDATE stream plus a
    # mid-run session flap, audited and remediated each cycle — the
    # replay must still be bitwise identical.
    ./build-asan/tools/eftool chaos --fault-seed "$seed" \
      --bgp-faults drop=0.1,dup=0.05,swallow=0.5,flap=6 --verify
  done
else
  echo "check.sh: toolchain lacks -fsanitize=address; skipping chaos gate" >&2
fi

# Second pass: tier-1 suite under TSan (-DEF_SANITIZE=thread). Skipped,
# loudly, only where the toolchain cannot link libtsan.
if echo 'int main(){}' | c++ -fsanitize=thread -x c++ - -o /dev/null \
    2>/dev/null; then
  cmake -B build-tsan -G Ninja -DEF_SANITIZE=thread
  cmake --build build-tsan
  ctest --test-dir build-tsan --output-on-failure
  # Same explicit gates under TSan. efd keeps all ingest and cycle state
  # on its one loop thread; what the feeder and test threads read
  # (barrier counters, the digest list) and the announcer/peering-router
  # session machinery must be race-free, not just correct.
  ctest --test-dir build-tsan --output-on-failure -R 'LiveIngest'
  ctest --test-dir build-tsan --output-on-failure -R 'BgpInterop'
  # The dataplane rides inside efd's ingest thread; its counters cross
  # the /metrics reader path, so the suite must be race-free too.
  ctest --test-dir build-tsan --output-on-failure -R 'Dataplane'
  # The audit read-back crosses three threads (efd cycle loop, prd's
  # loop via run_sync, the announcer's session): race-free is part of
  # the M18 gate, not an afterthought.
  ctest --test-dir build-tsan --output-on-failure -R 'Audit'
else
  echo "check.sh: toolchain lacks -fsanitize=thread; skipping TSan pass" >&2
fi
