#!/usr/bin/env bash
# Performance records: builds Release (its own build dir, so a
# developer's default RelWithDebInfo tree is untouched) and runs the
# google-benchmark suites in JSON mode.
#   BENCH_alloc.json  — bench_m11 (allocator scale + the prefix scaling
#                       curve, up to the full 1M-prefix table) +
#                       bench_m13 (allocation fast
#                       path vs the seed allocator) + bench_m16
#                       (incremental delta cycles vs full warm
#                       recomputes across churn rates). Both comparison
#                       suites cross-check decisions for bitwise
#                       identity before timing, so a recorded speedup
#                       can never come from a behaviour change. Every
#                       merged binary must prove its own TUs were built
#                       Release (ef_bench_build context) or the script
#                       aborts.
#   BENCH_ingest.json — bench_m14 (BMP/sFlow decode throughput and the
#                       loopback socket-to-decision cycle latency).
#   BENCH_bgp.json    — bench_m15 (RFC 4271 UPDATE encode/decode
#                       throughput and the announce-to-applied latency
#                       over a real loopback BGP session).
#   BENCH_dataplane.json — bench_m17 (flow-level dataplane: hash/pick
#                       hot path, full step pipeline throughput in
#                       flows/sec, and the tail-drop queue's accuracy
#                       against the analytic fluid drop fraction; the
#                       drop model is cross-checked before timing).
# EXPERIMENTS.md (M13/M14/M15) and docs/SCALING.md document the
# methodology.
#
# Usage: bench.sh [--profile=record|nightly]
#   record  (default) — every suite, normal iteration counts; rewrites
#                       all three BENCH_*.json records.
#   nightly           — the allocator-scaling suites only, at reduced
#                       iteration counts (--benchmark_min_time=0.01, the
#                       seconds form the vendored google-benchmark
#                       accepts), for the scheduled CI job that uploads
#                       BENCH_alloc.json as an artifact. See
#                       docs/SCALING.md §5.
#
# Every bench binary's exit status is checked and its JSON output
# validated before anything is merged: a crashed or truncated run aborts
# the script with a non-zero exit instead of silently writing a partial
# (or stale) BENCH_*.json.
set -euo pipefail
cd "$(dirname "$0")/.."

PROFILE=record
for arg in "$@"; do
  case "$arg" in
    --profile=record) PROFILE=record ;;
    --profile=nightly) PROFILE=nightly ;;
    *) echo "usage: $0 [--profile=record|nightly]" >&2; exit 2 ;;
  esac
done

# Fresh scratch dir per run: results can never be polluted by JSON left
# behind by an earlier (possibly crashed) invocation.
TMPDIR_BENCH="$(mktemp -d)"
trap 'rm -rf "$TMPDIR_BENCH"' EXIT

cmake -B build-bench -G Ninja -DCMAKE_BUILD_TYPE=Release
# A recorded number from a debug build is worse than no number: verify
# the tree really configured Release before spending any cycles. (An
# existing build-bench dir configured differently would win over the -D
# above only if the cache disagreed — so check the cache itself.)
if ! grep -q '^CMAKE_BUILD_TYPE:[A-Z]*=Release$' build-bench/CMakeCache.txt; then
  echo "error: build-bench is not configured CMAKE_BUILD_TYPE=Release" \
    "(stale cache?); delete build-bench and re-run" >&2
  exit 1
fi
cmake --build build-bench --target bench_m11_allocator_scale \
  bench_m13_alloc_fastpath bench_m14_ingest bench_m15_bgp \
  bench_m16_incremental bench_m17_dataplane bench_m18_audit

# run_bench <output-basename> <binary> [extra benchmark args...]
# Fails the whole script if the binary exits non-zero OR emits invalid
# JSON (a crash mid-report truncates the document).
run_bench() {
  local out="$TMPDIR_BENCH/$1.json"
  local bin="$2"
  shift 2
  local status=0
  "$bin" --benchmark_format=json "$@" >"$out" || status=$?
  if [ "$status" -ne 0 ]; then
    echo "error: $bin exited with status $status; refusing to write" \
      "benchmark records from a crashed run" >&2
    exit 1
  fi
  if ! python3 -c "import json,sys; json.load(open(sys.argv[1]))" "$out"; then
    echo "error: $bin produced invalid JSON (truncated report?); refusing" \
      "to write benchmark records" >&2
    exit 1
  fi
}

if [ "$PROFILE" = nightly ]; then
  # Reduced iterations: a 10ms floor means one measured iteration for
  # every row that matters, which is enough for the nightly
  # scaling-trend artifact and keeps the 1M-prefix rows affordable on
  # shared CI runners.
  run_bench bench_m11 ./build-bench/bench/bench_m11_allocator_scale \
    --benchmark_min_time=0.01
  run_bench bench_m13 ./build-bench/bench/bench_m13_alloc_fastpath \
    --benchmark_min_time=0.01
  run_bench bench_m16 ./build-bench/bench/bench_m16_incremental \
    --benchmark_min_time=0.01
  run_bench bench_m17 ./build-bench/bench/bench_m17_dataplane \
    --benchmark_min_time=0.01
  run_bench bench_m18 ./build-bench/bench/bench_m18_audit \
    --benchmark_min_time=0.01
else
  run_bench bench_m11 ./build-bench/bench/bench_m11_allocator_scale
  run_bench bench_m13 ./build-bench/bench/bench_m13_alloc_fastpath
  run_bench bench_m16 ./build-bench/bench/bench_m16_incremental
  run_bench bench_m14 ./build-bench/bench/bench_m14_ingest
  run_bench bench_m15 ./build-bench/bench/bench_m15_bgp
  run_bench bench_m17 ./build-bench/bench/bench_m17_dataplane
  run_bench bench_m18 ./build-bench/bench/bench_m18_audit
fi

EF_BENCH_TMPDIR="$TMPDIR_BENCH" EF_BENCH_PROFILE="$PROFILE" python3 - <<'EOF'
import json
import os

tmpdir = os.environ["EF_BENCH_TMPDIR"]
profile = os.environ["EF_BENCH_PROFILE"]

def to_ms(bench):
    unit = bench.get("time_unit", "ns")
    return bench["real_time"] * {"ns": 1e-6, "us": 1e-3, "ms": 1.0,
                                 "s": 1e3}.get(unit, 1e-6)

def require_release(name, report):
    context = report.get("context", {})
    if context.get("ef_bench_build") != "release":
        raise SystemExit(
            f"error: {name} was built in "
            f"{context.get('ef_bench_build', 'unknown')} mode; refusing to "
            "record benchmarks from a non-Release binary")

def audit_target_from(report):
    # The M18 acceptance target: one convergent audit pass at 1M
    # prefixes must cost under 5% of the 2000 ms full-table warm-cycle
    # budget (docs/FAILSAFE.md). The divergent pass and the recovery
    # snapshot codec rows ride along for trend visibility.
    target = {"prefixes": 1000000, "warm_cycle_budget_ms": 2000.0,
              "max_fraction_of_warm_cycle": 0.05}
    rows = (("BM_AuditPassConvergent/1000000", "audit_pass_ms_1m"),
            ("BM_AuditPassDivergent/1000000", "divergent_pass_ms_1m"),
            ("BM_RecoverySnapshotSerialize/1000000",
             "recovery_serialize_ms_1m"),
            ("BM_RecoverySnapshotDecode/1000000", "recovery_decode_ms_1m"))
    for b in report.get("benchmarks", []):
        if b.get("run_type", "iteration") != "iteration":
            continue
        # Prefix match: MinTime registrations append a /min_time:...
        # suffix to the row name.
        for bench_name, field in rows:
            if b["name"].startswith(bench_name):
                target[field] = round(to_ms(b), 3)
    if "audit_pass_ms_1m" in target:
        budget = (target["warm_cycle_budget_ms"] *
                  target["max_fraction_of_warm_cycle"])
        target["budget_ms"] = budget
        target["met"] = target["audit_pass_ms_1m"] <= budget
    return target

merged = {}
for name in ("bench_m11", "bench_m13", "bench_m16"):
    with open(os.path.join(tmpdir, f"{name}.json")) as f:
        report = json.load(f)
    context = report.get("context", {})
    # Build-mode proof, per binary: ef_bench_build is stamped by the
    # bench's own main() from NDEBUG, i.e. it describes OUR translation
    # units. Anything but "release" means the timings are garbage; fail
    # instead of recording them.
    if context.get("ef_bench_build") != "release":
        raise SystemExit(
            f"error: {name} was built in "
            f"{context.get('ef_bench_build', 'unknown')} mode; refusing to "
            "record benchmarks from a non-Release binary")
    merged.setdefault("context", context)
    merged.setdefault("benchmarks", []).extend(report.get("benchmarks", []))

# Distro libbenchmark packages are routinely compiled without NDEBUG, so
# google-benchmark's own library_build_type says "debug" even in a
# Release tree. That field describes the LIBRARY, not our code; annotate
# rather than letting it read as a broken record.
if merged["context"].get("library_build_type") != "release":
    merged["context"]["library_build_type_note"] = (
        "library_build_type describes the system libbenchmark package; "
        "our benchmark TUs are proven Release by ef_bench_build")

times = {
    b["name"]: b["real_time"]
    for b in merged["benchmarks"]
    if b.get("run_type", "iteration") == "iteration"
}

# Warm-cycle speedup per (prefixes, routes) pair: the fast-path record.
speedups = {}
for name, t in times.items():
    if name.startswith("BM_SeedAllocatorWarmCycle/"):
        args = name.split("/", 1)[1]
        fast = times.get(f"BM_FastPathWarmCycle/{args}")
        if fast:
            speedups[args] = round(t / fast, 2)
merged["warm_cycle_speedup"] = speedups

# Allocator scaling curve: BM_AllocatorCycle/<prefixes>/<routes> rows
# become {prefixes: {routes, warm_cycle_ms}}.
scaling = {}
for b in merged["benchmarks"]:
    if b.get("run_type", "iteration") != "iteration":
        continue
    if not b["name"].startswith("BM_AllocatorCycle/"):
        continue
    parts = b["name"].split("/")
    if len(parts) < 3:
        continue
    scaling[parts[1]] = {
        "routes": int(parts[2]),
        "warm_cycle_ms": round(to_ms(b), 3),
    }
merged["alloc_scaling"] = scaling

# The full-table acceptance target: 1M prefixes x >=3 routes, warm cycle
# at or under 2 s (docs/SCALING.md §4). best_warm_cycle_ms keeps its
# name so scripts/check_bench_regression.py still compares it.
target = {"prefixes": 1000000, "routes": 3, "target_ms": 2000.0}
million = scaling.get("1000000")
if million:
    best = million["warm_cycle_ms"]
    target["best_warm_cycle_ms"] = best
    target["met"] = best <= target["target_ms"]
merged["full_table_target"] = target

# The steady-state acceptance target (EXPERIMENTS.md M16): at 1M
# prefixes and 1% churn per cycle, the incremental engine must beat the
# full warm recompute by >=50x and land at or under 10 ms. Churn rows
# are named BM_{FullRecomputeAtChurn,IncrementalAtChurn}/<prefixes>/
# <routes>/<permille>.
steady = {"prefixes": 1000000, "routes": 3, "churn_permille": 10,
          "target_speedup": 50.0, "target_ms": 10.0}
churn = {}
for b in merged["benchmarks"]:
    if b.get("run_type", "iteration") != "iteration":
        continue
    for kind, bench_prefix in (("full", "BM_FullRecomputeAtChurn/"),
                               ("incremental", "BM_IncrementalAtChurn/")):
        if b["name"].startswith(bench_prefix):
            args = b["name"].split("/", 1)[1]
            churn.setdefault(args, {})[f"{kind}_ms"] = round(to_ms(b), 3)
            if kind == "incremental":
                churn[args]["full_fallbacks"] = b.get("full_fallbacks", 0)
                churn[args]["dirty_per_cycle"] = round(
                    b.get("dirty_per_cycle", 0))
for args, row in churn.items():
    if "full_ms" in row and "incremental_ms" in row and row["incremental_ms"]:
        row["speedup"] = round(row["full_ms"] / row["incremental_ms"], 2)
merged["incremental_churn"] = churn
key = (f"{steady['prefixes']}/{steady['routes']}/"
       f"{steady['churn_permille']}")
if key in churn and "speedup" in churn[key]:
    steady["full_ms"] = churn[key]["full_ms"]
    steady["incremental_ms"] = churn[key]["incremental_ms"]
    steady["speedup"] = churn[key]["speedup"]
    steady["met"] = (steady["speedup"] >= steady["target_speedup"]
                     and steady["incremental_ms"] <= steady["target_ms"])
merged["steady_state_target"] = steady
merged["profile"] = profile

# Dataplane record: step-pipeline throughput (flows/sec), the hash/pick
# hot path, and the drop-model accuracy counters. Written on every
# profile (the nightly gate watches it alongside BENCH_alloc.json).
with open(os.path.join(tmpdir, "bench_m17.json")) as f:
    dp_report = json.load(f)
dp_context = dp_report.get("context", {})
if dp_context.get("ef_bench_build") != "release":
    raise SystemExit(
        "error: bench_m17 was built in "
        f"{dp_context.get('ef_bench_build', 'unknown')} mode; refusing to "
        "record benchmarks from a non-Release binary")
dataplane = {"context": dp_context,
             "benchmarks": dp_report.get("benchmarks", [])}
dp_target = {"target_flows_per_sec": 1e6, "target_drop_abs_error": 0.005}
step_rows = {}
max_drop_error = None
for b in dataplane["benchmarks"]:
    if b.get("run_type", "iteration") != "iteration":
        continue
    if b["name"].startswith("BM_DataplaneStep/"):
        prefixes = b["name"].split("/")[1]
        step_rows[prefixes] = {
            "step_ms": round(to_ms(b), 3),
            "flows_per_step": round(b.get("flows_per_step", 0)),
            "flows_per_sec": round(b.get("items_per_second", 0)),
        }
    elif b["name"].startswith("BM_QueueDropAccuracy/"):
        err = b.get("drop_model_abs_error")
        if err is not None:
            max_drop_error = err if max_drop_error is None else max(
                max_drop_error, err)
    elif b["name"] == "BM_FlowHashPick":
        dp_target["hash_pick_per_sec"] = round(b.get("items_per_second", 0))
dataplane["step_pipeline"] = step_rows
if step_rows:
    best = max(row["flows_per_sec"] for row in step_rows.values())
    dp_target["best_flows_per_sec"] = best
    # Regression gate operates on time: the 10k-prefix row's step ms.
    if "10000" in step_rows:
        dp_target["step_ms_10k"] = step_rows["10000"]["step_ms"]
if max_drop_error is not None:
    dp_target["drop_model_max_abs_error"] = max_drop_error
if "best_flows_per_sec" in dp_target and max_drop_error is not None:
    dp_target["met"] = (
        dp_target["best_flows_per_sec"] >= dp_target["target_flows_per_sec"]
        and max_drop_error <= dp_target["target_drop_abs_error"])
dataplane["dataplane_target"] = dp_target
dataplane["profile"] = profile
with open("BENCH_dataplane.json", "w") as f:
    json.dump(dataplane, f, indent=2)
    f.write("\n")
print("BENCH_dataplane.json written:", dp_target)

with open("BENCH_alloc.json", "w") as f:
    json.dump(merged, f, indent=2)
    f.write("\n")
print("BENCH_alloc.json written; warm-cycle speedups:", speedups)
print("alloc scaling (prefixes -> ms):",
      {p: row["warm_cycle_ms"] for p, row in scaling.items()})
if "met" in target:
    print("full-table target (1M x 3 routes <= 2000 ms):",
          "MET" if target["met"] else "MISSED",
          f"best={target.get('best_warm_cycle_ms')} ms")
if "met" in steady:
    print("steady-state target (1M x 1% churn, >=50x and <= 10 ms):",
          "MET" if steady["met"] else "MISSED",
          f"full={steady.get('full_ms')} ms",
          f"incremental={steady.get('incremental_ms')} ms",
          f"speedup={steady.get('speedup')}x")

if profile == "nightly":
    # Nightly rewrites the alloc + dataplane records in full, and
    # refreshes only the audit_overhead_target in the BGP record so the
    # >25% regression gate compares fresh audit numbers; the bench_m15
    # codec/announce rows stay as committed (they don't run nightly).
    with open(os.path.join(tmpdir, "bench_m18.json")) as f:
        m18_report = json.load(f)
    require_release("bench_m18", m18_report)
    try:
        with open("BENCH_bgp.json") as f:
            bgp = json.load(f)
    except (OSError, json.JSONDecodeError):
        bgp = {"context": m18_report.get("context", {}), "benchmarks": []}
    bgp["audit_overhead_target"] = audit_target_from(m18_report)
    bgp["profile"] = profile
    with open("BENCH_bgp.json", "w") as f:
        json.dump(bgp, f, indent=2)
        f.write("\n")
    print("BENCH_bgp.json audit_overhead_target refreshed:",
          bgp["audit_overhead_target"])
    raise SystemExit(0)

# Ingest record: decode throughput in MB/s + msgs/s, cycle latency in us.
with open(os.path.join(tmpdir, "bench_m14.json")) as f:
    report = json.load(f)
ingest = {"context": report.get("context", {}),
          "benchmarks": report.get("benchmarks", [])}
summary = {}
for b in ingest["benchmarks"]:
    if b.get("run_type", "iteration") != "iteration":
        continue
    entry = {}
    if "bytes_per_second" in b:
        entry["MB_per_s"] = round(b["bytes_per_second"] / 1e6, 1)
    if "items_per_second" in b:
        entry["items_per_s"] = round(b["items_per_second"], 0)
    if b["name"].startswith("BM_LoopbackCycle"):
        entry["cycle_latency_us"] = round(
            b["real_time"] * {"ns": 1e-3, "us": 1.0, "ms": 1e3}.get(
                b.get("time_unit", "ns"), 1e-3), 1)
    summary[b["name"]] = entry
ingest["summary"] = summary
with open("BENCH_ingest.json", "w") as f:
    json.dump(ingest, f, indent=2)
    f.write("\n")
print("BENCH_ingest.json written:", summary)

# BGP record: codec throughput in MB/s + msgs/s, announce latency in
# us, plus the M18 audit/recovery rows and their per-cycle overhead
# acceptance target.
with open(os.path.join(tmpdir, "bench_m15.json")) as f:
    report = json.load(f)
require_release("bench_m15", report)
with open(os.path.join(tmpdir, "bench_m18.json")) as f:
    m18_report = json.load(f)
require_release("bench_m18", m18_report)
bgp = {"context": report.get("context", {}),
       "benchmarks": (report.get("benchmarks", []) +
                      m18_report.get("benchmarks", []))}
summary = {}
for b in bgp["benchmarks"]:
    if b.get("run_type", "iteration") != "iteration":
        continue
    entry = {}
    if "bytes_per_second" in b:
        entry["MB_per_s"] = round(b["bytes_per_second"] / 1e6, 1)
    if "items_per_second" in b:
        entry["items_per_s"] = round(b["items_per_second"], 0)
    if b["name"].startswith("BM_AnnounceApplyLoopback"):
        entry["announce_apply_latency_us"] = round(
            b["real_time"] * {"ns": 1e-3, "us": 1.0, "ms": 1e3}.get(
                b.get("time_unit", "ns"), 1e-3), 1)
    if b["name"].startswith(("BM_AuditPass", "BM_RecoverySnapshot")):
        entry["pass_ms"] = round(to_ms(b), 3)
    summary[b["name"]] = entry
bgp["summary"] = summary
bgp["audit_overhead_target"] = audit_target_from(m18_report)
bgp["profile"] = profile
with open("BENCH_bgp.json", "w") as f:
    json.dump(bgp, f, indent=2)
    f.write("\n")
print("BENCH_bgp.json written:", summary)
print("audit overhead target (1M-prefix pass <= 5% of 2000 ms warm",
      "cycle):", bgp["audit_overhead_target"])
EOF
