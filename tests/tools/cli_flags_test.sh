#!/bin/sh
# Flag hygiene of the two daemon command lines.
#
#   cli_flags_test.sh EFD EFTOOL
#
# efd and `eftool serve` must exit 2 with usage on a flag they never read
# (a removed knob such as --threads, or a typo such as --incremnetal),
# and must still start, and stop cleanly on SIGTERM, when given a full
# set of valid flags. Every daemon binds ephemeral loopback ports only.
set -u
efd=$1
eftool=$2
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
fail=0

expect_unknown_flag() {
  timeout 30 "$@" >"$tmp/out" 2>&1
  rc=$?
  if [ "$rc" -ne 2 ] || ! grep -q "unknown flag" "$tmp/out" ||
     ! grep -q "usage:" "$tmp/out"; then
    echo "FAIL: '$*' exited $rc; want 2 with 'unknown flag' and usage:"
    cat "$tmp/out"
    fail=1
  fi
}

expect_starts() {
  "$@" >"$tmp/out" 2>&1 &
  pid=$!
  tries=0
  until grep -q "bmp 127.0.0.1" "$tmp/out"; do
    tries=$((tries + 1))
    if [ "$tries" -gt 300 ] || ! kill -0 "$pid" 2>/dev/null; then
      echo "FAIL: '$*' did not start:"
      cat "$tmp/out"
      kill -KILL "$pid" 2>/dev/null
      wait "$pid" 2>/dev/null
      fail=1
      return
    fi
    sleep 0.1
  done
  kill -TERM "$pid"
  wait "$pid"
  rc=$?
  if [ "$rc" -ne 0 ]; then
    echo "FAIL: '$*' exited $rc after SIGTERM; want 0:"
    cat "$tmp/out"
    fail=1
  fi
}

expect_unknown_flag "$efd" --threads 2
expect_unknown_flag "$efd" --incremnetal
expect_unknown_flag "$efd" --bmp 0 --sflow 0 --http 0 --incremental --bogus=1
expect_unknown_flag "$eftool" serve --threads 2
expect_unknown_flag "$eftool" serve --bmp 0 --incremnetal

expect_starts "$efd" --clients 56 --pops 4 --seed 7 --pop 0 \
  --bmp 0 --sflow 0 --http 0 --cycle-secs 30 --sample-rate 10 \
  --decode-threads 2 --incremental=0.5 --dataplane --dp-queue-ms 20 \
  --dp-slots 8 --dp-elephant-frac 0.1 --audit --audit-interval 2 \
  --audit-max-repairs 8 --recovery-file "$tmp/efd.efc"
expect_starts "$eftool" serve --clients 56 --pops 4 --seed 7 --pop 0 \
  --bmp 0 --sflow 0 --http 0 --cycle-secs 30 --sample-rate 10 \
  --decode-threads 2 --incremental --failsafe --max-demand-age 60 \
  --hold-ttl 60 --max-churn-frac 0.2 --journal "$tmp/serve.efj" \
  --announce-hold-secs 30 --audit --recovery-file "$tmp/serve.efc" \
  --bgp-faults drop=0.1 --dataplane --dp-wcmp 2

exit "$fail"
