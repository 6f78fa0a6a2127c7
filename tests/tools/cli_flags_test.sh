#!/bin/sh
# Flag hygiene of efd and every eftool subcommand.
#
#   cli_flags_test.sh EFD EFTOOL
#
# Each command must exit 2 with usage on a flag it never read (a removed
# knob such as --threads, or a typo such as --incremnetal) before doing
# any work, and exit 2 on a boolean flag given a value (--dataplane=0
# must not read as on). The daemons must still start, and stop cleanly
# on SIGTERM, when given a full set of valid flags, and must say that
# they armed --incremental. Every daemon binds ephemeral loopback ports
# only.
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
  # Emptied here, not only by the redirect below: the background job may
  # not have truncated it yet when the poll loop first reads it.
  : >"$tmp/out"
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

# A daemon that starts must also have armed the delta engine.
expect_incremental() {
  expect_starts "$@"
  if ! grep -q "incremental allocation on" "$tmp/out"; then
    echo "FAIL: '$*' did not arm --incremental:"
    cat "$tmp/out"
    fail=1
  fi
}

expect_no_value() {
  timeout 30 "$@" >"$tmp/out" 2>&1
  rc=$?
  if [ "$rc" -ne 2 ] || ! grep -q "takes no value" "$tmp/out"; then
    echo "FAIL: '$*' exited $rc; want 2 with 'takes no value':"
    cat "$tmp/out"
    fail=1
  fi
}

expect_bad_value() {
  timeout 30 "$@" >"$tmp/out" 2>&1
  rc=$?
  if [ "$rc" -ne 2 ] || ! grep -q "invalid numeric value" "$tmp/out"; then
    echo "FAIL: '$*' exited $rc; want 2 with 'invalid numeric value':"
    cat "$tmp/out"
    fail=1
  fi
}

expect_unknown_flag "$efd" --threads 2
expect_unknown_flag "$efd" --decode-threads 2
expect_unknown_flag "$efd" --incremnetal
expect_unknown_flag "$efd" --bmp 0 --sflow 0 --http 0 --incremental --bogus=1
expect_unknown_flag "$eftool" serve --threads 2
expect_unknown_flag "$eftool" serve --decode-threads 2
expect_unknown_flag "$eftool" serve --bmp 0 --incremnetal
expect_unknown_flag "$eftool" world --sede 7
expect_unknown_flag "$eftool" interfaces --pop 0 --drained
expect_unknown_flag "$eftool" rib --pop 0 --limt 3
expect_unknown_flag "$eftool" cycle --pop 1 --huor 6
expect_unknown_flag "$eftool" run --pop 0 --hours 1 --flap 1
expect_unknown_flag "$eftool" fleet --hours 1 --thread 2
expect_unknown_flag "$eftool" mrt --pop 0 --out "$tmp/x.mrt" --format v2
expect_unknown_flag "$eftool" record --pop 0 --hour 1 --out "$tmp/x.efj"
expect_unknown_flag "$eftool" record --fleet --pop 0 --out "$tmp/x.efj"
expect_unknown_flag "$eftool" replay "$tmp/x.efj" --verbos
expect_unknown_flag "$eftool" whatif "$tmp/x.efj" --drain 2 --factr 0.5
expect_unknown_flag "$eftool" pr --prot 10179
expect_unknown_flag "$eftool" announce --ports 10179 --cont 3
expect_unknown_flag "$eftool" feed "$tmp/x.efj" --bmp 1 --limt 3
expect_unknown_flag "$eftool" chaos --fault-sed 7

# Boolean flags take no value: neither the old --incremental=FRAC
# ceiling nor an "off" spelling such as --dataplane=0 or --inject 0.
expect_no_value "$efd" --incremental=0.5
expect_no_value "$efd" --dataplane=0
expect_no_value "$efd" --inject 0
expect_no_value "$eftool" serve --incremental=0.5
expect_no_value "$eftool" serve --dataplane=0
expect_no_value "$eftool" serve --inject 0
expect_no_value "$eftool" replay --verbose "$tmp/x.efj"
expect_no_value "$eftool" chaos --verify=1
expect_bad_value "$efd" --dp-queue-ms=-1

expect_incremental "$efd" --clients 56 --pops 4 --seed 7 --pop 0 \
  --bmp 0 --sflow 0 --http 0 --cycle-secs 30 --sample-rate 10 \
  --incremental --dataplane --dp-queue-ms 20 \
  --dp-slots 8 --dp-elephant-frac 0.1 --audit --audit-interval 2 \
  --audit-max-repairs 8 --recovery-file "$tmp/efd.efc"
expect_incremental "$eftool" serve --clients 56 --pops 4 --seed 7 --pop 0 \
  --bmp 0 --sflow 0 --http 0 --cycle-secs 30 --sample-rate 10 \
  --incremental --failsafe --max-demand-age 60 \
  --hold-ttl 60 --max-churn-frac 0.2 --journal "$tmp/serve.efj" \
  --announce-hold-secs 30 --audit --recovery-file "$tmp/serve.efc" \
  --bgp-faults drop=0.1 --dataplane --dp-wcmp 2

exit "$fail"
