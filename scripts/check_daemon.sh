#!/bin/sh
# Chaos gauntlet for the campaign daemon, used by CI and runnable
# locally:
#
#   1. run one solo `szc campaign` per tenant as the byte-identity
#      reference (fixed seeds, run faults on);
#   2. start szcd, submit the same three campaigns from three tenants
#      concurrently — run faults AND heavy storage faults armed, so
#      checkpoint writes are being torn/bit-flipped while the pool is
#      shared;
#   3. SIGKILL the daemon mid-flight; the clients keep retrying with
#      backoff;
#   4. restart szcd on the same spool: it fsck-repairs whatever the
#      crash left, resumes every interrupted campaign from its
#      checkpoint (storage faults disarmed, as `--resume` after a
#      crash does), and the waiting clients re-attach and follow each
#      campaign to exit 0;
#   5. every tenant's CSV, checkpoint and ledger must be byte-identical
#      (`cmp`) to its solo reference — including a fourth tenant whose
#      short campaign finished, and appended its ledger entry, before
#      the SIGKILL while storage faults were armed: the restarted
#      daemon must find its damaged final writes and rewrite them;
#   6. SIGTERM the daemon and demand a clean drain (exit 0), then
#      `szc fsck` every tenant's manifest, result, checkpoint, ledger
#      and CSV (exit 0 required).
#
# The ops plane rides along the whole way: the daemon runs with
# --oplog and --ops-export, `szc remote top --once --raw` scrapes a
# stats snapshot mid-gauntlet, the Prometheus textfile is checked to
# parse, and after the SIGKILL the oplog must fsck clean or
# salvageable (`szc fsck --repair` brings it back to exit 0).
#
# Usage: scripts/check_daemon.sh [OUTDIR]  (default: ./daemon-artifacts)
# Exits nonzero on any divergence.
set -eu

outdir=${1:-daemon-artifacts}
mkdir -p "$outdir"

dune build bin/szc.exe bin/szcd.exe
SZC=_build/default/bin/szc.exe
SZCD=_build/default/bin/szcd.exe

sock="$outdir/szcd.sock"
spool="$outdir/spool"
rm -rf "$spool" "$sock"

runs=40
common="bzip2 --runs $runs --scale 0.05 --faults light --quiet"

echo "== solo reference campaigns, one per tenant"
for s in 1 2 3; do
  seed=$((100 + s))
  $SZC campaign $common --seed "$seed" \
    --csv "$outdir/solo-t$s.csv" \
    --checkpoint "$outdir/solo-t$s.ck" \
    --ledger "$outdir/solo-t$s.ledger"
done

# Tenant 4: a short campaign that finishes before the SIGKILL. Storage
# seed 3 damages its final checkpoint, CSV and ledger writes.
t4="bzip2 --runs 6 --scale 0.05 --faults light --quiet --seed 104"
t4_storage="--storage-faults heavy --storage-seed 3"
$SZC campaign $t4 --csv "$outdir/solo-t4.csv" \
  --checkpoint "$outdir/solo-t4.ck" --ledger "$outdir/solo-t4.ledger"

# Sets $dpid. Runs in the current shell (no command substitution), so
# the daemon stays a direct child and `wait $dpid` can collect its
# drain status.
start_daemon() {
  $SZCD --socket "$sock" --spool "$spool" --slots 4 --quantum 2 --verbose \
    --oplog "$outdir/ops.log" --ops-export "$outdir/ops.prom" \
    >>"$outdir/szcd.log" 2>&1 &
  dpid=$!
}

# A failing step exits through `set -e`; take the daemon down with it.
trap 'kill -9 "${dpid:-}" 2>/dev/null || true' EXIT

# Every non-comment line of a Prometheus textfile is
# `name{labels} value` or `name value`; anything else is a parse
# error. Checked with awk so CI needs no scrape client.
check_prometheus() {
  awk '
    /^#/ || /^$/ { next }
    !/^[A-Za-z_][A-Za-z0-9_]*(\{[^}]*\})? -?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?$/ {
      print "bad exposition line: " $0; bad = 1
    }
    END { exit bad }
  ' "$1"
}

echo "== szcd up, three tenants submit concurrently (storage faults armed)"
start_daemon

cpids=""
for s in 1 2 3; do
  seed=$((100 + s))
  $SZC remote submit "t$s" "c$s" $common --seed "$seed" --ledger \
    --storage-faults heavy --storage-seed "$s" \
    --socket "$sock" --deadline 300 --retry-seed "$s" --wait \
    >"$outdir/client-t$s.log" 2>&1 &
  cpids="$cpids $!"
done
$SZC remote submit t4 c4 $t4 --ledger $t4_storage \
  --socket "$sock" --deadline 300 --retry-seed 4 --wait \
  >"$outdir/client-t4.log" 2>&1 &
cpids="$cpids $!"

echo "== waiting for the first checkpoint write, then SIGKILLing szcd"
i=0
while [ -z "$(find "$spool" -name 'checkpoint.ck*' 2>/dev/null | head -1)" ] \
  && [ "$i" -lt 300 ]; do
  sleep 0.1
  i=$((i + 1))
done

echo "== mid-gauntlet ops scrape: szc remote top --once --raw"
$SZC remote top --once --raw --socket "$sock" --deadline 30 \
  >"$outdir/top.raw" 2>&1
grep -q '^hist loop.tick_us count' "$outdir/top.raw"
grep -q '^counter wire.rx.submit ' "$outdir/top.raw"
grep -q '^counter admit.ok ' "$outdir/top.raw"
grep -q '^tenant t1 ' "$outdir/top.raw"
echo "stats snapshot carries tick histogram, wire/admit counters, tenant rows"

# The exporter rewrites the file about once a second; the very first
# write can predate the first tick sample, so wait for a snapshot
# that already carries the histogram.
i=0
until grep -qs '^# TYPE szcd_loop_tick_us summary' "$outdir/ops.prom"; do
  if [ "$i" -ge 100 ]; then
    echo "exporter never published the tick histogram"
    exit 1
  fi
  sleep 0.1
  i=$((i + 1))
done
check_prometheus "$outdir/ops.prom"
echo "exporter textfile parses as Prometheus exposition"

echo "== waiting for t4 to finish under armed storage faults"
i=0
while [ ! -e "$spool/t4/c4/result" ] && [ "$i" -lt 600 ]; do
  sleep 0.1
  i=$((i + 1))
done
if [ ! -e "$spool/t4/c4/result" ]; then
  echo "t4 did not finish before the SIGKILL"
  exit 1
fi

sleep 0.2
if kill -9 "$dpid" 2>/dev/null; then
  echo "SIGKILLed szcd pid $dpid mid-campaign"
else
  echo "WARNING: szcd exited before the kill landed (still checking recovery)"
fi
wait "$dpid" 2>/dev/null || true
# Runners orphaned by the daemon's death exit at their next batch
# boundary; the restarted daemon also SIGKILLs any that linger.

echo "== oplog survives the SIGKILL: fsck clean or salvageable"
code=0
$SZC fsck "$outdir/ops.log" || code=$?
case "$code" in
  0) echo "oplog intact across SIGKILL" ;;
  2)
    echo "oplog torn by SIGKILL; repairing"
    # --repair reports the salvage it performed (exit 2); the re-check
    # must then come back fully clean.
    $SZC fsck --repair "$outdir/ops.log" || [ "$?" -eq 2 ]
    $SZC fsck "$outdir/ops.log"
    echo "oplog repaired to a clean container"
    ;;
  *)
    echo "oplog unrecoverable after SIGKILL (fsck exit $code)"
    exit 1
    ;;
esac

echo "== restarting szcd on the crashed spool; clients retry and re-attach"
start_daemon

fail=0
for cpid in $cpids; do
  code=0
  wait "$cpid" || code=$?
  if [ "$code" -ne 0 ]; then
    echo "client pid $cpid exited $code (wanted 0)"
    fail=1
  fi
done
if [ "$fail" -ne 0 ]; then
  echo "--- client logs ---"
  cat "$outdir"/client-t*.log
  exit 1
fi
echo "all four clients converged to exit 0 across the daemon crash"

# A campaign that finished before the SIGKILL (t4 always, t1-t3 when
# the kill lands late) had its client exit already, and the restart
# may be rewriting its damaged artifacts now. An idempotent resubmit
# with --wait follows each campaign to its final state.
echo "== resubmit every tenant and follow it to its final state"
for s in 1 2 3; do
  $SZC remote submit "t$s" "c$s" $common --seed "$((100 + s))" --ledger \
    --storage-faults heavy --storage-seed "$s" \
    --socket "$sock" --deadline 120 --retry-seed "$s" --wait \
    >"$outdir/client-t$s-restart.log" 2>&1
done
$SZC remote submit t4 c4 $t4 --ledger $t4_storage \
  --socket "$sock" --deadline 120 --retry-seed 4 --wait \
  >"$outdir/client-t4-restart.log" 2>&1

echo "== per-tenant artifacts byte-identical to the solo references"
for s in 1 2 3; do
  dir="$spool/t$s/c$s"
  cmp "$outdir/solo-t$s.csv" "$dir/out.csv"
  echo "t$s csv: byte-identical to solo"
  cmp "$outdir/solo-t$s.ck" "$dir/checkpoint.ck"
  echo "t$s checkpoint: byte-identical to solo"
  cmp "$outdir/solo-t$s.ledger" "$dir/ledger"
  echo "t$s ledger: byte-identical to solo"
done
dir="$spool/t4/c4"
cmp "$outdir/solo-t4.csv" "$dir/out.csv"
cmp "$outdir/solo-t4.ck" "$dir/checkpoint.ck"
cmp "$outdir/solo-t4.ledger" "$dir/ledger"
echo "t4 csv, checkpoint and ledger: byte-identical to solo after the restart"

echo "== SIGTERM drains the daemon to exit 0"
kill -TERM "$dpid"
code=0
wait "$dpid" || code=$?
if [ "$code" -ne 0 ]; then
  echo "szcd drain exited $code (wanted 0)"
  exit 1
fi

echo "== after the drain: oplog and every tenant's spool entry fsck clean, final export parses"
$SZC fsck "$outdir/ops.log"
for s in 1 2 3 4; do
  dir="$spool/t$s/c$s"
  $SZC fsck "$dir/manifest" "$dir/result" "$dir/checkpoint.ck" "$dir/ledger" \
    "$dir/out.csv"
done
grep -q '"ev":"daemon.drained"' "$outdir/ops.log"
check_prometheus "$outdir/ops.prom"

echo "daemon chaos gauntlet: OK"
