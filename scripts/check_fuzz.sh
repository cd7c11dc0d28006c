#!/bin/sh
# Differential-fuzzing acceptance gauntlet, used by CI and runnable
# locally:
#
#   1. smoke: fuzz FUZZ_COUNT programs against the real optimizer and
#      demand a clean exit (0) — any reproducer here is a genuine
#      VM/optimizer bug and fails the job loudly, with the ledger and
#      reproducers left in OUTDIR for the artifact upload;
#   2. determinism: the same seed under --jobs 1 and --jobs 4 must
#      produce a byte-identical fuzz ledger (and reproducer set);
#   3. SIGKILL + --resume: a campaign killed mid-flight and resumed
#      must finish with a ledger byte-identical to an uninterrupted
#      run's;
#   4. planted bug: with the pre-PR-7 shift-clamp miscompile armed
#      (--plant shift-clamp) the oracles must catch it within
#      PLANT_COUNT programs (exit 2), every reproducer must shrink to
#      <= 25 instructions, and each must parse and run via `szc exec`;
#   5. fsck: a bit-flipped ledger is detected and `--repair` salvages
#      the longest valid prefix.
#
# Usage: scripts/check_fuzz.sh [OUTDIR]   (default: ./fuzz-artifacts)
# Knobs: FUZZ_COUNT (default 200), PLANT_COUNT (default 200),
#        FUZZ_SEED (default 1), JOBS (default 4).
# Exits nonzero on any divergence.
set -eu

outdir=${1:-fuzz-artifacts}
FUZZ_COUNT=${FUZZ_COUNT:-200}
PLANT_COUNT=${PLANT_COUNT:-200}
FUZZ_SEED=${FUZZ_SEED:-1}
JOBS=${JOBS:-4}
mkdir -p "$outdir"

dune build bin/szc.exe
SZC=_build/default/bin/szc.exe

echo "== smoke: $FUZZ_COUNT programs against the real optimizer (seed $FUZZ_SEED)"
rm -rf "$outdir/smoke"
code=0
$SZC fuzz --seed "$FUZZ_SEED" --count "$FUZZ_COUNT" --jobs "$JOBS" \
  --out "$outdir/smoke" --quiet || code=$?
if [ "$code" -ne 0 ]; then
  echo "fuzz smoke: exit $code — reproducers (real bugs!) left in $outdir/smoke"
  ls "$outdir/smoke"
  exit 1
fi
echo "fuzz smoke: clean (exit 0)"

echo "== determinism: --jobs 1 vs --jobs $JOBS byte-identical"
rm -rf "$outdir/det1" "$outdir/detN"
$SZC fuzz --seed 42 --count 60 --jobs 1 --out "$outdir/det1" --quiet >/dev/null
$SZC fuzz --seed 42 --count 60 --jobs "$JOBS" --out "$outdir/detN" --quiet >/dev/null
cmp "$outdir/det1/fuzz.log" "$outdir/detN/fuzz.log"
echo "fuzz ledger: byte-identical across worker counts"

echo "== SIGKILL + --resume converges to the identical ledger"
rm -rf "$outdir/kill"
# 1000 cases: long enough (about a second on two cores) for the kill
# below to land mid-campaign.
$SZC fuzz --seed 42 --count 1000 --jobs 2 --out "$outdir/kill" --quiet \
  >/dev/null &
pid=$!
# Let a prefix land (the ledger grows past its meta record), then kill
# mid-campaign. If the campaign wins the race and finishes, --resume
# over a complete ledger must still be a byte-preserving no-op, so the
# cmp below stays meaningful.
i=0
while [ ! -s "$outdir/kill/fuzz.log" ] && [ "$i" -lt 100 ]; do
  sleep 0.1
  i=$((i + 1))
done
meta=$(wc -c <"$outdir/kill/fuzz.log")
i=0
while [ "$(wc -c <"$outdir/kill/fuzz.log")" -le "$meta" ] && [ "$i" -lt 500 ]; do
  sleep 0.02
  i=$((i + 1))
done
if kill -9 "$pid" 2>/dev/null; then
  echo "SIGKILLed pid $pid mid-campaign"
else
  echo "WARNING: campaign finished before the kill landed (still checking resume)"
fi
wait "$pid" 2>/dev/null || true
$SZC fuzz --seed 42 --count 1000 --jobs 2 --out "$outdir/kill" --resume --quiet \
  >/dev/null
rm -rf "$outdir/full"
$SZC fuzz --seed 42 --count 1000 --jobs 2 --out "$outdir/full" --quiet >/dev/null
cmp "$outdir/kill/fuzz.log" "$outdir/full/fuzz.log"
echo "fuzz ledger: byte-identical after SIGKILL + --resume"

echo "== planted shift-clamp is caught and shrunk (<= 25 instructions)"
rm -rf "$outdir/plant"
code=0
$SZC fuzz --seed 7 --count "$PLANT_COUNT" --jobs "$JOBS" --out "$outdir/plant" \
  --plant shift-clamp --quiet >"$outdir/plant.txt" || code=$?
if [ "$code" -ne 2 ]; then
  echo "planted bug not caught in $PLANT_COUNT programs (exit $code, want 2)"
  cat "$outdir/plant.txt"
  exit 1
fi
repros=$(ls "$outdir/plant"/repro-*.szt | wc -l)
echo "planted shift-clamp: caught (exit 2, $repros reproducers)"
for f in "$outdir/plant"/repro-*.szt; do
  n=$(sed -n 's/^# instructions=\([0-9]*\).*/\1/p' "$f")
  if [ -z "$n" ] || [ "$n" -gt 25 ]; then
    echo "$f: reproducer has $n instructions (want <= 25)"
    exit 1
  fi
  $SZC exec "$f" >/dev/null
done
echo "reproducers: all <= 25 instructions, all parse and run via szc exec"

echo "== fsck detects corruption and --repair salvages the prefix"
cp "$outdir/full/fuzz.log" "$outdir/flipped.log"
size=$(wc -c <"$outdir/flipped.log")
# Flip one byte two-thirds of the way in (inside a case record).
off=$((size * 2 / 3))
printf '\377' | dd of="$outdir/flipped.log" bs=1 seek="$off" conv=notrunc \
  2>/dev/null
code=0
$SZC fsck "$outdir/flipped.log" >/dev/null || code=$?
if [ "$code" -ne 2 ]; then
  echo "fsck: corrupt fuzz ledger not flagged salvageable (exit $code, want 2)"
  exit 1
fi
$SZC fsck --repair "$outdir/flipped.log" >/dev/null || true
$SZC fsck "$outdir/flipped.log" >/dev/null
echo "fsck: bit-flip detected, --repair leaves a valid ledger"

echo "fuzz gauntlet: OK"
