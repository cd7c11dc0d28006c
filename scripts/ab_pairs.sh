#!/usr/bin/env bash
# Paired A/B timing of one szbench workload: a git revision against the
# working tree.
#
#   scripts/ab_pairs.sh REV WORKLOAD N [SEED]
#
# REV is exported with `git archive` into a temporary directory (under
# $TMPDIR) and both sides build szbench from their own source. Then N
# pairs of `szbench/run.sh --workload WORKLOAD --seed SEED --trace 0`
# run back to back, one on each side, each for BENCHMARK.json's
# run_seconds. Odd pairs start with REV, even pairs with the working
# tree, so a drift in the machine's speed does not favour one side.
# SEED defaults to 1.
#
# Prints every run's end-to-end metrics, then each side's median and
# quartiles per metric, then how many pairs the working tree won on
# verdict_s (lower is better). Exits 1 when any run failed its checks.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 3 ] || [ $# -gt 4 ]; then
  echo "usage: $0 REV WORKLOAD N [SEED]" >&2
  exit 2
fi
rev=$1
workload=$2
pairs=$3
seed=${4:-1}
seconds=$(sed -n 's/.*"run_seconds": *\([0-9.]*\).*/\1/p' BENCHMARK.json)
metrics="verdict_s run_ms_p50 run_ms_tail runs_per_s sim_mcycles_per_s setup_s max_rss_mb"

base=$(mktemp -d "${TMPDIR:-/tmp}/ab_pairs.XXXXXX")
trap 'rm -rf "$base"' EXIT
mkdir "$base/src"
git archive "$rev" | tar -x -C "$base/src"
here=$(pwd)

build() {
  (cd "$1" && DUNE_CACHE=disabled dune build --root . szbench/main.exe bin/szcd.exe)
}
echo "building $rev in $base/src and the working tree in $here" >&2
build "$base/src"
build "$here"

# One run on one side: its metrics appended to $base/<side>.tsv as
# "pair <each of $metrics> exit".
failed=0
run_side() {
  local side=$1 dir=$2 pair=$3 out code=0
  out=$(cd "$dir" && bash szbench/run.sh --workload "$workload" --seed "$seed" \
    --seconds "$seconds" --trace 0 2>/dev/null | tail -n 1) || code=$?
  [ "$code" -eq 0 ] || failed=1
  local row="$pair" shown="" m v
  for m in $metrics; do
    v=$(printf '%s\n' "$out" | sed -n "s/.*\"$m\": {\"value\": \([^,}]*\).*/\1/p")
    row="$row ${v:-nan}"
    shown="$shown $m=$(printf '%.6g' "${v:-nan}")"
  done
  echo "$row $code" >>"$base/$side.tsv"
  printf '%-6s pair %2d %s exit %d\n' "$side" "$pair" "$shown" "$code"
}

for ((i = 1; i <= pairs; i++)); do
  if [ $((i % 2)) -eq 1 ]; then
    run_side base "$base/src" "$i"
    run_side change "$here" "$i"
  else
    run_side change "$here" "$i"
    run_side base "$base/src" "$i"
  fi
done

# Median and quartiles (linear interpolation) of column $2 of file $1.
quartiles() {
  awk -v c="$2" '{print $c}' "$1" | sort -g | awk '
    { x[NR] = $1 }
    function q(p,   h, lo) { h = (NR - 1) * p + 1; lo = int(h); return x[lo] + (h - lo) * (x[lo + 1] - x[lo]) }
    END { x[NR + 1] = x[NR]; printf "median %.6g  q1 %.6g  q3 %.6g", q(0.5), q(0.25), q(0.75) }'
}

echo
echo "workload=$workload seed=$seed seconds=$seconds pairs=$pairs base=$rev change=working tree"
col=2
for m in $metrics; do
  printf '%-18s base:   %s\n' "$m" "$(quartiles "$base/base.tsv" "$col")"
  printf '%-18s change: %s\n' "" "$(quartiles "$base/change.tsv" "$col")"
  col=$((col + 1))
done
# Both files hold one line per pair, in pair order: after paste, $2 is
# the base side's verdict_s and $(2 + width) the working tree's.
width=$(awk '{ print NF; exit }' "$base/base.tsv")
wins=$(paste -d ' ' "$base/base.tsv" "$base/change.tsv" |
  awk -v w="$width" '$(2 + w) < $2 { n++ } END { print n + 0 }')
echo "change won $wins of $pairs pairs on verdict_s"
exit "$failed"
