#!/usr/bin/env bash
# Paired benchmark comparison of a parent commit against the working tree,
# by the choosing-metrics rule: alternating parent/change pairs of one
# workload, then per end-to-end metric each side's median and quartiles,
# the pair wins, and the verdict — a gain only when, over at least 10
# pairs, the change wins at least 9/10 of them (ties count for neither
# side) and the medians differ by more than the parent's own
# inter-quartile range (a pass of fewer pairs shows no gain); a regression
# when the change's median is worse than the parent's by more than the
# bound BENCHMARK.json fixes. Under the table it prints each side's total
# attempted and failed operations and flags a higher failed share on the
# change side.
#
# Usage: scripts/bench_pair.sh <parent-ref> <workload> [pairs=10] [seconds=15]
#
# Every pass also appends one JSON line per end-to-end metric to
# BENCH_TRAJECTORY.jsonl at the repository root: the checked-in record of
# paired runs (schema checked by trajectory_test.go). A row names the
# parent commit, the commit the change was measured on (HEAD) with a dirty
# flag (Go sources or go.mod differ from HEAD, i.e. the measured change is
# uncommitted), the workload, the pairs and seconds per run, the host's CPU
# count, each side's quartiles, the change's pair wins and the verdict.
#
# The parent is exported with `git archive` into a temporary directory (no
# worktree is registered in .git) and both sides are built once, the same
# way: `-trimpath -buildvcs=false`, so neither binary embeds its checkout
# path or a VCS stamp and one source tree builds byte-identical binaries.
# Each pair runs `bench --workload W --seed <pair index> --seconds 15
# --trace 0` on both builds, and which side goes first alternates from
# pair to pair.
#
# A/A control: pass HEAD as the parent on a clean tree. Both sides then
# run the same code, and the table shows how far the workload's metrics
# swing between sides with no change at all. On stencil-link (10 pairs,
# 2 CPUs) the gain rule did not fire: the best metric won 6/10 pairs and
# every median gap stayed below 40 % of the parent's IQR (fwd_overhead_pct
# 11.89 -> 11.96 %, IQR 0.70). With no change a metric still wins >= 9/10
# pairs with probability 11/1024, about 4 % per batch over the four
# metrics, and one batch whose code change the workload never executes did
# read "gain" on fwd_overhead_pct. So claim a stencil-link gain on 20 pairs
# (>= 18/20 wins; 211/2^20, about 0.02 % per metric by chance), not 10.
set -euo pipefail

if [ $# -lt 2 ]; then
  sed -n '2,32p' "$0" >&2
  exit 2
fi
PARENT=$1
WORKLOAD=$2
PAIRS=${3:-10}
SECONDS_PER_RUN=${4:-15}

cd "$(dirname "$0")/.."
ROOT=$PWD
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
TRAJECTORY=$ROOT/BENCH_TRAJECTORY.jsonl
PARENT_SHA=$(git rev-parse "$PARENT^{commit}")
CHANGE_SHA=$(git rev-parse HEAD)
DIRTY=false
[ -z "$(git status --porcelain -- '*.go' go.mod)" ] || DIRTY=true
NOW=$(date -u +%Y-%m-%dT%H:%M:%SZ)
CPUS=$(getconf _NPROCESSORS_ONLN)

mkdir "$TMP/parent"
git archive "$PARENT" | tar -x -C "$TMP/parent"
(cd "$TMP/parent" && go build -trimpath -buildvcs=false -o "$TMP/bench-parent" ./bench)
go build -trimpath -buildvcs=false -o "$TMP/bench-change" ./bench

# run <side> <dir> <seed>: one pass; writes "<metric> <value>" lines to
# $TMP/<side>.<seed>, reports the pass's failed-operation count (and keeps
# it in $TMP/<side>.ops), and stops on a pass whose correctness checks did
# not hold.
run() {
  local side=$1 dir=$2 seed=$3 line
  line=$(cd "$dir" && "$TMP/bench-$side" --workload "$WORKLOAD" --seed "$seed" --seconds "$SECONDS_PER_RUN" --trace 0 2>"$TMP/log" | tail -n 1) ||
    { cat "$TMP/log" >&2; exit 1; }
  case $line in
  *'"correct":true'*) ;;
  *) cat "$TMP/log" >&2; echo "bench_pair: $side seed $seed: incorrect pass: $line" >&2; exit 1 ;;
  esac
  echo "$line" | grep -o '"attempted":[0-9]*,"failed":[0-9]*' | sed "s/^/$side seed $seed: /" | tee -a "$TMP/$side.ops" >&2
  echo "$line" | grep -o '"[a-z0-9_.]*":{"value":[-+0-9.eE]*' |
    sed 's/"\([^"]*\)":{"value":/\1 /' >"$TMP/$side.$seed"
}

for i in $(seq 1 "$PAIRS"); do
  if [ $((i % 2)) -eq 1 ]; then
    run parent "$TMP/parent" "$i"
    run change "$ROOT" "$i"
  else
    run change "$ROOT" "$i"
    run parent "$TMP/parent" "$i"
  fi
done

# The end-to-end metric names, directions and bounds come from the contract.
awk '/"end_to_end"/{on=1} on&&/"name"/{gsub(/[",]/,"");n=$2} on&&/"better"/{gsub(/[",]/,"");b=$2}
     on&&/"bound"/{gsub(/[",]/,"");print n, b, $2} on&&/\]/{exit}' BENCHMARK.json >"$TMP/metrics"

printf '%s: %d pairs vs %s (seeds 1..%d, %ss per run)\n' "$WORKLOAD" "$PAIRS" "$PARENT" "$PAIRS" "$SECONDS_PER_RUN"
printf '%-22s %-32s %-32s %-7s %s\n' metric 'parent q1/median/q3' 'change q1/median/q3' wins verdict
while read -r name better bound; do
  for side in parent change; do
    for i in $(seq 1 "$PAIRS"); do
      awk -v m="$name" '$1==m{print $2}' "$TMP/$side.$i"
    done >"$TMP/$side.col"
  done
  paste "$TMP/parent.col" "$TMP/change.col" | awk -v name="$name" -v better="$better" -v bound="$bound" \
    -v rows="$TMP/rows" -v parent="$PARENT_SHA" -v change="$CHANGE_SHA" -v dirty="$DIRTY" \
    -v workload="$WORKLOAD" -v seconds="$SECONDS_PER_RUN" -v now="$NOW" -v cpus="$CPUS" '
    # Quantile by linear interpolation over the sorted sample.
    function q(a, n, p,   h, lo) { h = (n - 1) * p + 1; lo = int(h); return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo + 1] - a[lo]) }
    function sorted(src, dst, n,   i, j, t) { for (i = 1; i <= n; i++) dst[i] = src[i]
      for (i = 2; i <= n; i++) { t = dst[i]; for (j = i - 1; j >= 1 && dst[j] > t; j--) dst[j + 1] = dst[j]; dst[j + 1] = t } }
    { n++; p[n] = $1; c[n] = $2
      d = (better == "lower") ? $1 - $2 : $2 - $1   # > 0: the change wins this pair
      if (d > 0) wins++ }
    END {
      sorted(p, ps, n); sorted(c, cs, n)
      pm = q(ps, n, 0.5); cm = q(cs, n, 0.5); iqr = q(ps, n, 0.75) - q(ps, n, 0.25)
      gap = (better == "lower") ? pm - cm : cm - pm   # > 0: the change is better
      verdict = "no change shown"; v = "none"
      if (n >= 10 && wins >= 0.9 * n && gap > iqr) { verdict = "gain"; v = "gain" }
      else if (pm != 0 && -gap / (pm < 0 ? -pm : pm) > bound) { verdict = "REGRESSION beyond bound " bound; v = "regression" }
      printf "%-22s %-32s %-32s %-7s %s (median gap %.4g, parent IQR %.4g)\n", name,
        sprintf("%.4g/%.4g/%.4g", q(ps, n, 0.25), pm, q(ps, n, 0.75)),
        sprintf("%.4g/%.4g/%.4g", q(cs, n, 0.25), cm, q(cs, n, 0.75)),
        wins + 0 "/" n, verdict, gap, iqr
      printf "{\"date\":\"%s\",\"parent\":\"%s\",\"change\":\"%s\",\"dirty\":%s,\"workload\":\"%s\",\"pairs\":%d,\"seconds\":%d,\"cpus\":%d,", now, parent, change, dirty, workload, n, seconds, cpus >> rows
      printf "\"metric\":\"%s\",\"better\":\"%s\",\"bound\":%.6g,\"parent_q\":[%.6g,%.6g,%.6g],\"change_q\":[%.6g,%.6g,%.6g],\"wins\":%d,\"verdict\":\"%s\"}\n",
        name, better, bound, q(ps, n, 0.25), pm, q(ps, n, 0.75), q(cs, n, 0.25), cm, q(cs, n, 0.75), wins, v >> rows
    }'
done <"$TMP/metrics"
cat "$TMP/rows" >>"$TRAJECTORY"
echo "bench_pair: appended $(wc -l <"$TMP/rows") rows to $TRAJECTORY" >&2

# Failed operations are gated too: a larger failed share on the change side
# rejects it whatever the metrics say.
for side in parent change; do
  sed 's/.*"attempted":\([0-9]*\),"failed":\([0-9]*\)/\1 \2/' "$TMP/$side.ops" |
    awk '{a += $1; f += $2} END {print a + 0, f + 0}'
done | paste - - | awk '{
  ps = $1 ? $2 / $1 : 0; cs = $3 ? $4 / $3 : 0
  printf "operations: parent %d attempted, %d failed (%.4g%%); change %d attempted, %d failed (%.4g%%)%s\n",
    $1, $2, 100 * ps, $3, $4, 100 * cs, (cs > ps ? " -- HIGHER FAILED SHARE ON THE CHANGE SIDE" : "")
}'
