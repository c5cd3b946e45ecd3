#!/usr/bin/env bash
# Chaos golden check: run the three fixed-seed campaigns and compare the
# sha256 of each JSON report against examples/chaos_campaign/GOLDEN.sha256.
# The reports are a pure function of (campaign, seeds) — same seeds, same
# bytes, run to run and across a refactor — so a mismatch means a change
# altered which faults fire, which ladder rung a recovery lands on, or what
# the oracle observed. A PR that means to change that regenerates the file
# with -update and the diff shows in review.
#
# Usage: scripts/chaos_golden.sh [-update]
set -euo pipefail

cd "$(dirname "$0")/.."
GOLDEN=examples/chaos_campaign/GOLDEN.sha256
OUT="$(mktemp -d)"
trap 'rm -rf "$OUT"' EXIT

go build -o "$OUT/acrsoak" ./cmd/acrsoak

"$OUT/acrsoak" -seeds 5 -quiet -json "$OUT/default.json"
"$OUT/acrsoak" -campaign examples/chaos_campaign/recovery_storm.json -seeds 5 -quiet -json "$OUT/recovery_storm.json"
"$OUT/acrsoak" -campaign examples/chaos_campaign/remote_dark.json -seeds 10 -quiet -json "$OUT/remote_dark.json"

(cd "$OUT" && sha256sum default.json recovery_storm.json remote_dark.json) >"$OUT/sums"

if [ "${1:-}" = "-update" ]; then
  cp "$OUT/sums" "$GOLDEN"
  echo "chaos-golden: wrote $GOLDEN"
  exit 0
fi
if ! diff -u "$GOLDEN" "$OUT/sums"; then
  echo "chaos-golden: campaign reports differ from $GOLDEN (rerun with -update if the change is intended)" >&2
  exit 1
fi
echo "chaos-golden: 3 campaign reports match $GOLDEN"
