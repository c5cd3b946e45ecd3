#!/usr/bin/env bash
# acrd crash-restart smoke: submit seeded jobs to a live daemon, SIGKILL it
# mid-run, restart with -resume, and require (a) at least one durable epoch
# salvaged, (b) every job driven to completion bit-identical to the golden
# serial ring, (c) a journal of exactly one submit and one done record per
# job once the daemon has shut down. Artifacts (loadgen reports, resume
# audit) land in $OUT_DIR.
#
# Usage: scripts/acrd_smoke.sh [out_dir]
set -euo pipefail

OUT_DIR="${1:-acrd-smoke-out}"
ADDR="127.0.0.1:7949"
BASE="http://$ADDR"
DATA="$OUT_DIR/data"
mkdir -p "$OUT_DIR" "$DATA"

go build -o "$OUT_DIR/acrd" ./cmd/acrd
go build -o "$OUT_DIR/acrload" ./cmd/acrload

wait_healthy() {
  for _ in $(seq 1 100); do
    if curl -fsS "$BASE/healthz" >/dev/null 2>&1; then return 0; fi
    sleep 0.1
  done
  echo "acrd-smoke: daemon never became healthy" >&2
  return 1
}

echo "== life 1: start daemon, submit seeded jobs, wait for durability =="
"$OUT_DIR/acrd" -addr "$ADDR" -data "$DATA" -nodes 32 -spares 2 \
  2>"$OUT_DIR/acrd-life1.log" &
ACRD_PID=$!
trap 'kill -9 $ACRD_PID 2>/dev/null || true' EXIT
wait_healthy

# Long jobs (they must still be running when the daemon dies) that have
# provably flushed at least one durable epoch each before we return.
"$OUT_DIR/acrload" -addr "$BASE" -jobs 4 -seed 1 \
  -iters-min 2000000 -iters-max 3000000 -flush-every 1 \
  -submit-only -out "$OUT_DIR/loadgen-submit.json"

echo "== kill -9 mid-run =="
kill -9 "$ACRD_PID"
wait "$ACRD_PID" 2>/dev/null || true

echo "== life 2: resume, audit, drive jobs home =="
"$OUT_DIR/acrd" -addr "$ADDR" -data "$DATA" -nodes 32 -spares 2 -resume \
  2>"$OUT_DIR/acrd-life2.log" &
ACRD_PID=$!
wait_healthy

curl -fsS "$BASE/api/v1/resume" | tee "$OUT_DIR/resume-report.json"
python3 - "$OUT_DIR/resume-report.json" <<'EOF'
import json, sys
rep = json.load(open(sys.argv[1]))
assert rep["resumed"], "daemon did not resume"
assert rep["readmitted"] == 4, f"readmitted {rep['readmitted']} of 4 jobs"
assert rep["salvaged_epochs"] >= 4, f"salvaged only {rep['salvaged_epochs']} epochs"
for j in rep["jobs"]:
    assert j["state"] == "readmitted", f"job {j['id']} state {j['state']}"
    assert j["salvaged_epochs"], f"job {j['id']} salvaged nothing"
print(f"resume audit ok: {rep['readmitted']} jobs readmitted, "
      f"{rep['salvaged_epochs']} epochs salvaged, {rep['skipped_epochs']} skipped")
EOF

# Adopt the resumed jobs, wait for completion, verify bit-identical
# against the golden serial ring.
"$OUT_DIR/acrload" -addr "$BASE" -wait-existing -verify -timeout 10m \
  -out "$OUT_DIR/loadgen-verify.json"
python3 - "$OUT_DIR/loadgen-verify.json" <<'EOF'
import json, sys
rep = json.load(open(sys.argv[1]))
assert rep["completed"] == 4 and rep["failed"] == 0, rep
assert rep["verified"] == 4 and rep["verify_failures"] == 0, rep
print(f"golden-ring ok: {rep['verified']} jobs bit-identical after resume")
EOF

# Every resumed job must have warm-started (resumed_epoch > 0).
curl -fsS "$BASE/api/v1/jobs" >"$OUT_DIR/jobs-final.json"
python3 - "$OUT_DIR/jobs-final.json" <<'EOF'
import json, sys
jobs = json.load(open(sys.argv[1]))["jobs"]
for j in jobs:
    re = j["result"]["stats"]["resumed_epoch"]
    assert re > 0, f"job {j['id']} cold-started (resumed_epoch 0)"
print("warm-start ok:", [j["result"]["stats"]["resumed_epoch"] for j in jobs])
EOF

curl -fsS "$BASE/metrics" >"$OUT_DIR/metrics-final.txt"
grep -q "acrd_resume_salvaged_epochs" "$OUT_DIR/metrics-final.txt"

kill "$ACRD_PID"
wait "$ACRD_PID" 2>/dev/null || true
trap - EXIT

# The shutdown has settled every done append: the journal records jobs and
# their outcomes, nothing about checkpoints.
python3 - "$DATA/journal.jsonl" <<'EOF'
import collections, json, sys
kinds = collections.defaultdict(list)
for n, line in enumerate(open(sys.argv[1]), 1):
    r = json.loads(line)
    assert r["kind"] in ("submit", "done"), f"journal line {n}: kind {r['kind']!r}"
    kinds[r["id"]].append(r["kind"])
assert len(kinds) == 4, f"journal names {len(kinds)} jobs, want 4"
for id, ks in kinds.items():
    assert sorted(ks) == ["done", "submit"], f"job {id}: journal records {ks}"
print(f"journal ok: {sum(map(len, kinds.values()))} records, one submit and one done per job")
EOF
echo "acrd-smoke: PASS"
