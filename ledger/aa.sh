#!/usr/bin/env bash
# The A/A check: two sets of runs of the same commit, back to back, must
# agree within the bounds (README, "Is the ledger itself steady?").
#
#   ledger/aa.sh [RUNS_PER_SET] [OUT_DIR]
#
# Every run of a set uses another seed, as the benchmark driver does.
# Exits 1 if `compare` reports a `worse` row or any op failed.
set -euo pipefail
runs="${1:-5}"
here="$(cd "$(dirname "$0")" && pwd)"
out="${2:-$here/target/aa}"
mkdir -p "$out"
rm -f "$out/A.jsonl" "$out/B.jsonl"

cargo build --release --quiet --offline --manifest-path "$here/Cargo.toml"
ledger="${CARGO_TARGET_DIR:-$here/target}/release/ledger"

for set in A B; do
  for seed in $(seq 1 "$runs"); do
    for workload in verify_cold reverify_warm fleet_roundtrip packet_conform; do
      echo "== set $set, seed $seed, $workload"
      "$ledger" --workload "$workload" --seed "$seed" --trace 0 --record "$out/$set.jsonl" \
        | grep -E "^  (attempted|corrected|wall|raw|setup_s|ref\.)"
    done
  done
done
"$ledger" compare "$out/A.jsonl" "$out/B.jsonl"
