#!/usr/bin/env bash
# Bit-rot check: the ledger's unit tests, then every workload and its
# trace for 2 s. Exits non-zero on the first failure.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
cargo test --release --quiet --offline --manifest-path "$here/Cargo.toml"
cargo build --release --quiet --offline --manifest-path "$here/Cargo.toml"
ledger="${CARGO_TARGET_DIR:-$here/target}/release/ledger"
for workload in verify_cold reverify_warm fleet_roundtrip packet_conform; do
  for trace in 0 1; do
    echo "== $workload --trace $trace"
    "$ledger" --workload "$workload" --seed 1 --seconds 2 --trace "$trace" | tail -n 1 \
      | grep -q '"correct": true, ' || { echo "FAILED: $workload --trace $trace"; exit 1; }
  done
done
echo "smoke: ok"
