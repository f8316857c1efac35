#!/usr/bin/env bash
# CI bench harness: run the planner bench suite and gate the fresh
# calibrated medians against the committed BENCH_PR14.json.
#
# Usage: scripts/bench_ci.sh
#
# The bench run rewrites BENCH_PR14.json in place, so the committed copy
# (the authoritative baseline) is stashed first and the fresh numbers are
# gated against it: the committed numbers must be reproducible on the CI
# machine, within 25% per group after calibration. This is the only gate
# for now: BENCH_PR10.json predates the calibration record, so there is
# no earlier calibrated baseline to hold a continuity gate against.

set -euo pipefail

cur="BENCH_PR14.json"
stash=$(mktemp -t bench_baseline_XXXXXX.json)
gate=$(mktemp -t bench_compare_XXXXXX)

# The gated groups. Each must be in both reports, so a renamed or
# dropped benchmark cannot silently leave the comparison; the other
# groups are reported but not gated. Only groups whose calibrated median
# varied by less than 8% across repeated runs are required — BENCHMARKS.md
# lists the excluded ones with their measured spread.
require=(
  --require join_unindexed_hash_10k
  --require join_partitioned_budget_10k
  --require mvcc_visibility_scan_10k
)

cp "$cur" "$stash"
cargo bench -p cat-bench --bench planner

rustc --edition 2021 -O scripts/bench_compare.rs -o "$gate"
"$gate" "${require[@]}" "$stash" "$cur"
