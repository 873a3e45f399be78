#!/usr/bin/env bash
# Reproduce the paper's evaluation at (or near) its original parameters.
#
# WARNING: sized for a large multi-socket x86 server (the paper used 4x
# Xeon E7-4870 = 80 hardware threads); expect hours of runtime.  On small
# hosts run the same presets without --paper (laptop scale) instead.
#
# Every table and figure is one preset of the benchmark binary,
# `regress --paper --figure <id>`; the preset table in bench/regress.cpp
# holds its paper-scale sizes.  Each preset prints its table to
# $OUT/<id>.txt and writes $OUT/BENCH_<id>.json.
set -euo pipefail
BUILD=${BUILD:-build}
OUT=${OUT:-paper_scale_results}
mkdir -p "$OUT"

FIGURES="table1 fig1 fig6a fig6b fig7 fig8 fig9 table2 table3 ablations"
# Opt-in batch-amortization sweep (BATCH_SWEEP=1): batched ticket claiming
# across batch sizes and thread counts, at $OUT/BENCH_batch.json for
# tracking the amortization claim over time.
if [ "${BATCH_SWEEP:-0}" = "1" ]; then
  FIGURES="$FIGURES batch"
fi

for id in $FIGURES; do
  echo "=== regress --paper --figure $id ==="
  "$BUILD/bench/regress" --paper --figure "$id" --out-dir "$OUT" | tee -a "$OUT/$id.txt"
done

# The eight canonical regression-gating BENCH_*.json artifacts at paper
# scale in $OUT (listed in bench/regress.cpp's header).  Diff against a
# previous generation with scripts/bench_compare.py to gate perf changes.
echo "=== regress --paper ==="
"$BUILD/bench/regress" --paper --out-dir "$OUT" | tee -a "$OUT/regress.txt"
echo "results in $OUT/"
