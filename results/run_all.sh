#!/bin/bash
# Runs every experiment binary sequentially, teeing into results/.
set -u
cd "$(dirname "$0")/.."
BIN=target/release
for exp in table1_stats fig8_sensitivity fig9_ablation fig10_attention fig11_halting fig12_concurrency fig3_6_performance fig7_hm; do
  echo "=== $exp starting $(date +%T) ==="
  $BIN/$exp > results/$exp.txt 2>results/$exp.err
  echo "=== $exp done $(date +%T) (exit $?) ==="
done
echo ALL_EXPERIMENTS_DONE
