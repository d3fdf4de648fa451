#!/usr/bin/env bash
# Two sets of three runs of the same build, then each end-to-end metric's
# spread against its bound (`ledger compare` of the build with itself: every
# row must read "unchanged"; "unresolved" means the runs spread wider than
# the bound and the benchmark cannot gate that metric on this host).
#
#   benchmark/repeat.sh [seconds] [runs-per-set]
set -euo pipefail
cd "$(dirname "$0")"
seconds="${1:-26}"
runs="${2:-3}"
cargo build --release --offline --quiet
ledger="${CARGO_TARGET_DIR:-target}/release/ledger"
rm -rf out/setA out/setB
mkdir -p out/setA out/setB
seed=1
for set in setA setB; do
    for run in $(seq "$runs"); do
        for workload in train_sq_classical train_sq_guarded train_skinny_guarded serve_open_planned; do
            "$ledger" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
                --out "out/$set/$workload.$run.json" >/dev/null
            seed=$((seed + 1))
        done
    done
done
"$ledger" compare out/setA out/setB
