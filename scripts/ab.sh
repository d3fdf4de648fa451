#!/usr/bin/env bash
# A/B of the working tree against a parent revision on one benchmark
# workload: N pairs of `ledger` runs, the same seed within a pair and the
# side that runs first alternating from pair to pair (on a 2-vCPU host a
# fixed order reads the second run of a pair as faster), then
# `ledger compare` on the two record sets and, per end-to-end metric, in
# how many pairs the change read better, equal or worse.
#
# A run that exits non-zero does not stop the A/B: its pair, seed, side
# and exit code go to failed.txt next to the records, the other runs go
# on, and the script exits 1 at the end. A pair is compared only when
# both of its runs wrote a record; a lone record is moved to unpaired/.
#
#   scripts/ab.sh <parent-rev> <workload> [pairs=10] [seconds=26]
#
# The parent's committed files are exported with `git archive` (so no
# worktree is registered in .git) to target/ab/parent-<sha>/src, and each
# side builds the benchmark into a target dir of its own under target/ab/.
# The records of a call land in target/ab/runs/<workload>-<time>/{parent,
# change}. No tracked file is written; each ledger keeps its scratch under
# its own tree's benchmark/out, as always.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 2 ]; then
    sed -n '2,/^set -euo/{/^set -euo/d;s/^# \{0,1\}//;p}' "$0" >&2
    exit 2
fi
rev="$1"
workload="$2"
pairs="${3:-10}"
seconds="${4:-26}"

sha=$(git rev-parse --verify "$rev^{commit}")
root="$PWD/target/ab"
parent="$root/parent-$sha"
if [ ! -f "$parent/src/BENCHMARK.json" ]; then
    rm -rf "$parent/src"
    mkdir -p "$parent/src"
    git archive "$sha" | tar -x -C "$parent/src"
fi

build() { # <tree> <target-dir>
    echo "ab: building the ledger of $1" >&2
    CARGO_TARGET_DIR="$2" cargo build --release --offline --quiet \
        --manifest-path "$1/benchmark/Cargo.toml"
}
build "$parent/src" "$parent/target"
build "$PWD" "$root/change-target"
declare -A ledger=(
    [parent]="$parent/target/release/ledger"
    [change]="$root/change-target/release/ledger"
)

out="$root/runs/$workload-$(date +%Y%m%dT%H%M%S)"
mkdir -p "$out/parent" "$out/change"
: >"$out/failed.txt"
declare -A failed=([parent]=0 [change]=0)
for i in $(seq "$pairs"); do
    seed=$((1000 + i))
    order="parent change"
    if [ $((i % 2)) -eq 0 ]; then
        order="change parent"
    fi
    for side in $order; do
        echo "ab: pair $i/$pairs, seed $seed, $side" >&2
        status=0
        "${ledger[$side]}" --workload "$workload" --seed "$seed" --seconds "$seconds" \
            --trace 0 --out "$out/$side/$i.json" >/dev/null || status=$?
        if [ "$status" -ne 0 ]; then
            echo "pair $i seed $seed side $side exit $status" >>"$out/failed.txt"
            echo "ab: pair $i, seed $seed, $side exited $status" >&2
            failed[$side]=$((failed[$side] + 1))
        fi
    done
done

# Only pairs where both sides wrote a record are compared.
paired=()
for i in $(seq "$pairs"); do
    if [ -f "$out/parent/$i.json" ] && [ -f "$out/change/$i.json" ]; then
        paired+=("$i")
        continue
    fi
    for side in parent change; do
        if [ -f "$out/$side/$i.json" ]; then
            mkdir -p "$out/unpaired"
            mv "$out/$side/$i.json" "$out/unpaired/$side-$i.json"
        fi
    done
done

compare_status=0
if [ "${#paired[@]}" -gt 0 ]; then
    "${ledger[change]}" compare "$out/parent" "$out/change" || compare_status=$?
else
    echo "ab: no pair has a record on both sides; nothing to compare" >&2
fi

echo "ab: $workload, ${#paired[@]} of $pairs pairs compared, records in $out"
echo "ab: failed runs: parent ${failed[parent]}, change ${failed[change]} (see $out/failed.txt)"
jq -r '.end_to_end[] | "\(.name) \(.better)"' BENCHMARK.json |
    while read -r metric better; do
        counts=$(for i in "${paired[@]}"; do
            a=$(jq -r ".metrics.$metric.value // empty" "$out/parent/$i.json")
            b=$(jq -r ".metrics.$metric.value // empty" "$out/change/$i.json")
            if [ -n "$a" ] && [ -n "$b" ]; then
                echo "$a $b"
            fi
        done | awk -v better="$better" '
            { d = (better == "lower") ? $1 - $2 : $2 - $1
              if (d > 0) w++; else if (d < 0) l++; else e++ }
            END { printf "better %d, equal %d, worse %d of %d", w, e, l, NR }')
        printf '%s\t%s\tchange %s pairs\n' "$workload" "$metric" "$counts"
    done

if [ $((failed[parent] + failed[change])) -gt 0 ]; then
    exit 1
fi
exit "$compare_status"
