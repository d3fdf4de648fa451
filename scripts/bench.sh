#!/usr/bin/env bash
# Benchmark runner.
#
#   1. criterion micro-benchmarks: the `fusion` group (pack-time
#      fusion vs materialized on ParaDnn widths)
#   2. the `kernelbench` harness (ISSUE 6 acceptance evidence): per-tier
#      gemm leaf GFLOPS + fused ParaDnn sweep under runtime dispatch,
#      emitting BENCH_6.json. The run MUST report which kernel tier it
#      dispatched to — asserted below, so a silent fall-through to the
#      scalar tier on SIMD hardware fails the script instead of quietly
#      producing slow-but-green numbers.
#   3. the `overloadbench` drill (acceptance evidence): brownout
#      on vs off at 2x measured capacity with the chaos schedule armed,
#      emitting BENCH_7.json. The JSON's own criteria block is asserted
#      below: goodput(on) >= 1.3x goodput(off) and the on-mode late
#      fraction holds p99 inside the deadline.
#   4. the `abftbench` harness (acceptance evidence): ABFT
#      checksums off vs on at ParaDnn training widths (interleaved reps,
#      paired minima), plus a storm of single-bit exponent flips into
#      packed A / packed B / finished C tiles, emitting BENCH_8.json.
#      Asserted below: <= 5% overhead at width 1024, zero false-positive
#      detections on the fault-free run, and 100% of injected flips
#      detected AND repaired in place.
#   5. the `planbench` harness (acceptance evidence): the
#      apa-planner compiler's plan vs every hand-flagged paper-lineup
#      rule on the ParaDnn width sweep, emitting BENCH_9.json. Asserted
#      below: the compiled plan is within 2% of the best hand rule at
#      every width, strictly beats it at >= 1 width, and a warm
#      PlanCompiler answers in < 1 ms per shape.
#   6. the `parbench` harness (acceptance evidence): the 2D
#      cooperative-packing parallel gemm swept across thread counts on
#      the 1024^3 f32 leaf plus the fused ParaDnn sweep single- and
#      all-core, emitting BENCH_10.json. The two machine-scaled gate
#      lines parbench prints are asserted below: parallel efficiency at
#      half the physical cores >= 60%, and all-core leaf speedup >=
#      max(1, min(4, 0.75 * cores)). On a 1-core container both gates
#      reduce to the single-threaded identity — the JSON records `cores`
#      so the numbers stay honest.
#
# Usage: scripts/bench.sh

set -euo pipefail
cd "$(dirname "$0")/.."

echo "== bench: cargo bench -p apa-bench --bench fusion =="
cargo bench -p apa-bench --bench fusion

echo "== bench: kernelbench -> BENCH_6.json =="
kernel_out=$(cargo run --release -p apa-bench --bin kernelbench -- --out BENCH_6.json | tee /dev/stderr)

# The dispatch report line is the proof of which microkernel actually ran.
if ! grep -q "kernel dispatch: tier=" <<<"$kernel_out"; then
    echo "== bench: FAIL — kernelbench did not report its dispatched kernel tier ==" >&2
    exit 1
fi
echo "== bench: dispatched $(grep -o 'tier=[a-z0-9]*' <<<"$kernel_out" | head -n1) =="

echo "== bench: overloadbench -> BENCH_7.json =="
cargo run --release -p apa-bench --features fault-inject --bin overloadbench -- --out BENCH_7.json

for crit in '"goodput_ratio_pass": true' '"p99_within_deadline_on": true'; do
    if ! grep -qF "$crit" BENCH_7.json; then
        echo "== bench: FAIL — overloadbench criterion not met: $crit ==" >&2
        exit 1
    fi
done

echo "== bench: abftbench -> BENCH_8.json =="
cargo run --release -p apa-bench --features fault-inject --bin abftbench -- --out BENCH_8.json

for crit in '"overhead_pass": true' '"all_flips_detected_and_repaired": true'; do
    if ! grep -qF "$crit" BENCH_8.json; then
        echo "== bench: FAIL — abftbench criterion not met: $crit ==" >&2
        exit 1
    fi
done

echo "== bench: planbench -> BENCH_9.json =="
cargo run --release -p apa-bench --bin planbench -- --out BENCH_9.json

for crit in '"compiler_within_tolerance": true' '"compiler_strictly_better_somewhere": true' '"warm_compile_under_1ms": true'; do
    if ! grep -qF "$crit" BENCH_9.json; then
        echo "== bench: FAIL — planbench criterion not met: $crit ==" >&2
        exit 1
    fi
done

echo "== bench: parbench -> BENCH_10.json =="
par_out=$(cargo run --release -p apa-bench --bin parbench -- --out BENCH_10.json | tee /dev/stderr)

# parbench prints both scaling gates with a trailing PASS/FAIL verdict;
# a FAIL (or a silent format drift that hides the line) fails the script.
if ! grep -Eq '^parallel efficiency at half cores \([0-9]+\): [0-9]+% \(target 60%\): PASS$' <<<"$par_out"; then
    echo "== bench: FAIL — parbench parallel-efficiency gate not met ==" >&2
    exit 1
fi
if ! grep -Eq '^all-core speedup: [0-9.]+x \(target [0-9.]+x, cores=[0-9]+\): PASS$' <<<"$par_out"; then
    echo "== bench: FAIL — parbench all-core speedup gate not met ==" >&2
    exit 1
fi

for crit in '"efficiency_pass": true' '"speedup_pass": true'; do
    if ! grep -qF "$crit" BENCH_10.json; then
        echo "== bench: FAIL — parbench criterion not met: $crit ==" >&2
        exit 1
    fi
done

echo "== bench: OK (results in BENCH_6.json, BENCH_7.json, BENCH_8.json, BENCH_9.json, BENCH_10.json) =="
