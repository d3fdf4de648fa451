#!/usr/bin/env bash
# Tier-1 gate: everything that must stay green on every commit.
#
#   1. release build of the whole workspace (no target-cpu=native — the
#      build must be portable; SIMD is selected at runtime)
#   2. the benchmark (`benchmark/`, a package of its own) built against
#      this library, its unit tests, and `ledger --selftest` — a changed
#      signature among the public names listed at the end of
#      benchmark/README.md fails here instead of in the pipeline
#   3. the facade suite, TWICE: once under the host's native kernel
#      dispatch (AVX-512/AVX2 where available) and once with
#      APA_FORCE_SCALAR_KERNEL=1 pinning the portable scalar tier — the
#      same binary must be correct on both paths
#   4. the full apa-gemm crate: the one blocked driver behind every entry
#      point, the dispatch matrix (bitwise cross-tier agreement over
#      operand arities 1..=4 per side), the forced-scalar env pin and the
#      2D cooperative-packing suites (bitwise parallel == single-threaded,
#      the Seq zero-atomics gate)
#   5. fault-injection suites, native: apa-gemm (ABFT single-bit flips in
#      packed A, packed B and finished C tiles detected, localized and
#      repaired in place; the panic-in-lane drill), apa-matmul (fusion
#      equivalence, ABFT guard, lane panics/stalls), apa-nn (torn
#      checkpoint writes, crash drills with bitwise-identical resume) and
#      apa-serve (fault drills plus the bounded >2x-capacity chaos storm
#      that asserts every client gets a typed answer)
#   6. the same four fault-injection suites under
#      APA_FORCE_SCALAR_KERNEL=1 (the ABFT repair path recomputes with the
#      scalar tier, so it must hold when scalar is also the primary)
#   7. apa-gemm again under APA_THREADS=2 APA_NO_PIN=1 (full crate, and
#      the panic-in-lane drill with fault-inject) — the oversubscribed,
#      unpinned configuration every CI container sees must be just as
#      correct as the pinned native one
#   8. planner suites (plan compiler + persistent store, including the
#      cold-store vs warm-store determinism gate) natively, under the
#      forced scalar tier and under APA_THREADS=2 APA_NO_PIN=1 — a
#      compiled plan must be the same decision on every dispatch path of
#      the same fingerprint
#   9. rustfmt check
#  10. clippy with warnings promoted to errors
#
# No line is a strict subset of another line in the same environment.
#
# Usage: scripts/tier1.sh   (from anywhere inside the repo)

set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier1: cargo build --release =="
cargo build --release

echo "== tier1: benchmark builds, tests and self-checks against this library =="
cargo build --release --offline --manifest-path benchmark/Cargo.toml
(cd benchmark && cargo test --offline -q)
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --selftest --seed 7

echo "== tier1: cargo test (native kernel dispatch) =="
cargo test -q

echo "== tier1: cargo test (APA_FORCE_SCALAR_KERNEL=1, portable scalar tier) =="
APA_FORCE_SCALAR_KERNEL=1 cargo test -q

echo "== tier1: cargo test -p apa-gemm (one driver, dispatch matrix, forced scalar, 2D parallel) =="
cargo test -q -p apa-gemm

echo "== tier1: fault-injection suites, native dispatch =="
cargo test -q -p apa-gemm --features fault-inject
cargo test -q -p apa-matmul --features fault-inject
cargo test -q -p apa-nn --features fault-inject
cargo test -q -p apa-serve --features fault-inject

echo "== tier1: fault-injection suites, APA_FORCE_SCALAR_KERNEL=1 (scalar primary + scalar repair tier) =="
APA_FORCE_SCALAR_KERNEL=1 cargo test -q -p apa-gemm --features fault-inject
APA_FORCE_SCALAR_KERNEL=1 cargo test -q -p apa-matmul --features fault-inject
APA_FORCE_SCALAR_KERNEL=1 cargo test -q -p apa-nn --features fault-inject
APA_FORCE_SCALAR_KERNEL=1 cargo test -q -p apa-serve --features fault-inject

echo "== tier1: cargo test -p apa-gemm (APA_THREADS=2 APA_NO_PIN=1, full crate) =="
APA_THREADS=2 APA_NO_PIN=1 cargo test -q -p apa-gemm

echo "== tier1: cargo test -p apa-gemm --test parallel_fault --features fault-inject (APA_THREADS=2 APA_NO_PIN=1) =="
APA_THREADS=2 APA_NO_PIN=1 cargo test -q -p apa-gemm --test parallel_fault --features fault-inject

echo "== tier1: cargo test -p apa-planner (plan compiler + store, native dispatch) =="
cargo test -q -p apa-planner

echo "== tier1: cargo test -p apa-planner (APA_FORCE_SCALAR_KERNEL=1) =="
APA_FORCE_SCALAR_KERNEL=1 cargo test -q -p apa-planner

echo "== tier1: cargo test -p apa-planner (APA_THREADS=2 APA_NO_PIN=1) =="
APA_THREADS=2 APA_NO_PIN=1 cargo test -q -p apa-planner

echo "== tier1: cargo fmt --check =="
cargo fmt --all -- --check

echo "== tier1: cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== tier1: cargo clippy -p apa-gemm --features fault-inject (deny warnings) =="
cargo clippy -p apa-gemm --all-targets --features fault-inject -- -D warnings

echo "== tier1: cargo clippy -p apa-matmul --features fault-inject (deny warnings) =="
cargo clippy -p apa-matmul --all-targets --features fault-inject -- -D warnings

echo "== tier1: cargo clippy -p apa-nn --features fault-inject (deny warnings) =="
cargo clippy -p apa-nn --all-targets --features fault-inject -- -D warnings

echo "== tier1: cargo clippy -p apa-serve --features fault-inject (deny warnings) =="
cargo clippy -p apa-serve --all-targets --features fault-inject -- -D warnings

echo "== tier1: cargo clippy -p apa-bench --features fault-inject (deny warnings) =="
cargo clippy -p apa-bench --all-targets --features fault-inject -- -D warnings

echo "== tier1: cargo clippy -p apa-planner (deny warnings) =="
cargo clippy -p apa-planner --all-targets -- -D warnings

echo "== tier1: OK =="
