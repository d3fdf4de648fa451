#!/usr/bin/env bash
# Tier-1 gate: everything that must stay green on every commit.
#
#   1. release build of the whole workspace (the root manifest's
#      default-members is every member; no target-cpu=native — the
#      build must be portable; SIMD is selected at runtime)
#   2. the benchmark (`benchmark/`, a package of its own) built against
#      this library, its unit tests, and `ledger --selftest` — a changed
#      signature among the public names listed at the end of
#      benchmark/README.md fails here instead of in the pipeline
#   3. every crate's suite (`cargo test -q` covers the whole workspace:
#      gemm's one driver, dispatch matrix and 2D parallel suites, the
#      engine, the planner's compiler/store suites, nn, serve, core,
#      discovery and the facade), TWICE: once under the host's native
#      kernel dispatch (AVX-512/AVX2 where available) and once with
#      APA_FORCE_SCALAR_KERNEL=1 pinning the portable scalar tier — the
#      same binaries must be correct on both paths, and a compiled plan
#      must be the same decision on every dispatch path
#   4. fault-injection suites, native: apa-gemm (ABFT single-bit flips in
#      packed A, packed B and finished C tiles detected, localized and
#      repaired in place; the panic-in-lane drill), apa-matmul (fusion
#      equivalence, ABFT guard, lane panics/stalls), apa-nn (torn
#      checkpoint writes, crash drills with bitwise-identical resume) and
#      apa-serve (fault drills plus the bounded >2x-capacity chaos storm
#      that asserts every client gets a typed answer)
#   5. the same four fault-injection suites under
#      APA_FORCE_SCALAR_KERNEL=1 (the ABFT repair path recomputes with the
#      scalar tier, so it must hold when scalar is also the primary)
#   6. apa-gemm again under APA_THREADS=2 APA_NO_PIN=1 (full crate, and
#      the panic-in-lane drill with fault-inject) — the oversubscribed,
#      unpinned configuration every CI container sees must be just as
#      correct as the pinned native one
#   7. planner suites (plan compiler + persistent store, including the
#      cold-store vs warm-store determinism gate) under APA_THREADS=2
#      APA_NO_PIN=1
#   8. rustfmt check
#   9. clippy with warnings promoted to errors
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

echo "== tier1: cargo test, whole workspace (native kernel dispatch) =="
cargo test -q

echo "== tier1: cargo test, whole workspace (APA_FORCE_SCALAR_KERNEL=1, portable scalar tier) =="
APA_FORCE_SCALAR_KERNEL=1 cargo test -q

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

echo "== tier1: OK =="
