//! Plan-store durability contract (ISSUE 9 satellite): serialized plans
//! round-trip bitwise; corrupted, truncated and version/fingerprint-
//! mismatched files are rejected with *typed* errors; and the compiler
//! recovers from every rejection by re-tuning cleanly — an invalid store
//! can cost a recompile, never a wrong plan.

use apa_planner::{Calibration, PlanCompiler, PlanRequest, PlanStore, PlanStoreError};
use std::path::{Path, PathBuf};

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("apa-plan-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn store_file(dir: &Path) -> PathBuf {
    dir.join("plans.bin")
}

fn some_request() -> PlanRequest {
    PlanRequest::new(256, 128, 256).threads(4)
}

#[test]
fn roundtrip_is_bitwise_and_file_is_deterministic() {
    let dir = scratch_dir("roundtrip");

    let cold = PlanCompiler::with_store(&dir);
    let plan = cold.compile(&some_request());
    let bytes_after_first = std::fs::read(store_file(&dir)).unwrap();

    // A brand-new compiler reading the same store must produce the
    // identical plan (λ bitwise included) without re-searching.
    let warm = PlanCompiler::with_store(&dir);
    let reloaded = warm.compile(&some_request());
    assert_eq!(reloaded, plan);
    assert_eq!(reloaded.lambda.to_bits(), plan.lambda.to_bits());

    // Re-saving the same entries writes the identical file.
    let mut store = PlanStore::load(&dir).unwrap();
    assert_eq!(store.len(), 1);
    store.save().unwrap();
    assert_eq!(std::fs::read(store_file(&dir)).unwrap(), bytes_after_first);

    let _ = std::fs::remove_dir_all(&dir);
}

/// Flip one payload byte: the CRC must catch it.
fn flip_payload_byte(bytes: &mut [u8]) {
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
}

/// Rewrite the (single, last) record's fusion byte to code 1 — the
/// removed `FusionPolicy::Always` — under a *valid* CRC, as a store
/// written by an older build would carry it: the record's typed decode
/// must reject it. After the fusion byte a record holds threads (u64),
/// cse (u8), two f64 predictions and two u32 addition counts.
fn retired_fusion_code(bytes: &mut [u8]) {
    const AFTER_FUSION: usize = 8 + 1 + 8 + 8 + 4 + 4;
    let body_len = bytes.len() - 4;
    let at = body_len - AFTER_FUSION - 1;
    assert_eq!(bytes[at], 0, "the planner only emits Auto (code 0)");
    bytes[at] = 1;
    let crc = ieee_crc32(&bytes[..body_len]);
    bytes[body_len..].copy_from_slice(&crc.to_le_bytes());
}

#[test]
fn corrupted_store_is_rejected_then_retuned() {
    for (tag, corrupt) in [
        ("corrupt", flip_payload_byte as fn(&mut [u8])),
        ("fusion1", retired_fusion_code),
    ] {
        let dir = scratch_dir(tag);
        PlanCompiler::with_store(&dir).compile(&some_request());

        let mut bytes = std::fs::read(store_file(&dir)).unwrap();
        corrupt(&mut bytes);
        std::fs::write(store_file(&dir), &bytes).unwrap();
        assert_eq!(
            PlanStore::load(&dir).unwrap_err(),
            PlanStoreError::Corrupt,
            "{tag}"
        );

        // The compiler treats the bad store as empty, re-tunes to the same
        // deterministic answer, and its save repairs the file.
        let recovered = PlanCompiler::with_store(&dir);
        let plan = recovered.compile(&some_request());
        assert_eq!(plan, PlanCompiler::new().compile(&some_request()), "{tag}");
        assert!(
            PlanStore::load(&dir).is_ok(),
            "{tag}: save repaired the store"
        );

        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn truncated_store_is_rejected_then_retuned() {
    let dir = scratch_dir("truncated");
    PlanCompiler::with_store(&dir).compile(&some_request());

    let bytes = std::fs::read(store_file(&dir)).unwrap();
    std::fs::write(store_file(&dir), &bytes[..bytes.len() / 2]).unwrap();
    // A mid-file cut lands either before the CRC (Truncated) or garbles
    // it (Corrupt); both are typed rejections, never a decoded plan.
    let err = PlanStore::load(&dir).unwrap_err();
    assert!(
        matches!(err, PlanStoreError::Truncated | PlanStoreError::Corrupt),
        "unexpected error {err:?}"
    );

    let plan = PlanCompiler::with_store(&dir).compile(&some_request());
    assert_eq!(plan, PlanCompiler::new().compile(&some_request()));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn foreign_file_is_bad_magic() {
    let dir = scratch_dir("magic");
    std::fs::write(store_file(&dir), b"GIF89a not a plan store").unwrap();
    assert_eq!(PlanStore::load(&dir).unwrap_err(), PlanStoreError::BadMagic);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn future_version_is_rejected_with_typed_error() {
    let dir = scratch_dir("version");
    // Hand-craft a file claiming version 99 with a valid CRC, so the
    // version check (not the checksum) is what rejects it.
    let mut body = b"APLN".to_vec();
    body.extend_from_slice(&99u32.to_le_bytes());
    body.extend_from_slice(&0u32.to_le_bytes()); // empty fingerprint
    body.extend_from_slice(&0u32.to_le_bytes()); // zero records
    let crc = ieee_crc32(&body);
    body.extend_from_slice(&crc.to_le_bytes());
    std::fs::write(store_file(&dir), &body).unwrap();
    assert_eq!(
        PlanStore::load(&dir).unwrap_err(),
        PlanStoreError::BadVersion { got: 99 }
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fingerprint_mismatch_triggers_recompile_not_reuse() {
    let dir = scratch_dir("fingerprint");

    // Write a valid store under a fake hardware fingerprint — the moved-
    // store scenario (e.g. tuned on avx512, loaded on scalar).
    let mut foreign = PlanStore::load_with(&dir, "v1-avx512-otherbox-1234").unwrap();
    let req = some_request();
    foreign.insert(req.key_bytes(), PlanCompiler::new().compile(&req));
    foreign.save().unwrap();

    match PlanStore::load(&dir) {
        Err(PlanStoreError::FingerprintMismatch { stored, current }) => {
            assert_eq!(stored, "v1-avx512-otherbox-1234");
            assert_ne!(stored, current);
        }
        other => panic!("expected FingerprintMismatch, got {other:?}"),
    }

    // The compiler recompiles for *this* machine and rewrites the store
    // under the current fingerprint.
    let plan = PlanCompiler::with_store(&dir).compile(&req);
    assert_eq!(plan, PlanCompiler::new().compile(&req));
    let healed = PlanStore::load(&dir).unwrap();
    assert_eq!(healed.len(), 1);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn calibration_block_round_trips_bitwise() {
    let dir = scratch_dir("calibration");
    let mut store = PlanStore::load(&dir).unwrap();
    assert!(store.calibration().is_none());
    let cal = Calibration {
        bandwidth_bytes_per_sec: 23.5e9,
        parallel_points: vec![(1, 1.0), (2, 1.8), (4, 2.9)],
    };
    store.set_calibration(cal.clone());
    assert!(store.dirty());
    store.save().unwrap();

    let reloaded = PlanStore::load(&dir).unwrap();
    let got = reloaded.calibration().expect("calibration persisted");
    assert_eq!(got, &cal);
    assert_eq!(
        got.bandwidth_bytes_per_sec.to_bits(),
        cal.bandwidth_bytes_per_sec.to_bits(),
        "f64 survives bitwise"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn version_one_store_is_rejected_then_retuned() {
    let dir = scratch_dir("v1-upgrade");
    // A pre-calibration (version 1) file: valid magic and CRC but the old
    // layout. The typed BadVersion rejection must flow into the normal
    // "start empty and re-tune" recovery, upgrading the file in place.
    let mut body = b"APLN".to_vec();
    body.extend_from_slice(&1u32.to_le_bytes());
    body.extend_from_slice(&0u32.to_le_bytes()); // empty fingerprint
    body.extend_from_slice(&0u32.to_le_bytes()); // zero records
    let crc = ieee_crc32(&body);
    body.extend_from_slice(&crc.to_le_bytes());
    std::fs::write(store_file(&dir), &body).unwrap();
    assert_eq!(
        PlanStore::load(&dir).unwrap_err(),
        PlanStoreError::BadVersion { got: 1 }
    );

    let plan = PlanCompiler::with_store(&dir).compile(&some_request());
    assert_eq!(plan, PlanCompiler::new().compile(&some_request()));
    assert!(PlanStore::load(&dir).is_ok(), "store upgraded on save");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn missing_store_is_empty_not_an_error() {
    let dir = scratch_dir("missing");
    let store = PlanStore::load(&dir).unwrap();
    assert!(store.is_empty());
    assert!(!store.dirty());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn warm_store_compile_is_fast() {
    let dir = scratch_dir("warmfast");
    let req = some_request();
    PlanCompiler::with_store(&dir).compile(&req); // populate disk

    let warm = PlanCompiler::with_store(&dir);
    warm.compile(&req); // loads the store once, seeds the memory cache
    let t0 = std::time::Instant::now();
    for _ in 0..100 {
        warm.compile(&req);
    }
    let per_compile = t0.elapsed().as_secs_f64() / 100.0;
    // Acceptance gate: warm compiles are sub-millisecond per shape.
    assert!(
        per_compile < 1e-3,
        "warm compile took {:.3} ms",
        per_compile * 1e3
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// IEEE CRC32, reimplemented here so the version-rejection test can
/// craft a file with a *valid* checksum without reaching into crate
/// internals.
fn ieee_crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &byte in data {
        crc ^= byte as u32;
        for _ in 0..8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
        }
    }
    !crc
}
