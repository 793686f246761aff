//! Property tests for journal recovery.
//!
//! The contract under test: for *any* sequence of appended records and
//! *any* single point of damage (truncation at an arbitrary byte offset,
//! or a bit flip at an arbitrary byte offset), reopening the journal
//! (a) never errors and never panics, (b) recovers exactly a prefix of
//! the appended records, byte-for-byte, and (c) never yields a phantom
//! record that was not appended.

use fbs_journal::{Journal, JournalRecovery};
use proptest::collection::vec;
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static CASE: AtomicU64 = AtomicU64::new(0);

fn fresh_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fbs-journal-prop-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!(
        "{tag}-{}.wal",
        CASE.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Writes `records` to a fresh journal and returns its path.
fn build_journal(tag: &str, records: &[Vec<u8>]) -> PathBuf {
    let path = fresh_path(tag);
    let mut journal = Journal::create(&path).unwrap();
    for record in records {
        journal.append(record).unwrap();
    }
    journal.sync().unwrap();
    path
}

/// Reopens the journal at `path`, collecting every visited payload.
fn recover(path: &Path) -> (Vec<Vec<u8>>, JournalRecovery) {
    let mut payloads = Vec::new();
    let (_, recovery) = Journal::open(path, |_, payload| {
        payloads.push(payload.to_vec());
        Ok(())
    })
    .unwrap();
    (payloads, recovery)
}

/// Asserts `recovered` is a byte-exact prefix of `original`.
fn assert_prefix(recovered: &[Vec<u8>], original: &[Vec<u8>]) {
    assert!(
        recovered.len() <= original.len(),
        "phantom records: recovered {} of {} appended",
        recovered.len(),
        original.len()
    );
    for (i, (got, want)) in recovered.iter().zip(original).enumerate() {
        assert_eq!(got, want, "record {i} differs after recovery");
    }
}

proptest! {
    #[test]
    fn truncation_at_any_offset_recovers_a_prefix(
        records in vec(vec(any::<u8>(), 0..48usize), 0..16usize),
        cut_seed in any::<u64>(),
    ) {
        let path = build_journal("trunc", &records);
        let full = std::fs::read(&path).unwrap();
        let cut = (cut_seed % (full.len() as u64 + 1)) as usize;
        std::fs::write(&path, &full[..cut]).unwrap();

        let (recovered, recovery) = recover(&path);
        assert_prefix(&recovered, &records);
        prop_assert_eq!(recovery.records, recovered.len() as u64);
        // Cutting inside the 8-byte magic quarantines; otherwise the file
        // is repaired in place and a reopen must be clean.
        if cut >= 8 {
            prop_assert!(recovery.quarantined.is_none());
            let (again, recovery2) = recover(&path);
            prop_assert!(recovery2.was_clean());
            prop_assert_eq!(again.len(), recovered.len());
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bit_flip_at_any_offset_recovers_a_prefix(
        records in vec(vec(any::<u8>(), 0..48usize), 1..16usize),
        offset_seed in any::<u64>(),
        bit in 0u32..8,
    ) {
        let path = build_journal("flip", &records);
        let mut bytes = std::fs::read(&path).unwrap();
        let offset = (offset_seed % bytes.len() as u64) as usize;
        bytes[offset] ^= 1u8 << bit;
        std::fs::write(&path, &bytes).unwrap();

        let (recovered, recovery) = recover(&path);
        assert_prefix(&recovered, &records);
        prop_assert_eq!(recovery.records, recovered.len() as u64);
        if offset >= 8 {
            // Damage past the magic: every record before the damaged frame
            // must survive. Find which record's frame the flip landed in.
            let mut frame_start = 8usize;
            let mut damaged_index = records.len();
            for (i, record) in records.iter().enumerate() {
                let frame_end = frame_start + 8 + record.len();
                if offset < frame_end {
                    damaged_index = i;
                    break;
                }
                frame_start = frame_end;
            }
            prop_assert!(
                recovered.len() >= damaged_index,
                "lost {} undamaged records before the flipped frame",
                damaged_index - recovered.len()
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn undamaged_journals_always_roundtrip(
        records in vec(vec(any::<u8>(), 0..128usize), 0..24usize),
    ) {
        let path = build_journal("clean", &records);
        let (recovered, recovery) = recover(&path);
        prop_assert!(recovery.was_clean());
        prop_assert_eq!(recovered, records);
        let _ = std::fs::remove_file(&path);
    }
}
