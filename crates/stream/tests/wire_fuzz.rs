//! The journal decoder — and the recovery that replays what it decodes —
//! under hostile bytes. Every record of the pinned journal is truncated
//! at every length and mutated thousands of times (seeded), spliced back
//! into the journal behind real, CRC-valid framing so the damage reaches
//! `WalRecord::decode`, and handed to [`StreamService::recover`]: the
//! answer is a typed [`StreamError`] or a service that runs, never a
//! panic and never an allocation sized by a field of the input.

use cij_storage::frame::write_frame;
use cij_stream::{StreamConfig, StreamError, StreamService};

mod common;
use common::{
    hostile_variants, mtb_factory, random_strings, unframe, unhex, TempWal, GOLDEN_JOURNAL,
};

/// Genesis, `Subscribe` × 3 (all, object, window), `Unsubscribe`, `Batch`,
/// `Retire`.
fn journal_records() -> Vec<Vec<u8>> {
    let records = unframe(&unhex(GOLDEN_JOURNAL));
    assert_eq!(records.len(), 7);
    records
}

/// Recovers from `records` framed as a journal; `Ok` means the recovered
/// service also ticked and answered.
fn recover(wal: &TempWal, records: &[&[u8]]) -> Result<(), StreamError> {
    let mut image = Vec::new();
    for record in records {
        write_frame(&mut image, record).expect("frame");
    }
    std::fs::write(&wal.0, &image).expect("write journal");
    let config = StreamConfig::builder().wal_path(wal.0.clone()).build();
    let (mut svc, report) = StreamService::recover(config, &mtb_factory())?;
    assert!(!report.tail_truncated, "the framing was intact");
    let next = svc.now() + 1.0;
    svc.advance_to(next)
        .expect("a recovered service keeps ticking");
    let _ = svc.result_at(next);
    Ok(())
}

#[test]
fn the_untouched_journal_recovers() {
    let records = journal_records();
    let refs: Vec<&[u8]> = records.iter().map(Vec::as_slice).collect();
    recover(&TempWal::new("fuzz-clean"), &refs).expect("golden journal");
}

#[test]
fn recovery_survives_a_hostile_record() {
    let records = journal_records();
    let wal = TempWal::new("fuzz-record");
    let (mut recovered, mut refused) = (0usize, 0usize);
    for (i, record) in records.iter().enumerate() {
        let mut feed = |bytes: &[u8]| {
            let mut spliced: Vec<&[u8]> = records.iter().map(Vec::as_slice).collect();
            spliced[i] = bytes;
            // Any `Err` is typed: a corrupt record, a genesis the service
            // refuses, an update the engine has no object for.
            match recover(&wal, &spliced) {
                Ok(()) => recovered += 1,
                Err(_) => refused += 1,
            }
        };
        hostile_variants(record, 0x57A + i as u64, 1_000, &mut feed);
        random_strings(0x57B + i as u64, 100, 64, &record[..3], &mut feed);
    }
    assert!(
        recovered > 500,
        "only {recovered} hostile journals recovered"
    );
    assert!(refused > 4_000, "only {refused} hostile journals refused");
}
