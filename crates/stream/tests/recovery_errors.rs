//! The typed failure surface of WAL recovery. A crash can leave any
//! bytes on disk; [`StreamService::recover`] must answer every shape of
//! damage with a [`StreamError`] variant — never a panic — and must keep
//! the one *benign* shape (a torn tail, truncated mid-record) out of the
//! error path entirely. Each corruption here is crafted with the real
//! framing (`cij_storage::Wal`), so the CRC layer passes and the damage
//! reaches the journal decoder it is aimed at.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use cij_core::{ContinuousJoinEngine, EngineConfig, MtbEngine};
use cij_geom::Time;
use cij_storage::codec::ByteWriter;
use cij_storage::{BufferPool, BufferPoolConfig, InMemoryStore, Wal};
use cij_stream::wire::Wire;
use cij_stream::{IngestOutcome, StreamConfig, StreamError, StreamService, SubscriptionFilter};
use cij_tpr::TprResult;
use cij_workload::{generate_pair, Distribution, MovingObject, Params, UpdateStream};

mod common;
use common::TempWal;

fn params(seed: u64) -> Params {
    Params {
        dataset_size: 60,
        distribution: Distribution::Uniform,
        seed,
        space: 200.0,
        object_size_pct: 1.0,
        ..Params::default()
    }
}

fn factory(
    cfg: &EngineConfig,
    a: &[MovingObject],
    b: &[MovingObject],
    start: Time,
) -> TprResult<Box<dyn ContinuousJoinEngine>> {
    let pool = BufferPool::new(
        Arc::new(InMemoryStore::new()),
        BufferPoolConfig::with_capacity(256),
    );
    Ok(Box::new(MtbEngine::new(pool, *cfg, a, b, start)?))
}

fn config_with(path: Option<PathBuf>) -> StreamConfig {
    let mut builder = StreamConfig::builder()
        .batch_capacity(1 << 12)
        .outbox_capacity(1 << 12);
    if let Some(path) = path {
        builder = builder.wal_path(path);
    }
    builder.build()
}

/// Runs a short journaled life and returns its durable records
/// (genesis first, then at least one batch), for splicing into
/// corrupted journals.
fn durable_records(wal: &TempWal, seed: u64) -> Vec<Vec<u8>> {
    let p = params(seed);
    let (a, b) = generate_pair(&p, 0.0);
    let config = config_with(Some(wal.0.clone()));
    let mut svc = StreamService::new(config, &a, &b, 0.0, &factory).expect("service");
    let _sub = svc.subscribe(SubscriptionFilter::All).expect("subscribe");
    let mut stream = UpdateStream::new(&p, &a, &b, 0.0);
    for tick in 1..=10u32 {
        let now = Time::from(tick);
        for u in stream.tick(now) {
            assert_eq!(svc.submit(u, now), IngestOutcome::Accepted);
        }
        svc.advance_to(now).expect("advance");
    }
    drop(svc);
    let (_, recovery) = Wal::open(&wal.0).expect("reopen journal");
    assert!(!recovery.tail_corrupt, "clean shutdown left a torn tail");
    assert!(
        recovery.records.len() >= 2,
        "need a genesis plus at least one batch record"
    );
    recovery.records
}

/// Writes `records` as a fresh, correctly framed journal at `path`.
fn write_journal(path: &Path, records: &[Vec<u8>]) {
    let mut wal = Wal::create(path).expect("create journal");
    for r in records {
        wal.append(r).expect("append");
    }
    wal.sync().expect("sync");
}

#[test]
fn recover_without_wal_path_is_a_typed_error() {
    let Err(err) = StreamService::recover(config_with(None), &factory) else {
        panic!("recovery must fail");
    };
    assert!(matches!(err, StreamError::MissingWalPath), "got {err:?}");
}

#[test]
fn recover_empty_journal_reports_missing_genesis() {
    let wal = TempWal::new("empty");
    write_journal(&wal.0, &[]);
    let Err(err) = StreamService::recover(config_with(Some(wal.0.clone())), &factory) else {
        panic!("recovery must fail");
    };
    match err {
        StreamError::CorruptJournal(msg) => {
            assert!(msg.contains("genesis"), "unhelpful message: {msg}");
        }
        other => panic!("expected CorruptJournal, got {other:?}"),
    }
}

#[test]
fn recover_undecodable_record_is_corrupt_not_a_panic() {
    // A frame whose CRC is valid but whose payload is garbage: the
    // storage layer accepts it, the journal decoder must reject it.
    let wal = TempWal::new("garbage");
    write_journal(&wal.0, &[b"not a journal record".to_vec()]);
    let Err(err) = StreamService::recover(config_with(Some(wal.0.clone())), &factory) else {
        panic!("recovery must fail");
    };
    assert!(matches!(err, StreamError::CorruptJournal(_)), "got {err:?}");
}

#[test]
fn recover_batch_first_journal_reports_missing_genesis() {
    let source = TempWal::new("batch-first-src");
    let records = durable_records(&source, 501);
    // A journal that starts mid-history: real batch record, no genesis.
    let wal = TempWal::new("batch-first");
    write_journal(&wal.0, &records[1..2]);
    let Err(err) = StreamService::recover(config_with(Some(wal.0.clone())), &factory) else {
        panic!("recovery must fail");
    };
    match err {
        StreamError::CorruptJournal(msg) => {
            assert!(msg.contains("genesis"), "unhelpful message: {msg}");
        }
        other => panic!("expected CorruptJournal, got {other:?}"),
    }
}

#[test]
fn recover_duplicate_genesis_is_corrupt() {
    let source = TempWal::new("dup-genesis-src");
    let records = durable_records(&source, 502);
    let doubled = vec![records[0].clone(), records[0].clone()];
    let wal = TempWal::new("dup-genesis");
    write_journal(&wal.0, &doubled);
    let Err(err) = StreamService::recover(config_with(Some(wal.0.clone())), &factory) else {
        panic!("recovery must fail");
    };
    match err {
        StreamError::CorruptJournal(msg) => {
            assert!(msg.contains("duplicate"), "unhelpful message: {msg}");
        }
        other => panic!("expected CorruptJournal, got {other:?}"),
    }
}

#[test]
fn recover_rejects_a_genesis_that_repeats_an_object_id() {
    // `new` refuses such a genesis, so the journal is spliced by hand:
    // header + record tag from a real genesis, body re-encoded with the
    // first B object carrying the first A object's id.
    let source = TempWal::new("dup-id-src");
    let records = durable_records(&source, 505);
    let (a, mut b) = generate_pair(&params(505), 0.0);
    b[0].id = a[0].id;
    let mut body = ByteWriter::new();
    body.put_f64(0.0);
    a.put(&mut body);
    b.put(&mut body);
    let mut genesis = records[0][..3].to_vec();
    genesis.extend(body.into_bytes());

    let wal = TempWal::new("dup-id");
    write_journal(&wal.0, &[genesis]);
    let Err(err) = StreamService::recover(config_with(Some(wal.0.clone())), &factory) else {
        panic!("recovery must fail");
    };
    match err {
        StreamError::InvalidConfig(msg) => {
            assert!(
                msg.contains(&format!("{:?}", a[0].id)),
                "id not named: {msg}"
            );
        }
        other => panic!("expected InvalidConfig, got {other:?}"),
    }
}

#[test]
fn recover_mid_record_corruption_fails_closed_with_crc() {
    // Flip one byte inside the *middle* of a journal (not the tail): the
    // CRC check treats everything from the damage onward as torn, so
    // recovery succeeds on the shorter durable prefix rather than
    // replaying a corrupted batch.
    let wal = TempWal::new("bitflip");
    let records = durable_records(&wal, 503);
    let mut bytes = std::fs::read(&wal.0).expect("read journal");
    // Damage the payload of the *second* record (the first batch): one
    // frame header (8 bytes) + the genesis payload + the next header.
    let target = 8 + records[0].len() + 8 + 1;
    assert!(target < bytes.len(), "journal shorter than two records");
    bytes[target] ^= 0xFF;
    std::fs::write(&wal.0, &bytes).expect("rewrite journal");

    let (svc, report) =
        StreamService::recover(config_with(Some(wal.0.clone())), &factory).expect("recover");
    assert!(report.tail_truncated, "damage must be detected");
    assert!(
        report.batches_replayed < records.len() - 1,
        "the damaged suffix must not be replayed"
    );
    drop(svc);
}

#[test]
fn recovery_metrics_agree_with_the_report() {
    let wal = TempWal::new("metrics");
    let p = params(504);
    let (a, b) = generate_pair(&p, 0.0);
    let config = config_with(Some(wal.0.clone()))
        .to_builder()
        .engine(EngineConfig::builder().metrics(true).build())
        .build();
    let mut svc = StreamService::new(config.clone(), &a, &b, 0.0, &factory).expect("service");
    let mut stream = UpdateStream::new(&p, &a, &b, 0.0);
    let mut journaled = 0usize;
    for tick in 1..=10u32 {
        let now = Time::from(tick);
        let updates = stream.tick(now);
        if !updates.is_empty() {
            journaled += 1;
        }
        for u in updates {
            assert_eq!(svc.submit(u, now), IngestOutcome::Accepted);
        }
        svc.advance_to(now).expect("advance");
    }
    drop(svc);

    let (recovered, report) = StreamService::recover(config, &factory).expect("recover");
    assert_eq!(report.batches_replayed, journaled);
    let snap = recovered.metrics_snapshot();
    assert_eq!(
        snap.counter("stream.recovery.batches_replayed"),
        Some(report.batches_replayed as u64),
        "replay counter disagrees with the report"
    );
    assert!(
        snap.histogram("phase.wal_replay").is_some(),
        "replay must be span-timed"
    );
    assert!(
        snap.counter("stream.wal.appends").is_some(),
        "recovered WAL stats must be registered"
    );
}
