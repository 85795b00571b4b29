//! Differential correctness of the delta stream.
//!
//! The service's contract is that a consumer replaying the emitted
//! [`ResultDelta`]s against an initially-empty pair set reconstructs the
//! engine's `result_at(t)` **exactly at every tick** — and that the
//! stream is strict (no `PairAdded` for a held pair, no `PairRemoved`
//! for an absent one: duplicates and losses are structurally
//! impossible, not just coincidentally absent). These tests pin that
//! for every engine, at thread counts 1 and 4, over ≥ 60 ticks, and
//! additionally pin that the delta stream is **bit-identical across
//! thread counts** — the streaming extension inherits PR 1's parallel
//! determinism guarantee.
//!
//! The second half kills a journaled service by truncating its WAL
//! mid-record and proves recovery lands on the last durable batch with
//! no duplicated or lost deltas across the crash boundary.

use std::collections::HashSet;
use std::sync::Arc;

use cij_core::{
    ContinuousJoinEngine, EngineConfig, EtpEngine, MtbEngine, NaiveEngine, PairKey, TcEngine,
};
use cij_geom::Time;
use cij_storage::{BufferPool, BufferPoolConfig, InMemoryStore};
use cij_stream::{
    IngestOutcome, OutboxItem, ResultDelta, StampedDelta, StreamConfig, StreamService,
    SubscriptionFilter,
};
use cij_tpr::TprResult;
use cij_workload::{generate_pair, Distribution, MovingObject, ObjectUpdate, Params, UpdateStream};

mod common;
use common::TempWal;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EngineKind {
    Naive,
    Tc,
    Etp,
    Mtb,
}

fn small_params(seed: u64) -> Params {
    Params {
        dataset_size: 100,
        distribution: Distribution::Uniform,
        seed,
        space: 200.0,
        object_size_pct: 1.0,
        ..Params::default()
    }
}

fn pool() -> BufferPool {
    BufferPool::new(
        Arc::new(InMemoryStore::new()),
        BufferPoolConfig::with_capacity(128),
    )
}

fn build_engine(
    kind: EngineKind,
    config: &EngineConfig,
    set_a: &[MovingObject],
    set_b: &[MovingObject],
    start: Time,
) -> TprResult<Box<dyn ContinuousJoinEngine>> {
    Ok(match kind {
        EngineKind::Naive => Box::new(NaiveEngine::new(pool(), *config, set_a, set_b, start)?),
        EngineKind::Tc => Box::new(TcEngine::new(pool(), *config, set_a, set_b, start)?),
        EngineKind::Etp => Box::new(EtpEngine::new(pool(), *config, set_a, set_b, start)?),
        EngineKind::Mtb => Box::new(MtbEngine::new(pool(), *config, set_a, set_b, start)?),
    })
}

/// Pre-generates the whole update schedule so multiple services (and a
/// post-crash resubmission) can be driven over the identical workload.
fn scheduled_updates(
    params: &Params,
    a: &[MovingObject],
    b: &[MovingObject],
    ticks: u32,
) -> Vec<(Time, Vec<ObjectUpdate>)> {
    let mut stream = UpdateStream::new(params, a, b, 0.0);
    (1..=ticks)
        .map(|tick| {
            let now = Time::from(tick);
            (now, stream.tick(now))
        })
        .collect()
}

/// Applies one delta to the replayed pair set with strictness asserts:
/// an add of a held pair or a removal of an absent pair is a protocol
/// violation, not a tolerable redundancy.
fn replay_strict(set: &mut HashSet<PairKey>, delta: &ResultDelta, context: &str) {
    match delta {
        ResultDelta::PairAdded { pair, .. } => {
            assert!(set.insert(*pair), "duplicate PairAdded {pair:?} {context}");
        }
        ResultDelta::PairRemoved { pair } => {
            assert!(
                set.remove(pair),
                "PairRemoved for absent {pair:?} {context}"
            );
        }
    }
}

fn sorted(set: &HashSet<PairKey>) -> Vec<PairKey> {
    let mut v: Vec<PairKey> = set.iter().copied().collect();
    v.sort_unstable();
    v
}

/// Drives one service over the schedule, checking at every tick that
/// both the global delta stream and an all-filter subscriber's
/// deliveries reconstruct `result_at` exactly. Returns the full stream
/// for cross-thread-count comparison.
fn run_and_check(
    kind: EngineKind,
    threads: usize,
    set_a: &[MovingObject],
    set_b: &[MovingObject],
    schedule: &[(Time, Vec<ObjectUpdate>)],
) -> Vec<StampedDelta> {
    let config = StreamConfig::builder()
        .engine(EngineConfig::builder().threads(threads).build())
        .batch_capacity(1 << 16)
        .outbox_capacity(1 << 16)
        .build();
    let factory = |cfg: &EngineConfig,
                   a: &[MovingObject],
                   b: &[MovingObject],
                   start: Time|
     -> TprResult<Box<dyn ContinuousJoinEngine>> {
        build_engine(kind, cfg, a, b, start)
    };
    let mut svc = StreamService::new(config, set_a, set_b, 0.0, &factory).unwrap();
    let sub = svc.subscribe(SubscriptionFilter::All).unwrap();

    let mut replayed: HashSet<PairKey> = HashSet::new();
    let mut sub_replayed: HashSet<PairKey> = HashSet::new();
    let mut stream_out = Vec::new();
    for (now, updates) in schedule {
        for u in updates {
            assert_eq!(svc.submit(*u, *now), IngestOutcome::Accepted);
        }
        let deltas = svc.advance_to(*now).unwrap();
        for d in &deltas {
            assert_eq!(d.at, *now, "{kind:?}: delta stamped off-tick");
            replay_strict(&mut replayed, &d.delta, &format!("({kind:?} t={now})"));
        }
        let expect = svc.result_at(*now);
        assert_eq!(
            sorted(&replayed),
            expect,
            "{kind:?} threads={threads}: replayed deltas diverge from result_at at t={now}"
        );

        for item in svc.poll(sub).unwrap() {
            match item {
                OutboxItem::Delta(d) => replay_strict(
                    &mut sub_replayed,
                    &d.delta,
                    &format!("(subscriber {kind:?} t={now})"),
                ),
                OutboxItem::Gap { .. } => {
                    panic!("{kind:?}: subscriber with huge outbox saw a gap")
                }
            }
        }
        assert_eq!(
            sorted(&sub_replayed),
            expect,
            "{kind:?} threads={threads}: subscriber replay diverges at t={now}"
        );
        stream_out.extend(deltas);
    }
    assert!(
        !stream_out.is_empty(),
        "{kind:?}: workload produced no deltas — vacuous test"
    );
    stream_out
}

/// Each engine × thread counts {1, 4}: replay reconstructs `result_at`
/// at all 65 ticks, and the two delta streams are bit-identical.
fn differential_for(kind: EngineKind, seed: u64) {
    let params = small_params(seed);
    let (a, b) = generate_pair(&params, 0.0);
    let schedule = scheduled_updates(&params, &a, &b, 65);
    let stream_seq = run_and_check(kind, 1, &a, &b, &schedule);
    let stream_par = run_and_check(kind, 4, &a, &b, &schedule);
    assert_eq!(
        stream_seq, stream_par,
        "{kind:?}: delta stream differs between threads=1 and threads=4"
    );
}

#[test]
fn naive_delta_replay_matches_snapshots_across_threads() {
    differential_for(EngineKind::Naive, 301);
}

#[test]
fn tc_delta_replay_matches_snapshots_across_threads() {
    differential_for(EngineKind::Tc, 302);
}

#[test]
fn etp_delta_replay_matches_snapshots_across_threads() {
    differential_for(EngineKind::Etp, 303);
}

#[test]
fn mtb_delta_replay_matches_snapshots_across_threads() {
    differential_for(EngineKind::Mtb, 304);
}

// ----------------------------------------------------------------------
// Kill-and-recover: WAL truncated mid-record.
// ----------------------------------------------------------------------

#[test]
fn wal_truncated_mid_record_recovers_last_durable_batch_without_dup_or_loss() {
    const TICKS: u32 = 50;
    let params = small_params(400);
    let (a, b) = generate_pair(&params, 0.0);
    let schedule = scheduled_updates(&params, &a, &b, TICKS);
    let wal = TempWal::new("kill-recover");
    let factory = |cfg: &EngineConfig,
                   sa: &[MovingObject],
                   sb: &[MovingObject],
                   start: Time|
     -> TprResult<Box<dyn ContinuousJoinEngine>> {
        build_engine(EngineKind::Mtb, cfg, sa, sb, start)
    };
    let config = StreamConfig::builder()
        .batch_capacity(1 << 16)
        .outbox_capacity(1 << 16)
        .wal_path(wal.0.clone())
        .build();

    // ---- First life: run to completion, remembering every snapshot. --
    let mut svc = StreamService::new(config.clone(), &a, &b, 0.0, &factory).unwrap();
    let sub = svc.subscribe(SubscriptionFilter::All).unwrap();
    let mut snapshots: Vec<(Time, Vec<PairKey>)> = Vec::new();
    for (now, updates) in &schedule {
        for u in updates {
            assert_eq!(svc.submit(*u, *now), IngestOutcome::Accepted);
        }
        svc.advance_to(*now).unwrap();
        snapshots.push((*now, svc.result_at(*now)));
    }
    let journaled_ticks: Vec<Time> = schedule
        .iter()
        .filter(|(_, ups)| !ups.is_empty())
        .map(|(t, _)| *t)
        .collect();
    assert!(
        journaled_ticks.len() >= 3,
        "workload too sparse for a meaningful crash test"
    );
    drop(svc); // the "crash": undelivered outbox state dies here

    // ---- Tear the log: cut into the last appended record. ------------
    let len = std::fs::metadata(&wal.0).unwrap().len();
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(&wal.0)
        .unwrap();
    file.set_len(len - 5).unwrap(); // mid-CRC/payload of the tail record
    drop(file);

    // ---- Second life: recover and verify the durable prefix. ---------
    let (mut recovered, report) = StreamService::recover(config, &factory).unwrap();
    assert!(report.tail_truncated, "the torn tail must be detected");
    assert_eq!(report.batches_replayed, journaled_ticks.len() - 1);
    let last_durable = journaled_ticks[journaled_ticks.len() - 2];
    assert_eq!(report.last_tick, last_durable);
    assert_eq!(recovered.now(), last_durable);
    assert_eq!(report.subscribers, 1, "subscription state survives");

    // Engine state is exactly the pre-crash state at the last durable
    // batch — the snapshot the first life recorded at that tick.
    let expect_at_durable = &snapshots
        .iter()
        .find(|(t, _)| *t == last_durable)
        .unwrap()
        .1;
    assert_eq!(&recovered.result_at(last_durable), expect_at_durable);

    // The surviving subscriber: a gap marker (its old outbox is gone),
    // then a catch-up snapshot that rebuilds the durable state with no
    // duplicates.
    let items = recovered.poll(sub).unwrap();
    assert!(
        matches!(items.first(), Some(OutboxItem::Gap { dropped }) if *dropped >= 1),
        "recovery must surface a gap marker first, got {:?}",
        items.first()
    );
    let mut sub_replayed: HashSet<PairKey> = HashSet::new();
    for item in &items[1..] {
        match item {
            OutboxItem::Delta(d) => {
                assert!(d.delta.is_add(), "catch-up snapshot is adds only");
                replay_strict(&mut sub_replayed, &d.delta, "(catch-up)");
            }
            OutboxItem::Gap { .. } => panic!("only one gap marker"),
        }
    }
    assert_eq!(&sorted(&sub_replayed), expect_at_durable);

    // ---- Replayed future: resubmit everything after the durable tick.
    // The lost tail batch is re-ingested like any fresh work; from then
    // on the recovered timeline must re-converge with the first life
    // tick for tick, and the subscriber's delta replay must track it
    // strictly (no duplicate adds, no removals of absent pairs).
    for (now, updates) in schedule.iter().filter(|(t, _)| *t > last_durable) {
        for u in updates {
            assert_eq!(recovered.submit(*u, *now), IngestOutcome::Accepted);
        }
        recovered.advance_to(*now).unwrap();
        let expect = &snapshots.iter().find(|(t, _)| t == now).unwrap().1;
        assert_eq!(
            &recovered.result_at(*now),
            expect,
            "recovered timeline diverges from first life at t={now}"
        );
        for item in recovered.poll(sub).unwrap() {
            match item {
                OutboxItem::Delta(d) => {
                    replay_strict(
                        &mut sub_replayed,
                        &d.delta,
                        &format!("(post-crash t={now})"),
                    );
                }
                OutboxItem::Gap { .. } => panic!("no further gaps after recovery"),
            }
        }
        assert_eq!(
            &sorted(&sub_replayed),
            expect,
            "subscriber replay diverges after recovery at t={now}"
        );
    }
}

#[test]
fn recovery_of_a_clean_log_replays_everything() {
    let params = small_params(401);
    let (a, b) = generate_pair(&params, 0.0);
    let schedule = scheduled_updates(&params, &a, &b, 20);
    let wal = TempWal::new("clean-recover");
    let factory = |cfg: &EngineConfig,
                   sa: &[MovingObject],
                   sb: &[MovingObject],
                   start: Time|
     -> TprResult<Box<dyn ContinuousJoinEngine>> {
        build_engine(EngineKind::Tc, cfg, sa, sb, start)
    };
    let config = StreamConfig::builder().wal_path(wal.0.clone()).build();

    let mut svc = StreamService::new(config.clone(), &a, &b, 0.0, &factory).unwrap();
    for (now, updates) in &schedule {
        for u in updates {
            assert_eq!(svc.submit(*u, *now), IngestOutcome::Accepted);
        }
        svc.advance_to(*now).unwrap();
    }
    let final_tick = schedule.last().unwrap().0;
    let expect = svc.result_at(final_tick);
    let journaled: Vec<Time> = schedule
        .iter()
        .filter(|(_, ups)| !ups.is_empty())
        .map(|(t, _)| *t)
        .collect();
    drop(svc);

    let (recovered, report) = StreamService::recover(config, &factory).unwrap();
    assert!(!report.tail_truncated);
    assert_eq!(report.batches_replayed, journaled.len());
    assert_eq!(report.last_tick, *journaled.last().unwrap());
    assert_eq!(recovered.result_at(final_tick), expect);
}
