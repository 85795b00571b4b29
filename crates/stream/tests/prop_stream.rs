//! Property tests: delta/snapshot equivalence under arbitrary
//! workloads, through every engine, and across the WAL crash-recovery
//! boundary.
//!
//! The deterministic differential tests pin fixed seeds; these runs
//! draw workload shape (size, distribution, speed, extent, seed) and
//! service knobs from strategies, so the delta-replay invariant is
//! exercised across the parameter space rather than at one point.

use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::Arc;

use cij_core::{
    ContinuousJoinEngine, EngineConfig, EtpEngine, MtbEngine, NaiveEngine, PairKey, TcEngine,
};
use cij_geom::Time;
use cij_storage::{BufferPool, BufferPoolConfig, InMemoryStore};
use cij_stream::{IngestOutcome, ResultDelta, StreamConfig, StreamService};
use cij_tpr::TprResult;
use cij_workload::{generate_pair, Distribution, MovingObject, Params, UpdateStream};
use proptest::prelude::*;

fn pool() -> BufferPool {
    BufferPool::new(
        Arc::new(InMemoryStore::new()),
        BufferPoolConfig::with_capacity(128),
    )
}

fn arb_params() -> impl Strategy<Value = Params> {
    (
        30usize..70,
        prop_oneof![
            Just(Distribution::Uniform),
            Just(Distribution::Gaussian),
            Just(Distribution::Battlefield)
        ],
        1.0f64..4.0,
        0.5f64..2.5,
        any::<u64>(),
    )
        .prop_map(|(n, distribution, max_speed, size_pct, seed)| Params {
            dataset_size: n,
            distribution,
            max_speed,
            object_size_pct: size_pct,
            space: 150.0,
            seed,
            ..Params::default()
        })
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum EngineKind {
    Naive,
    Tc,
    Etp,
    Mtb,
}

fn arb_kind() -> impl Strategy<Value = EngineKind> {
    prop_oneof![
        Just(EngineKind::Naive),
        Just(EngineKind::Tc),
        Just(EngineKind::Etp),
        Just(EngineKind::Mtb),
    ]
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

fn replay(set: &mut HashSet<PairKey>, delta: &ResultDelta) -> Result<(), String> {
    match delta {
        ResultDelta::PairAdded { pair, .. } => {
            if !set.insert(*pair) {
                return Err(format!("duplicate add {pair:?}"));
            }
        }
        ResultDelta::PairRemoved { pair } => {
            if !set.remove(pair) {
                return Err(format!("removal of absent {pair:?}"));
            }
        }
    }
    Ok(())
}

fn sorted(set: &HashSet<PairKey>) -> Vec<PairKey> {
    let mut v: Vec<PairKey> = set.iter().copied().collect();
    v.sort_unstable();
    v
}

/// Scratch WAL path, removed on drop.
struct TempWal(PathBuf);

impl TempWal {
    fn new(tag: u64) -> Self {
        let path =
            std::env::temp_dir().join(format!("cij-stream-prop-{tag}-{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        Self(path)
    }
}

impl Drop for TempWal {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Any engine, any workload: replaying the delta stream from the
    /// empty set equals the snapshot answer at every tick of a 45-tick
    /// run.
    #[test]
    fn delta_replay_equals_snapshots(
        params in arb_params(),
        kind in arb_kind(),
    ) {
        let (a, b) = generate_pair(&params, 0.0);
        let factory = |cfg: &EngineConfig,
                       sa: &[MovingObject],
                       sb: &[MovingObject],
                       start: Time|
         -> TprResult<Box<dyn ContinuousJoinEngine>> {
            build_engine(kind, cfg, sa, sb, start)
        };
        let config = StreamConfig::builder().batch_capacity(1 << 16).build();
        let mut svc = StreamService::new(config, &a, &b, 0.0, &factory).unwrap();
        let mut stream = UpdateStream::new(&params, &a, &b, 0.0);
        let mut replayed: HashSet<PairKey> = HashSet::new();
        for tick in 1..=45u32 {
            let now = Time::from(tick);
            for u in stream.tick(now) {
                prop_assert_eq!(svc.submit(u, now), IngestOutcome::Accepted);
            }
            for d in svc.advance_to(now).unwrap() {
                if let Err(msg) = replay(&mut replayed, &d.delta) {
                    prop_assert!(false, "{:?} t={}: {}", kind, now, msg);
                }
            }
            prop_assert_eq!(
                sorted(&replayed),
                svc.result_at(now),
                "{:?} diverged at t={}",
                kind,
                now
            );
        }
    }

    /// Crash anywhere in the run (arbitrary truncation of the WAL tail,
    /// possibly mid-record): recovery lands on a prefix of the original
    /// timeline, and resubmitting the suffix re-converges with it — the
    /// delta-replay invariant holds across the boundary.
    #[test]
    fn delta_replay_survives_crash_recovery(
        params in arb_params(),
        kind in prop_oneof![
            Just(EngineKind::Tc),
            Just(EngineKind::Mtb),
            Just(EngineKind::Etp),
        ],
        cut in 1u64..200,
    ) {
        const TICKS: u32 = 30;
        let (a, b) = generate_pair(&params, 0.0);
        let mut stream = UpdateStream::new(&params, &a, &b, 0.0);
        let schedule: Vec<_> = (1..=TICKS)
            .map(|tick| {
                let now = Time::from(tick);
                (now, stream.tick(now))
            })
            .collect();
        let factory = |cfg: &EngineConfig,
                       sa: &[MovingObject],
                       sb: &[MovingObject],
                       start: Time|
         -> TprResult<Box<dyn ContinuousJoinEngine>> {
            build_engine(kind, cfg, sa, sb, start)
        };
        let wal = TempWal::new(params.seed ^ cut);
        let config = StreamConfig::builder()
            .batch_capacity(1 << 16)
            .wal_path(wal.0.clone())
            .build();

        // First life, recording every snapshot.
        let mut svc = StreamService::new(config.clone(), &a, &b, 0.0, &factory).unwrap();
        let mut snapshots = Vec::new();
        for (now, updates) in &schedule {
            for u in updates {
                prop_assert_eq!(svc.submit(*u, *now), IngestOutcome::Accepted);
            }
            svc.advance_to(*now).unwrap();
            snapshots.push((*now, svc.result_at(*now)));
        }
        drop(svc);

        // Crash: chop an arbitrary number of bytes off the log tail
        // (clamped so the genesis record always survives).
        let len = std::fs::metadata(&wal.0).unwrap().len();
        let genesis_floor = 16 + 1 + 8 + 2 * (4 + (a.len() as u64) * (8 + 9 * 8));
        let new_len = len.saturating_sub(cut).max(genesis_floor);
        let file = std::fs::OpenOptions::new().write(true).open(&wal.0).unwrap();
        file.set_len(new_len).unwrap();
        drop(file);

        // Second life.
        let (mut recovered, report) = StreamService::recover(config, &factory).unwrap();
        let last = report.last_tick;
        prop_assert!(last <= schedule.last().unwrap().0);
        if let Some((_, expect)) = snapshots.iter().find(|(t, _)| *t == last) {
            prop_assert_eq!(&recovered.result_at(last), expect, "at durable tick {}", last);
        }

        // Resubmit the suffix; the timeline must re-converge tick for tick.
        for (now, updates) in schedule.iter().filter(|(t, _)| *t > last) {
            for u in updates {
                prop_assert_eq!(recovered.submit(*u, *now), IngestOutcome::Accepted);
            }
            recovered.advance_to(*now).unwrap();
            let expect = &snapshots.iter().find(|(t, _)| t == now).unwrap().1;
            prop_assert_eq!(
                &recovered.result_at(*now),
                expect,
                "{:?} recovered timeline diverges at t={}",
                kind,
                now
            );
        }
    }
}
