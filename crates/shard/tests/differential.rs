//! The sharding correctness contract: a [`ShardCoordinator`] must be
//! observationally identical to the single engine it decomposes —
//! `result_at` every tick, and the stream-service delta sequence — for
//! every partition policy × K ∈ {1, 2, 4} × coordinator threads ∈
//! {1, 4}, including runs with forced cross-shard migrations and
//! **forced mid-run re-partitions**
//! (boundary shifts, shard splits, shard merges via
//! [`ShardCoordinator::rebalance_to`]). Each index pair the engines run
//! on (MTB, TC, Naive) is sharded through `ShardCoordinator::<P>::new`
//! and checked against `BufferedEngine<P>`.

use std::collections::BTreeSet;
use std::sync::Arc;

use cij_core::{
    BufferedEngine, ContinuousJoinEngine, EngineConfig, IndexPair, MtbEngine, MtbPair, NaivePair,
    TcPair,
};
use cij_geom::{MovingRect, Rect, Time};
use cij_shard::{PartitionPolicy, ShardCoordinator, VelocityBandPolicy};
use cij_storage::{BufferPool, BufferPoolConfig, InMemoryStore};
use cij_tpr::ObjectId;
use cij_workload::{generate_pair, Distribution, ObjectUpdate, Params, SetTag, UpdateStream};

/// Trajectory-independent placement by id modulo `K` — the one
/// behaviour no band policy can produce (`migrations() == 0` whatever
/// the objects do, movers of a rebalance decided by ids alone), kept as
/// a test-local policy since no deployment shards this way.
struct HashPolicy(usize);

impl PartitionPolicy for HashPolicy {
    fn name(&self) -> &'static str {
        "hash"
    }
    fn shard_count(&self) -> usize {
        self.0
    }
    fn shard_of(&self, id: ObjectId, _mbr: &MovingRect) -> usize {
        (id.0 % self.0 as u64) as usize
    }
}

fn pool() -> BufferPool {
    BufferPool::new(
        Arc::new(InMemoryStore::new()),
        BufferPoolConfig::with_capacity(256),
    )
}

/// Short T_M so 40 ticks cover two full re-registration rounds, and the
/// velocity-skew mix so the band policy sees both classes.
fn skew_params(seed: u64) -> Params {
    Params {
        dataset_size: 100,
        distribution: Distribution::VelocitySkew,
        seed,
        space: 200.0,
        object_size_pct: 1.0,
        maximum_update_interval: 20.0,
        ..Params::default()
    }
}

fn engine_config(params: &Params) -> EngineConfig {
    EngineConfig {
        t_m: params.maximum_update_interval,
        ..EngineConfig::default()
    }
}

/// The coordinator over `P` partitions of `(a, b)` at t = 0.
fn sharded<P: IndexPair<Config = EngineConfig>>(
    config: EngineConfig,
    policy: Arc<dyn PartitionPolicy>,
    a: &[cij_workload::MovingObject],
    b: &[cij_workload::MovingObject],
) -> ShardCoordinator<P> {
    ShardCoordinator::<P>::new(pool(), config, policy, a, b, 0.0).expect("coordinator")
}

/// Runs coordinator and single-engine oracle in lockstep over the same
/// deterministic stream, re-partitioning the coordinator at every
/// `(tick, policy)` of `schedule`, asserting equal answers every tick —
/// including the rebalance ticks themselves — and counter/population
/// conservation at the end. Returns the coordinator for further
/// assertions.
fn run_lockstep_rebalancing<P: IndexPair<Config = EngineConfig>>(
    initial: Arc<dyn PartitionPolicy>,
    schedule: &[(u32, Arc<dyn PartitionPolicy>)],
    params: &Params,
    threads: usize,
    ticks: u32,
) -> ShardCoordinator<P> {
    let (a, b) = generate_pair(params, 0.0);
    let config = engine_config(params);
    let mut oracle = BufferedEngine::<P>::new(pool(), config, &a, &b, 0.0).expect("oracle");
    let sharded_config = EngineConfig { threads, ..config };
    let mut coord = sharded::<P>(sharded_config, initial.clone(), &a, &b);

    let mut stream = UpdateStream::new(params, &a, &b, 0.0);
    oracle.run_initial_join(0.0).expect("oracle initial");
    coord.run_initial_join(0.0).expect("sharded initial");
    assert_eq!(
        coord.result_at(0.0),
        oracle.result_at(0.0),
        "policy={} K={} threads={threads}: initial join diverged",
        initial.name(),
        initial.shard_count()
    );

    let mut expected_rebalances = 0u64;
    let mut expected_moved = 0u64;
    for tick in 1..=ticks {
        let now = Time::from(tick);
        let updates = stream.tick(now);
        oracle.advance_time(now).expect("oracle advance");
        coord.advance_time(now).expect("sharded advance");
        for u in &updates {
            oracle.apply_update(u, now).expect("oracle update");
        }
        coord.apply_batch(&updates, now).expect("sharded batch");
        oracle.gc(now);
        coord.gc(now);
        if let Some((_, next)) = schedule.iter().find(|(t, _)| *t == tick) {
            let moved = coord
                .rebalance_to(next.clone(), now)
                .expect("forced rebalance");
            expected_rebalances += 1;
            expected_moved += moved as u64;
            assert_eq!(coord.shard_count(), next.shard_count(), "t={now}");
        }
        assert_eq!(
            coord.result_at(now),
            oracle.result_at(now),
            "policy={} K={} threads={threads}: diverged at t={now}",
            initial.name(),
            initial.shard_count()
        );
    }

    // Conservation: every rebalance is counted, every object is still
    // placed in exactly one shard, and the per-shard populations sum
    // back to the datasets.
    assert_eq!(coord.rebalances(), expected_rebalances);
    assert_eq!(coord.rebalance_moved(), expected_moved);
    let report = coord.report();
    assert_eq!(report.rebalances, expected_rebalances);
    assert_eq!(report.rebalance_moved, expected_moved);
    assert_eq!(report.population_a.iter().sum::<usize>(), a.len());
    assert_eq!(report.population_b.iter().sum::<usize>(), b.len());
    coord
}

/// Lockstep without re-partitions — the fixed-policy contract.
fn run_lockstep<P: IndexPair<Config = EngineConfig>>(
    policy: Arc<dyn PartitionPolicy>,
    params: &Params,
    threads: usize,
    ticks: u32,
) -> ShardCoordinator<P> {
    run_lockstep_rebalancing::<P>(policy, &[], params, threads, ticks)
}

#[test]
fn velocity_bands_match_oracle_across_k_and_threads() {
    let params = skew_params(41);
    for k in [1usize, 2, 4] {
        for threads in [1usize, 4] {
            let policy = Arc::new(VelocityBandPolicy::new(k, params.max_speed));
            let coord = run_lockstep::<MtbPair>(policy, &params, threads, 40);
            assert_eq!(coord.engine_count(), k);
            if k == 4 {
                // Both skew classes straddle a K=4 band boundary (0.25
                // and 0.75 of max speed), so voluntary re-steers migrate
                // objects as a matter of course. (At K=2 the single
                // boundary at 0.5 sits in the gap between the classes.)
                assert!(
                    coord.migrations() > 0,
                    "K={k}: no cross-shard migrations exercised"
                );
            }
        }
    }
}

#[test]
fn hash_matches_oracle_across_k_and_threads() {
    let params = skew_params(42);
    for k in [1usize, 2, 4] {
        for threads in [1usize, 4] {
            let policy = Arc::new(HashPolicy(k));
            let coord = run_lockstep::<MtbPair>(policy, &params, threads, 40);
            assert_eq!(coord.engine_count(), k);
            // Id-hash placement never moves an object.
            assert_eq!(coord.migrations(), 0);
        }
    }
}

#[test]
fn thrashing_pool_with_two_threads_matches_brute_force() {
    // Every other case here runs a pool that holds the whole index. This
    // one gives four partitions and a two-thread initial join 8 frames to
    // share, so each partition's pages are evicted by its neighbours'.
    const FRAMES: usize = 8;
    let params = skew_params(47);
    let (a, b) = generate_pair(&params, 0.0);
    let pool = BufferPool::new(
        Arc::new(InMemoryStore::new()),
        BufferPoolConfig::with_capacity(FRAMES),
    );
    let config = EngineConfig {
        threads: 2,
        ..engine_config(&params)
    };
    let mut coord = ShardCoordinator::<MtbPair>::new(
        pool.clone(),
        config,
        Arc::new(VelocityBandPolicy::new(4, params.max_speed)),
        &a,
        &b,
        0.0,
    )
    .expect("coordinator");
    assert_eq!(coord.engine_count(), 4);

    let mut stream = UpdateStream::new(&params, &a, &b, 0.0);
    coord.run_initial_join(0.0).expect("initial join");
    for tick in 0..=40u32 {
        let now = Time::from(tick);
        if tick > 0 {
            let updates = stream.tick(now);
            coord.advance_time(now).expect("advance");
            coord.apply_batch(&updates, now).expect("batch");
            coord.gc(now);
        }
        let expect = cij_join::brute::brute_pairs_at(
            &stream.snapshot(SetTag::A),
            &stream.snapshot(SetTag::B),
            now,
        );
        assert_eq!(coord.result_at(now), expect, "diverged at t={now}");
    }
    assert!(
        coord.migrations() > 0,
        "no cross-shard migrations exercised"
    );

    // `<=`, not `==`: `BufferPool::free` lowers residency, and whether the
    // last free of the run lands after the last fault is a thread race.
    let io = pool.stats().snapshot();
    assert!(pool.resident() <= FRAMES);
    assert!(
        io.physical_reads > 20 * FRAMES as u64 && io.physical_writes > 20 * FRAMES as u64,
        "the pool was meant to thrash: {io:?}"
    );
}

#[test]
fn tc_engine_sharded_matches_oracle() {
    let params = skew_params(44);
    let coord = run_lockstep::<TcPair>(
        Arc::new(VelocityBandPolicy::new(4, params.max_speed)),
        &params,
        4,
        30,
    );
    assert!(coord.migrations() > 0);
    run_lockstep::<TcPair>(Arc::new(HashPolicy(2)), &params, 1, 30);
}

#[test]
fn naive_engine_sharded_matches_oracle() {
    let params = skew_params(45);
    run_lockstep::<NaivePair>(
        Arc::new(VelocityBandPolicy::new(2, params.max_speed)),
        &params,
        4,
        25,
    );
}

/// Forced re-partitions under the velocity axis: a boundary shift at
/// K = 2, a split to K = 4 (empty partitions added, then filled by the
/// movers), and a merge back to K = 2 (emptied partitions dropped) —
/// each × threads {1, 4}, all bit-identical to the oracle every tick.
#[test]
fn velocity_rebalance_shift_split_merge_matches_oracle() {
    let params = skew_params(48);
    for threads in [1usize, 4] {
        let schedule: Vec<(u32, Arc<dyn PartitionPolicy>)> = vec![
            // K=2 boundary shift: 1.5 (equal-width) → 0.9.
            (10, Arc::new(VelocityBandPolicy::from_edges(vec![0.9]))),
            // Split: K=2 → K=4 at skew-aware edges.
            (
                20,
                Arc::new(VelocityBandPolicy::from_edges(vec![0.5, 1.5, 2.4])),
            ),
            // Merge: K=4 → K=2.
            (30, Arc::new(VelocityBandPolicy::from_edges(vec![1.2]))),
        ];
        let coord = run_lockstep_rebalancing::<MtbPair>(
            Arc::new(VelocityBandPolicy::new(2, params.max_speed)),
            &schedule,
            &params,
            threads,
            40,
        );
        assert_eq!(coord.rebalances(), 3);
        assert!(coord.rebalance_moved() > 0, "no object ever relocated");
        assert_eq!(coord.shard_count(), 2);
        assert_eq!(coord.engine_count(), 2);
    }
}

/// Forced re-partitions under id-hash placement: K=2 → K=4 → K=2.
/// Hash shards are trajectory-independent, so the movers are exactly
/// the ids whose hash changes modulus — a pure split/merge stress of
/// the move-only rebalance.
#[test]
fn hash_rebalance_split_merge_matches_oracle() {
    let params = skew_params(49);
    for threads in [1usize, 4] {
        let schedule: Vec<(u32, Arc<dyn PartitionPolicy>)> =
            vec![(12, Arc::new(HashPolicy(4))), (24, Arc::new(HashPolicy(2)))];
        let coord = run_lockstep_rebalancing::<MtbPair>(
            Arc::new(HashPolicy(2)),
            &schedule,
            &params,
            threads,
            36,
        );
        assert_eq!(coord.rebalances(), 2);
        assert!(coord.rebalance_moved() > 0);
        // Rebalance moves must not be misattributed to update routing.
        assert_eq!(coord.migrations(), 0);
    }
}

/// The pairs with trajectory-keyed removal (Naive, TC) survive split +
/// merge too.
#[test]
fn tc_and_naive_rebalance_match_oracle() {
    let params = skew_params(51);
    let schedule: Vec<(u32, Arc<dyn PartitionPolicy>)> = vec![
        (
            8,
            Arc::new(VelocityBandPolicy::from_edges(vec![0.6, 1.5, 2.5])),
        ),
        (16, Arc::new(VelocityBandPolicy::from_edges(vec![1.5]))),
    ];
    let initial = || Arc::new(VelocityBandPolicy::new(2, params.max_speed));
    let tc = run_lockstep_rebalancing::<TcPair>(initial(), &schedule, &params, 4, 24);
    assert_eq!(tc.rebalances(), 2);
    let naive = run_lockstep_rebalancing::<NaivePair>(initial(), &schedule, &params, 1, 24);
    assert_eq!(naive.rebalances(), 2);
}

/// A hand-built update that flips an object between the extreme speed
/// bands must migrate it and keep the answers identical — the surgical
/// version of the migration property the lockstep runs hit statistically.
#[test]
fn forced_migration_preserves_results_and_placement() {
    let params = skew_params(46);
    let (a, b) = generate_pair(&params, 0.0);
    let config = engine_config(&params);
    let policy = Arc::new(VelocityBandPolicy::new(4, params.max_speed));
    let mut oracle = MtbEngine::new(pool(), config, &a, &b, 0.0).expect("oracle");
    let mut coord = sharded::<MtbPair>(config, policy.clone(), &a, &b);
    oracle.run_initial_join(0.0).expect("oracle initial");
    coord.run_initial_join(0.0).expect("sharded initial");

    // Ping-pong one object between a crawl (band 0) and top speed
    // (band 3), forcing a migration every tick.
    let subject = a[0];
    let mut current = subject.mbr;
    let mut last_update = 0.0;
    let migrations_before = coord.migrations();
    for tick in 1..=6u32 {
        let now = Time::from(tick);
        let here = current.at(now);
        let speed = if tick % 2 == 1 {
            0.95 * params.max_speed
        } else {
            0.05 * params.max_speed
        };
        let new_mbr = MovingRect::rigid(Rect::new(here.lo, here.hi), [speed, 0.0], now);
        let update = ObjectUpdate {
            id: subject.id,
            set: SetTag::A,
            old_mbr: current,
            last_update,
            new_mbr,
        };
        oracle.advance_time(now).expect("advance");
        coord.advance_time(now).expect("advance");
        oracle.apply_update(&update, now).expect("oracle update");
        coord.apply_update(&update, now).expect("sharded update");
        let expect_shard = if tick % 2 == 1 { 3 } else { 0 };
        assert_eq!(coord.shard_of(subject.id), Some(expect_shard));
        assert_eq!(coord.result_at(now), oracle.result_at(now), "t={now}");
        current = new_mbr;
        last_update = now;
    }
    assert_eq!(coord.migrations() - migrations_before, 6);
}

/// The population side of a removal is the engine's registration of
/// the object: an id it does not hold is refused as `ObjectNotFound`
/// and touches no population, and a live object's removal decrements
/// exactly its own set's shard.
#[test]
fn remove_object_of_an_unknown_id_is_refused() {
    let params = skew_params(52);
    let (a, b) = generate_pair(&params, 0.0);
    let policy = Arc::new(VelocityBandPolicy::new(2, params.max_speed));
    let mut coord = sharded::<MtbPair>(engine_config(&params), policy, &a, &b);
    coord.run_initial_join(0.0).expect("initial join");
    let before = coord.report();

    let unknown = ObjectId(1 << 40);
    let err = coord
        .remove_object(unknown, 1.0)
        .expect_err("an id never registered");
    assert!(matches!(err, cij_tpr::TprError::ObjectNotFound(id) if id == unknown));
    let after = coord.report();
    assert_eq!(after.population_a, before.population_a);
    assert_eq!(after.population_b, before.population_b);

    let victim = a[0];
    coord.remove_object(victim.id, 1.0).expect("a live object");
    let err = coord
        .remove_object(victim.id, 1.0)
        .expect_err("removed twice");
    assert!(matches!(err, cij_tpr::TprError::ObjectNotFound(id) if id == victim.id));
    let after = coord.report();
    assert_eq!(after.population_a.iter().sum::<usize>(), a.len() - 1);
    assert_eq!(after.population_b, before.population_b);
    assert_eq!(coord.shard_of(victim.id), None);
}

/// The engine's registrations are the only delete keys. A caller whose
/// updates all carry stale `old_mbr` / `last_update` — the genesis
/// registration, long replaced — gets exactly the honest caller's
/// answers, through a migration every tick, a same-band re-registration
/// and a removal by id.
#[test]
fn stale_delete_keys_get_the_honest_answer() {
    let params = skew_params(49);
    let (a, b) = generate_pair(&params, 0.0);
    let policy = Arc::new(VelocityBandPolicy::new(4, params.max_speed));
    let coordinator = || {
        let mut coord = sharded::<MtbPair>(engine_config(&params), policy.clone(), &a, &b);
        coord.run_initial_join(0.0).expect("initial join");
        coord
    };
    let (mut honest, mut stale) = (coordinator(), coordinator());
    let resident = *a[2..]
        .iter()
        .find(|o| honest.shard_of(o.id) == Some(0))
        .expect("a band-0 resident");
    let objects = [a[0], a[1], resident];
    let mut tracked: Vec<(MovingRect, Time)> = objects.iter().map(|o| (o.mbr, 0.0)).collect();
    let (slow, fast) = (0.05 * params.max_speed, 0.95 * params.max_speed);
    // Four ticks apart, so the stale `last_update` soon names an MTB
    // bucket (T_M / 2 = 10 ticks wide) the object has left.
    for tick in 1..=5u32 {
        let now = Time::from(4 * tick);
        let (first, second) = if tick % 2 == 1 {
            (fast, slow)
        } else {
            (slow, fast)
        };
        let mut batch = Vec::new();
        for (slot, speed) in [(0, Some(first)), (1, Some(second)), (2, None)] {
            let (old_mbr, last_update) = tracked[slot];
            let here = old_mbr.at(now);
            let velocity = speed.map_or(old_mbr.vlo, |s| [s, 0.0]);
            let new_mbr = MovingRect::rigid(Rect::new(here.lo, here.hi), velocity, now);
            tracked[slot] = (new_mbr, now);
            let id = objects[slot].id;
            batch.push(ObjectUpdate {
                id,
                set: SetTag::A,
                old_mbr,
                last_update,
                new_mbr,
            });
        }
        let stale_batch: Vec<ObjectUpdate> = (batch.iter().zip(&objects))
            .map(|(u, genesis)| ObjectUpdate {
                old_mbr: genesis.mbr,
                last_update: 0.0,
                ..*u
            })
            .collect();
        honest.advance_time(now).expect("advance");
        stale.advance_time(now).expect("advance");
        honest.apply_batch(&batch, now).expect("honest batch");
        stale.apply_batch(&stale_batch, now).expect("stale batch");
        assert_eq!(stale.result_at(now), honest.result_at(now), "t={now}");
        assert_eq!(stale.shard_of(a[0].id), honest.shard_of(a[0].id));
    }
    assert!(honest.migrations() >= 8, "the movers must trade bands");
    assert_eq!(stale.migrations(), honest.migrations());

    let now = 20.0;
    let gone = objects[0];
    honest.remove_object(gone.id, now).expect("honest removal");
    stale.remove_object(gone.id, now).expect("stale removal");
    assert_eq!(stale.result_at(now), honest.result_at(now));
    assert!(honest.result_at(now).iter().all(|p| p.0 != gone.id));
    assert_eq!(stale.shard_of(gone.id), None);
}

/// The ping-pong above, doubled and batched: two objects swap between
/// the extreme bands in one tick, bracketed by two same-band updates, so
/// band 0's partition sees a re-registration, a departure, an arrival
/// and a re-registration in one phase 1. The migrations inside the batch
/// must leave answers, placement and change lists exactly the oracle's.
#[test]
fn interleaved_apply_remove_insert_apply_matches_oracle() {
    let params = skew_params(48);
    let (a, b) = generate_pair(&params, 0.0);
    let config = engine_config(&params);
    let policy = Arc::new(VelocityBandPolicy::new(4, params.max_speed));
    let mut oracle = MtbEngine::new(pool(), config, &a, &b, 0.0).expect("oracle");
    let mut coord = sharded::<MtbPair>(config, policy.clone(), &a, &b);
    oracle.enable_delta_tracking();
    coord.enable_delta_tracking();
    oracle.run_initial_join(0.0).expect("oracle initial");
    coord.run_initial_join(0.0).expect("sharded initial");

    // Two movers that trade places between band 0 and band 3 each tick,
    // and two band-0 residents that re-register without changing speed.
    let residents: Vec<_> = a[2..]
        .iter()
        .filter(|o| coord.shard_of(o.id) == Some(0))
        .take(2)
        .collect();
    assert_eq!(residents.len(), 2, "need two band-0 residents");
    let mut tracked: Vec<(cij_workload::MovingObject, Time)> =
        [a[0], a[1], *residents[0], *residents[1]]
            .into_iter()
            .map(|o| (o, 0.0))
            .collect();
    let (slow, fast) = (0.05 * params.max_speed, 0.95 * params.max_speed);
    let mut expected_migrations = 0;
    let migrations_before = coord.migrations();
    for tick in 1..=6u32 {
        let now = Time::from(tick);
        let mut step = |slot: usize, speed: Option<f64>| {
            let (object, last_update) = tracked[slot];
            let here = object.mbr.at(now);
            let velocity = speed.map_or(object.mbr.vlo, |s| [s, 0.0]);
            let new_mbr = MovingRect::rigid(Rect::new(here.lo, here.hi), velocity, now);
            tracked[slot] = (
                cij_workload::MovingObject {
                    id: object.id,
                    mbr: new_mbr,
                },
                now,
            );
            ObjectUpdate {
                id: object.id,
                set: SetTag::A,
                old_mbr: object.mbr,
                last_update,
                new_mbr,
            }
        };
        let (first, second) = if tick % 2 == 1 {
            (fast, slow)
        } else {
            (slow, fast)
        };
        let batch = [
            step(2, None),
            step(0, Some(first)),
            step(1, Some(second)),
            step(3, None),
        ];
        for (mover, speed) in [(a[0].id, first), (a[1].id, second)] {
            let target = if speed == fast { 3 } else { 0 };
            expected_migrations += u64::from(coord.shard_of(mover) != Some(target));
        }
        oracle.advance_time(now).expect("advance");
        coord.advance_time(now).expect("advance");
        for update in &batch {
            oracle.apply_update(update, now).expect("oracle update");
        }
        coord.apply_batch(&batch, now).expect("sharded batch");
        let (first_band, second_band) = if tick % 2 == 1 { (3, 0) } else { (0, 3) };
        assert_eq!(coord.shard_of(a[0].id), Some(first_band));
        assert_eq!(coord.shard_of(a[1].id), Some(second_band));
        assert_eq!(coord.shard_of(residents[0].id), Some(0));
        assert_eq!(coord.shard_of(residents[1].id), Some(0));
        assert_eq!(coord.result_at(now), oracle.result_at(now), "t={now}");
        // Both change lists are dirty lists over the same final state:
        // every pair either names must resolve identically.
        let mut dirty = oracle.take_result_changes().expect("tracking on");
        dirty.extend(coord.take_result_changes().expect("tracking on"));
        for pair in dirty {
            assert_eq!(
                coord.pair_status_at(pair, now),
                oracle.pair_status_at(pair, now),
                "t={now}: {pair:?}"
            );
        }
    }
    assert!(expected_migrations >= 11, "movers must swap every tick");
    assert_eq!(coord.migrations() - migrations_before, expected_migrations);
}

/// End-to-end through `cij-stream`: a service running the sharded
/// coordinator must emit the same (tick, pair, add/remove) event set as
/// one running the plain engine, and replaying either stream must
/// reconstruct `result_at` exactly (count conservation).
#[test]
fn stream_deltas_match_single_engine_and_conserve_counts() {
    use cij_stream::{OutboxItem, StreamConfig, StreamService, SubscriptionFilter};

    let params = skew_params(47);
    let (a, b) = generate_pair(&params, 0.0);
    let stream_config = StreamConfig::builder()
        .engine(engine_config(&params))
        .build();

    let mut single = StreamService::new(stream_config.clone(), &a, &b, 0.0, &|cfg, a, b, now| {
        Ok(Box::new(MtbEngine::new(pool(), *cfg, a, b, now)?))
    })
    .expect("single service");
    let mut sharded = StreamService::new(stream_config, &a, &b, 0.0, &|cfg, a, b, now| {
        let policy = Arc::new(VelocityBandPolicy::new(4, 3.0));
        let sharded_cfg = EngineConfig { threads: 4, ..*cfg };
        Ok(Box::new(ShardCoordinator::with_factory(
            pool(),
            sharded_cfg,
            policy,
            a,
            b,
            now,
            Arc::new(|pool, cfg, a, b, now| Ok(Box::new(MtbEngine::new(pool, *cfg, a, b, now)?))),
        )?))
    })
    .expect("sharded service");

    let sub_single = single.subscribe(SubscriptionFilter::All).expect("sub");
    let sub_sharded = sharded.subscribe(SubscriptionFilter::All).expect("sub");

    let mut workload = UpdateStream::new(&params, &a, &b, 0.0);
    let mut replay_single = BTreeSet::new();
    let mut replay_sharded = BTreeSet::new();
    let mut event_count = 0usize;
    for tick in 1..=30u32 {
        let now = Time::from(tick);
        for u in workload.tick(now) {
            single.submit(u, now);
            sharded.submit(u, now);
        }
        single.advance_to(now).expect("single advance");
        sharded.advance_to(now).expect("sharded advance");

        let drain = |svc: &mut StreamService, id, replay: &mut BTreeSet<_>| {
            let mut events = BTreeSet::new();
            for item in svc.poll(id).unwrap_or_default() {
                let OutboxItem::Delta(stamped) = item else {
                    panic!("no gaps expected in this run");
                };
                let pair = stamped.delta.pair();
                if stamped.delta.is_add() {
                    replay.insert(pair);
                } else {
                    replay.remove(&pair);
                }
                events.insert((stamped.at.to_bits(), pair, stamped.delta.is_add()));
            }
            events
        };
        let ev_single = drain(&mut single, sub_single, &mut replay_single);
        let ev_sharded = drain(&mut sharded, sub_sharded, &mut replay_sharded);
        assert_eq!(ev_sharded, ev_single, "event sets diverged at t={now}");
        event_count += ev_single.len();

        // Conservation: replaying the deltas reconstructs the answer.
        let answer: BTreeSet<_> = single.result_at(now).into_iter().collect();
        assert_eq!(replay_single, answer, "single replay broke at t={now}");
        assert_eq!(replay_sharded, answer, "sharded replay broke at t={now}");
        assert_eq!(
            sharded.result_at(now),
            single.result_at(now),
            "service answers diverged at t={now}"
        );
    }
    assert!(event_count > 0, "run produced no deltas at all");
}
