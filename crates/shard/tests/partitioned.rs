//! The partitioned pair against the pair it splits.
//!
//! * At K = 1 a `PartitionedPair<MtbPair>` is the `MtbPair` it wraps,
//!   count for count: answers every tick, [`JoinCounters`], and the
//!   pool's logical reads and writes.
//! * A rebalance only moves objects between partitions: the counters,
//!   the answer and the change list stay as they were, and the answers
//!   after it still match brute force.
//! * Every object is indexed once: the partitions' index lengths sum to
//!   the live object count.
//! * Placement is derived: each partition holds exactly the objects whose
//!   registration the policy sends there, and the router's populations
//!   count them, through updates, removals, inserts and rebalances.

use std::sync::Arc;

use cij_core::{BufferedEngine, ContinuousJoinEngine, EngineConfig, MtbEngine, MtbPair, TcEngine};
use cij_geom::Time;
use cij_join::brute::brute_pairs_at;
use cij_shard::{
    PartitionPolicy, PartitionedConfig, PartitionedPair, ShardCoordinator, VelocityBandPolicy,
};
use cij_storage::{BufferPool, BufferPoolConfig, InMemoryStore};
use cij_tpr::{ObjectId, TprError};
use cij_workload::{generate_pair, Distribution, Params, SetTag, UpdateStream};
use proptest::prelude::*;

fn pool(cap: usize) -> BufferPool {
    BufferPool::new(
        Arc::new(InMemoryStore::new()),
        BufferPoolConfig::with_capacity(cap),
    )
}

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

/// Objects indexed over all partitions of `coord`, both sides.
fn indexed(coord: &ShardCoordinator) -> usize {
    (coord.partitions().iter())
        .map(|p| p.mtb_a().len() + p.mtb_b().len())
        .sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// K = 1: the same pages read and written, the same traversal work
    /// and the same answer at every tick, whatever the workload, pool or
    /// initial-join width.
    #[test]
    fn one_partition_is_count_identical_to_its_pair(
        n in 20usize..90,
        distribution in prop_oneof![
            Just(Distribution::Uniform),
            Just(Distribution::Gaussian),
            Just(Distribution::VelocitySkew)
        ],
        seed in any::<u64>(),
        cap in prop_oneof![Just(8usize), Just(64), Just(1024)],
        threads in 1usize..3,
    ) {
        let params = Params {
            dataset_size: n,
            distribution,
            seed,
            space: 150.0,
            maximum_update_interval: 20.0,
            ..Params::default()
        };
        let (a, b) = generate_pair(&params, 0.0);
        let config = EngineConfig {
            t_m: params.maximum_update_interval,
            threads,
            ..EngineConfig::default()
        };
        let partitioned = PartitionedConfig {
            inner: config,
            policy: Arc::new(VelocityBandPolicy::new(1, params.max_speed))
                as Arc<dyn PartitionPolicy>,
        };
        let mut plain = MtbEngine::new(pool(cap), config, &a, &b, 0.0).unwrap();
        let mut split =
            BufferedEngine::<PartitionedPair<MtbPair>>::new(pool(cap), partitioned, &a, &b, 0.0)
                .unwrap();
        let io = |e: &dyn ContinuousJoinEngine| {
            let s = e.pool().stats().snapshot();
            (s.logical_reads, s.logical_writes, s.allocations, s.frees)
        };
        plain.run_initial_join(0.0).unwrap();
        split.run_initial_join(0.0).unwrap();
        prop_assert_eq!(io(&split), io(&plain));
        let mut stream = UpdateStream::new(&params, &a, &b, 0.0);
        for tick in 1..=45u32 {
            let now = Time::from(tick);
            let updates = stream.tick(now);
            plain.apply_batch(&updates, now).unwrap();
            split.apply_batch(&updates, now).unwrap();
            plain.gc(now);
            split.gc(now);
            prop_assert_eq!(split.result_at(now), plain.result_at(now), "t={}", now);
            prop_assert_eq!(split.counters(), plain.counters(), "t={}", now);
            prop_assert_eq!(io(&split), io(&plain), "t={}", now);
        }
    }
}

/// Shift, split and merge each move objects and nothing else: counters,
/// the answer at `now` and later, and the change list are what they were
/// before the rebalance. Between rebalances the answer is brute force's,
/// and every object is indexed exactly once.
#[test]
fn rebalance_moves_objects_and_nothing_else() {
    let params = skew_params(53);
    let (a, b) = generate_pair(&params, 0.0);
    let config = EngineConfig {
        t_m: params.maximum_update_interval,
        ..EngineConfig::default()
    };
    let mut coord = ShardCoordinator::new(
        pool(256),
        config,
        Arc::new(VelocityBandPolicy::new(2, params.max_speed)),
        &a,
        &b,
        0.0,
    )
    .unwrap();
    coord.enable_delta_tracking();
    coord.run_initial_join(0.0).unwrap();
    let live = a.len() + b.len();
    assert_eq!(indexed(&coord), live);

    let schedule: [(u32, Vec<f64>); 3] = [
        (8, vec![0.6]),            // shift
        (16, vec![0.5, 1.5, 2.4]), // split to K = 4
        (24, vec![1.2]),           // merge to K = 2
    ];
    let mut stream = UpdateStream::new(&params, &a, &b, 0.0);
    let mut moved = 0;
    for tick in 1..=32u32 {
        let now = Time::from(tick);
        let updates = stream.tick(now);
        coord.apply_batch(&updates, now).unwrap();
        coord.gc(now);
        let expect = brute_pairs_at(
            &stream.snapshot(SetTag::A),
            &stream.snapshot(SetTag::B),
            now,
        );
        assert_eq!(coord.result_at(now), expect, "t={now}");
        coord.take_result_changes().expect("tracking on");

        if let Some((_, edges)) = schedule.iter().find(|(t, _)| *t == tick) {
            let counters = coord.counters();
            let answers: Vec<_> = [now, now + 5.0, now + 15.0]
                .map(|t| coord.result_at(t))
                .into();
            let k = edges.len() + 1;
            let policy = Arc::new(VelocityBandPolicy::from_edges(edges.clone()));
            let n = coord.rebalance_to(policy, now).unwrap();
            assert!(n > 0, "t={now}: the rebalance moved nobody");
            moved += n;
            assert_eq!(coord.counters(), counters, "t={now}: a rebalance probed");
            let after: Vec<_> = [now, now + 5.0, now + 15.0]
                .map(|t| coord.result_at(t))
                .into();
            assert_eq!(after, answers, "t={now}: a rebalance moved the answer");
            assert_eq!(coord.take_result_changes(), Some(Vec::new()), "t={now}");
            assert_eq!(coord.shard_count(), k);
            assert_eq!(indexed(&coord), live, "t={now}: an object indexed twice");
        }
    }
    assert_eq!(coord.rebalances(), 3);
    assert_eq!(coord.rebalance_moved(), moved as u64);
    assert!(coord.migrations() > 0, "no update crossed a band");
    assert_eq!(indexed(&coord), live);
}

/// The partition index lengths track the live set through migrations,
/// removals and inserts: no object is ever replicated.
#[test]
fn partition_lengths_sum_to_the_live_set() {
    let params = skew_params(54);
    let (a, b) = generate_pair(&params, 0.0);
    let config = EngineConfig {
        t_m: params.maximum_update_interval,
        ..EngineConfig::default()
    };
    let mut coord = ShardCoordinator::new(
        pool(256),
        config,
        Arc::new(VelocityBandPolicy::new(4, params.max_speed)),
        &a,
        &b,
        0.0,
    )
    .unwrap();
    coord.run_initial_join(0.0).unwrap();
    let mut stream = UpdateStream::new(&params, &a, &b, 0.0);
    for tick in 1..=20u32 {
        let now = Time::from(tick);
        coord.apply_batch(&stream.tick(now), now).unwrap();
        assert_eq!(indexed(&coord), a.len() + b.len(), "t={tick}");
        let report = coord.report();
        for (shard, part) in coord.partitions().iter().enumerate() {
            assert_eq!(part.mtb_a().len(), report.population_a[shard]);
            assert_eq!(part.mtb_b().len(), report.population_b[shard]);
        }
    }
    assert!(coord.migrations() > 0);
    let gone = a[3];
    let at = 21.0;
    let current = stream.snapshot(SetTag::A);
    let (_, mbr) = current.iter().find(|(id, _)| *id == gone.id).unwrap();
    coord.remove_object(gone.id, at).unwrap();
    assert_eq!(indexed(&coord), a.len() + b.len() - 1);
    coord
        .restore_object(SetTag::A, gone.id, mbr.rebase(at), at, at)
        .unwrap();
    assert_eq!(indexed(&coord), a.len() + b.len());
}

/// After every step of a seeded schedule — migrating updates,
/// `remove_object`, `restore_object` and forced splits, merges and
/// boundary shifts — each shard's population on each side equals the
/// number of registrations that derive to that shard and the length of
/// that partition's index on that side.
#[test]
fn placement_is_derived_and_populations_never_drift() {
    fn check(coord: &ShardCoordinator, step: &str) {
        let report = coord.report();
        let k = coord.shard_count();
        let mut derived = [vec![0usize; k], vec![0usize; k]];
        for (&id, r) in coord.registrations() {
            let shard = coord.shard_of(id).expect("a registered object has a shard");
            derived[usize::from(r.set == SetTag::B)][shard] += 1;
        }
        for (shard, part) in coord.partitions().iter().enumerate() {
            let a = (
                report.population_a[shard],
                derived[0][shard],
                part.mtb_a().len(),
            );
            let b = (
                report.population_b[shard],
                derived[1][shard],
                part.mtb_b().len(),
            );
            assert!(
                a.0 == a.1 && a.1 == a.2,
                "{step}: shard {shard} side A {a:?}"
            );
            assert!(
                b.0 == b.1 && b.1 == b.2,
                "{step}: shard {shard} side B {b:?}"
            );
        }
        assert_eq!(report.population_a.len(), k, "{step}");
        assert_eq!(indexed(coord), coord.registrations().len(), "{step}");
    }
    // splitmix64: a seeded schedule with no dependency.
    let mut state = 0x5eed_u64;
    let mut next = move |n: usize| {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % n as u64) as usize
    };

    let params = skew_params(55);
    let (a, b) = generate_pair(&params, 0.0);
    let config = EngineConfig {
        t_m: params.maximum_update_interval,
        ..EngineConfig::default()
    };
    let policy = Arc::new(VelocityBandPolicy::new(2, params.max_speed));
    let mut coord = ShardCoordinator::new(pool(256), config, policy, &a, &b, 0.0).unwrap();
    coord.run_initial_join(0.0).unwrap();
    check(&coord, "genesis");

    let rebalances: [(u32, Vec<f64>); 4] = [
        (10, vec![0.6]),           // shift
        (20, vec![0.5, 1.5, 2.4]), // split to K = 4
        (30, vec![1.2]),           // merge to K = 2
        (40, vec![0.3, 0.9]),      // split to K = 3
    ];
    let mut stream = UpdateStream::new(&params, &a, &b, 0.0);
    let mut retired: Vec<(SetTag, ObjectId)> = Vec::new();
    let (mut removals, mut inserts) = (0, 0);
    for tick in 1..=50u32 {
        let now = Time::from(tick);
        let updates: Vec<_> = (stream.tick(now).into_iter())
            .filter(|u| !retired.iter().any(|&(_, id)| id == u.id))
            .collect();
        coord.apply_batch(&updates, now).unwrap();
        check(&coord, &format!("t={now} updates"));

        if next(2) == 0 {
            let mut live: Vec<(ObjectId, SetTag)> = (coord.registrations().iter())
                .map(|(&id, r)| (id, r.set))
                .collect();
            live.sort_unstable_by_key(|&(id, _)| id);
            let (id, set) = live[next(live.len())];
            coord.remove_object(id, now).unwrap();
            retired.push((set, id));
            removals += 1;
            check(&coord, &format!("t={now} remove {id:?}"));
        }
        if !retired.is_empty() && next(3) == 0 {
            let (set, id) = retired.swap_remove(next(retired.len()));
            let snapshot = stream.snapshot(set);
            let (_, mbr) = snapshot.iter().find(|(o, _)| *o == id).unwrap();
            coord
                .restore_object(set, id, mbr.rebase(now), now, now)
                .unwrap();
            inserts += 1;
            check(&coord, &format!("t={now} insert {id:?}"));
        }
        if let Some((_, edges)) = rebalances.iter().find(|(t, _)| *t == tick) {
            let policy = Arc::new(VelocityBandPolicy::from_edges(edges.clone()));
            assert!(coord.rebalance_to(policy, now).unwrap() > 0, "t={now}");
            check(&coord, &format!("t={now} rebalance to {edges:?}"));
        }
    }
    assert!(
        removals > 5 && inserts > 3,
        "{removals} removals, {inserts} inserts"
    );
    assert!(coord.migrations() > 0, "no update crossed a band");
    assert_eq!(coord.rebalances(), 4);
}

/// `with_factory` keeps its signature for MTB callers and refuses any
/// other engine, naming the generic constructor.
#[test]
fn with_factory_refuses_engines_other_than_mtb() {
    let params = skew_params(55);
    let (a, b) = generate_pair(&params, 0.0);
    let policy = Arc::new(VelocityBandPolicy::new(2, params.max_speed));
    let tc = ShardCoordinator::with_factory(
        pool(64),
        EngineConfig::default(),
        policy.clone(),
        &a,
        &b,
        0.0,
        Arc::new(|pool, cfg, a, b, now| Ok(Box::new(TcEngine::new(pool, *cfg, a, b, now)?))),
    );
    let Err(TprError::Unsupported { what }) = tc else {
        panic!("a TC-Join factory was accepted");
    };
    assert!(what.contains("TC-Join"), "{what}");
    let mtb = ShardCoordinator::with_factory(
        pool(64),
        EngineConfig::default(),
        policy,
        &a,
        &b,
        0.0,
        Arc::new(|pool, cfg, a, b, now| Ok(Box::new(MtbEngine::new(pool, *cfg, a, b, now)?))),
    )
    .expect("MTB-Join is sharded");
    assert_eq!(mtb.shard_count(), 2);
    assert_eq!(indexed(&mtb), a.len() + b.len());
}
