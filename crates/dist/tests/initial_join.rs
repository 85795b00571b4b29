//! The two initial joins of one partitioned pair agree. In process, a
//! `ShardCoordinator` joins its K partitions by K² tree-vs-tree jobs; a
//! `DistCoordinator` cannot run a job across two workers, so it probes
//! every A object against every partition's B side in one round. The
//! improved join narrows its window per node pair and a probe does not,
//! so nothing proves the two give the same intervals: this pins that
//! they do — the same `result_at` at every sampled instant and the same
//! `pair_status_at` (active interval and next start, bit for bit) for
//! every pair either reports — for both index kinds on the same
//! partitions.

use std::collections::BTreeSet;
use std::sync::Arc;

use cij_core::{ContinuousJoinEngine, EngineConfig, IndexPair, MtbPair, PairKey, TcPair};
use cij_dist::loopback::LoopbackHost;
use cij_dist::{Connector, DistConfig, DistCoordinator, EngineKind};
use cij_geom::{MovingRect, Time};
use cij_shard::{PartitionPolicy, ShardCoordinator, VelocityBandPolicy};
use cij_storage::{BufferPool, BufferPoolConfig, InMemoryStore};
use cij_tpr::ObjectId;
use cij_workload::{generate_pair, Distribution, Params};

/// Placement by id modulo `K`: partitions no band policy would make.
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

fn params(seed: u64) -> Params {
    Params {
        dataset_size: 300,
        distribution: Distribution::VelocitySkew,
        seed,
        space: 300.0,
        object_size_pct: 2.0,
        maximum_update_interval: 20.0,
        ..Params::default()
    }
}

fn same_initial_join<P: IndexPair<Config = EngineConfig>>(
    kind: EngineKind,
    policy: Arc<dyn PartitionPolicy>,
    p: &Params,
) {
    let label = format!(
        "{} {} K={}",
        kind.name(),
        policy.name(),
        policy.shard_count()
    );
    let (a, b) = generate_pair(p, 0.0);
    let config = EngineConfig::builder()
        .t_m(p.maximum_update_interval)
        .build();
    let pool = BufferPool::new(
        Arc::new(InMemoryStore::new()),
        BufferPoolConfig::with_capacity(256),
    );
    let mut local = ShardCoordinator::<P>::new(pool, config, Arc::clone(&policy), &a, &b, 0.0)
        .expect("in-process coordinator");
    let connectors: Vec<Box<dyn Connector>> = (0..policy.shard_count())
        .map(|_| Box::new(LoopbackHost::ephemeral().connector()) as Box<dyn Connector>)
        .collect();
    let dist_config = DistConfig {
        engine: kind,
        t_m: config.t_m,
        buckets_per_tm: config.buckets_per_tm,
        ..DistConfig::default()
    };
    let mut remote = DistCoordinator::new(dist_config, policy, connectors, &a, &b, 0.0)
        .expect("dist coordinator");
    local.run_initial_join(0.0).expect("tree jobs");
    remote.run_initial_join(0.0).expect("probe round");

    let instants: Vec<Time> = (0..=4 * 22).map(|q| Time::from(q) / 4.0).collect();
    let mut seen: BTreeSet<PairKey> = BTreeSet::new();
    for &t in &instants {
        let answer = local.result_at(t);
        assert_eq!(remote.result_at(t), answer, "{label}: result_at({t})");
        seen.extend(answer);
    }
    assert!(
        seen.len() > 20,
        "{label}: only {} pairs ever met",
        seen.len()
    );
    for &pair in &seen {
        for &t in &instants {
            assert_eq!(
                remote.pair_status_at(pair, t),
                local.pair_status_at(pair, t),
                "{label}: pair_status_at({pair:?}, {t})"
            );
        }
    }
}

#[test]
fn probe_round_initial_join_equals_the_tree_jobs() {
    for k in [1usize, 2, 4] {
        let p = params(40 + k as u64);
        let bands =
            || Arc::new(VelocityBandPolicy::new(k, p.max_speed)) as Arc<dyn PartitionPolicy>;
        same_initial_join::<MtbPair>(EngineKind::Mtb, bands(), &p);
        same_initial_join::<TcPair>(EngineKind::Tc, bands(), &p);
        same_initial_join::<MtbPair>(EngineKind::Mtb, Arc::new(HashPolicy(k)), &p);
    }
}
