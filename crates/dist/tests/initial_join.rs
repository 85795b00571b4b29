//! One initial join, in process and across workers. Every engine joins
//! initially by phase 2 over all of A: rounds of A probes against every
//! partition's B side, which a `ShardCoordinator` answers from its
//! in-process partitions and a `DistCoordinator` by one `Step` per
//! worker. On the same partitions the two give the same answer — the
//! same `result_at` at every sampled instant and the same
//! `pair_interval` (the held interval, bit for bit) for every pair either
//! reports — and count the same traversal work (`counters()`), for both
//! index kinds.

use std::collections::BTreeSet;
use std::sync::Arc;

use cij_core::{ContinuousJoinEngine, EngineConfig, IndexPair, MtbPair, PairKey, TcPair};
use cij_dist::loopback::LoopbackHost;
use cij_dist::{Connector, DistConfig, DistCoordinator, EngineKind};
use cij_geom::{MovingRect, Time, TimeInterval};
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
    local
        .run_initial_join(0.0)
        .expect("in-process initial join");
    remote
        .run_initial_join(0.0)
        .expect("distributed initial join");
    assert_eq!(remote.counters(), local.counters(), "{label}: counters");

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
    let bits = |held: Option<TimeInterval>| held.map(|iv| (iv.start.to_bits(), iv.end.to_bits()));
    for &pair in &seen {
        assert_eq!(
            bits(remote.pair_interval(pair)),
            bits(local.pair_interval(pair)),
            "{label}: pair_interval({pair:?})"
        );
    }
}

#[test]
fn shard_and_dist_initial_joins_agree() {
    for k in [1usize, 2, 4] {
        let p = params(40 + k as u64);
        let bands =
            || Arc::new(VelocityBandPolicy::new(k, p.max_speed)) as Arc<dyn PartitionPolicy>;
        same_initial_join::<MtbPair>(EngineKind::Mtb, bands(), &p);
        same_initial_join::<TcPair>(EngineKind::Tc, bands(), &p);
        same_initial_join::<MtbPair>(EngineKind::Mtb, Arc::new(HashPolicy(k)), &p);
    }
}
