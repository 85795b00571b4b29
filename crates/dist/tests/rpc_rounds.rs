//! What a tick costs on the wire. Phase 2 is one `Step` per worker on a
//! tick with updates and nothing on a tick without; every read —
//! `result_at`, `pair_interval`, `counters`, `take_result_changes` — and
//! `gc` is answered from the coordinator's one result buffer with no RPC.
//! A tapped connector counts what each worker is sent.

use std::sync::{Arc, Mutex};

use cij_core::ContinuousJoinEngine;
use cij_dist::loopback::LoopbackHost;
use cij_dist::{
    Connector, DistConfig, DistCoordinator, DistResult, EngineKind, Request, Response, Transport,
};
use cij_geom::{Time, TimeInterval};
use cij_shard::{PartitionPolicy, VelocityBandPolicy};
use cij_tpr::ObjectId;
use cij_workload::{generate_pair, Distribution, Params, UpdateStream};

/// Every request one worker was sent, by kind.
type Log = Arc<Mutex<Vec<&'static str>>>;

struct Tap {
    inner: Box<dyn Connector>,
    log: Log,
}

struct TapTransport {
    inner: Box<dyn Transport>,
    log: Log,
}

impl Connector for Tap {
    fn connect(&self) -> DistResult<Box<dyn Transport>> {
        Ok(Box::new(TapTransport {
            inner: self.inner.connect()?,
            log: Arc::clone(&self.log),
        }))
    }

    fn describe(&self) -> String {
        self.inner.describe()
    }
}

impl Transport for TapTransport {
    fn call(&mut self, req: &Request) -> DistResult<Response> {
        self.log.lock().expect("tap").push(req.kind());
        self.inner.call(req)
    }
}

/// A worker whose every `StepAck` also reports a hit for a probe the
/// round never sent.
struct Liar(Box<dyn Transport>);

impl Transport for Liar {
    fn call(&mut self, req: &Request) -> DistResult<Response> {
        let mut resp = self.0.call(req)?;
        if let Response::StepAck { hits_a, .. } = &mut resp {
            let beyond = u32::try_from(hits_a.len() + 1_000).expect("small");
            hits_a.push((beyond, ObjectId(1), TimeInterval::new_unchecked(0.0, 1.0)));
        }
        Ok(resp)
    }
}

struct LiarConnector(Box<dyn Connector>);

impl Connector for LiarConnector {
    fn connect(&self) -> DistResult<Box<dyn Transport>> {
        Ok(Box::new(Liar(self.0.connect()?)))
    }

    fn describe(&self) -> String {
        self.0.describe()
    }
}

/// Empties every worker's log and returns what it held.
fn drain(logs: &[Log]) -> Vec<Vec<&'static str>> {
    (logs.iter())
        .map(|log| std::mem::take(&mut *log.lock().expect("tap")))
        .collect()
}

#[test]
fn one_step_per_worker_per_busy_tick_and_no_rpc_for_reads() {
    let p = Params {
        dataset_size: 100,
        distribution: Distribution::VelocitySkew,
        seed: 33,
        space: 200.0,
        object_size_pct: 1.0,
        maximum_update_interval: 20.0,
        ..Params::default()
    };
    let policy: Arc<dyn PartitionPolicy> = Arc::new(VelocityBandPolicy::new(2, p.max_speed));
    let logs: Vec<Log> = (0..2).map(|_| Log::default()).collect();
    let connectors: Vec<Box<dyn Connector>> = (logs.iter())
        .map(|log| {
            Box::new(Tap {
                inner: Box::new(LoopbackHost::ephemeral().connector()),
                log: Arc::clone(log),
            }) as Box<dyn Connector>
        })
        .collect();
    let (a, b) = generate_pair(&p, 0.0);
    let config = DistConfig {
        engine: EngineKind::Mtb,
        t_m: p.maximum_update_interval,
        ..DistConfig::default()
    };
    let mut dist =
        DistCoordinator::new(config, policy, connectors, &a, &b, 0.0).expect("dist coordinator");
    assert_eq!(dist.worker_count(), 2);
    assert_eq!(drain(&logs), [["Hello", "Init"], ["Hello", "Init"]]);
    dist.enable_delta_tracking();
    dist.run_initial_join(0.0).expect("initial join");
    assert_eq!(
        drain(&logs),
        [["Step"], ["Step"]],
        "the initial join's round"
    );

    let mut workload = UpdateStream::new(&p, &a, &b, 0.0);
    let (mut busy, mut idle) = (0, 0);
    for tick in 1..=30u32 {
        let now = Time::from(tick);
        // Every other tick skips the workload: an idle tick.
        let updates = if tick % 2 == 0 {
            workload.tick(now)
        } else {
            Vec::new()
        };
        dist.advance_time(now).expect("advance");
        dist.apply_batch(&updates, now).expect("tick");
        let expected: &[&str] = if updates.is_empty() {
            idle += 1;
            &[]
        } else {
            busy += 1;
            &["Step"]
        };
        assert_eq!(drain(&logs), [expected, expected], "t={now}");

        // Reads and gc never leave the coordinator.
        dist.gc(now);
        let answer = dist.result_at(now);
        for &pair in &answer {
            assert!(dist.pair_interval(pair).is_some_and(|iv| iv.contains(now)));
        }
        dist.counters();
        dist.take_result_changes();
        assert_eq!(drain(&logs), [[""; 0], [""; 0]], "reads at t={now}");
    }
    assert!(busy > 10 && idle > 10, "busy {busy}, idle {idle}");
}

/// The hits a worker answers with index the coordinator's probes: one
/// naming a probe the round never sent is a typed error, not a panic.
#[test]
fn a_hit_for_a_probe_never_sent_is_refused() {
    let p = Params {
        dataset_size: 50,
        seed: 34,
        ..Params::default()
    };
    let policy: Arc<dyn PartitionPolicy> = Arc::new(VelocityBandPolicy::new(2, p.max_speed));
    let connectors: Vec<Box<dyn Connector>> = (0..2)
        .map(|_| {
            Box::new(LiarConnector(Box::new(
                LoopbackHost::ephemeral().connector(),
            ))) as Box<dyn Connector>
        })
        .collect();
    let (a, b) = generate_pair(&p, 0.0);
    let mut dist = DistCoordinator::new(DistConfig::default(), policy, connectors, &a, &b, 0.0)
        .expect("dist coordinator");
    let err = dist
        .run_initial_join(0.0)
        .expect_err("a hit beyond the probes");
    assert!(err.to_string().contains("did not send"), "{err}");
}
