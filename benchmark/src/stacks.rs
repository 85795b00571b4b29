//! The stacks a workload or a ladder rung can be driven through, each
//! reached only through its crate's public API.
//!
//! Every stack is driven by one closed-loop client: tick *t+1* is
//! submitted only after tick *t*'s calls returned. A stack times its own
//! calls (driver bookkeeping, oracle checks and subscriber replay stay
//! outside the timed region) and wraps each call in a [`Tracer`] span.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cij_core::{ContinuousJoinEngine, EngineConfig, MtbEngine, PairKey};
use cij_dist::loopback::LoopbackHost;
use cij_dist::tcp::TcpConnector;
use cij_dist::{
    joinable_pairs, Connector, DistConfig, DistCoordinator, DistResult, EngineKind, Request,
    Response, ShardWorker, Transport,
};
use cij_geom::{Rect, Time};
use cij_join::JoinCounters;
use cij_shard::{AdaptiveConfig, PartitionPolicy, ShardCoordinator, VelocityBandPolicy};
use cij_simjoin::{ProximityConfig, ProximityJoinEngine};
use cij_storage::{BufferPool, BufferPoolConfig, InMemoryStore, IoSnapshot};
use cij_stream::{
    IngestOutcome, OutboxItem, ResultDelta, ShedPolicy, StreamConfig, StreamService, SubscriberId,
    SubscriptionFilter,
};
use cij_tpr::{ObjectId, TprResult, TprTree, TreeConfig};
use cij_workload::{MovingObject, ObjectUpdate, SetTag};

use crate::trace::Tracer;
use crate::workloads::{Inputs, Spec, TickInput};

pub type BenchResult<T> = Result<T, String>;

pub(crate) fn err<E: std::fmt::Display>(what: &str) -> impl Fn(E) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// Raw totals a stack accumulated, keyed by a short name; the run layer
/// turns them into per-update metrics.
pub type Raw = BTreeMap<&'static str, f64>;

/// Wall time of a stack's construction, split where the API allows.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Index construction (plus service / coordinator / subscribers).
    pub build_s: f64,
    /// The initial join, where it is a separate call.
    pub join_s: f64,
}

impl SetupTimes {
    #[must_use]
    pub fn total_s(&self) -> f64 {
        self.build_s + self.join_s
    }
}

pub trait Stack {
    /// Drives one tick and returns the nanoseconds its calls took.
    fn tick(&mut self, input: &TickInput, tr: &mut Tracer) -> BenchResult<u64>;

    /// The stack's answer at `now` (untimed), `None` for stacks that
    /// maintain no answer (bare trees).
    fn answer(&mut self, now: Time) -> BenchResult<Option<Vec<PairKey>>>;

    /// Cumulative I/O of the buffer pool the stack's indexes read through.
    fn io(&self) -> IoSnapshot;

    /// Cumulative traversal counters, where the API exposes them.
    fn counters(&mut self) -> Option<JoinCounters> {
        None
    }

    /// Whether every generated update has reached the engine — false
    /// while a retry backlog or an ingest queue still holds some.
    fn quiesced(&self) -> bool {
        true
    }

    /// Stack-specific totals accumulated so far.
    fn raw(&mut self) -> Raw {
        Raw::new()
    }

    /// End-of-pass correctness checks beyond the oracle comparison;
    /// returns the totals the checks themselves measured.
    fn final_checks(&mut self, _now: Time) -> BenchResult<Raw> {
        Ok(Raw::new())
    }
}

/// Where temp files (WALs) go and how they are named.
#[derive(Debug, Clone)]
pub struct Env {
    pub tmp_dir: PathBuf,
}

impl Env {
    fn wal_path(&self, label: &str) -> BenchResult<PathBuf> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        std::fs::create_dir_all(&self.tmp_dir).map_err(err("create tmp dir"))?;
        let path = self.tmp_dir.join(format!(
            "{label}-{}-{}.wal",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        // A leftover file would be replayed as a crashed run's journal.
        let _ = std::fs::remove_file(&path);
        Ok(path)
    }
}

/// What to build. Each variant is one rung of the ladder; the four
/// workloads are `ServiceBurst`, `Stream`, `Shard` and `DistLoopback`
/// at their own settings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Plan {
    /// Two bare `TprTree`s: `update` on the object's own tree, then
    /// `intersect_window` of the new trajectory on the other one.
    Tpr,
    /// `MtbEngine` through the engine trait.
    Core { metrics: bool },
    /// `StreamService` → `MtbEngine`, one `All` subscriber, no WAL, a
    /// queue that never fills: the pass-through configuration.
    Stream,
    /// `StreamService` under overload: WAL, queue capacity 3× the steady
    /// rate, `DropStalePerObject`, 256 subscribers.
    ServiceBurst,
    /// `ShardCoordinator` over velocity bands.
    Shard {
        k: usize,
        adaptive: bool,
        threads: usize,
        /// Build inner engines with the configuration a dist worker
        /// derives from `Request::Init`, for a like-for-like dist tax.
        worker_config: bool,
    },
    /// `DistCoordinator` over in-process loopback workers.
    DistLoopback { k: usize, durable: bool },
    /// `DistCoordinator` over `tcp::serve` threads on 127.0.0.1.
    DistTcp { k: usize },
    /// `ProximityJoinEngine` (ε-threshold similarity join).
    Simjoin { epsilon: f64 },
}

fn pool(pages: usize) -> BufferPool {
    BufferPool::new(
        Arc::new(InMemoryStore::new()),
        BufferPoolConfig::with_capacity(pages),
    )
}

fn tree_config(spec: &Spec) -> TreeConfig {
    TreeConfig {
        capacity: spec.params.node_capacity,
        horizon: spec.params.maximum_update_interval,
        ..TreeConfig::default()
    }
}

fn engine_config(spec: &Spec, threads: usize, metrics: bool) -> EngineConfig {
    EngineConfig::builder()
        .t_m(spec.params.maximum_update_interval)
        .tree(tree_config(spec))
        .threads(threads)
        .metrics(metrics)
        .build()
}

/// Builds `plan` over `inputs` on a fresh pool, timing the construction.
pub fn build(plan: Plan, inputs: &Inputs, env: &Env) -> BenchResult<(Box<dyn Stack>, SetupTimes)> {
    let spec = &inputs.spec;
    match plan {
        Plan::Tpr => TprStack::build(inputs).map(|(s, t)| (Box::new(s) as Box<dyn Stack>, t)),
        Plan::Core { metrics } => {
            let pool = pool(spec.pool_pages);
            let cfg = engine_config(spec, 1, metrics);
            let t0 = Instant::now();
            let engine = MtbEngine::new(pool, cfg, &inputs.set_a, &inputs.set_b, 0.0)
                .map_err(err("MtbEngine::new"))?;
            let build_s = t0.elapsed().as_secs_f64();
            EngineStack::start(Engines::Plain(Box::new(engine)), Names::CORE, build_s)
        }
        Plan::Simjoin { epsilon } => {
            let pool = pool(spec.pool_pages);
            let cfg = ProximityConfig::new(engine_config(spec, 1, false), epsilon);
            let t0 = Instant::now();
            let engine = ProximityJoinEngine::new(pool, cfg, &inputs.set_a, &inputs.set_b, 0.0)
                .map_err(err("ProximityJoinEngine::new"))?;
            let build_s = t0.elapsed().as_secs_f64();
            EngineStack::start(Engines::Simjoin(Box::new(engine)), Names::SIMJOIN, build_s)
        }
        Plan::Stream | Plan::ServiceBurst => {
            StreamStack::build(plan, inputs, env).map(|(s, t)| (Box::new(s) as Box<dyn Stack>, t))
        }
        Plan::Shard {
            k,
            adaptive,
            threads,
            worker_config,
        } => {
            let pool = pool(spec.pool_pages);
            let cfg = if worker_config {
                EngineConfig::builder()
                    .t_m(spec.params.maximum_update_interval)
                    .threads(threads)
                    .build()
            } else {
                engine_config(spec, threads, false)
            };
            let policy: Arc<dyn PartitionPolicy> =
                Arc::new(VelocityBandPolicy::new(k, spec.params.max_speed));
            let t0 = Instant::now();
            let mut coord = ShardCoordinator::with_factory(
                pool,
                cfg,
                policy,
                &inputs.set_a,
                &inputs.set_b,
                0.0,
                Arc::new(|pool, cfg, a, b, now| {
                    Ok(Box::new(MtbEngine::new(pool, *cfg, a, b, now)?))
                }),
            )
            .map_err(err("ShardCoordinator::with_factory"))?;
            if adaptive {
                coord
                    .enable_adaptive(AdaptiveConfig::velocity(spec.params.max_speed))
                    .map_err(err("enable_adaptive"))?;
            }
            let build_s = t0.elapsed().as_secs_f64();
            EngineStack::start(Engines::Shard(Box::new(coord)), Names::SHARD, build_s)
        }
        Plan::DistLoopback { k, durable } => build_dist(k, inputs, |idx| {
            let (host, wal) = if durable {
                let path = env.wal_path(&format!("worker{idx}"))?;
                let host =
                    LoopbackHost::durable(path.clone()).map_err(err("LoopbackHost::durable"))?;
                (host, Some(path))
            } else {
                (LoopbackHost::ephemeral(), None)
            };
            Ok((Box::new(host.connector()) as Box<dyn Connector>, None, wal))
        }),
        Plan::DistTcp { k } => build_dist(k, inputs, |_| {
            let listener = TcpListener::bind("127.0.0.1:0").map_err(err("bind 127.0.0.1"))?;
            let addr = listener
                .local_addr()
                .map_err(err("listener address"))?
                .to_string();
            // The thread exits on the Shutdown request `DistEngines::drop`
            // sends.
            let server = std::thread::spawn(move || {
                let mut worker = ShardWorker::ephemeral();
                cij_dist::tcp::serve(&listener, &mut worker).map_err(|e| e.to_string())
            });
            let connector = TcpConnector::new(addr, Duration::from_secs(10));
            Ok((
                Box::new(connector) as Box<dyn Connector>,
                Some(server),
                None,
            ))
        }),
    }
}

type ServerThread = JoinHandle<Result<(), String>>;

/// A `DistCoordinator` over velocity bands with one worker per joinable
/// shard pair; `worker(idx)` supplies each worker's connector and, where
/// it has them, its server thread and its WAL file.
fn build_dist(
    k: usize,
    inputs: &Inputs,
    mut worker: impl FnMut(
        usize,
    )
        -> BenchResult<(Box<dyn Connector>, Option<ServerThread>, Option<PathBuf>)>,
) -> BenchResult<(Box<dyn Stack>, SetupTimes)> {
    let spec = &inputs.spec;
    let policy: Arc<dyn PartitionPolicy> =
        Arc::new(VelocityBandPolicy::new(k, spec.params.max_speed));
    let rpc = Arc::new(RpcTap::default());
    let t0 = Instant::now();
    let mut connectors: Vec<Box<dyn Connector>> = Vec::new();
    let mut servers = Vec::new();
    let mut wal_paths = Vec::new();
    for idx in 0..joinable_pairs(&*policy).len() {
        let (inner, server, wal) = worker(idx)?;
        connectors.push(Box::new(TappedConnector {
            inner,
            tap: Arc::clone(&rpc),
        }));
        servers.extend(server);
        wal_paths.extend(wal);
    }
    let coord = DistCoordinator::new(
        dist_config(spec),
        policy,
        connectors,
        &inputs.set_a,
        &inputs.set_b,
        0.0,
    )
    .map_err(err("DistCoordinator::new"))?;
    let build_s = t0.elapsed().as_secs_f64();
    let dist = DistEngines {
        coord,
        rpc,
        servers,
        wal_paths,
    };
    EngineStack::start(Engines::Dist(Box::new(dist)), Names::DIST, build_s)
}

fn dist_config(spec: &Spec) -> DistConfig {
    DistConfig {
        engine: EngineKind::Mtb,
        t_m: spec.params.maximum_update_interval,
        ..DistConfig::default()
    }
}

// ---------------------------------------------------------------------
// Engine-trait stacks: core, shard, dist, simjoin.
// ---------------------------------------------------------------------

/// Span names of one engine-trait layer.
#[derive(Debug, Clone, Copy)]
struct Names {
    initial_join: &'static str,
    advance: &'static str,
    apply: &'static str,
    gc: &'static str,
    result: &'static str,
}

impl Names {
    const CORE: Self = Self {
        initial_join: "core.run_initial_join",
        advance: "core.advance_time",
        apply: "core.apply_batch",
        gc: "core.gc",
        result: "core.result_at",
    };
    const SHARD: Self = Self {
        initial_join: "shard.run_initial_join",
        advance: "shard.advance_time",
        apply: "shard.apply_batch",
        gc: "shard.gc",
        result: "shard.result_at",
    };
    const DIST: Self = Self {
        initial_join: "dist.run_initial_join",
        advance: "dist.advance_time",
        apply: "dist.apply_batch",
        gc: "dist.gc",
        result: "dist.result_at",
    };
    const SIMJOIN: Self = Self {
        initial_join: "simjoin.run_initial_join",
        advance: "simjoin.advance_time",
        apply: "simjoin.apply_batch",
        gc: "simjoin.gc",
        result: "simjoin.result_at",
    };
}

struct DistEngines {
    coord: DistCoordinator,
    rpc: Arc<RpcTap>,
    servers: Vec<ServerThread>,
    wal_paths: Vec<PathBuf>,
}

impl Drop for DistEngines {
    fn drop(&mut self) {
        self.coord.shutdown_workers();
        for t in self.servers.drain(..) {
            let _ = t.join();
        }
        for p in &self.wal_paths {
            let _ = std::fs::remove_file(p);
        }
    }
}

enum Engines {
    Plain(Box<dyn ContinuousJoinEngine>),
    Shard(Box<ShardCoordinator>),
    Dist(Box<DistEngines>),
    Simjoin(Box<ProximityJoinEngine>),
}

impl Engines {
    fn engine(&mut self) -> &mut dyn ContinuousJoinEngine {
        match self {
            Self::Plain(e) => e.as_mut(),
            Self::Shard(c) => c.as_mut(),
            Self::Dist(d) => &mut d.coord,
            Self::Simjoin(e) => e.as_mut(),
        }
    }

    fn engine_ref(&self) -> &dyn ContinuousJoinEngine {
        match self {
            Self::Plain(e) => e.as_ref(),
            Self::Shard(c) => c.as_ref(),
            Self::Dist(d) => &d.coord,
            Self::Simjoin(e) => e.as_ref(),
        }
    }
}

pub struct EngineStack {
    engines: Engines,
    names: Names,
    live_pairs: usize,
    result_changes: u64,
}

impl EngineStack {
    /// Turns on change tracking (every consumer in this repo runs the
    /// engines that way) and runs the timed initial join.
    fn start(
        mut engines: Engines,
        names: Names,
        build_s: f64,
    ) -> BenchResult<(Box<dyn Stack>, SetupTimes)> {
        let t0 = Instant::now();
        let engine = engines.engine();
        engine.enable_delta_tracking();
        engine
            .run_initial_join(0.0)
            .map_err(err(names.initial_join))?;
        let join_s = t0.elapsed().as_secs_f64();
        // The initial answer's changelog is not maintenance churn.
        let _ = engine.take_result_changes();
        Ok((
            Box::new(Self {
                engines,
                names,
                live_pairs: 0,
                result_changes: 0,
            }),
            SetupTimes { build_s, join_s },
        ))
    }
}

impl Stack for EngineStack {
    fn tick(&mut self, input: &TickInput, tr: &mut Tracer) -> BenchResult<u64> {
        let names = self.names;
        let engine = self.engines.engine();
        let t0 = Instant::now();
        let tick_span = tr.begin("tick");
        for step in &input.steps {
            let s = tr.begin(names.advance);
            engine.advance_time(step.at).map_err(err(names.advance))?;
            tr.end(s, 0);

            let s = tr.begin(names.apply);
            engine
                .apply_batch(&step.updates, step.at)
                .map_err(err(names.apply))?;
            tr.end(s, step.updates.len() as u64);

            let s = tr.begin(names.gc);
            engine.gc(step.at);
            tr.end(s, 0);
        }
        let s = tr.begin(names.result);
        let answer = std::hint::black_box(engine.result_at(input.now));
        tr.end(s, answer.len() as u64);
        tr.end(tick_span, input.update_count());
        let ns = t0.elapsed().as_nanos() as u64;

        self.live_pairs = answer.len();
        if let Some(changes) = engine.take_result_changes() {
            self.result_changes += changes.len() as u64;
        }
        Ok(ns)
    }

    fn answer(&mut self, now: Time) -> BenchResult<Option<Vec<PairKey>>> {
        Ok(Some(self.engines.engine().result_at(now)))
    }

    fn io(&self) -> IoSnapshot {
        self.engines.engine_ref().pool().stats().snapshot()
    }

    fn counters(&mut self) -> Option<JoinCounters> {
        Some(self.engines.engine().counters())
    }

    fn raw(&mut self) -> Raw {
        let mut raw = Raw::from([
            ("live_pairs", self.live_pairs as f64),
            ("result_changes", self.result_changes as f64),
        ]);
        match &mut self.engines {
            Engines::Plain(engine) => {
                if let Some(p) = engine.page_format_snapshot() {
                    raw.insert("zero_copy_reads", p.zero_copy_reads as f64);
                    raw.insert("decode_fallbacks", p.decode_fallbacks as f64);
                }
                if engine.metrics_registry().is_enabled() {
                    let t = Instant::now();
                    engine.publish_metrics();
                    let text = engine.metrics_registry().snapshot().to_prometheus();
                    raw.insert("snapshot_ns", t.elapsed().as_nanos() as f64);
                    raw.insert("snapshot_bytes", std::hint::black_box(text).len() as f64);
                }
            }
            Engines::Shard(coord) => {
                let report = coord.report();
                let pops: Vec<usize> = report
                    .population_a
                    .iter()
                    .zip(&report.population_b)
                    .map(|(a, b)| a + b)
                    .collect();
                let mean = pops.iter().sum::<usize>() as f64 / pops.len().max(1) as f64;
                let max = pops.iter().copied().max().unwrap_or(0) as f64;
                raw.insert("shards", report.k as f64);
                raw.insert("engines", report.engine_count() as f64);
                raw.insert("migrations", report.migrations as f64);
                raw.insert("rebalances", report.rebalances as f64);
                raw.insert("rebalance_moved", report.rebalance_moved as f64);
                raw.insert("population_skew", if mean > 0.0 { max / mean } else { 0.0 });
            }
            Engines::Dist(dist) => {
                raw.insert("workers", dist.coord.worker_count() as f64);
                raw.insert("migrations", dist.coord.migrations() as f64);
                raw.insert("rpcs", dist.rpc.calls.load(Ordering::Relaxed) as f64);
                raw.insert("step_ops", dist.rpc.step_ops.load(Ordering::Relaxed) as f64);
                let wal_bytes: u64 = dist
                    .wal_paths
                    .iter()
                    .filter_map(|p| std::fs::metadata(p).ok())
                    .map(|m| m.len())
                    .sum();
                raw.insert("worker_wal_bytes", wal_bytes as f64);
                let (ns, ops) = dist.rpc.codec_sample();
                raw.insert("codec_sample_ns", ns as f64);
                raw.insert("codec_sample_ops", ops as f64);
            }
            Engines::Simjoin(engine) => {
                raw.insert("candidates", engine.candidates() as f64);
                raw.insert("refine_rejects", engine.refine_rejects() as f64);
            }
        }
        raw
    }
}

/// Counts RPCs and keeps the first few `Step` exchanges so the codec
/// can be timed on the run's own messages after the pass.
#[derive(Default)]
struct RpcTap {
    calls: AtomicU64,
    step_ops: AtomicU64,
    samples: Mutex<Vec<(Request, Response)>>,
}

const CODEC_SAMPLES: usize = 64;

impl RpcTap {
    /// Encode + decode time of the kept exchanges (request and
    /// response, as both ends of a connection pay it) and the ops they
    /// carried.
    fn codec_sample(&self) -> (u64, u64) {
        let samples = self.samples.lock().expect("tap mutex never poisoned");
        let ops: u64 = samples
            .iter()
            .map(|(req, _)| match req {
                Request::Step { ops, .. } => ops.len() as u64,
                _ => 0,
            })
            .sum();
        const ROUNDS: u32 = 20;
        let t0 = Instant::now();
        for _ in 0..ROUNDS {
            for (req, resp) in samples.iter() {
                let bytes = std::hint::black_box(req.encode());
                let _ = std::hint::black_box(Request::decode(&bytes));
                let bytes = std::hint::black_box(resp.encode());
                let _ = std::hint::black_box(Response::decode(&bytes));
            }
        }
        (t0.elapsed().as_nanos() as u64 / u64::from(ROUNDS), ops)
    }
}

struct TappedConnector {
    inner: Box<dyn Connector>,
    tap: Arc<RpcTap>,
}

impl Connector for TappedConnector {
    fn connect(&self) -> DistResult<Box<dyn Transport>> {
        Ok(Box::new(TappedTransport {
            inner: self.inner.connect()?,
            tap: Arc::clone(&self.tap),
        }))
    }

    fn describe(&self) -> String {
        self.inner.describe()
    }
}

struct TappedTransport {
    inner: Box<dyn Transport>,
    tap: Arc<RpcTap>,
}

impl Transport for TappedTransport {
    fn call(&mut self, req: &Request) -> DistResult<Response> {
        self.tap.calls.fetch_add(1, Ordering::Relaxed);
        let resp = self.inner.call(req)?;
        if let Request::Step { ops, .. } = req {
            let before = self
                .tap
                .step_ops
                .fetch_add(ops.len() as u64, Ordering::Relaxed);
            // Keep early non-empty steps only: a bounded, negligible copy.
            if !ops.is_empty() && before < (CODEC_SAMPLES * 1024) as u64 {
                let mut samples = self.tap.samples.lock().expect("tap mutex never poisoned");
                if samples.len() < CODEC_SAMPLES {
                    samples.push((req.clone(), resp.clone()));
                }
            }
        }
        Ok(resp)
    }
}

// ---------------------------------------------------------------------
// Bare trees.
// ---------------------------------------------------------------------

pub struct TprStack {
    pool: BufferPool,
    tree_a: TprTree,
    tree_b: TprTree,
    t_m: Time,
    probe_hits: u64,
}

impl TprStack {
    fn build(inputs: &Inputs) -> BenchResult<(Self, SetupTimes)> {
        let spec = &inputs.spec;
        let pool = pool(spec.pool_pages);
        let t0 = Instant::now();
        let fill = |set: &[MovingObject]| -> TprResult<TprTree> {
            let mut tree = TprTree::new(pool.clone(), tree_config(spec));
            for o in set {
                tree.insert(o.id, o.mbr, 0.0)?;
            }
            Ok(tree)
        };
        let tree_a = fill(&inputs.set_a).map_err(err("TprTree::insert"))?;
        let tree_b = fill(&inputs.set_b).map_err(err("TprTree::insert"))?;
        let build_s = t0.elapsed().as_secs_f64();
        Ok((
            Self {
                pool,
                tree_a,
                tree_b,
                t_m: spec.params.maximum_update_interval,
                probe_hits: 0,
            },
            SetupTimes {
                build_s,
                join_s: 0.0,
            },
        ))
    }
}

impl Stack for TprStack {
    fn tick(&mut self, input: &TickInput, tr: &mut Tracer) -> BenchResult<u64> {
        let t0 = Instant::now();
        let tick_span = tr.begin("tick");
        for step in &input.steps {
            for u in &step.updates {
                let (own, other) = match u.set {
                    SetTag::A => (&mut self.tree_a, &self.tree_b),
                    SetTag::B => (&mut self.tree_b, &self.tree_a),
                };
                let s = tr.begin("tpr.update");
                own.update(u.id, &u.old_mbr, u.new_mbr, step.at)
                    .map_err(err("TprTree::update"))?;
                tr.end(s, 1);

                let s = tr.begin("tpr.intersect_window");
                let hits = other
                    .intersect_window(&u.new_mbr, step.at, step.at + self.t_m)
                    .map_err(err("TprTree::intersect_window"))?;
                tr.end(s, hits.len() as u64);
                self.probe_hits += std::hint::black_box(hits).len() as u64;
            }
        }
        tr.end(tick_span, input.update_count());
        Ok(t0.elapsed().as_nanos() as u64)
    }

    fn answer(&mut self, _now: Time) -> BenchResult<Option<Vec<PairKey>>> {
        Ok(None)
    }

    fn io(&self) -> IoSnapshot {
        self.pool.stats().snapshot()
    }

    fn raw(&mut self) -> Raw {
        Raw::from([
            ("probe_hits", self.probe_hits as f64),
            (
                "height",
                f64::from(self.tree_a.height().max(self.tree_b.height())),
            ),
        ])
    }
}

// ---------------------------------------------------------------------
// StreamService stacks.
// ---------------------------------------------------------------------

/// The producer-side retry queue of `bench_ingest`. A refused update
/// cannot be dropped: the generator has already chained the object's
/// *next* update to the refused one's `new_mbr`, so skipping it would
/// make the engine delete a trajectory it never saw. The constraint is
/// per object — only objects with a backlogged predecessor are held
/// back, and FIFO retry order keeps every per-object chain intact.
#[derive(Default)]
pub struct RetryBacklog {
    queue: VecDeque<ObjectUpdate>,
    blocked: HashMap<ObjectId, usize>,
}

/// Submission totals of one pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SubmitLedger {
    /// `submit` calls made.
    pub attempts: u64,
    pub accepted: u64,
    pub refused_full: u64,
    pub refused_stale: u64,
}

impl RetryBacklog {
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    fn unblock(&mut self, id: ObjectId) {
        if let Some(n) = self.blocked.get_mut(&id) {
            *n -= 1;
            if *n == 0 {
                self.blocked.remove(&id);
            }
        }
    }

    fn hold(&mut self, u: ObjectUpdate) {
        *self.blocked.entry(u.id).or_insert(0) += 1;
        self.queue.push_back(u);
    }

    /// Offers the backlog first (stopping at the first refusal), then
    /// `fresh`, through `submit`. Returns the number of `submit` calls.
    pub fn offer(
        &mut self,
        fresh: &[ObjectUpdate],
        ledger: &mut SubmitLedger,
        mut submit: impl FnMut(ObjectUpdate) -> IngestOutcome,
    ) -> u64 {
        let before = ledger.attempts;
        while let Some(&u) = self.queue.front() {
            ledger.attempts += 1;
            match submit(u) {
                IngestOutcome::Accepted => ledger.accepted += 1,
                IngestOutcome::Stale => ledger.refused_stale += 1,
                IngestOutcome::QueueFull => {
                    ledger.refused_full += 1;
                    break;
                }
            }
            self.queue.pop_front();
            self.unblock(u.id);
        }
        for &u in fresh {
            if !self.blocked.is_empty() && self.blocked.contains_key(&u.id) {
                self.hold(u);
                continue;
            }
            ledger.attempts += 1;
            match submit(u) {
                IngestOutcome::Accepted => ledger.accepted += 1,
                IngestOutcome::Stale => ledger.refused_stale += 1,
                IngestOutcome::QueueFull => {
                    ledger.refused_full += 1;
                    self.hold(u);
                }
            }
        }
        ledger.attempts - before
    }
}

pub struct StreamStack {
    svc: StreamService,
    pool: BufferPool,
    config: StreamConfig,
    subscribers: Vec<SubscriberId>,
    all: SubscriberId,
    /// The `All` subscriber's replay of its deltas.
    replayed: HashSet<PairKey>,
    gap_seen: bool,
    backlog: RetryBacklog,
    ledger: SubmitLedger,
    deltas: u64,
    outbox_items: u64,
    batches: u64,
    /// `true` for the overload configuration, whose applied count comes
    /// from the service's own ingest histogram.
    ledger_checked: bool,
}

/// Outboxes are drained every tick; the bound only has to hold one
/// tick's deltas (the first tick also carries the whole initial answer).
const OUTBOX_CAPACITY: usize = 1 << 16;
const WINDOW_SUBSCRIBERS: usize = 128;
const OBJECT_SUBSCRIBERS: usize = 127;

impl StreamStack {
    fn build(plan: Plan, inputs: &Inputs, env: &Env) -> BenchResult<(Self, SetupTimes)> {
        let spec = &inputs.spec;
        let overload = plan == Plan::ServiceBurst;
        // Metrics on only where the conservation ledger needs the
        // service's own count of applied updates.
        let mut builder = StreamConfig::builder()
            .engine(engine_config(spec, 1, overload))
            .outbox_capacity(OUTBOX_CAPACITY);
        if overload {
            // ~3× the steady per-tick arrival rate (as `bench_ingest`):
            // steady ticks stay open, 6× bursts cross the high watermark.
            let steady =
                2 * spec.params.dataset_size / spec.params.maximum_update_interval as usize;
            builder = builder
                .batch_capacity((3 * steady).max(64))
                .shed_policy(ShedPolicy::DropStalePerObject)
                .wal_path(env.wal_path("stream")?);
        } else {
            builder = builder.batch_capacity(1 << 20);
        }
        let config = builder.build();

        let pool = pool(spec.pool_pages);
        let t0 = Instant::now();
        let mut svc = {
            let pool = pool.clone();
            let factory = move |cfg: &EngineConfig,
                                a: &[MovingObject],
                                b: &[MovingObject],
                                start: Time|
                  -> TprResult<Box<dyn ContinuousJoinEngine>> {
                Ok(Box::new(MtbEngine::new(pool.clone(), *cfg, a, b, start)?))
            };
            StreamService::new(config.clone(), &inputs.set_a, &inputs.set_b, 0.0, &factory)
                .map_err(err("StreamService::new"))?
        };
        let all = svc
            .subscribe(SubscriptionFilter::All)
            .map_err(err("subscribe"))?;
        let mut subscribers = vec![all];
        if overload {
            for filter in fanout_filters(inputs) {
                subscribers.push(svc.subscribe(filter).map_err(err("subscribe"))?);
            }
        }
        let build_s = t0.elapsed().as_secs_f64();
        Ok((
            Self {
                svc,
                pool,
                config,
                subscribers,
                all,
                replayed: HashSet::new(),
                gap_seen: false,
                backlog: RetryBacklog::default(),
                ledger: SubmitLedger::default(),
                deltas: 0,
                outbox_items: 0,
                batches: 0,
                ledger_checked: overload,
            },
            SetupTimes {
                build_s,
                join_s: 0.0,
            },
        ))
    }

    fn applied(&self) -> Option<u64> {
        self.svc
            .metrics_snapshot()
            .histogram("stream.ingest.latency_ns")
            .map(|h| h.count)
    }
}

/// 128 `Window` filters (100×100, a 16×8 lattice over the space) and
/// 127 `Object` filters (evenly spaced ids from both sets).
fn fanout_filters(inputs: &Inputs) -> Vec<SubscriptionFilter> {
    let space = inputs.spec.params.space;
    let side = 100.0_f64.min(space);
    let mut filters = Vec::with_capacity(WINDOW_SUBSCRIBERS + OBJECT_SUBSCRIBERS);
    for i in 0..WINDOW_SUBSCRIBERS {
        let x = (i % 16) as f64 * (space - side) / 15.0;
        let y = (i / 16) as f64 * (space - side) / 7.0;
        filters.push(SubscriptionFilter::Window(Rect::new(
            [x, y],
            [x + side, y + side],
        )));
    }
    let objects: Vec<ObjectId> = inputs
        .set_a
        .iter()
        .chain(&inputs.set_b)
        .map(|o| o.id)
        .collect();
    let stride = (objects.len() / OBJECT_SUBSCRIBERS).max(1);
    filters.extend(
        objects
            .iter()
            .step_by(stride)
            .take(OBJECT_SUBSCRIBERS)
            .map(|id| SubscriptionFilter::Object(*id)),
    );
    filters
}

impl Stack for StreamStack {
    fn tick(&mut self, input: &TickInput, tr: &mut Tracer) -> BenchResult<u64> {
        let t0 = Instant::now();
        let tick_span = tr.begin("tick");
        for step in &input.steps {
            let s = tr.begin("stream.submit");
            let svc = &mut self.svc;
            let calls = self
                .backlog
                .offer(&step.updates, &mut self.ledger, |u| svc.submit(u, step.at));
            tr.end(s, calls);
        }

        let s = tr.begin("stream.advance_to");
        let deltas = self
            .svc
            .advance_to(input.now)
            .map_err(err("StreamService::advance_to"))?;
        tr.end(s, deltas.len() as u64);

        let s = tr.begin("stream.poll");
        let mut items = 0u64;
        let mut for_all = Vec::new();
        for &id in &self.subscribers {
            let polled = self
                .svc
                .poll(id)
                .ok_or_else(|| format!("subscriber {id:?} vanished"))?;
            items += polled.len() as u64;
            if id == self.all {
                for_all = polled;
            }
        }
        tr.end(s, items);
        tr.end(tick_span, input.update_count());
        let ns = t0.elapsed().as_nanos() as u64;

        self.deltas += deltas.len() as u64;
        self.outbox_items += items;
        self.batches += input.steps.len() as u64;
        for item in for_all {
            match item {
                OutboxItem::Delta(d) => match d.delta {
                    ResultDelta::PairAdded { pair, .. } => {
                        self.replayed.insert(pair);
                    }
                    ResultDelta::PairRemoved { pair } => {
                        self.replayed.remove(&pair);
                    }
                },
                OutboxItem::Gap { .. } => self.gap_seen = true,
            }
        }
        Ok(ns)
    }

    /// `result_at`, after checking that the `All` subscriber's replayed
    /// deltas reproduce it exactly.
    fn answer(&mut self, now: Time) -> BenchResult<Option<Vec<PairKey>>> {
        let answer = self.svc.result_at(now);
        if self.gap_seen {
            return Err("the All subscriber's outbox overflowed (Gap item)".into());
        }
        let mut replay: Vec<PairKey> = self.replayed.iter().copied().collect();
        replay.sort_unstable();
        if replay != answer {
            return Err(format!(
                "replaying the All subscriber's deltas gives {} pairs, result_at({now}) has {}",
                replay.len(),
                answer.len()
            ));
        }
        Ok(Some(answer))
    }

    fn io(&self) -> IoSnapshot {
        self.pool.stats().snapshot()
    }

    fn quiesced(&self) -> bool {
        self.backlog.is_empty() && self.svc.queue_len() == 0
    }

    fn raw(&mut self) -> Raw {
        let superseded = self.svc.shed_dropped_stale();
        let pending = self.svc.queue_len() as u64;
        let applied = self
            .applied()
            .unwrap_or(self.ledger.accepted - superseded - pending);
        let wal_bytes = self
            .config
            .wal_path
            .as_ref()
            .and_then(|p| std::fs::metadata(p).ok())
            .map_or(0, |m| m.len());
        Raw::from([
            ("attempts", self.ledger.attempts as f64),
            ("accepted", self.ledger.accepted as f64),
            ("refused_full", self.ledger.refused_full as f64),
            ("refused_stale", self.ledger.refused_stale as f64),
            ("superseded", superseded as f64),
            ("pending", pending as f64),
            ("applied", applied as f64),
            ("deltas", self.deltas as f64),
            ("outbox_items", self.outbox_items as f64),
            ("batches", self.batches as f64),
            ("live_pairs", self.replayed.len() as f64),
            ("subscribers", self.subscribers.len() as f64),
            ("wal_bytes", wal_bytes as f64),
        ])
    }

    /// The conservation ledger, and recovery from the WAL reproducing
    /// the final answer.
    fn final_checks(&mut self, now: Time) -> BenchResult<Raw> {
        if !self.ledger_checked {
            return Ok(Raw::new());
        }
        let applied = self
            .applied()
            .ok_or("overload stack runs with metrics on")?;
        let superseded = self.svc.shed_dropped_stale();
        let pending = self.svc.queue_len() as u64;
        if self.ledger.accepted != applied + superseded + pending {
            return Err(format!(
                "conservation violated: accepted {} != applied {applied} + superseded \
                 {superseded} + pending {pending}",
                self.ledger.accepted
            ));
        }
        let expected = self.svc.result_at(now);
        let t0 = Instant::now();
        let recover_pool = pool(self.pool.capacity());
        let factory = move |cfg: &EngineConfig,
                            a: &[MovingObject],
                            b: &[MovingObject],
                            start: Time|
              -> TprResult<Box<dyn ContinuousJoinEngine>> {
            Ok(Box::new(MtbEngine::new(
                recover_pool.clone(),
                *cfg,
                a,
                b,
                start,
            )?))
        };
        // Recover from a copy: `recover` reopens the journal for append,
        // and the live service still owns the original.
        let live = self
            .config
            .wal_path
            .clone()
            .ok_or("overload stack has a WAL")?;
        let copy = live.with_extension("recover");
        std::fs::copy(&live, &copy).map_err(err("copy WAL"))?;
        let config = self
            .config
            .clone()
            .to_builder()
            .wal_path(copy.clone())
            .build();
        let recovered = StreamService::recover(config, &factory);
        let _ = std::fs::remove_file(&copy);
        let (recovered, report) = recovered.map_err(err("StreamService::recover"))?;
        let recover_ms = t0.elapsed().as_secs_f64() * 1e3;
        if report.tail_truncated {
            return Err("recovery found a torn WAL tail after a clean run".into());
        }
        if recovered.result_at(now) != expected {
            return Err(format!(
                "recovery from the WAL gives {} pairs at {now}, the live service has {}",
                recovered.result_at(now).len(),
                expected.len()
            ));
        }
        Ok(Raw::from([("recover_ms", recover_ms)]))
    }
}

impl Drop for StreamStack {
    fn drop(&mut self) {
        if let Some(p) = &self.config.wal_path {
            let _ = std::fs::remove_file(p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{Inputs, Spec};
    use cij_geom::MovingRect;

    /// A sink that accepts `budget` submissions per step and refuses the
    /// rest must still see every object's updates in generation order,
    /// each deleting exactly the trajectory the previous one registered.
    #[test]
    fn retry_backlog_never_breaks_a_delete_chain() {
        let spec = Spec::named("burst_ingest", 9, true).unwrap();
        let inputs = Inputs::generate(&spec);
        let mut registered: HashMap<ObjectId, MovingRect> = inputs
            .set_a
            .iter()
            .chain(&inputs.set_b)
            .map(|o| (o.id, o.mbr))
            .collect();
        let mut backlog = RetryBacklog::default();
        let mut ledger = SubmitLedger::default();
        let mut generated = 0u64;
        let mut held_back = false;
        let mut offer = |fresh: &[ObjectUpdate], budget: usize, backlog: &mut RetryBacklog| {
            let mut left = budget;
            backlog.offer(fresh, &mut ledger, |u| {
                if left == 0 {
                    return IngestOutcome::QueueFull;
                }
                left -= 1;
                assert_eq!(
                    registered[&u.id], u.old_mbr,
                    "update of {:?} would delete a trajectory the sink never saw",
                    u.id
                );
                registered.insert(u.id, u.new_mbr);
                IngestOutcome::Accepted
            });
        };
        for tick in &inputs.ticks[..spec.ticks as usize] {
            for step in &tick.steps {
                generated += step.updates.len() as u64;
                // Room for a third of a steady step: bursts overflow it.
                offer(&step.updates, 4, &mut backlog);
                held_back |= !backlog.is_empty();
            }
        }
        assert!(held_back, "the sink never refused anything");
        while !backlog.is_empty() {
            offer(&[], usize::MAX, &mut backlog);
        }
        assert_eq!(
            ledger.accepted, generated,
            "every update arrives exactly once"
        );
        assert!(ledger.refused_full > 0);
        assert_eq!(ledger.attempts, ledger.accepted + ledger.refused_full);
    }

    #[test]
    fn fanout_is_128_windows_and_127_objects_inside_the_space() {
        let spec = Spec::named("burst_ingest", 1, false).unwrap();
        let inputs = Inputs::generate(&spec);
        let filters = fanout_filters(&inputs);
        let windows: Vec<&Rect> = filters
            .iter()
            .filter_map(|f| match f {
                SubscriptionFilter::Window(r) => Some(r),
                _ => None,
            })
            .collect();
        assert_eq!(windows.len(), WINDOW_SUBSCRIBERS);
        assert_eq!(filters.len(), WINDOW_SUBSCRIBERS + OBJECT_SUBSCRIBERS);
        for w in windows {
            assert!(w.lo[0] >= 0.0 && w.hi[0] <= spec.params.space + 1e-9);
            assert!(w.lo[1] >= 0.0 && w.hi[1] <= spec.params.space + 1e-9);
            assert!((w.hi[0] - w.lo[0] - 100.0).abs() < 1e-9);
        }
    }
}
