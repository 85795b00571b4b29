//! ε-threshold similarity-join benchmark: emits `BENCH_simjoin.json`.
//!
//! ```text
//! cargo run --release -p cij-bench --bin bench_simjoin            # full run
//! cargo run --release -p cij-bench --bin bench_simjoin -- --smoke # CI gate
//! ```
//!
//! Sweeps the proximity threshold ε over a [`ProximityJoinEngine`] on
//! two workloads and reports the **candidate economics** that govern the
//! filter-and-refine design:
//!
//! * a synthetic uniform workload at the paper's density (space scaled
//!   as `√N`), driven by [`UpdateStream`] — ε from 0 (pure intersection
//!   join) up to a sizeable fraction of an object diameter ×25;
//! * the checked-in Geolife-style trajectory sample replayed through
//!   the `trace` format — the trace-replay selectivity row.
//!
//! Every cell pulls `simjoin.candidates` / `simjoin.refine_rejects` and
//! the `simjoin.refine_ns` histogram **from the engine's cij-obs
//! registry** (not ad-hoc counters), computes the candidate selectivity
//! `accepted / candidates`, and the binary cross-checks the registry
//! totals against the engine's accessors so the exported numbers cannot
//! silently drift from what the metrics pipeline exposes. The registry's
//! Prometheus exposition for one representative cell is validated and
//! written alongside as `BENCH_simjoin.prom`.

use std::fmt::Write as _;
use std::fs::File;
use std::io::BufReader;
use std::sync::Arc;
use std::time::Instant;

use cij_core::{ContinuousJoinEngine, EngineConfig};
use cij_geom::Time;
use cij_obs::validate_prometheus;
use cij_simjoin::{ProximityConfig, ProximityJoinEngine};
use cij_storage::{BufferPool, BufferPoolConfig, InMemoryStore};
use cij_workload::{generate_pair, trace, MovingObject, ObjectUpdate, Params, UpdateStream};

const TRACE_OBJECTS: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../workload/data/geolife_sample.objects.csv"
);
const TRACE_UPDATES: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../workload/data/geolife_sample.updates.csv"
);

struct Options {
    smoke: bool,
    out: String,
    ticks: Option<u32>,
}

fn parse_args() -> Options {
    let mut opts = Options {
        smoke: false,
        out: "BENCH_simjoin.json".to_string(),
        ticks: None,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let want = |args: &[String], i: usize, flag: &str| -> String {
            args.get(i)
                .unwrap_or_else(|| {
                    eprintln!("{flag} needs a value");
                    std::process::exit(2);
                })
                .clone()
        };
        match args[i].as_str() {
            "--smoke" => opts.smoke = true,
            "--out" => {
                i += 1;
                opts.out = want(&args, i, "--out");
            }
            "--ticks" => {
                i += 1;
                opts.ticks = Some(want(&args, i, "--ticks").parse().unwrap_or_else(|e| {
                    eprintln!("--ticks: {e}");
                    std::process::exit(2);
                }));
            }
            other => {
                eprintln!("unknown flag {other} (use --smoke, --out PATH, --ticks T)");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    opts
}

/// One ε sweep point, with counters sourced from the cij-obs registry.
struct Cell {
    workload: &'static str,
    epsilon: f64,
    candidates: u64,
    accepted: u64,
    refine_rejects: u64,
    /// accepted / candidates — how sharp the Minkowski filter is.
    selectivity: f64,
    refine_calls: u64,
    refine_ns_p50: f64,
    refine_ns_p99: f64,
    refine_ns_mean: f64,
    final_pairs: usize,
    elapsed_ms: f64,
    ticks: u32,
}

/// Drives a fresh proximity engine over `(set_a, set_b)` + `schedule`
/// and harvests the cell from its metrics registry. Returns the cell and
/// the registry's Prometheus exposition.
fn run_cell(
    workload: &'static str,
    engine_cfg: EngineConfig,
    epsilon: f64,
    set_a: &[MovingObject],
    set_b: &[MovingObject],
    schedule: &[(Time, Vec<ObjectUpdate>)],
) -> (Cell, String) {
    let pool = BufferPool::new(
        Arc::new(InMemoryStore::new()),
        BufferPoolConfig::with_capacity(256),
    );
    let config = ProximityConfig::new(engine_cfg, epsilon);
    let mut engine =
        ProximityJoinEngine::new(pool, config, set_a, set_b, 0.0).expect("build engine");

    let t0 = Instant::now();
    engine.run_initial_join(0.0).expect("initial join");
    let mut final_pairs = engine.result_at(0.0).len();
    for (now, updates) in schedule {
        engine.advance_time(*now).expect("advance");
        for u in updates {
            engine.apply_update(u, *now).expect("update");
        }
        engine.gc(*now);
        final_pairs = engine.result_at(*now).len();
    }
    let elapsed_ms = t0.elapsed().as_secs_f64() * 1e3;

    // The exported numbers come from the registry the obs pipeline
    // scrapes; the engine accessors only cross-check them.
    engine.publish_metrics();
    let snap = engine.metrics_registry().snapshot();
    let exposition = snap.to_prometheus();
    let candidates = snap.counter("simjoin.candidates").unwrap_or(0);
    let refine_rejects = snap.counter("simjoin.refine_rejects").unwrap_or(0);
    assert_eq!(
        (candidates, refine_rejects),
        (engine.candidates(), engine.refine_rejects()),
        "registry diverged from engine accessors"
    );
    let refine = snap
        .histogram("simjoin.refine_ns")
        .copied()
        .unwrap_or_default();
    let accepted = candidates - refine_rejects;

    (
        Cell {
            workload,
            epsilon,
            candidates,
            accepted,
            refine_rejects,
            selectivity: if candidates > 0 {
                accepted as f64 / candidates as f64
            } else {
                0.0
            },
            refine_calls: refine.count,
            refine_ns_p50: refine.p50(),
            refine_ns_p99: refine.p99(),
            refine_ns_mean: refine.mean(),
            final_pairs,
            elapsed_ms,
            ticks: schedule.len() as u32,
        },
        exposition,
    )
}

/// Synthetic workload at paper density: space scales as `√N`.
fn synthetic(per_set: usize, ticks: u32) -> SyntheticWorkload {
    let params = Params {
        dataset_size: per_set,
        space: 1000.0 * (per_set as f64 / 10_000.0).sqrt(),
        object_size_pct: 1.0,
        ..Params::default()
    };
    let (a, b) = generate_pair(&params, 0.0);
    let mut stream = UpdateStream::new(&params, &a, &b, 0.0);
    let schedule = (1..=ticks)
        .map(|tick| {
            let now = Time::from(tick);
            (now, stream.tick(now))
        })
        .collect();
    SyntheticWorkload {
        engine_cfg: EngineConfig::builder()
            .t_m(params.maximum_update_interval)
            .metrics(true)
            .build(),
        a,
        b,
        schedule,
    }
}

struct SyntheticWorkload {
    engine_cfg: EngineConfig,
    a: Vec<MovingObject>,
    b: Vec<MovingObject>,
    schedule: Vec<(Time, Vec<ObjectUpdate>)>,
}

/// The checked-in Geolife-style sample, grouped into whole-tick batches.
fn trace_replay() -> SyntheticWorkload {
    let (a, b) = trace::read_objects(&mut BufReader::new(
        File::open(TRACE_OBJECTS).expect("checked-in trace objects"),
    ))
    .expect("parse trace objects");
    let updates = trace::read_updates(
        &mut BufReader::new(File::open(TRACE_UPDATES).expect("checked-in trace updates")),
        &a,
        &b,
    )
    .expect("parse trace updates");
    let last = updates.last().map_or(0.0, |u| u.new_mbr.t_ref);
    let mut schedule = Vec::new();
    let mut tick = 1.0;
    while tick <= last {
        let batch: Vec<ObjectUpdate> = updates
            .iter()
            .filter(|u| u.new_mbr.t_ref == tick)
            .copied()
            .collect();
        schedule.push((tick, batch));
        tick += 1.0;
    }
    SyntheticWorkload {
        // 10 s lookahead: the demo's pedestrian-vs-vehicle horizon.
        engine_cfg: EngineConfig::builder().t_m(10.0).metrics(true).build(),
        a,
        b,
        schedule,
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "null".to_string()
    }
}

fn cell_json(c: &Cell) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"workload\": \"{}\", \"epsilon\": {}, \"candidates\": {}, \"accepted\": {}, \
         \"refine_rejects\": {}, \"selectivity\": {}, ",
        c.workload,
        json_num(c.epsilon),
        c.candidates,
        c.accepted,
        c.refine_rejects,
        json_num(c.selectivity)
    );
    let _ = write!(
        s,
        "\"refine_ns\": {{\"count\": {}, \"p50\": {}, \"p99\": {}, \"mean\": {}}}, ",
        c.refine_calls,
        json_num(c.refine_ns_p50),
        json_num(c.refine_ns_p99),
        json_num(c.refine_ns_mean)
    );
    let _ = write!(
        s,
        "\"final_pairs\": {}, \"elapsed_ms\": {}, \"ticks\": {}}}",
        c.final_pairs,
        json_num(c.elapsed_ms),
        c.ticks
    );
    s
}

fn main() {
    let opts = parse_args();
    let per_set = if opts.smoke { 300 } else { 2000 };
    let ticks = opts.ticks.unwrap_or(if opts.smoke { 10 } else { 40 });
    // Object side at 1% of a √N-scaled space ≈ 2 units: the sweep spans
    // "pure intersection" to "ε ≫ object diameter".
    let synth_eps: &[f64] = if opts.smoke {
        &[0.0, 2.5, 10.0]
    } else {
        &[0.0, 1.0, 2.5, 5.0, 10.0, 25.0]
    };
    // Metre scale for the Geolife-style sample (2 m boxes, 320 m frame).
    let trace_eps: &[f64] = if opts.smoke {
        &[15.0, 30.0]
    } else {
        &[5.0, 15.0, 30.0, 60.0]
    };

    let synth = synthetic(per_set, ticks);
    let mut cells = Vec::new();
    let mut exposition = None;
    for &eps in synth_eps {
        let (cell, prom) = run_cell(
            "synthetic",
            synth.engine_cfg,
            eps,
            &synth.a,
            &synth.b,
            &synth.schedule,
        );
        println!(
            "synthetic eps={eps:<5} candidates {:>8}  selectivity {:>6.3}  refine p99 {:>7.0} ns  \
             pairs {:>6}",
            cell.candidates, cell.selectivity, cell.refine_ns_p99, cell.final_pairs
        );
        if exposition.is_none() && eps > 0.0 {
            exposition = Some(prom);
        }
        cells.push(cell);
    }

    let replay = trace_replay();
    for &eps in trace_eps {
        let (cell, _) = run_cell(
            "trace:geolife_sample",
            replay.engine_cfg,
            eps,
            &replay.a,
            &replay.b,
            &replay.schedule,
        );
        println!(
            "trace     eps={eps:<5} candidates {:>8}  selectivity {:>6.3}  refine p99 {:>7.0} ns  \
             pairs {:>6}",
            cell.candidates, cell.selectivity, cell.refine_ns_p99, cell.final_pairs
        );
        cells.push(cell);
    }

    let exposition = exposition.expect("at least one ε > 0 synthetic cell");
    let samples = validate_prometheus(&exposition)
        .unwrap_or_else(|e| panic!("bench_simjoin produced invalid Prometheus exposition: {e}"));
    assert!(
        exposition.contains("simjoin_candidates") || exposition.contains("simjoin.candidates"),
        "exposition lacks simjoin candidate counter"
    );

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"simjoin\",");
    let _ = writeln!(json, "  \"smoke\": {},", opts.smoke);
    let _ = writeln!(json, "  \"engine\": \"Proximity-Join\",");
    let _ = writeln!(json, "  \"objects_per_set\": {per_set},");
    let _ = writeln!(json, "  \"ticks\": {ticks},");
    let _ = writeln!(json, "  \"cells\": [");
    for (i, c) in cells.iter().enumerate() {
        let comma = if i + 1 < cells.len() { "," } else { "" };
        let _ = writeln!(json, "    {}{comma}", cell_json(c));
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(
        json,
        "  \"metrics\": {{\"prometheus_samples\": {samples}, \"validated\": true}}"
    );
    let _ = writeln!(json, "}}");

    std::fs::write(&opts.out, &json).expect("write benchmark json");
    let prom_out = format!("{}.prom", opts.out.trim_end_matches(".json"));
    std::fs::write(&prom_out, &exposition).expect("write prometheus exposition");
    println!("metrics: {samples} Prometheus samples (exposition validated)");
    println!("wrote {} and {prom_out}", opts.out);
}
