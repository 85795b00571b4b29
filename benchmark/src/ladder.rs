//! The traced run: spans around the workload's own pass, then the
//! ladder that attributes cost to layers.
//!
//! Spans stop at the API boundary, so what a layer costs *inside* a call
//! comes from pushing the same update stream (half a pass of it) through
//! rungs `tpr` → `core` → `stream` → `shard.k1` → `shard.k4` →
//! `shard.adaptive` → `dist.loopback` → `dist.tcp`. Each rung is checked
//! against the brute-force oracle and against the rung below;
//! `<rung>.tax_us` is a rung's `update_us` minus the rung below it on
//! identical inputs.

use std::collections::BTreeMap;
use std::path::Path;

use cij_workload::{Distribution, Params};

use crate::metrics;
use crate::micro;
use crate::pass::{run_pass, AnswerMark, PassOutcome};
use crate::run::Measured;
use crate::stacks::{BenchResult, Env, Plan};
use crate::trace::{SpanTotals, Tracer};
use crate::workloads::{Inputs, Spec, StackKind, TICK_SCALE};

/// The rungs, bottom to top, with the helper rungs some ratios need.
fn rungs(spec: &Spec) -> Vec<(&'static str, Plan)> {
    let shard = |k, adaptive, threads| Plan::Shard {
        k,
        adaptive,
        threads,
        worker_config: false,
    };
    vec![
        ("tpr", Plan::Tpr),
        ("core", Plan::Core { metrics: false }),
        // `core` again with the metrics registry on: the obs tax.
        ("obs", Plan::Core { metrics: true }),
        // The stream layer as this workload configures it.
        (
            "stream",
            if spec.burst {
                Plan::ServiceBurst
            } else {
                Plan::Stream
            },
        ),
        ("shard.k1", shard(1, false, 2)),
        ("shard.k4", shard(4, false, 2)),
        // `shard.k4` on one thread: the fan-out's speed-up.
        ("shard.k4.t1", shard(4, false, 1)),
        ("shard.adaptive", shard(4, true, 2)),
        // The in-process twin of the dist rungs (same K, policy and
        // inner-engine configuration): the base of the dist tax.
        (
            "shard.k2",
            Plan::Shard {
                k: 2,
                adaptive: false,
                threads: 1,
                worker_config: true,
            },
        ),
        (
            "dist.loopback",
            Plan::DistLoopback {
                k: 2,
                durable: true,
            },
        ),
        ("dist.tcp", Plan::DistTcp { k: 2 }),
    ]
}

/// The rung that is the workload's own stack.
fn own_rung(spec: &Spec) -> &'static str {
    match spec.stack {
        StackKind::Stream => "stream",
        StackKind::Shard => "shard.adaptive",
        StackKind::Dist => "dist.loopback",
    }
}

/// The similarity-join rung's inputs: Gaussian, 4 000 objects per set.
fn simjoin_spec(seed: u64, smoke: bool) -> Spec {
    let mut spec = Spec {
        name: "simjoin",
        why: "",
        params: Params {
            dataset_size: 4_000,
            distribution: Distribution::Gaussian,
            seed,
            ..Params::default()
        },
        ticks: ((60.0 * TICK_SCALE).round() as u32).max(1),
        pool_pages: 4096,
        stack: StackKind::Stream,
        burst: false,
        smoke,
    };
    if smoke {
        spec.params.dataset_size /= 10;
    }
    spec
}

/// Share of the traced pass's tick time spent in each kind of call.
fn span_shares(totals: &BTreeMap<&'static str, SpanTotals>) -> (f64, f64, f64, f64) {
    let tick_ns = totals.get("tick").map_or(0, |t| t.total_ns).max(1) as f64;
    let share = |suffixes: &[&str]| {
        totals
            .iter()
            .filter(|(name, _)| suffixes.iter().any(|s| name.ends_with(s)))
            .map(|(_, t)| t.self_ns)
            .sum::<u64>() as f64
            / tick_ns
    };
    (
        share(&[".submit"]),
        share(&[".advance_to", ".advance_time", ".apply_batch", ".gc"]),
        share(&[".poll", ".result_at"]),
        totals.get("tick").map_or(0, |t| t.self_ns) as f64 / tick_ns,
    )
}

/// The pass with the median maintenance time (the lower one of an even
/// count), so that all of a rung's numbers come from one coherent pass.
fn representative(mut passes: Vec<PassOutcome>) -> PassOutcome {
    passes.sort_by_key(|p| p.maint_ns);
    let mid = (passes.len() - 1) / 2;
    passes.swap_remove(mid)
}

/// Runs the traced pass, the ladder and the microbenchmarks, and returns
/// every per-layer metric. `untraced` is the run's verified first pass.
/// The ladder repeats while `more_time()` holds; each rung then reports
/// its median repetition.
pub fn traced(
    inputs: &Inputs,
    env: &Env,
    own: Plan,
    untraced: &PassOutcome,
    out_dir: &Path,
    more_time: &dyn Fn() -> bool,
) -> BenchResult<Vec<Measured>> {
    let spec = &inputs.spec;

    // 1. The workload's own pass again, with spans.
    let mut tracer = Tracer::new(true);
    let own_pass = run_pass(own, inputs, env, spec.ticks, false, &mut tracer)?;
    if own_pass.last != untraced.last || own_pass.io != untraced.io {
        return Err(format!(
            "{}: the traced pass disagrees with the untraced one ({:?}/{:?} vs {:?}/{:?})",
            spec.name, own_pass.last, own_pass.io, untraced.last, untraced.io
        ));
    }
    let trace_path = out_dir.join(format!("trace_{}.json", spec.name));
    std::fs::write(&trace_path, tracer.to_chrome_trace(spec.name).encode())
        .map_err(|e| format!("cannot write {}: {e}", trace_path.display()))?;
    let (submit_share, apply_share, read_share, driver_share) = span_shares(&own_pass.spans);

    // 2. The ladder over the first half of the same update stream.
    let ticks = spec.ladder_ticks();
    let updates = inputs.updates_in(ticks).max(1) as f64;
    let mut reps: BTreeMap<&'static str, Vec<PassOutcome>> = BTreeMap::new();
    let mut first_rep = true;
    while first_rep || more_time() {
        let mut below: Option<(&'static str, Vec<AnswerMark>)> = None;
        for (name, plan) in rungs(spec) {
            let outcome = run_pass(plan, inputs, env, ticks, true, &mut Tracer::new(true))?;
            if !outcome.marks.is_empty() {
                if let Some((below_name, below_marks)) = &below {
                    for m in &outcome.marks {
                        let twin = below_marks.iter().find(|b| b.tick == m.tick);
                        if twin.is_some_and(|b| b != m) {
                            return Err(format!(
                                "{}: rung {name} and rung {below_name} disagree at tick {}",
                                spec.name, m.tick
                            ));
                        }
                    }
                }
                below = Some((name, outcome.marks.clone()));
            }
            reps.entry(name).or_default().push(outcome);
        }
        first_rep = false;
    }
    let rung: BTreeMap<&'static str, PassOutcome> = reps
        .into_iter()
        .map(|(name, passes)| (name, representative(passes)))
        .collect();
    let r = |name: &str| &rung[name];
    let us = |name: &str| r(name).update_us();

    // 3. The similarity join on its own inputs, and the microbenchmarks.
    let sim_inputs = Inputs::generate(&simjoin_spec(spec.params.seed, spec.smoke));
    let sim = run_pass(
        Plan::Simjoin {
            epsilon: micro::EPSILON,
        },
        &sim_inputs,
        env,
        sim_inputs.spec.ticks,
        false,
        &mut Tracer::new(true),
    )?;
    let micro = micro::run(inputs, &env.tmp_dir)?;

    // 4. Assemble.
    let tpr = r("tpr");
    let core = r("core");
    let stream = r("stream");
    let k4 = r("shard.k4");
    let adaptive = r("shard.adaptive");
    let loopback = r("dist.loopback");
    let core_counters = core.counters.unwrap_or_default();
    let own_applied = own_pass.applied().max(1.0);
    let stream_applied = stream.applied().max(1.0);
    let tpr_update_us = tpr.span_ns("tpr.update") / 1e3 / updates;
    let tpr_probe_us = tpr.span_ns("tpr.intersect_window") / 1e3 / updates;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let page_reads = core.raw("zero_copy_reads") + core.raw("decode_fallbacks");
    let all_generated: u64 = inputs.ticks.iter().map(|t| t.update_count()).sum();

    // The workload's own pass over the ladder's ticks against the rung
    // that is the same stack.
    let own_ladder_us = ratio(
        untraced.tick_ns[..ticks as usize].iter().sum::<u64>() as f64 / 1e3,
        if spec.burst { stream_applied } else { updates },
    );
    let own_rung_us = us(own_rung(spec));

    let values: Vec<(&str, f64)> = vec![
        (
            "workload.gen_us_per_update",
            inputs.gen_secs * 1e6 / all_generated.max(1) as f64,
        ),
        ("geom.intersect_ns", micro.intersect_ns),
        ("geom.within_dist_ns", micro.within_dist_ns),
        (
            "storage.logical_reads_per_update",
            own_pass.io.logical_reads as f64 / own_applied,
        ),
        (
            "storage.physical_reads_per_update",
            own_pass.io.physical_reads as f64 / own_applied,
        ),
        (
            "storage.logical_writes_per_update",
            own_pass.io.logical_writes as f64 / own_applied,
        ),
        (
            "storage.pool_hit_ratio",
            own_pass.io.hit_ratio().unwrap_or(0.0),
        ),
        (
            "storage.zero_copy_share",
            ratio(core.raw("zero_copy_reads"), page_reads),
        ),
        (
            "storage.index_pages",
            own_pass.io_end.allocations as f64 - own_pass.io_end.frees as f64,
        ),
        ("storage.read_hit_ns", micro.read_hit_ns),
        ("storage.read_miss_ns", micro.read_miss_ns),
        ("storage.wal_append_us", micro.wal_append_us),
        (
            "storage.wal_bytes_per_update",
            own_pass.raw("wal_bytes") / own_applied,
        ),
        ("tpr.build_ms", tpr.setup.build_s * 1e3),
        ("tpr.update_us", tpr_update_us),
        ("tpr.probe_us", tpr_probe_us),
        (
            "tpr.reads_per_update",
            tpr.io.logical_reads as f64 / updates,
        ),
        ("tpr.height", tpr.raw("height")),
        ("join.tc_join_ms", micro.tc_join_ms),
        ("join.improved_join_ms", micro.improved_join_ms),
        ("join.sweep_soa_us", micro.sweep_soa_us),
        ("join.improved_node_pairs", micro.improved.node_pairs as f64),
        (
            "join.improved_entry_cmp",
            micro.improved.entry_comparisons as f64,
        ),
        ("join.improved_ic_pruned", micro.improved.ic_pruned as f64),
        ("join.improved_pairs", micro.improved.pairs_emitted as f64),
        (
            "join.node_pairs_per_update",
            core_counters.node_pairs as f64 / updates,
        ),
        (
            "join.entry_cmp_per_update",
            core_counters.entry_comparisons as f64 / updates,
        ),
        (
            "join.ic_pruned_per_update",
            core_counters.ic_pruned as f64 / updates,
        ),
        (
            "join.pairs_emitted_per_update",
            core_counters.pairs_emitted as f64 / updates,
        ),
        ("core.build_ms", core.setup.build_s * 1e3),
        ("core.initial_join_ms", core.setup.join_s * 1e3),
        (
            "core.advance_us_per_tick",
            core.span_ns("core.advance_time") / 1e3 / f64::from(ticks),
        ),
        (
            "core.apply_us_per_update",
            core.span_ns("core.apply_batch") / 1e3 / updates,
        ),
        (
            "core.gc_us_per_tick",
            core.span_ns("core.gc") / 1e3 / f64::from(ticks),
        ),
        (
            "core.result_at_us",
            core.span_ns("core.result_at") / 1e3 / f64::from(ticks),
        ),
        ("core.update_us", us("core")),
        ("core.tax_us", us("core") - tpr_update_us - tpr_probe_us),
        ("core.live_pairs", core.raw("live_pairs")),
        (
            "core.result_changes_per_update",
            core.raw("result_changes") / updates,
        ),
        (
            "stream.submit_ns",
            ratio(stream.span_ns("stream.submit"), stream.raw("attempts")),
        ),
        (
            "stream.advance_us_per_update",
            stream.span_ns("stream.advance_to") / 1e3 / stream_applied,
        ),
        (
            "stream.poll_us_per_item",
            ratio(
                stream.span_ns("stream.poll") / 1e3,
                stream.raw("outbox_items"),
            ),
        ),
        ("stream.update_us", us("stream")),
        ("stream.tax_us", us("stream") - us("core")),
        (
            "stream.deltas_per_update",
            stream.raw("deltas") / stream_applied,
        ),
        (
            "stream.outbox_items_per_update",
            stream.raw("outbox_items") / stream_applied,
        ),
        (
            "stream.refused_share",
            ratio(
                stream.raw("refused_full") + stream.raw("refused_stale"),
                stream.raw("attempts"),
            ),
        ),
        ("stream.shed_superseded", stream.raw("superseded")),
        ("stream.recover_ms", stream.raw("recover_ms")),
        ("shard.k1.update_us", us("shard.k1")),
        ("shard.k4.update_us", us("shard.k4")),
        ("shard.adaptive.update_us", us("shard.adaptive")),
        ("shard.k1_tax_us", us("shard.k1") - us("core")),
        ("shard.tax_ratio", ratio(us("shard.k4"), us("core"))),
        (
            "shard.reads_ratio",
            ratio(k4.io.logical_reads as f64, core.io.logical_reads as f64),
        ),
        ("shard.engines", k4.raw("engines")),
        (
            "shard.migrations_per_update",
            k4.raw("migrations") / updates,
        ),
        ("shard.rebalances", adaptive.raw("rebalances")),
        ("shard.rebalance_moved", adaptive.raw("rebalance_moved")),
        ("shard.population_skew", adaptive.raw("population_skew")),
        (
            "shard.thread_speedup",
            ratio(us("shard.k4.t1"), us("shard.k4")),
        ),
        ("dist.loopback.update_us", us("dist.loopback")),
        ("dist.tax_us", us("dist.loopback") - us("shard.k2")),
        ("dist.tcp.update_us", us("dist.tcp")),
        ("dist.tcp.tax_us", us("dist.tcp") - us("shard.k2")),
        ("dist.rpc_per_update", loopback.raw("rpcs") / updates),
        (
            "dist.codec_ns_per_update",
            ratio(
                loopback.raw("codec_sample_ns"),
                loopback.raw("codec_sample_ops"),
            ) * loopback.raw("step_ops")
                / updates,
        ),
        (
            "dist.worker_wal_bytes_per_update",
            loopback.raw("worker_wal_bytes") / updates,
        ),
        ("simjoin.update_us", sim.update_us()),
        (
            "simjoin.candidates_per_update",
            sim.raw("candidates") / sim.updates.max(1) as f64,
        ),
        (
            "simjoin.refine_reject_share",
            ratio(sim.raw("refine_rejects"), sim.raw("candidates")),
        ),
        (
            "obs.metrics_tax_pct",
            100.0 * ratio(us("obs") - us("core"), us("core")),
        ),
        ("obs.snapshot_us", r("obs").raw("snapshot_ns") / 1e3),
        ("trace.submit_share", submit_share),
        ("trace.apply_share", apply_share),
        ("trace.read_share", read_share),
        ("trace.driver_share", driver_share),
        (
            "bench.trace_overhead_pct",
            100.0
                * ratio(
                    own_pass.update_us() - untraced.update_us(),
                    untraced.update_us(),
                ),
        ),
        (
            "bench.ladder_gap_pct",
            100.0 * ratio(own_ladder_us - own_rung_us, own_rung_us),
        ),
        ("bench.tick_samples", own_pass.tick_ns.len() as f64),
    ];

    metrics::PER_LAYER
        .iter()
        .map(|def| {
            let (_, value) = values
                .iter()
                .find(|(name, _)| *name == def.name)
                .ok_or_else(|| format!("the ladder does not measure {}", def.name))?;
            Ok(Measured {
                name: def.name.to_string(),
                value: *value,
                unit: def.unit,
                samples: 1,
                per_pass: Vec::new(),
            })
        })
        .collect()
}
