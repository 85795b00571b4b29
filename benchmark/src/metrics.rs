//! The benchmark's metric names — the one table `run`, `compare`, the
//! README and `BENCHMARK.json` agree on.

/// How `compare` judges a metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// A timing or size: the median may worsen by this share.
    Share(f64),
    /// A deterministic count: must repeat exactly for one seed.
    Exact,
    /// Reported, not judged.
    None,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Bound,
}

const fn timing(name: &'static str, unit: &'static str, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: Bound::Share(bound),
    }
}

const fn count(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: Bound::Exact,
    }
}

const fn info(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Bound::None,
    }
}

/// What a user of the system sees. These five are never zero on any
/// workload and are `BENCHMARK.json`'s `end_to_end`, with these bounds.
/// The timing bounds sit at the contract's ceiling because this sandbox
/// is that noisy: a pure CPU loop repeats with a 17 % inter-quartile
/// spread here, and ten 20-second runs of one workload spread 8–12 %.
pub const END_TO_END: &[MetricDef] = &[
    timing("setup_s", "s", 0.25),
    timing("update_us", "us", 0.25),
    timing("tick_ms_p50", "ms", 0.25),
    timing("tick_ms_p95", "ms", 0.25),
    timing("peak_rss_mb", "MiB", 0.10),
];

/// End-to-end counts. Deterministic per seed, so `compare` holds them
/// to exact equality; zero by design on some workloads, so
/// `BENCHMARK.json` lists them with the per-layer metrics.
pub const END_TO_END_COUNTS: &[MetricDef] = &[
    count("node_reads_per_update", "count"),
    count("page_io_per_update", "count"),
    count("failed_share", "ratio"),
];

use Better::{Higher, Lower};

/// Single-layer metrics, prefixed by crate. Printed by a traced run.
pub const PER_LAYER: &[MetricDef] = &[
    info("workload.gen_us_per_update", "us", Lower),
    info("geom.intersect_ns", "ns", Lower),
    info("geom.within_dist_ns", "ns", Lower),
    count("storage.logical_reads_per_update", "count"),
    count("storage.physical_reads_per_update", "count"),
    count("storage.logical_writes_per_update", "count"),
    info("storage.pool_hit_ratio", "ratio", Higher),
    info("storage.zero_copy_share", "ratio", Higher),
    count("storage.index_pages", "count"),
    info("storage.read_hit_ns", "ns", Lower),
    info("storage.read_miss_ns", "ns", Lower),
    info("storage.wal_append_us", "us", Lower),
    count("storage.wal_bytes_per_update", "bytes"),
    info("tpr.build_ms", "ms", Lower),
    info("tpr.update_us", "us", Lower),
    info("tpr.probe_us", "us", Lower),
    count("tpr.reads_per_update", "count"),
    count("tpr.height", "count"),
    info("join.tc_join_ms", "ms", Lower),
    info("join.improved_join_ms", "ms", Lower),
    info("join.sweep_soa_us", "us", Lower),
    count("join.improved_node_pairs", "count"),
    count("join.improved_entry_cmp", "count"),
    count("join.improved_ic_pruned", "count"),
    count("join.improved_pairs", "count"),
    count("join.node_pairs_per_update", "count"),
    count("join.entry_cmp_per_update", "count"),
    count("join.ic_pruned_per_update", "count"),
    count("join.pairs_emitted_per_update", "count"),
    info("core.build_ms", "ms", Lower),
    info("core.initial_join_ms", "ms", Lower),
    info("core.advance_us_per_tick", "us", Lower),
    info("core.apply_us_per_update", "us", Lower),
    info("core.gc_us_per_tick", "us", Lower),
    info("core.result_at_us", "us", Lower),
    info("core.update_us", "us", Lower),
    info("core.tax_us", "us", Lower),
    count("core.live_pairs", "count"),
    count("core.result_changes_per_update", "count"),
    info("stream.submit_ns", "ns", Lower),
    info("stream.advance_us_per_update", "us", Lower),
    info("stream.poll_us_per_item", "us", Lower),
    info("stream.update_us", "us", Lower),
    info("stream.tax_us", "us", Lower),
    count("stream.deltas_per_update", "count"),
    count("stream.outbox_items_per_update", "count"),
    count("stream.refused_share", "ratio"),
    count("stream.shed_superseded", "count"),
    info("stream.recover_ms", "ms", Lower),
    info("shard.k1.update_us", "us", Lower),
    info("shard.k4.update_us", "us", Lower),
    info("shard.adaptive.update_us", "us", Lower),
    info("shard.k1_tax_us", "us", Lower),
    info("shard.tax_ratio", "ratio", Lower),
    count("shard.reads_ratio", "ratio"),
    count("shard.engines", "count"),
    count("shard.migrations_per_update", "count"),
    count("shard.rebalances", "count"),
    count("shard.rebalance_moved", "count"),
    count("shard.population_skew", "ratio"),
    info("shard.thread_speedup", "ratio", Higher),
    info("dist.loopback.update_us", "us", Lower),
    info("dist.tax_us", "us", Lower),
    info("dist.tcp.update_us", "us", Lower),
    info("dist.tcp.tax_us", "us", Lower),
    count("dist.rpc_per_update", "count"),
    info("dist.codec_ns_per_update", "ns", Lower),
    count("dist.worker_wal_bytes_per_update", "bytes"),
    info("simjoin.update_us", "us", Lower),
    count("simjoin.candidates_per_update", "count"),
    count("simjoin.refine_reject_share", "ratio"),
    info("obs.metrics_tax_pct", "%", Lower),
    info("obs.snapshot_us", "us", Lower),
    info("trace.submit_share", "ratio", Lower),
    info("trace.apply_share", "ratio", Lower),
    info("trace.read_share", "ratio", Lower),
    info("trace.driver_share", "ratio", Lower),
    info("bench.trace_overhead_pct", "%", Lower),
    info("bench.ladder_gap_pct", "%", Lower),
    count("bench.tick_samples", "count"),
];

/// Looks a metric up across all three tables.
#[must_use]
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(END_TO_END_COUNTS)
        .chain(PER_LAYER)
        .find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use std::collections::BTreeSet;

    fn valid_name(s: &str, extra: &str, max: usize) -> bool {
        !s.is_empty()
            && s.len() <= max
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = BTreeSet::new();
        for m in END_TO_END.iter().chain(END_TO_END_COUNTS).chain(PER_LAYER) {
            assert!(valid_name(m.name, "_.-", 64), "{}", m.name);
            assert!(m.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(
                valid_name(m.unit, "_/%.-", 16),
                "{} unit {}",
                m.name,
                m.unit
            );
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        assert!(END_TO_END_COUNTS.len() + PER_LAYER.len() <= 128);
    }

    /// `BENCHMARK.json` at the repo root must list exactly this table.
    #[test]
    fn benchmark_json_matches_the_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed = |key: &str| -> Vec<(String, String, String, Option<f64>)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(Json::as_str).unwrap().to_string(),
                        m.get("unit").and_then(Json::as_str).unwrap().to_string(),
                        m.get("better").and_then(Json::as_str).unwrap().to_string(),
                        m.get("bound").and_then(Json::as_f64),
                    )
                })
                .collect()
        };
        // Only `end_to_end` entries carry a `bound` key.
        let expect =
            |defs: &[MetricDef], bounded: bool| -> Vec<(String, String, String, Option<f64>)> {
                defs.iter()
                    .map(|m| {
                        let bound = match m.bound {
                            Bound::Share(b) if bounded => Some(b),
                            _ => None,
                        };
                        (
                            m.name.to_string(),
                            m.unit.to_string(),
                            match m.better {
                                Better::Lower => "lower",
                                Better::Higher => "higher",
                            }
                            .to_string(),
                            bound,
                        )
                    })
                    .collect()
            };
        assert_eq!(listed("end_to_end"), expect(END_TO_END, true));
        let mut per_layer = expect(END_TO_END_COUNTS, false);
        per_layer.extend(expect(PER_LAYER, false));
        assert_eq!(listed("per_layer"), per_layer);
        let names: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(names, crate::workloads::WORKLOAD_NAMES);
    }
}
