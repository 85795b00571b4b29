//! Regenerates every table and figure of the paper's evaluation (§VI).
//! This binary is all of `cij-bench`; performance of the stack as
//! deployed is measured by the ledger, `benchmark/`.
//!
//! ```text
//! cargo run --release -p cij-bench --bin figures -- all
//! cargo run --release -p cij-bench --bin figures -- fig9 --scale paper
//! ```
//!
//! Subcommands: `table1`, `validate`, `fig7` … `fig21`, `all`.
//! (`fig16`–`fig21` are this repo's own extension experiments; there is
//! no `fig17`, `fig18` or `fig19` — the TPR-tree heuristic switches, the
//! PBSM partition join and the Bˣ-tree substrate they measured were
//! removed, DESIGN.md §5.)
//!
//! `--scale small` (default) runs the sweep at one tenth of the paper's
//! dataset sizes so the whole suite finishes in minutes; `--scale paper`
//! uses Table I sizes verbatim. Both produce the same *shapes* (who wins,
//! by what factor), the claims the reproduction checks. Costs are
//! reported as physical disk I/Os (hardware-independent) and wall-clock
//! response time.

#![deny(unsafe_code)]

mod report;
mod runner;

use std::time::Duration;

use cij_core::MtbEngine;
use cij_join::{improved_join, naive_join, tc_join, techniques, tp_join, Techniques};
use cij_tpr::TprResult;
use cij_workload::{generate_pair, Distribution, Params, UpdateStream};

use crate::report::{fmt_duration, Row, Table};
use crate::runner::{
    build_pair_trees, engine_config, fresh_pool, maintenance_cost, measure, EngineKind, Scale,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut command = String::from("all");
    let mut scale = Scale::Small;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale = match args.get(i).map(String::as_str) {
                    Some("paper") => Scale::Paper,
                    Some("small") => Scale::Small,
                    other => {
                        eprintln!("unknown scale {other:?} (use small|paper)");
                        std::process::exit(2);
                    }
                };
            }
            c if !c.starts_with('-') => command = c.to_string(),
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    let result = match command.as_str() {
        "table1" => table1(scale),
        "validate" => validate(scale),
        "fig7" => fig7(scale),
        "fig8" => fig8(scale),
        "fig9" => fig9(scale),
        "fig10" => fig10(scale),
        "fig11" => fig11(scale),
        "fig12" => fig12(scale),
        "fig13" => fig13(scale),
        "fig14" => fig14(scale),
        "fig15" => fig15(scale),
        "fig16" => fig16(scale),
        "fig20" => fig20(scale),
        "fig21" => fig21(scale),
        "all" => [
            table1 as fn(Scale) -> TprResult<()>,
            fig7,
            fig8,
            fig9,
            fig10,
            fig11,
            fig12,
            fig13,
            fig14,
            fig15,
            fig16,
            fig20,
            fig21,
        ]
        .iter()
        .try_for_each(|f| f(scale)),
        other => {
            eprintln!("unknown subcommand {other}");
            std::process::exit(2);
        }
    };
    if let Err(e) = result {
        eprintln!("experiment failed: {e}");
        std::process::exit(1);
    }
}

fn default_params(scale: Scale) -> Params {
    scale.params()
}

/// Table I — the parameter space (echoed so every run records its
/// configuration).
fn table1(scale: Scale) -> TprResult<()> {
    let mut t = Table::new(
        "Table I — parameters (defaults in use marked *)",
        "Parameter",
        &["Setting"],
    );
    let d = default_params(scale);
    t.push(Row::new(
        "Node capacity",
        vec![format!("{}*", d.node_capacity)],
    ));
    t.push(Row::new(
        "Maximum update interval",
        vec!["60*, 120, 240".into()],
    ));
    t.push(Row::new(
        "Maximum object speed",
        vec!["1, 2, 3*, 4, 5".into()],
    ));
    t.push(Row::new(
        "Object size (% of space side)",
        vec!["0.05%, 0.1%*, 0.2%, 0.4%, 0.8%".into()],
    ));
    t.push(Row::new(
        "Dataset size",
        vec![format!(
            "{} (default {})",
            Scale::Paper
                .size_sweep()
                .iter()
                .map(|&s| Scale::size_label(s))
                .collect::<Vec<_>>()
                .join(", "),
            Scale::size_label(d.dataset_size)
        )],
    ));
    t.push(Row::new(
        "Dataset",
        vec!["Uniform*, Gaussian, Battlefield".into()],
    ));
    t.push(Row::new(
        "Scale",
        vec![format!("{scale:?} (sizes {:?})", scale.size_sweep())],
    ));
    t.print();
    Ok(())
}

/// Fig. 7 — effect of TC processing on the initial join, *without* any
/// improvement technique: NaiveJoin (`[0, ∞)`) vs the time-constrained
/// run (`[0, T_M]`), sweeping dataset size.
fn fig7(scale: Scale) -> TprResult<()> {
    let mut io_t = Table::new(
        "Fig. 7 — effect of TC processing (initial join, no techniques): I/O",
        "size",
        &["Non-TC (NaiveJoin) I/O", "TC I/O", "ratio"],
    );
    let mut rt_t = Table::new(
        "Fig. 7 — effect of TC processing (initial join, no techniques): response time",
        "size",
        &["Non-TC time", "TC time", "ratio"],
    );
    for size in scale.size_sweep() {
        let params = Params {
            dataset_size: size,
            ..Params::default()
        };
        let t_m = params.maximum_update_interval;
        let pool = fresh_pool();
        let (ta, tb, _, _) = build_pair_trees(&params, &pool)?;
        let ((pairs_n, _), io_n, time_n) = measure(&pool, || naive_join(&ta, &tb, 0.0))?;
        let ((pairs_tc, _), io_tc, time_tc) = measure(&pool, || tc_join(&ta, &tb, 0.0, t_m))?;
        assert!(pairs_tc.len() <= pairs_n.len());
        let label = Scale::size_label(size);
        io_t.push(Row::new(
            label.clone(),
            vec![
                io_n.to_string(),
                io_tc.to_string(),
                format!("{:.1}×", io_n as f64 / io_tc.max(1) as f64),
            ],
        ));
        rt_t.push(Row::new(
            label,
            vec![
                fmt_duration(time_n),
                fmt_duration(time_tc),
                format!(
                    "{:.1}×",
                    time_n.as_secs_f64() / time_tc.as_secs_f64().max(1e-9)
                ),
            ],
        ));
    }
    io_t.print();
    rt_t.print();
    Ok(())
}

/// Fig. 8 — effect of the improvement techniques, independent of TC: all
/// combinations run the same `[0, T_M]` window on the default dataset.
fn fig8(scale: Scale) -> TprResult<()> {
    let params = default_params(scale);
    let t_m = params.maximum_update_interval;
    let pool = fresh_pool();
    let (ta, tb, _, _) = build_pair_trees(&params, &pool)?;
    let mut t = Table::new(
        format!(
            "Fig. 8 — effect of improvement techniques ({} objects, window [0, {t_m}])",
            Scale::size_label(params.dataset_size)
        ),
        "techniques",
        &["I/O", "response time", "entry comparisons", "pairs"],
    );
    let combos: [(&str, Techniques); 6] = [
        ("None", techniques::NONE),
        ("IC", techniques::IC),
        ("PS", techniques::PS),
        ("DS+PS", techniques::DS_PS),
        ("IC+PS", techniques::IC_PS),
        ("ALL", techniques::ALL),
    ];
    let mut expected_pairs = None;
    for (name, tech) in combos {
        let ((pairs, counters), io, time) =
            measure(&pool, || improved_join(&ta, &tb, 0.0, t_m, tech))?;
        match expected_pairs {
            None => expected_pairs = Some(pairs.len()),
            Some(n) => assert_eq!(n, pairs.len(), "technique changed the answer!"),
        }
        t.push(Row::new(
            name,
            vec![
                io.to_string(),
                fmt_duration(time),
                counters.entry_comparisons.to_string(),
                pairs.len().to_string(),
            ],
        ));
    }
    t.print();
    Ok(())
}

/// One algorithm's measured cell: (label, physical I/O, wall time).
type InitialCell = (String, u64, Duration);

/// Shared body of Figs. 9–12: initial-join cost of NaiveJoin (fig 9
/// only), ETP-Join (one TP-Join run) and MTB-Join (improved join, all
/// techniques, `[0, T_M]` window).
fn initial_join_row(params: &Params, include_naive: bool) -> TprResult<(Vec<InitialCell>, usize)> {
    let t_m = params.maximum_update_interval;
    let pool = fresh_pool();
    let (ta, tb, _, _) = build_pair_trees(params, &pool)?;
    let mut cells = Vec::new();
    if include_naive {
        let ((pairs, _), io, time) = measure(&pool, || naive_join(&ta, &tb, 0.0))?;
        let _ = pairs;
        cells.push(("NaiveJoin".to_string(), io, time));
    }
    let (ans, io, time) = measure(&pool, || tp_join(&ta, &tb, 0.0))?;
    let _ = ans;
    cells.push(("ETP-Join".to_string(), io, time));
    let ((pairs, _), io, time) =
        measure(&pool, || improved_join(&ta, &tb, 0.0, t_m, techniques::ALL))?;
    let n_pairs = pairs.len();
    cells.push(("MTB-Join".to_string(), io, time));
    Ok((cells, n_pairs))
}

/// Fig. 9 — initial join cost vs dataset size (all three algorithms).
fn fig9(scale: Scale) -> TprResult<()> {
    let mut io_t = Table::new(
        "Fig. 9 — initial join vs dataset size: I/O",
        "size",
        &["NaiveJoin", "ETP-Join", "MTB-Join"],
    );
    let mut rt_t = Table::new(
        "Fig. 9 — initial join vs dataset size: response time",
        "size",
        &["NaiveJoin", "ETP-Join", "MTB-Join"],
    );
    for size in scale.size_sweep() {
        let params = Params {
            dataset_size: size,
            ..Params::default()
        };
        let (cells, _) = initial_join_row(&params, true)?;
        io_t.push(Row::new(
            Scale::size_label(size),
            cells.iter().map(|(_, io, _)| io.to_string()).collect(),
        ));
        rt_t.push(Row::new(
            Scale::size_label(size),
            cells.iter().map(|(_, _, t)| fmt_duration(*t)).collect(),
        ));
    }
    io_t.print();
    rt_t.print();
    Ok(())
}

/// Figs. 10–12 share this sweep skeleton (ETP vs MTB, NaiveJoin dropped
/// as in the paper).
fn sweep_initial<P: Clone + std::fmt::Display>(
    title_io: &str,
    title_rt: &str,
    key: &str,
    values: &[P],
    make: impl Fn(&P) -> Params,
) -> TprResult<()> {
    let mut io_t = Table::new(title_io, key, &["ETP-Join", "MTB-Join", "MTB/ETP"]);
    let mut rt_t = Table::new(title_rt, key, &["ETP-Join", "MTB-Join", "MTB/ETP"]);
    for v in values {
        let params = make(v);
        let (cells, _) = initial_join_row(&params, false)?;
        let (etp_io, etp_t) = (cells[0].1, cells[0].2);
        let (mtb_io, mtb_t) = (cells[1].1, cells[1].2);
        io_t.push(Row::new(
            v.to_string(),
            vec![
                etp_io.to_string(),
                mtb_io.to_string(),
                format!("{:.0}%", 100.0 * mtb_io as f64 / etp_io.max(1) as f64),
            ],
        ));
        rt_t.push(Row::new(
            v.to_string(),
            vec![
                fmt_duration(etp_t),
                fmt_duration(mtb_t),
                format!(
                    "{:.0}%",
                    100.0 * mtb_t.as_secs_f64() / etp_t.as_secs_f64().max(1e-9)
                ),
            ],
        ));
    }
    io_t.print();
    rt_t.print();
    Ok(())
}

/// Fig. 10 — initial join vs data distribution.
fn fig10(scale: Scale) -> TprResult<()> {
    let base = default_params(scale);
    sweep_initial(
        "Fig. 10 — initial join vs data distribution: I/O",
        "Fig. 10 — initial join vs data distribution: response time",
        "distribution",
        &[
            Distribution::Uniform,
            Distribution::Gaussian,
            Distribution::Battlefield,
        ],
        |d| Params {
            distribution: *d,
            ..base
        },
    )
}

/// Fig. 11 — initial join vs maximum object speed.
fn fig11(scale: Scale) -> TprResult<()> {
    let base = default_params(scale);
    sweep_initial(
        "Fig. 11 — initial join vs maximum object speed: I/O",
        "Fig. 11 — initial join vs maximum object speed: response time",
        "max speed",
        &[1.0, 2.0, 3.0, 4.0, 5.0],
        |s| Params {
            max_speed: *s,
            ..base
        },
    )
}

/// Fig. 12 — initial join vs object size.
fn fig12(scale: Scale) -> TprResult<()> {
    sweep_initial(
        "Fig. 12 — initial join vs object size: I/O",
        "Fig. 12 — initial join vs object size: response time",
        "object size %",
        &[0.05, 0.1, 0.2, 0.4, 0.8],
        |p| Params {
            dataset_size: scale.default_size(),
            object_size_pct: *p,
            ..Params::default()
        },
    )
}

/// Maintenance sweep shared by Figs. 13–14: per-update I/O and response
/// time, ETP vs MTB, measured after the bucket structure reaches steady
/// state (`t > T_M`).
fn sweep_maintenance<P: Clone + std::fmt::Display>(
    title: &str,
    key: &str,
    values: &[P],
    make: impl Fn(&P) -> Params,
) -> TprResult<()> {
    let mut t = Table::new(
        title,
        key,
        &[
            "ETP I/O/upd",
            "MTB I/O/upd",
            "ETP time/upd",
            "MTB time/upd",
            "speedup",
        ],
    );
    for v in values {
        let params = make(v);
        let t_m = params.maximum_update_interval;
        // ETP pays a full TP-Join per result change, so its cost per
        // update is enormous at larger sizes — measure a handful of
        // ticks right after the initial join (it has no bucket structure
        // to warm up; per-update cost is stationary from tick 1). MTB
        // warms through a full T_M first so bucket rotation is in steady
        // state, as in the paper's [T_M, 4·T_M] window.
        let etp = maintenance_cost(EngineKind::Etp, &params, 0.0, 5.0)?;
        let mtb = maintenance_cost(EngineKind::Mtb, &params, t_m, 2.0 * t_m)?;
        let speedup =
            etp.time_per_update.as_secs_f64() / mtb.time_per_update.as_secs_f64().max(1e-9);
        t.push(Row::new(
            v.to_string(),
            vec![
                format!("{:.1}", etp.io_per_update),
                format!("{:.1}", mtb.io_per_update),
                fmt_duration(etp.time_per_update),
                fmt_duration(mtb.time_per_update),
                format!("{speedup:.0}×"),
            ],
        ));
    }
    t.print();
    Ok(())
}

/// Fig. 13 — maintenance cost per update vs dataset size.
fn fig13(scale: Scale) -> TprResult<()> {
    sweep_maintenance(
        "Fig. 13 — maintenance cost per update vs dataset size (measured after T_M)",
        "size",
        &scale.size_sweep(),
        |s| Params {
            dataset_size: *s,
            ..Params::default()
        },
    )
}

/// Fig. 14 (§VI-D2 extras, full version of the paper) — maintenance cost
/// under the other parameters: T_M, distribution, speed, object size.
fn fig14(scale: Scale) -> TprResult<()> {
    let base = default_params(scale);
    sweep_maintenance(
        "Fig. 14a — maintenance cost vs maximum update interval",
        "T_M",
        &[60.0, 120.0, 240.0],
        |tm| Params {
            maximum_update_interval: *tm,
            ..base
        },
    )?;
    sweep_maintenance(
        "Fig. 14b — maintenance cost vs data distribution",
        "distribution",
        &[
            Distribution::Uniform,
            Distribution::Gaussian,
            Distribution::Battlefield,
        ],
        |d| Params {
            distribution: *d,
            ..base
        },
    )?;
    sweep_maintenance(
        "Fig. 14c — maintenance cost vs maximum object speed",
        "max speed",
        &[1.0, 3.0, 5.0],
        |s| Params {
            max_speed: *s,
            ..base
        },
    )?;
    sweep_maintenance(
        "Fig. 14d — maintenance cost vs object size",
        "object size %",
        &[0.05, 0.1, 0.4, 0.8],
        |p| Params {
            dataset_size: scale.default_size(),
            object_size_pct: *p,
            ..Params::default()
        },
    )
}

/// Fig. 15 (ablation, ours) — MTB bucket granularity: buckets per `T_M`
/// vs maintenance cost. `m = 1` degenerates toward plain TC-Join;
/// larger `m` tightens windows but multiplies trees (§IV-C trade-off).
fn fig15(scale: Scale) -> TprResult<()> {
    let params = default_params(scale);
    let t_m = params.maximum_update_interval;
    let mut t = Table::new(
        "Fig. 15 — ablation: MTB buckets per T_M (maintenance, per update)",
        "m",
        &["I/O/upd", "time/upd", "live buckets (end)"],
    );
    for m in [1u32, 2, 4, 8] {
        let pool = fresh_pool();
        let (a, b) = generate_pair(&params, 0.0);
        let mut stream = UpdateStream::new(&params, &a, &b, 0.0);
        let config = engine_config(&params, m);
        let mut engine = MtbEngine::new(pool, config, &a, &b, 0.0)?;
        let metrics =
            cij_core::run_simulation(&mut engine, &mut stream, 0.0, 2.0 * t_m, t_m, |_, _| Ok(()))?;
        t.push(Row::new(
            m.to_string(),
            vec![
                format!("{:.1}", metrics.io_per_update()),
                fmt_duration(metrics.time_per_update()),
                engine.mtb_a().bucket_count().to_string(),
            ],
        ));
    }
    t.print();
    Ok(())
}

/// Fig. 16 (ours) — storage backend: the in-memory I/O simulator vs a
/// real file on disk, same buffer pool, same workload. Physical I/O
/// *counts* must be identical (the simulator's whole point); only wall
/// time differs.
fn fig16(scale: Scale) -> TprResult<()> {
    use cij_storage::{BufferPool, BufferPoolConfig, FileStore, PageStore};
    use std::sync::Arc;

    let params = default_params(scale);
    let t_m = params.maximum_update_interval;
    let mut t = Table::new(
        format!(
            "Fig. 16 — storage backend comparison ({} objects, TC initial join)",
            Scale::size_label(params.dataset_size)
        ),
        "backend",
        &["build time", "join I/O", "join time"],
    );

    // In-memory simulator.
    {
        let pool = fresh_pool();
        let t0 = std::time::Instant::now();
        let (ta, tb, _, _) = build_pair_trees(&params, &pool)?;
        let build = t0.elapsed();
        let ((pairs, _), io, time) =
            measure(&pool, || improved_join(&ta, &tb, 0.0, t_m, techniques::ALL))?;
        let _ = pairs;
        t.push(Row::new(
            "InMemoryStore",
            vec![fmt_duration(build), io.to_string(), fmt_duration(time)],
        ));
    }

    // Real file on disk.
    {
        let mut path = std::env::temp_dir();
        path.push(format!("cij-fig16-{}.pages", std::process::id()));
        let store: Arc<dyn PageStore> =
            Arc::new(FileStore::create(&path).map_err(cij_tpr::TprError::from)?);
        let pool = BufferPool::new(store, BufferPoolConfig::default());
        let t0 = std::time::Instant::now();
        let (ta, tb, _, _) = build_pair_trees(&params, &pool)?;
        let build = t0.elapsed();
        let ((pairs, _), io, time) =
            measure(&pool, || improved_join(&ta, &tb, 0.0, t_m, techniques::ALL))?;
        let _ = pairs;
        t.push(Row::new(
            "FileStore",
            vec![fmt_duration(build), io.to_string(), fmt_duration(time)],
        ));
        let _ = std::fs::remove_file(&path);
    }
    t.print();
    Ok(())
}

/// Fig. 20 (ours) — dimension selection under axis-skewed motion: the
/// Highway workload (all velocity in x) is where §IV-D2 shines, because
/// sorting on the quiet axis keeps sweep overlaps static-like. Compare
/// PS (always sorts x — the worst axis here) against DS+PS.
fn fig20(scale: Scale) -> TprResult<()> {
    let mut t = Table::new(
        "Fig. 20 — dimension selection vs axis-skewed motion (TC initial join)",
        "workload",
        &[
            "PS comparisons",
            "DS+PS comparisons",
            "saved",
            "PS time",
            "DS+PS time",
        ],
    );
    for dist in [Distribution::Uniform, Distribution::Highway] {
        let params = Params {
            dataset_size: scale.default_size(),
            distribution: dist,
            ..Params::default()
        };
        let t_m = params.maximum_update_interval;
        let pool = fresh_pool();
        let (ta, tb, _, _) = build_pair_trees(&params, &pool)?;
        let ((_, ps), _, ps_time) =
            measure(&pool, || improved_join(&ta, &tb, 0.0, t_m, techniques::PS))?;
        let ((_, ds), _, ds_time) = measure(&pool, || {
            improved_join(&ta, &tb, 0.0, t_m, techniques::DS_PS)
        })?;
        let saved =
            100.0 * (1.0 - ds.entry_comparisons as f64 / ps.entry_comparisons.max(1) as f64);
        t.push(Row::new(
            dist.to_string(),
            vec![
                ps.entry_comparisons.to_string(),
                ds.entry_comparisons.to_string(),
                format!("{saved:.0}%"),
                fmt_duration(ps_time),
                fmt_duration(ds_time),
            ],
        ));
    }
    t.print();
    Ok(())
}

/// Fig. 21 (ours) — **per-timestamp** maintenance latency percentiles:
/// events + all of the tick's updates, the quantity the paper's
/// real-time argument is about ("0.1 second may be a preferable choice
/// for a timestamp" — i.e. a tick's whole maintenance must fit in one
/// tick). Averages (Fig. 13) hide the tail; this shows it.
fn fig21(scale: Scale) -> TprResult<()> {
    use std::time::Instant;

    let params = default_params(scale);
    let t_m = params.maximum_update_interval;
    let mut t = Table::new(
        format!(
            "Fig. 21 — per-timestamp maintenance latency percentiles ({} objects)",
            Scale::size_label(params.dataset_size)
        ),
        "engine",
        &["ticks", "p50", "p95", "p99", "max"],
    );
    for kind in [EngineKind::Tc, EngineKind::Mtb, EngineKind::Etp] {
        let (mut engine, mut stream, _pool) = kind.build(&params)?;
        engine.run_initial_join(0.0)?;
        let mut latencies = Vec::new();
        // ETP is orders slower per tick; bound its tick count.
        let ticks = if kind == EngineKind::Etp {
            10
        } else {
            2 * t_m as u32
        };
        for tick in 1..=ticks {
            let now = f64::from(tick);
            let updates = stream.tick(now);
            let t0 = Instant::now();
            engine.advance_time(now)?;
            for u in &updates {
                engine.apply_update(u, now)?;
            }
            latencies.push(t0.elapsed());
        }
        latencies.sort_unstable();
        // Nearest-rank quantile of the sorted per-tick latencies.
        let quantile = |q: f64| {
            let rank = (latencies.len() as f64 * q).ceil() as usize;
            latencies[rank.max(1) - 1]
        };
        t.push(Row::new(
            engine.name(),
            vec![
                latencies.len().to_string(),
                fmt_duration(quantile(0.5)),
                fmt_duration(quantile(0.95)),
                fmt_duration(quantile(0.99)),
                fmt_duration(quantile(1.0)),
            ],
        ));
    }
    t.print();
    Ok(())
}

/// `validate` — a fast self-check: MTB-Join vs the brute-force oracle
/// over a short continuous run. For users who want evidence before
/// trusting figure output ("is this build producing correct answers?").
fn validate(_scale: Scale) -> TprResult<()> {
    use cij_core::{ContinuousJoinEngine, MtbEngine};
    use cij_join::brute;
    use cij_workload::SetTag;

    let params = Params {
        dataset_size: 200,
        space: 300.0,
        object_size_pct: 1.0,
        ..Params::default()
    };
    let (a, b) = generate_pair(&params, 0.0);
    let mut engine = MtbEngine::new(fresh_pool(), engine_config(&params, 2), &a, &b, 0.0)?;
    let mut stream = UpdateStream::new(&params, &a, &b, 0.0);
    engine.run_initial_join(0.0)?;
    let mut checked = 0usize;
    for tick in 0..=70u32 {
        let now = f64::from(tick);
        if tick > 0 {
            for u in stream.tick(now) {
                engine.apply_update(&u, now)?;
            }
        }
        let expect = brute::brute_pairs_at(
            &stream.snapshot(SetTag::A),
            &stream.snapshot(SetTag::B),
            now,
        );
        assert_eq!(
            engine.result_at(now),
            expect,
            "VALIDATION FAILED at t={now}"
        );
        checked += expect.len();
    }
    println!(
        "validate: OK — MTB-Join matched the brute-force oracle at every of 71 ticks \
         ({checked} pair-observations verified)"
    );
    Ok(())
}
