//! `run`: one workload in this process, or all four in child processes
//! of the same binary.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use crate::json::Json;
use crate::ladder;
use crate::metrics::{self, MetricDef};
use crate::pass::{run_pass, PassOutcome};
use crate::stacks::{build, BenchResult, Env, Plan};
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::workloads::{Inputs, Spec, StackKind, WORKLOAD_NAMES};

/// Set-ups timed per run, so `setup_s` is a median of at least this many.
const MIN_SETUPS: usize = 9;

#[derive(Debug, Clone)]
pub struct RunOptions {
    pub workload: Option<String>,
    pub seed: u64,
    /// Measure for this long (the driver's `--seconds`); `None` runs
    /// exactly `reps` passes.
    pub seconds: Option<f64>,
    pub reps: u32,
    pub trace: bool,
    pub smoke: bool,
    pub out: PathBuf,
}

/// One reported metric with the samples behind it.
#[derive(Debug, Clone)]
pub struct Measured {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples the value summarises (ticks pooled, passes, set-ups).
    pub samples: u64,
    /// One value per pass, for `compare`'s spread check.
    pub per_pass: Vec<f64>,
}

impl Measured {
    fn of(def: &MetricDef, value: f64, samples: u64, per_pass: Vec<f64>) -> Self {
        Self {
            name: def.name.to_string(),
            value,
            unit: def.unit,
            samples,
            per_pass,
        }
    }
}

/// The stack a workload is driven through.
#[must_use]
pub fn own_plan(spec: &Spec) -> Plan {
    match (spec.stack, spec.burst) {
        (StackKind::Stream, false) => Plan::Stream,
        (StackKind::Stream, true) => Plan::ServiceBurst,
        (StackKind::Shard, _) => Plan::Shard {
            k: 4,
            adaptive: true,
            threads: 2,
            worker_config: false,
        },
        (StackKind::Dist, _) => Plan::DistLoopback {
            k: 2,
            durable: true,
        },
    }
}

/// The counts of a pass that must repeat exactly on identical inputs.
fn determinism_key(p: &PassOutcome) -> (u64, usize, u64, u64, u64, Vec<u64>) {
    let c = p.counters.unwrap_or_default();
    (
        p.last.hash,
        p.last.pairs,
        p.io.logical_reads,
        p.io.logical_writes,
        p.io.physical_total(),
        vec![
            c.node_pairs,
            c.entry_comparisons,
            c.ic_pruned,
            c.pairs_emitted,
            p.raw("attempts") as u64,
            p.raw("refused_full") as u64,
            p.raw("superseded") as u64,
            p.raw("applied") as u64,
            p.raw("migrations") as u64,
            p.raw("rebalances") as u64,
        ],
    )
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub struct WorkloadRun {
    pub spec: Spec,
    pub input_hash: u64,
    pub passes: usize,
    pub attempted: u64,
    pub oracle_checks: u32,
    pub cooldown_ticks: u32,
    /// The five timed end-to-end metrics.
    pub timed: Vec<Measured>,
    /// The three end-to-end counts.
    pub counts: Vec<Measured>,
    /// The ladder's metrics; empty unless the run was traced.
    pub per_layer: Vec<Measured>,
    /// Raw tick times in milliseconds, one row per pass.
    pub tick_ms: Vec<Vec<f64>>,
}

/// The result line's `failed`. A refusal is back-pressure the
/// closed-loop client retried, reported as `failed_share`; by the end of
/// the verified pass every generated update has been applied or
/// superseded (the oracle comparison proves it), and anything else is an
/// error that ends the run without a result.
const FAILED: u64 = 0;

/// The eight end-to-end metrics from untraced passes: the five timed
/// ones and the three counts.
fn end_to_end(
    passes: &[PassOutcome],
    tick_ms: &[Vec<f64>],
    setups: &[f64],
) -> (Vec<Measured>, Vec<Measured>) {
    // Passes repeat the same ticks, so every tick has one sample per
    // pass. The per-tick medians form the median pass: the run with the
    // machine's hiccups filtered out, which a plain pool of all samples
    // does not do for the tail. Every timing metric is read off it.
    let median_pass: Vec<f64> = (0..tick_ms[0].len())
        .map(|i| median(&tick_ms.iter().map(|row| row[i]).collect::<Vec<_>>()))
        .collect();
    let per_pass_percentile =
        |p: f64| -> Vec<f64> { tick_ms.iter().map(|row| percentile(row, p)).collect() };
    let samples = (median_pass.len() * passes.len()) as u64;
    let first = &passes[0];
    let applied = first.applied().max(1.0);
    let attempts = if first.raw.contains_key("attempts") {
        first.raw("attempts")
    } else {
        first.updates as f64
    };
    let failed = first.raw("refused_full") + first.raw("refused_stale");

    let e = metrics::END_TO_END;
    let timed = vec![
        Measured::of(&e[0], median(setups), setups.len() as u64, setups.to_vec()),
        Measured::of(
            &e[1],
            median_pass.iter().sum::<f64>() * 1e3 / applied,
            samples,
            passes.iter().map(PassOutcome::update_us).collect(),
        ),
        Measured::of(
            &e[2],
            percentile(&median_pass, 50.0),
            samples,
            per_pass_percentile(50.0),
        ),
        Measured::of(
            &e[3],
            percentile(&median_pass, 95.0),
            samples,
            per_pass_percentile(95.0),
        ),
        Measured::of(&e[4], peak_rss_mb(), 1, Vec::new()),
    ];
    let c = metrics::END_TO_END_COUNTS;
    let counts = vec![
        Measured::of(
            &c[0],
            first.io.logical_reads as f64 / applied,
            1,
            Vec::new(),
        ),
        Measured::of(
            &c[1],
            first.io.physical_total() as f64 / applied,
            1,
            Vec::new(),
        ),
        Measured::of(&c[2], failed / attempts.max(1.0), 1, Vec::new()),
    ];
    (timed, counts)
}

/// Runs one workload in this process.
pub fn run_workload(opts: &RunOptions, name: &str) -> BenchResult<WorkloadRun> {
    let spec = Spec::named(name, opts.seed, opts.smoke)?;
    let inputs = Inputs::generate(&spec);
    let env = Env {
        tmp_dir: opts.out.join("tmp"),
    };
    let plan = own_plan(&spec);
    let started = Instant::now();
    let more = |done: usize| match opts.seconds {
        Some(s) => done == 0 || started.elapsed().as_secs_f64() < s,
        None => done < opts.reps as usize,
    };

    // A traced run measures one untraced pass (the overhead baseline and
    // the correctness gate) and then hands over to the ladder.
    let mut passes: Vec<PassOutcome> = Vec::new();
    while more(passes.len()) {
        let verify = passes.is_empty();
        let pass = run_pass(
            plan,
            &inputs,
            &env,
            spec.ticks,
            verify,
            &mut Tracer::new(false),
        )?;
        if let Some(first) = passes.first() {
            if determinism_key(first) != determinism_key(&pass) {
                return Err(format!(
                    "{name}: pass {} disagrees with pass 1 on identical inputs: {:?} vs {:?}",
                    passes.len() + 1,
                    determinism_key(&pass),
                    determinism_key(first)
                ));
            }
        }
        passes.push(pass);
        if opts.trace {
            break;
        }
    }
    let mut setups: Vec<f64> = passes.iter().map(|p| p.setup.total_s()).collect();
    while setups.len() < MIN_SETUPS && !opts.trace {
        // A set-up alone: fresh pool, stack dropped right after.
        setups.push(build(plan, &inputs, &env)?.1.total_s());
    }

    let tick_ms: Vec<Vec<f64>> = passes
        .iter()
        .map(|p| p.tick_ns.iter().map(|&ns| ns as f64 / 1e6).collect())
        .collect();
    let (timed, counts) = end_to_end(&passes, &tick_ms, &setups);
    let per_layer = if opts.trace {
        let more_time = || {
            opts.seconds
                .is_some_and(|s| started.elapsed().as_secs_f64() < s)
        };
        ladder::traced(&inputs, &env, plan, &passes[0], &opts.out, &more_time)?
    } else {
        Vec::new()
    };
    Ok(WorkloadRun {
        input_hash: inputs.hash,
        passes: passes.len(),
        attempted: passes.iter().map(|p| p.updates).sum(),
        oracle_checks: passes[0].oracle_checks,
        cooldown_ticks: passes[0].cooldown_ticks,
        spec,
        timed,
        counts,
        per_layer,
        tick_ms,
    })
}

fn measured_json(m: &Measured) -> (String, Json) {
    (
        m.name.clone(),
        Json::obj(vec![
            ("value", Json::Num(m.value)),
            ("unit", Json::str(m.unit)),
            ("samples", Json::Num(m.samples as f64)),
            (
                "per_pass",
                Json::Arr(m.per_pass.iter().map(|v| Json::Num(*v)).collect()),
            ),
        ]),
    )
}

fn workload_json(run: &WorkloadRun) -> Json {
    Json::obj(vec![
        ("workload", Json::str(run.spec.name)),
        ("why", Json::str(run.spec.why)),
        ("input_hash", Json::str(format!("{:016x}", run.input_hash))),
        (
            "objects_per_set",
            Json::Num(run.spec.params.dataset_size as f64),
        ),
        ("ticks", Json::Num(f64::from(run.spec.ticks))),
        ("passes", Json::Num(run.passes as f64)),
        ("attempted", Json::Num(run.attempted as f64)),
        ("failed", Json::Num(FAILED as f64)),
        ("oracle_checks", Json::Num(f64::from(run.oracle_checks))),
        ("cooldown_ticks", Json::Num(f64::from(run.cooldown_ticks))),
        (
            "end_to_end",
            Json::Obj(
                run.timed
                    .iter()
                    .chain(&run.counts)
                    .map(measured_json)
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Obj(run.per_layer.iter().map(measured_json).collect()),
        ),
        (
            "tick_ms",
            Json::Arr(
                run.tick_ms
                    .iter()
                    .map(|row| Json::Arr(row.iter().map(|v| Json::Num(*v)).collect()))
                    .collect(),
            ),
        ),
    ])
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

fn stamp(opts: &RunOptions) -> Json {
    Json::obj(vec![
        ("seed", Json::Num(opts.seed as f64)),
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64)),
        ),
        (
            "git_rev",
            Json::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Json::str(command_line("rustc", &["-V"]))),
        // This package and the crates it drives are built with their
        // default features (`simd` off).
        ("cargo_features", Json::str("default")),
        (
            "profile",
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("reps", Json::Num(f64::from(opts.reps))),
        ("seconds", opts.seconds.map_or(Json::Null, Json::Num)),
        ("trace", Json::Bool(opts.trace)),
        ("smoke", Json::Bool(opts.smoke)),
        ("tick_scale", Json::Num(crate::workloads::TICK_SCALE)),
    ])
}

fn detail_path(out: &Path, workload: &str, trace: bool) -> PathBuf {
    out.join(format!(
        "{workload}{}.json",
        if trace { ".trace" } else { "" }
    ))
}

/// The driver's result line: exactly `correct`, `attempted`, `failed`
/// and `metrics` — every end-to-end metric of `BENCHMARK.json` for an
/// untraced run, every per-layer one for a traced run.
fn result_line(run: &WorkloadRun, trace: bool) -> String {
    let listed: Vec<&Measured> = if trace {
        run.counts.iter().chain(&run.per_layer).collect()
    } else {
        run.timed.iter().collect()
    };
    Json::obj(vec![
        ("correct", Json::Bool(true)),
        ("attempted", Json::Num(run.attempted as f64)),
        ("failed", Json::Num(FAILED as f64)),
        (
            "metrics",
            Json::Obj(
                listed
                    .iter()
                    .map(|m| {
                        (
                            m.name.clone(),
                            Json::obj(vec![
                                ("value", Json::Num(m.value)),
                                ("unit", Json::str(m.unit)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
    .encode()
}

fn print_metrics(run: &WorkloadRun) {
    for m in run.timed.iter().chain(&run.counts).chain(&run.per_layer) {
        println!("{} {} {} {}", run.spec.name, m.name, m.value, m.unit);
    }
}

/// Entry point of `run`. Returns the process exit code.
pub fn run(opts: &RunOptions) -> i32 {
    if let Err(e) = std::fs::create_dir_all(&opts.out) {
        eprintln!("cannot create {}: {e}", opts.out.display());
        return 2;
    }
    match &opts.workload {
        Some(name) => match run_workload(opts, name) {
            Ok(run) => {
                print_metrics(&run);
                let doc = Json::obj(vec![
                    ("stamp", stamp(opts)),
                    ("result", workload_json(&run)),
                ]);
                let path = detail_path(&opts.out, name, opts.trace);
                if let Err(e) = std::fs::write(&path, doc.pretty()) {
                    eprintln!("cannot write {}: {e}", path.display());
                    return 2;
                }
                println!("{}", result_line(&run, opts.trace));
                0
            }
            Err(e) => {
                eprintln!("FAILED {name}: {e}");
                1
            }
        },
        None => run_all(opts),
    }
}

/// Runs every workload in a child process of this binary (so each gets
/// its own `VmHWM`) and merges their detail files into `results.json`.
fn run_all(opts: &RunOptions) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot locate own executable: {e}");
            return 2;
        }
    };
    let mut merged: Vec<(String, Json)> = Vec::new();
    let mut failed = false;
    for name in WORKLOAD_NAMES {
        let modes: &[bool] = if opts.trace { &[false, true] } else { &[false] };
        for &trace in modes {
            let mut cmd = Command::new(&exe);
            cmd.arg("run")
                .args(["--workload", name])
                .args(["--seed", &opts.seed.to_string()])
                .args(["--reps", &opts.reps.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .arg("--out")
                .arg(&opts.out);
            if let Some(s) = opts.seconds {
                cmd.args(["--seconds", &s.to_string()]);
            }
            if opts.smoke {
                cmd.arg("--smoke");
            }
            // The child prints its metric lines straight to our stdout.
            match cmd.status() {
                Ok(status) if status.success() => {
                    let path = detail_path(&opts.out, name, trace);
                    let doc = std::fs::read_to_string(&path)
                        .map_err(|e| e.to_string())
                        .and_then(|t| Json::parse(&t));
                    match doc.as_ref().ok().and_then(|d| d.get("result")) {
                        Some(result) => match merged.iter_mut().find(|(k, _)| k == name) {
                            // The traced child adds `per_layer` to the
                            // untraced child's entry.
                            Some((_, Json::Obj(pairs))) => {
                                pairs.retain(|(k, _)| k != "per_layer");
                                pairs.push((
                                    "per_layer".to_string(),
                                    result.get("per_layer").cloned().unwrap_or(Json::Null),
                                ));
                            }
                            _ => merged.push((name.to_string(), result.clone())),
                        },
                        None => {
                            eprintln!("FAILED {name}: unreadable {}", path.display());
                            failed = true;
                        }
                    }
                }
                Ok(status) => {
                    eprintln!("FAILED {name}: child exited with {status}");
                    failed = true;
                }
                Err(e) => {
                    eprintln!("FAILED {name}: cannot start child: {e}");
                    failed = true;
                }
            }
        }
    }
    let doc = Json::obj(vec![
        ("stamp", stamp(opts)),
        ("workloads", Json::Obj(merged)),
    ]);
    let path = opts.out.join("results.json");
    if let Err(e) = std::fs::write(&path, doc.pretty()) {
        eprintln!("cannot write {}: {e}", path.display());
        return 2;
    }
    eprintln!("wrote {}", path.display());
    i32::from(failed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(seed: u64, tag: &str) -> RunOptions {
        RunOptions {
            workload: None,
            seed,
            seconds: None,
            reps: 1,
            trace: false,
            smoke: true,
            out: PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("out")
                .join(format!("test-{tag}-{}", std::process::id())),
        }
    }

    fn counts(run: &WorkloadRun) -> Vec<(String, f64)> {
        run.counts
            .iter()
            .map(|m| (m.name.clone(), m.value))
            .collect()
    }

    /// Same seed ⇒ identical input hash and identical count metrics,
    /// twice — also on the workload whose engines run on two threads;
    /// another seed ⇒ another hash.
    #[test]
    fn same_seed_repeats_exactly() {
        for name in ["burst_ingest", "skew_shard"] {
            let opts = smoke(21, name);
            let one = run_workload(&opts, name).unwrap();
            let two = run_workload(&opts, name).unwrap();
            assert_eq!(one.input_hash, two.input_hash);
            assert_eq!(counts(&one), counts(&two), "{name}");
            assert_eq!(counts(&one).len(), 3);
            assert!(one.oracle_checks >= 1);
            let other = run_workload(&smoke(22, name), name).unwrap();
            assert_ne!(one.input_hash, other.input_hash);
            let _ = std::fs::remove_dir_all(&opts.out);
        }
    }

    /// The overload workload really overloads: refusals happen, shedding
    /// supersedes updates, and the backlog needs cool-down ticks.
    #[test]
    fn burst_ingest_sheds_and_recovers() {
        let opts = smoke(5, "burst");
        let run = run_workload(&opts, "burst_ingest").unwrap();
        let failed_share = run
            .counts
            .iter()
            .find(|m| m.name == "failed_share")
            .unwrap();
        assert!(failed_share.value > 0.0 && failed_share.value < 1.0);
        let _ = std::fs::remove_dir_all(&opts.out);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let opts = smoke(3, "line");
        let run = run_workload(&opts, "skew_dist").unwrap();
        let line = Json::parse(&result_line(&run, false)).unwrap();
        let keys: Vec<&str> = line.entries().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let names: Vec<&str> = line
            .get("metrics")
            .unwrap()
            .entries()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        let expected: Vec<&str> = metrics::END_TO_END.iter().map(|d| d.name).collect();
        assert_eq!(names, expected);
        let _ = std::fs::remove_dir_all(&opts.out);
    }
}
