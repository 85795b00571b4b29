//! One maintenance pass: a timed set-up on a fresh pool, the measured
//! ticks, and — outside every timed interval — the correctness gate.

use cij_join::JoinCounters;
use cij_storage::IoSnapshot;

use crate::stacks::{build, BenchResult, Env, Plan, Raw, SetupTimes, Stack};
use crate::trace::{SpanTotals, Tracer};
use crate::workloads::{pairs_hash, Inputs, COOLDOWN_TICKS};
use std::collections::BTreeMap;

/// The answer a stack gave at one checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnswerMark {
    pub tick: u32,
    pub hash: u64,
    pub pairs: usize,
}

pub struct PassOutcome {
    pub setup: SetupTimes,
    /// Sum of the ticks' timed regions.
    pub maint_ns: u64,
    pub tick_ns: Vec<u64>,
    /// Updates generated for the measured ticks.
    pub updates: u64,
    /// Pool I/O during the measured ticks.
    pub io: IoSnapshot,
    /// Cumulative pool I/O at the end of the measured ticks.
    pub io_end: IoSnapshot,
    /// Traversal counters during the measured ticks.
    pub counters: Option<JoinCounters>,
    /// Stack totals at the end of the measured ticks, plus what the
    /// final checks measured when the pass was verified.
    pub raw: Raw,
    /// Per-name totals of the spans recorded during the measured ticks
    /// (empty when the pass ran with a disabled tracer).
    pub spans: BTreeMap<&'static str, SpanTotals>,
    /// Answers at the checkpoints where the stack was quiesced.
    pub marks: Vec<AnswerMark>,
    /// The answer after the last measured tick, quiesced or not.
    pub last: AnswerMark,
    /// Oracle comparisons made.
    pub oracle_checks: u32,
    /// Cool-down ticks the final check needed.
    pub cooldown_ticks: u32,
}

impl PassOutcome {
    #[must_use]
    pub fn raw(&self, key: &str) -> f64 {
        self.raw.get(key).copied().unwrap_or(0.0)
    }

    /// Updates that reached the engine: the stack's own count where it
    /// sheds or defers, every generated update otherwise.
    #[must_use]
    pub fn applied(&self) -> f64 {
        self.raw
            .get("applied")
            .copied()
            .unwrap_or(self.updates as f64)
    }

    /// Total nanoseconds spent in spans called `name`.
    #[must_use]
    pub fn span_ns(&self, name: &str) -> f64 {
        self.spans.get(name).map_or(0.0, |t| t.total_ns as f64)
    }

    /// Microseconds of maintenance per applied update.
    #[must_use]
    pub fn update_us(&self) -> f64 {
        self.maint_ns as f64 / 1e3 / self.applied().max(1.0)
    }
}

fn counters_delta(now: JoinCounters, then: JoinCounters) -> JoinCounters {
    JoinCounters {
        node_pairs: now.node_pairs - then.node_pairs,
        entry_comparisons: now.entry_comparisons - then.entry_comparisons,
        ic_pruned: now.ic_pruned - then.ic_pruned,
        pairs_emitted: now.pairs_emitted - then.pairs_emitted,
    }
}

/// Compares the stack's answer at `tick` with the brute-force oracle.
fn check_against_oracle(
    stack: &mut dyn Stack,
    inputs: &Inputs,
    tick: u32,
    what: &str,
) -> BenchResult<Option<AnswerMark>> {
    let Some(answer) = stack.answer(f64::from(tick))? else {
        return Ok(None);
    };
    let oracle = inputs
        .oracle(tick)
        .ok_or_else(|| format!("no oracle snapshot kept for tick {tick}"))?;
    if answer != *oracle {
        let missing = oracle.iter().filter(|p| !answer.contains(p)).count();
        return Err(format!(
            "{what}: answer at tick {tick} has {} pairs, brute force has {} ({missing} missing)",
            answer.len(),
            oracle.len()
        ));
    }
    Ok(Some(AnswerMark {
        tick,
        hash: pairs_hash(&answer),
        pairs: answer.len(),
    }))
}

/// Builds `plan` and drives the first `ticks` ticks of `inputs` through
/// it. With `verify`, the answer is compared with the brute-force oracle
/// at every `T_M/2` checkpoint the stack is quiesced at and after the
/// last tick — a full pass drains its backlog with cool-down ticks
/// first — and the stack's own end-of-pass checks run.
pub fn run_pass(
    plan: Plan,
    inputs: &Inputs,
    env: &Env,
    ticks: u32,
    verify: bool,
    tracer: &mut Tracer,
) -> BenchResult<PassOutcome> {
    let what = format!("{} {plan:?}", inputs.spec.name);
    let (mut stack, setup) = build(plan, inputs, env)?;
    let stack = stack.as_mut();
    let io_start = stack.io();
    let counters_start = stack.counters();
    let checkpoints = inputs.spec.checkpoints(ticks);

    let mut tick_ns = Vec::with_capacity(ticks as usize);
    let mut marks = Vec::new();
    let mut oracle_checks = 0;
    for input in &inputs.ticks[..ticks as usize] {
        tracer.set_tick(input.tick);
        tick_ns.push(stack.tick(input, tracer)?);
        if verify && input.tick != ticks && checkpoints.contains(&input.tick) && stack.quiesced() {
            if let Some(mark) = check_against_oracle(stack, inputs, input.tick, &what)? {
                marks.push(mark);
                oracle_checks += 1;
            }
        }
    }
    let io_end = stack.io();
    let spans = tracer.totals();
    let counters = stack
        .counters()
        .zip(counters_start)
        .map(|(now, then)| counters_delta(now, then));
    let mut raw = stack.raw();
    let last = stack.answer(f64::from(ticks))?.map_or(
        AnswerMark {
            tick: ticks,
            hash: 0,
            pairs: 0,
        },
        |a| AnswerMark {
            tick: ticks,
            hash: pairs_hash(&a),
            pairs: a.len(),
        },
    );

    let mut cooldown_ticks = 0;
    if verify {
        let mut end = ticks;
        // The 1× cool-down ticks follow a full pass only; a shorter
        // (ladder) pass that ends with a backlog keeps the checkpoints
        // it was quiesced at and skips the final comparison.
        if ticks == inputs.spec.ticks {
            let mut idle = Tracer::new(false);
            while !stack.quiesced() {
                if cooldown_ticks == COOLDOWN_TICKS {
                    return Err(format!(
                        "{what}: backlog not drained after {cooldown_ticks} cool-down ticks"
                    ));
                }
                stack.tick(&inputs.ticks[end as usize], &mut idle)?;
                end += 1;
                cooldown_ticks += 1;
            }
        }
        if stack.quiesced() {
            if let Some(mark) = check_against_oracle(stack, inputs, end, &what)? {
                marks.push(mark);
                oracle_checks += 1;
            }
        }
        raw.extend(stack.final_checks(f64::from(end))?);
    }

    Ok(PassOutcome {
        setup,
        maint_ns: tick_ns.iter().sum(),
        tick_ns,
        updates: inputs.updates_in(ticks),
        io: io_end.delta_since(&io_start),
        io_end,
        counters,
        raw,
        spans,
        marks,
        last,
        oracle_checks,
        cooldown_ticks,
    })
}
