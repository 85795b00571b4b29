//! End-to-end engine correctness: every engine, run over a full
//! update-stream simulation, must report exactly the brute-force pairs at
//! every tick. This is the executable form of the paper's Theorems 1
//! (TC windows suffice) and 2 (per-bucket windows suffice).

use std::sync::Arc;

use cij_core::{ContinuousJoinEngine, EngineConfig, EtpEngine, MtbEngine, NaiveEngine, TcEngine};
use cij_geom::Time;
use cij_join::brute;
use cij_storage::{BufferPool, BufferPoolConfig, InMemoryStore};
use cij_tpr::TprResult;
use cij_workload::{generate_pair, Distribution, ObjectUpdate, Params, SetTag, UpdateStream};

fn pool() -> BufferPool {
    BufferPool::new(
        Arc::new(InMemoryStore::new()),
        BufferPoolConfig::with_capacity(128),
    )
}

fn small_params(distribution: Distribution, seed: u64) -> Params {
    Params {
        dataset_size: 120,
        distribution,
        seed,
        // Small space so intersections actually happen at this size.
        space: 200.0,
        object_size_pct: 1.0, // side 2.0
        ..Params::default()
    }
}

/// Manual simulation loop with oracle checks (the sim driver's `on_tick`
/// cannot also borrow the stream, so the test drives the protocol
/// itself).
fn run_with_oracle<E: ContinuousJoinEngine>(
    engine: &mut E,
    params: &Params,
    ticks: u32,
) -> TprResult<()> {
    let (a, b) = generate_pair(params, 0.0);
    let mut stream = UpdateStream::new(params, &a, &b, 0.0);

    engine.run_initial_join(0.0)?;
    compare(engine, &stream, 0.0);

    for tick in 1..=ticks {
        let now = Time::from(tick);
        let updates = stream.tick(now);
        engine.advance_time(now)?;
        for u in &updates {
            engine.apply_update(u, now)?;
        }
        compare(engine, &stream, now);
    }
    Ok(())
}

fn compare<E: ContinuousJoinEngine + ?Sized>(engine: &E, stream: &UpdateStream, now: Time) {
    let snap_a = stream.snapshot(SetTag::A);
    let snap_b = stream.snapshot(SetTag::B);
    let expect = brute::brute_pairs_at(&snap_a, &snap_b, now);
    let got = engine.result_at(now);
    assert_eq!(
        got,
        expect,
        "{} diverged from oracle at t={now}: {} vs {} pairs",
        engine.name(),
        got.len(),
        expect.len()
    );
}

#[test]
fn naive_engine_matches_oracle() {
    let params = small_params(Distribution::Uniform, 101);
    let (a, b) = generate_pair(&params, 0.0);
    let mut e = NaiveEngine::new(pool(), EngineConfig::default(), &a, &b, 0.0).unwrap();
    run_with_oracle(&mut e, &params, 130).unwrap();
}

#[test]
fn tc_engine_matches_oracle() {
    // 130 ticks > 2 × T_M: exercises re-registration windows end to end.
    let params = small_params(Distribution::Uniform, 102);
    let (a, b) = generate_pair(&params, 0.0);
    let mut e = TcEngine::new(pool(), EngineConfig::default(), &a, &b, 0.0).unwrap();
    run_with_oracle(&mut e, &params, 130).unwrap();
}

#[test]
fn tc_engine_without_techniques_matches_oracle() {
    let params = small_params(Distribution::Uniform, 103);
    let (a, b) = generate_pair(&params, 0.0);
    let config = EngineConfig {
        techniques: cij_join::techniques::NONE,
        ..Default::default()
    };
    let mut e = TcEngine::new(pool(), config, &a, &b, 0.0).unwrap();
    run_with_oracle(&mut e, &params, 70).unwrap();
}

#[test]
fn etp_engine_matches_oracle() {
    let params = small_params(Distribution::Uniform, 104);
    let (a, b) = generate_pair(&params, 0.0);
    let mut e = EtpEngine::new(pool(), EngineConfig::default(), &a, &b, 0.0).unwrap();
    run_with_oracle(&mut e, &params, 70).unwrap();
    assert!(e.reruns > 0, "ETP must have processed events");
}

#[test]
fn mtb_engine_matches_oracle() {
    let params = small_params(Distribution::Uniform, 105);
    let (a, b) = generate_pair(&params, 0.0);
    let mut e = MtbEngine::new(pool(), EngineConfig::default(), &a, &b, 0.0).unwrap();
    run_with_oracle(&mut e, &params, 130).unwrap();
    // After >T_M ticks the MTB must have rotated buckets.
    assert!(e.mtb_a().bucket_count() >= 1 && e.mtb_a().bucket_count() <= 3);
    e.mtb_a().validate(130.0).unwrap();
    e.mtb_b().validate(130.0).unwrap();
}

#[test]
fn mtb_engine_matches_oracle_gaussian() {
    let params = small_params(Distribution::Gaussian, 106);
    let (a, b) = generate_pair(&params, 0.0);
    let mut e = MtbEngine::new(pool(), EngineConfig::default(), &a, &b, 0.0).unwrap();
    run_with_oracle(&mut e, &params, 70).unwrap();
}

#[test]
fn mtb_engine_matches_oracle_battlefield() {
    let params = small_params(Distribution::Battlefield, 107);
    let (a, b) = generate_pair(&params, 0.0);
    let mut e = MtbEngine::new(pool(), EngineConfig::default(), &a, &b, 0.0).unwrap();
    run_with_oracle(&mut e, &params, 70).unwrap();
}

#[test]
fn mtb_engine_with_more_buckets_matches_oracle() {
    let params = small_params(Distribution::Uniform, 108);
    let (a, b) = generate_pair(&params, 0.0);
    let config = EngineConfig {
        buckets_per_tm: 4,
        ..Default::default()
    };
    let mut e = MtbEngine::new(pool(), config, &a, &b, 0.0).unwrap();
    run_with_oracle(&mut e, &params, 70).unwrap();
}

#[test]
fn all_engines_agree_with_each_other() {
    let params = small_params(Distribution::Uniform, 109);
    let (a, b) = generate_pair(&params, 0.0);
    let mut naive = NaiveEngine::new(pool(), EngineConfig::default(), &a, &b, 0.0).unwrap();
    let mut tc = TcEngine::new(pool(), EngineConfig::default(), &a, &b, 0.0).unwrap();
    let mut etp = EtpEngine::new(pool(), EngineConfig::default(), &a, &b, 0.0).unwrap();
    let mut mtb = MtbEngine::new(pool(), EngineConfig::default(), &a, &b, 0.0).unwrap();

    let mut stream = UpdateStream::new(&params, &a, &b, 0.0);
    naive.run_initial_join(0.0).unwrap();
    tc.run_initial_join(0.0).unwrap();
    etp.run_initial_join(0.0).unwrap();
    mtb.run_initial_join(0.0).unwrap();

    for tick in 1..=70 {
        let now = Time::from(tick);
        let updates = stream.tick(now);
        for e in [
            &mut naive as &mut dyn ContinuousJoinEngine,
            &mut tc,
            &mut etp,
            &mut mtb,
        ] {
            e.advance_time(now).unwrap();
            for u in &updates {
                e.apply_update(u, now).unwrap();
            }
        }
        let r_naive = naive.result_at(now);
        assert_eq!(r_naive, tc.result_at(now), "naive vs tc at t={now}");
        assert_eq!(r_naive, etp.result_at(now), "naive vs etp at t={now}");
        assert_eq!(r_naive, mtb.result_at(now), "naive vs mtb at t={now}");
    }
}

#[test]
fn restored_object_keeps_its_registration_time() {
    // An object taken out and put back with `restore_object` is filed
    // under its original `registered_at`, which here lies more than one
    // bucket span (T_M / 2) before `now`: for 2·T_M more ticks the answer
    // is the oracle's and an untouched engine's, and the object's next
    // update finds it where the engine's registration says it is.
    fn step(engines: [&mut MtbEngine; 2], updates: &[ObjectUpdate], now: Time) {
        for e in engines {
            e.advance_time(now).unwrap();
            for u in updates {
                e.apply_update(u, now).unwrap();
            }
        }
    }
    let params = small_params(Distribution::Uniform, 140);
    let (a, b) = generate_pair(&params, 0.0);
    let config = EngineConfig::default();
    let mut touched = MtbEngine::new(pool(), config, &a, &b, 0.0).unwrap();
    let mut untouched = MtbEngine::new(pool(), config, &a, &b, 0.0).unwrap();
    let mut stream = UpdateStream::new(&params, &a, &b, 0.0);
    touched.run_initial_join(0.0).unwrap();
    untouched.run_initial_join(0.0).unwrap();
    let restore_at = 45u32;
    for tick in 1..=restore_at {
        let now = Time::from(tick);
        step([&mut touched, &mut untouched], &stream.tick(now), now);
    }

    let now = Time::from(restore_at);
    let bucket_span = config.t_m / f64::from(config.buckets_per_tm);
    let answer = touched.result_at(now);
    let (id, mbr) = stream
        .snapshot(SetTag::A)
        .into_iter()
        .find(|(id, mbr)| now - mbr.t_ref > bucket_span && answer.iter().any(|p| p.0 == *id))
        .expect("an answer object registered over a bucket span ago");
    touched.remove_object(id, now).unwrap();
    assert!(touched.result_at(now).len() < answer.len());
    touched
        .restore_object(SetTag::A, id, mbr, mbr.t_ref, now)
        .unwrap();
    compare(&touched, &stream, now);

    let mut next_update = false;
    for tick in restore_at + 1..=restore_at + 2 * 60 {
        let now = Time::from(tick);
        let updates = stream.tick(now);
        next_update |= updates
            .iter()
            .any(|u| u.id == id && u.last_update == mbr.t_ref);
        step([&mut touched, &mut untouched], &updates, now);
        compare(&touched, &stream, now);
        assert_eq!(touched.result_at(now), untouched.result_at(now), "t={now}");
    }
    assert!(next_update, "the restored object was updated again");
}

/// Every delete key an update carries is wrong — `set` flipped, `old_mbr`
/// far from the registered trajectory, `last_update` in another MTB
/// bucket — and it does not matter: each engine derives its deletes from
/// its own registrations, so every tick equals both the honest run and
/// the oracle.
#[test]
fn wrong_delete_keys_get_the_oracle_answer() {
    let params = small_params(Distribution::Uniform, 150);
    let (a, b) = generate_pair(&params, 0.0);
    let config = EngineConfig::default();
    let bucket_span = config.t_m / f64::from(config.buckets_per_tm);
    let engines = || -> Vec<Box<dyn ContinuousJoinEngine>> {
        vec![
            Box::new(NaiveEngine::new(pool(), config, &a, &b, 0.0).unwrap()),
            Box::new(TcEngine::new(pool(), config, &a, &b, 0.0).unwrap()),
            Box::new(EtpEngine::new(pool(), config, &a, &b, 0.0).unwrap()),
            Box::new(MtbEngine::new(pool(), config, &a, &b, 0.0).unwrap()),
        ]
    };
    let (mut honest, mut misled) = (engines(), engines());
    let mut stream = UpdateStream::new(&params, &a, &b, 0.0);
    for e in honest.iter_mut().chain(&mut misled) {
        e.run_initial_join(0.0).unwrap();
    }
    let mut lies = 0;
    for tick in 1..=130u32 {
        let now = Time::from(tick);
        let updates = stream.tick(now);
        let wrong: Vec<ObjectUpdate> = (updates.iter())
            .map(|u| {
                let mut old_mbr = u.old_mbr;
                for d in 0..2 {
                    old_mbr.lo[d] += 10.0 * params.space;
                    old_mbr.hi[d] += 10.0 * params.space;
                }
                let set = match u.set {
                    SetTag::A => SetTag::B,
                    SetTag::B => SetTag::A,
                };
                let last_update = u.last_update + bucket_span;
                ObjectUpdate {
                    set,
                    old_mbr,
                    last_update,
                    ..*u
                }
            })
            .collect();
        lies += wrong.len();
        for (runs, updates) in [(&mut honest, &updates), (&mut misled, &wrong)] {
            for e in runs.iter_mut() {
                e.advance_time(now).unwrap();
                for u in updates {
                    e.apply_update(u, now).unwrap();
                }
            }
        }
        for (h, m) in honest.iter().zip(&misled) {
            assert_eq!(m.result_at(now), h.result_at(now), "{} t={now}", m.name());
            compare(m.as_ref(), &stream, now);
        }
    }
    assert!(lies > 0);
}

// ----------------------------------------------------------------------
// Differential determinism: `threads > 1` must be bit-identical to the
// sequential engine — same result set at every tick of a continuous run
// and the same traversal counters (`pairs_emitted` included) — for every
// workload distribution.
// ----------------------------------------------------------------------

/// Runs one engine per thread count `{1, 2, 4, 8}` in lockstep over the
/// same update stream — initial join plus `ticks` maintenance ticks —
/// asserting after every step that each parallel engine reports exactly
/// the sequential result set, and at the end that the counters
/// (`pairs_emitted` among them) are identical.
fn assert_threads_equivalent(
    params: &Params,
    a: &[cij_workload::MovingObject],
    b: &[cij_workload::MovingObject],
    ticks: u32,
    make: impl Fn(usize) -> Box<dyn ContinuousJoinEngine>,
) {
    let thread_counts = [1usize, 2, 4, 8];
    let mut engines: Vec<Box<dyn ContinuousJoinEngine>> =
        thread_counts.iter().map(|&t| make(t)).collect();
    let mut stream = UpdateStream::new(params, a, b, 0.0);

    for e in &mut engines {
        e.run_initial_join(0.0).unwrap();
    }
    let seq_initial = engines[0].result_at(0.0);
    let seq_counters = engines[0].counters();
    for (e, &t) in engines.iter().zip(&thread_counts).skip(1) {
        assert_eq!(
            e.result_at(0.0),
            seq_initial,
            "initial join differs at threads={t}"
        );
        assert_eq!(
            e.counters(),
            seq_counters,
            "initial counters differ at threads={t}"
        );
    }

    for tick in 1..=ticks {
        let now = Time::from(tick);
        let updates = stream.tick(now);
        for e in &mut engines {
            e.advance_time(now).unwrap();
            for u in &updates {
                e.apply_update(u, now).unwrap();
            }
        }
        let seq = engines[0].result_at(now);
        for (e, &t) in engines.iter().zip(&thread_counts).skip(1) {
            assert_eq!(
                e.result_at(now),
                seq,
                "results differ at threads={t}, t={now}"
            );
        }
    }
    let seq_counters = engines[0].counters();
    // Guard against a vacuous run: the workload must have produced pairs
    // at some point (battlefield starts with none at t = 0).
    assert!(
        seq_counters.pairs_emitted > 0,
        "workload never produced pairs"
    );
    for (e, &t) in engines.iter().zip(&thread_counts).skip(1) {
        assert_eq!(
            e.counters(),
            seq_counters,
            "final counters (incl. pairs_emitted) differ at threads={t}"
        );
    }
}

fn differential_for_distribution(distribution: Distribution, seed: u64) {
    let params = small_params(distribution, seed);
    let (a, b) = generate_pair(&params, 0.0);
    assert_threads_equivalent(&params, &a, &b, 60, |threads| {
        let config = EngineConfig {
            threads,
            ..Default::default()
        };
        Box::new(MtbEngine::new(pool(), config, &a, &b, 0.0).unwrap())
    });
}

#[test]
fn mtb_parallel_threads_match_sequential_uniform() {
    differential_for_distribution(Distribution::Uniform, 201);
}

#[test]
fn mtb_parallel_threads_match_sequential_gaussian() {
    differential_for_distribution(Distribution::Gaussian, 202);
}

#[test]
fn mtb_parallel_threads_match_sequential_battlefield() {
    differential_for_distribution(Distribution::Battlefield, 203);
}

#[test]
fn tc_parallel_threads_match_sequential() {
    let params = small_params(Distribution::Uniform, 204);
    let (a, b) = generate_pair(&params, 0.0);
    assert_threads_equivalent(&params, &a, &b, 60, |threads| {
        let config = EngineConfig {
            threads,
            ..Default::default()
        };
        Box::new(TcEngine::new(pool(), config, &a, &b, 0.0).unwrap())
    });
}

#[test]
fn naive_parallel_threads_match_sequential() {
    let params = small_params(Distribution::Uniform, 205);
    let (a, b) = generate_pair(&params, 0.0);
    assert_threads_equivalent(&params, &a, &b, 60, |threads| {
        let config = EngineConfig {
            threads,
            ..Default::default()
        };
        Box::new(NaiveEngine::new(pool(), config, &a, &b, 0.0).unwrap())
    });
}

#[test]
fn sim_driver_collects_metrics() {
    let params = small_params(Distribution::Uniform, 110);
    let (a, b) = generate_pair(&params, 0.0);
    let mut stream = UpdateStream::new(&params, &a, &b, 0.0);
    let mut e = MtbEngine::new(pool(), EngineConfig::default(), &a, &b, 0.0).unwrap();
    let metrics =
        cij_core::run_simulation(&mut e, &mut stream, 0.0, 120.0, 60.0, |_, _| Ok(())).unwrap();
    assert!(metrics.initial_io > 0, "initial join must do I/O");
    assert!(metrics.maintenance_updates > 0);
    assert_eq!(metrics.measured_ticks, 60);
    assert!(metrics.io_per_update() >= 0.0);
}

#[test]
fn gc_keeps_answers_correct_and_memory_bounded() {
    // Pruning per tick must not change any answer, and the interval
    // count must stay bounded over a long run (no history accumulation).
    let params = small_params(Distribution::Uniform, 130);
    let (a, b) = generate_pair(&params, 0.0);
    let mut engine = MtbEngine::new(pool(), EngineConfig::default(), &a, &b, 0.0).unwrap();
    let mut stream = UpdateStream::new(&params, &a, &b, 0.0);
    engine.run_initial_join(0.0).unwrap();
    for tick in 1..=200u32 {
        let now = Time::from(tick);
        for u in stream.tick(now) {
            engine.apply_update(&u, now).unwrap();
        }
        engine.gc(now);
        if tick % 20 == 0 {
            let expect = brute::brute_pairs_at(
                &stream.snapshot(SetTag::A),
                &stream.snapshot(SetTag::B),
                now,
            );
            assert_eq!(engine.result_at(now), expect, "t={now}");
        }
    }
}
