//! `train-batch` and `eval-batch`: closed batch jobs on the paper's
//! Synthetic-Traffic early-stop set. Batched GEMM, autograd and the
//! optimizer do nearly all the work; the engine and the service do none.

use crate::gen::{batch_model, scenario_items, stop_signal_scenarios};
use crate::metrics::{Report, END_TO_END};
use crate::stats::{Estimator, Timing};
use crate::{median_setup, Plan};
use kvec::eval::{evaluate, report_from_outcomes, EvalReport};
use kvec::train::Trainer;
use kvec::{KvecModel, StreamingEngine};
use kvec_data::TangledSequence;
use kvec_tensor::KvecRng;
use std::time::Instant;

/// Sizes of the batch workloads: `k` concurrent flows of `len` items per
/// scenario (the paper's length 100 scaled down, signal length kept).
pub struct BatchShape {
    pub train_flows: usize,
    pub held_out_flows: usize,
    pub len: usize,
    pub k: usize,
    /// Passes over the training set in one training job — one lap. The
    /// model the last pass leaves is held to the quality guard.
    pub passes: usize,
    /// Leading passes during which only the classifier and the baseline
    /// train (the trainer's policy warm-up).
    pub warmup_passes: usize,
    /// Lowest `eval_hm` of the trained model that passes.
    pub hm_floor: f32,
}

const FULL: BatchShape = BatchShape {
    train_flows: 256,
    held_out_flows: 1024,
    len: 40,
    k: 8,
    passes: 6,
    warmup_passes: 2,
    hm_floor: 0.75,
};
const SMOKE: BatchShape = BatchShape {
    train_flows: 16,
    held_out_flows: 16,
    len: 14,
    k: 4,
    passes: 2,
    warmup_passes: 1,
    hm_floor: 0.0,
};

pub fn shape(plan: &Plan) -> &'static BatchShape {
    plan.pick(&FULL, &SMOKE)
}

/// Seed of the trainer's action sampling and dropout: the program's own
/// randomness, not an input.
pub const TRAIN_RNG_SEED: u64 = 17;

/// `(train, held-out)` scenarios from one generated pool.
pub fn datasets(seed: u64, s: &BatchShape) -> (Vec<TangledSequence>, Vec<TangledSequence>) {
    let mut all = stop_signal_scenarios(seed, s.train_flows + s.held_out_flows, s.len, s.k);
    let held_out = all.split_off(s.train_flows / s.k);
    (all, held_out)
}

/// Scenarios per `Trainer::train_epoch` call: one timed segment of a lap.
const TRAIN_SEGMENT: usize = 4;

/// What one training job left behind.
pub struct Trained {
    pub model: KvecModel,
    /// Non-finite segment losses plus watchdog interventions.
    pub bad: u64,
    /// FNV-1a over every segment's loss bits, in order: equal for jobs that
    /// did the same arithmetic.
    pub fingerprint: u64,
}

/// One training job — one lap: a clone of `fresh`, a new trainer and a
/// reseeded sampler, then `s.passes` passes over `train`, the first
/// `s.warmup_passes` of them policy warm-up. Every `train_epoch` call is a
/// timed segment, numbered through the whole job, so segment `j` is the
/// same arithmetic on every lap although the passes of one job differ
/// (warm-up skips policy sampling, later passes halt ever earlier).
pub fn train_job(
    s: &BatchShape,
    fresh: &KvecModel,
    train: &[TangledSequence],
    timing: &mut Timing,
) -> Trained {
    let mut model = fresh.clone();
    let chunks = train.chunks(TRAIN_SEGMENT).len();
    // The trainer counts every `train_epoch` call as an epoch, so the
    // policy warm-up is given in calls.
    let mut cfg = model.cfg.clone();
    cfg.policy_warmup_epochs = s.warmup_passes * chunks;
    let mut trainer = Trainer::new(&cfg, &model);
    let mut rng = KvecRng::seed_from_u64(TRAIN_RNG_SEED);
    let mut bad = 0u64;
    let mut fingerprint = 0xcbf2_9ce4_8422_2325u64;
    for pass in 0..s.passes {
        for (chunk_no, chunk) in train.chunks(TRAIN_SEGMENT).enumerate() {
            let t0 = Instant::now();
            let stats = trainer
                .train_epoch(&mut model, chunk, &mut rng)
                .expect("no fault injector is armed");
            timing.record(
                pass * chunks + chunk_no,
                scenario_items(chunk) as f64,
                t0.elapsed().as_secs_f64(),
            );
            bad += !stats.loss.is_finite() as u64;
            for b in stats.loss.to_bits().to_le_bytes() {
                fingerprint = (fingerprint ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    bad += trainer.events().len() as u64;
    Trained {
        model,
        bad,
        fingerprint,
    }
}

/// Repeats the training job until the plan's time has passed. Returns the
/// timing, the first job's result, and failed checks: its bad steps plus
/// later jobs whose losses were not bit-identical to the first's (the
/// fastest-segment estimator assumes they are).
pub fn train_laps(
    plan: &Plan,
    s: &BatchShape,
    fresh: &KvecModel,
    train: &[TangledSequence],
) -> (Timing, Trained, u64) {
    let mut timing = Timing::default();
    let started = Instant::now();
    let first = train_job(s, fresh, train, &mut timing);
    let mut failures = first.bad;
    while !plan.done(started, timing.laps()) {
        let again = train_job(s, fresh, train, &mut timing);
        failures += (again.fingerprint != first.fingerprint) as u64;
    }
    (timing, first, failures)
}

pub fn run_train(plan: &Plan) -> Report {
    let s = shape(plan);
    let mut report = Report::new(END_TO_END);
    let ((model, (train, held_out)), setup_s) =
        median_setup(|| (batch_model(), datasets(plan.seed, s)));
    report.set("setup_s", setup_s);

    let (timing, trained, failures) = train_laps(plan, s, &model, &train);
    report.set_rate(&timing, Estimator::Fastest);
    report.check(
        "losses finite, no watchdog intervention, every lap bit-identical",
        failures,
        (timing.laps() * s.passes) as u64,
    );
    let eval = evaluate(&trained.model, &held_out);
    report.lines.push(format!(
        "eval after pass {}: accuracy {}, earliness {}, hm {} (floor {})",
        s.passes, eval.accuracy, eval.earliness, eval.hm, s.hm_floor
    ));
    report.check(
        "held-out harmonic mean at or above the floor",
        (eval.hm < s.hm_floor || !eval.hm.is_finite()) as u64,
        eval.outcomes.len() as u64,
    );
    report
}

/// Keys `evaluate` covered other than exactly once, plus outcomes that
/// disagree with the streaming engine on the first scenarios (the repo's
/// streaming ≡ batch contract: same prediction, same halting point).
pub fn eval_failures(model: &KvecModel, scenarios: &[TangledSequence], eval: &EvalReport) -> u64 {
    let keys: usize = scenarios.iter().map(TangledSequence::num_keys).sum();
    let mut failures = eval.outcomes.len().abs_diff(keys) as u64;
    let mut outcomes = eval.outcomes.iter();
    for scenario in scenarios.iter().take(4) {
        let streamed = StreamingEngine::run(model, scenario);
        for outcome in outcomes.by_ref().take(scenario.num_keys()) {
            let same = streamed
                .iter()
                .find(|d| d.key == outcome.key)
                .is_some_and(|d| d.pred == outcome.pred && d.n_items == outcome.n_k);
            failures += !same as u64;
        }
    }
    failures
}

/// Scenarios per timed segment of an `evaluate` lap.
const EVAL_SEGMENT: usize = 8;

/// Evaluates the held-out set, one pass per lap, until the plan's time has
/// passed. Returns the timing and the last pass's report.
pub fn eval_laps(
    plan: &Plan,
    model: &KvecModel,
    held_out: &[TangledSequence],
) -> (Timing, EvalReport) {
    let mut timing = Timing::default();
    let mut outcomes = Vec::new();
    let started = Instant::now();
    while !plan.done(started, timing.laps()) {
        outcomes.clear();
        for (segment, chunk) in held_out.chunks(EVAL_SEGMENT).enumerate() {
            let t0 = Instant::now();
            let part = evaluate(model, chunk);
            timing.record(
                segment,
                scenario_items(chunk) as f64,
                t0.elapsed().as_secs_f64(),
            );
            outcomes.extend(part.outcomes);
        }
    }
    (
        timing,
        report_from_outcomes(outcomes, model.cfg.num_classes),
    )
}

pub fn run_eval(plan: &Plan) -> Report {
    let s = shape(plan);
    let mut report = Report::new(END_TO_END);
    let ((model, (_, held_out)), setup_s) =
        median_setup(|| (batch_model(), datasets(plan.seed, s)));
    report.set("setup_s", setup_s);

    let (timing, eval) = eval_laps(plan, &model, &held_out);
    report.set_rate(&timing, Estimator::Fastest);
    report.check(
        "every key evaluated once; batch equals streaming",
        eval_failures(&model, &held_out, &eval),
        eval.outcomes.len() as u64,
    );
    report
}
