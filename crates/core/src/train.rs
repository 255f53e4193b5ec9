//! Joint training of KVRL + ECTL + classifier — the paper's Algorithm 1.
//!
//! Per tangled sequence:
//!
//! 1. the stream is encoded once (teacher-forced; valid because the dynamic
//!    mask is causal);
//! 2. the fusion states of all keys are computed step by step as one batch
//!    (fusion draws no randomness); then, for every key, the policy is
//!    simulated item by item on those states, sampling Halt/Wait; the
//!    first *Halt* fixes the number of observations `n_k` (a sequence that
//!    never halts is classified at its last item, the final action
//!    counting as Halt);
//! 3. the classifier labels `s_k^(n_k)`; the prediction's correctness sets
//!    the per-step reward `r = +/-1`;
//! 4. the losses are assembled —
//!    `l1` cross-entropy, `l2` REINFORCE-with-baseline surrogate with
//!    return `R_k^(i) = sum_{s>i} r = (n_k - i) r`, `l3` lateness penalty
//!    `-sum_i log P(Halt | s_i)`, plus `MSE(b, R)` for the baseline —
//!    and one reverse sweep feeds two Adam optimizers (model vs baseline,
//!    their own learning rates, Algorithm 1 lines 18-19).
//!
//! Step 2's episode and step 4's halting losses are `crate::ectl`'s
//! `Ectl::{sample_halt, add_halt_losses}`, shared with the RL baselines.
//!
//! Deviation noted for reviewers: losses are averaged over the keys of a
//! scenario (the paper sums) so the learning rate is insensitive to the
//! number of concurrent sequences `K`.
//!
//! [`Trainer::train_epoch`] is the one epoch driver: one optimizer step per
//! scenario (Algorithm 1's schedule), on the calling thread.
//!
//! ## Fault tolerance
//!
//! Every optimizer step goes through a **divergence watchdog**, one fixed
//! policy. Before the update, the step's loss is checked for NaN/inf,
//! and one read of every gradient gives both the per-element finiteness
//! check and the clip norms. A bad step is *skipped* — gradients
//! cleared, parameters untouched — and reported as a [`RecoveryEvent`];
//! after [`MAX_CONSECUTIVE_BAD`] consecutive bad steps the trainer
//! **rolls back** parameters and optimizer moments to its in-memory
//! snapshot, taken before the first update and after every good step,
//! and continues. An update that writes a non-finite value (`Adam::step`
//! reports it) rolls back at once. Unrecoverable conditions surface as a
//! typed [`TrainError`], never a panic.
//!
//! [`Trainer::save_checkpoint`] writes the *complete* trainer state
//! (parameters, both Adam moment sets, epoch/step counters, the
//! consecutive-bad count, RNG state) through the crash-safe container of
//! `kvec_nn::checkpoint`; [`Trainer::resume`] restores it such that the
//! post-resume trajectory is bit-identical to a run that was never
//! interrupted (enforced by `tests/fault_tolerance.rs`).

use crate::checkpoint::{self, TrainerState};
use crate::ectl::{accumulate, HaltLosses};
use crate::faults::FaultInjector;
use crate::model::KvecModel;
use crate::KvecConfig;
use kvec_autograd::Var;
use kvec_data::{Key, TangledSequence};
use kvec_json::Json;
use kvec_nn::checkpoint::{read_verified, write_atomic, CheckpointError};
use kvec_nn::loss::cross_entropy_logits;
use kvec_nn::{clip_global_norm, Adam, AdamState, ParamId, Session};
use kvec_obs::{self as obs, LazyHistogram, Level};
use kvec_tensor::{KvecRng, Tensor};
use std::fmt;
use std::path::Path;

/// Halting positions `n_k` across every trained key (Algorithm 1 line 9).
static HALT_STEP_HIST: LazyHistogram = LazyHistogram::new("train.halt_step");
/// Pre-clip model-group gradient norm of every applied step.
static GRAD_NORM_HIST: LazyHistogram = LazyHistogram::new("train.grad_norm");

/// Diagnostics of one training step (one tangled scenario).
#[derive(Debug, Clone, Copy, Default)]
pub struct StepStats {
    /// Mean cross-entropy over the scenario's keys.
    pub loss_ce: f32,
    /// Mean REINFORCE surrogate.
    pub loss_policy: f32,
    /// Mean lateness penalty.
    pub loss_halt: f32,
    /// Mean baseline regression error.
    pub loss_baseline: f32,
    /// Training accuracy over the scenario's keys.
    pub accuracy: f32,
    /// Mean halting fraction `n_k / |S_k|`.
    pub earliness: f32,
    /// Number of keys trained on.
    pub num_keys: usize,
}

/// Aggregated diagnostics over an epoch.
#[derive(Debug, Clone, Copy, Default)]
pub struct EpochStats {
    /// Key-weighted mean of the total loss.
    pub loss: f32,
    /// Key-weighted training accuracy.
    pub accuracy: f32,
    /// Key-weighted mean earliness.
    pub earliness: f32,
    /// Keys seen this epoch.
    pub num_keys: usize,
}

/// Consecutive bad (skipped) steps after which the trainer rolls back to
/// its last good snapshot: one bad batch is skipped, a run of them means
/// the state itself has gone bad.
pub const MAX_CONSECUTIVE_BAD: usize = 3;

/// Why the watchdog refused to apply a step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BadStepReason {
    /// The scenario loss was NaN/inf.
    NonFiniteLoss,
    /// An accumulated gradient carried NaN/inf.
    NonFiniteGradient,
    /// The applied update itself wrote non-finite parameters (the step
    /// was rolled back immediately, not merely skipped).
    NonFiniteUpdate,
}

/// A recovery action the watchdog took, reported through
/// [`Trainer::take_events`] instead of a log line or a panic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RecoveryEvent {
    /// A bad step was skipped: gradients cleared, parameters untouched.
    StepSkipped {
        /// Global optimizer-step attempt index.
        step: u64,
        /// What tripped the watchdog.
        reason: BadStepReason,
    },
    /// Parameters and optimizer moments were restored from the last good
    /// snapshot after repeated bad steps.
    RolledBack {
        /// Step attempt at which the rollback fired.
        step: u64,
        /// Step the restored snapshot was captured at.
        restored_step: u64,
        /// Consecutive bad steps that forced the rollback.
        bad_steps: usize,
    },
}

/// Unrecoverable training-runtime failures. Watchdog skips and rollbacks
/// are *not* errors — they are [`RecoveryEvent`]s; this type is for
/// conditions the runtime cannot continue through.
#[derive(Debug)]
pub enum TrainError {
    /// A [`FaultInjector`] crash fired (test harness only): the process
    /// "died" immediately before applying the given step.
    Killed {
        /// Step attempt the simulated crash preempted.
        step: u64,
    },
    /// Writing or reading a checkpoint failed.
    Checkpoint(CheckpointError),
}

impl fmt::Display for TrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Killed { step } => {
                write!(f, "training killed by fault injection before step {step}")
            }
            Self::Checkpoint(e) => write!(f, "checkpoint failure: {e}"),
        }
    }
}

impl std::error::Error for TrainError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Checkpoint(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CheckpointError> for TrainError {
    fn from(e: CheckpointError) -> Self {
        Self::Checkpoint(e)
    }
}

/// Per-epoch observability accumulators (reset by the epoch drivers;
/// deliberately not part of checkpoints — they describe one epoch's run,
/// not the training trajectory).
#[derive(Debug, Default, Clone, Copy)]
struct EpochObs {
    grad_norm_sum: f64,
    grad_steps: u64,
    skips: u64,
    rollbacks: u64,
}

impl RecoveryEvent {
    /// Structured fields for the event layer. The `reason` strings are
    /// stable identifiers, not display text.
    fn obs_fields(&self) -> Vec<(&'static str, Json)> {
        match *self {
            RecoveryEvent::StepSkipped { step, reason } => {
                let mut fields = vec![
                    ("action", Json::Str("step_skipped".into())),
                    ("step", Json::Int(step as i128)),
                ];
                match reason {
                    BadStepReason::NonFiniteLoss => {
                        fields.push(("reason", Json::Str("non_finite_loss".into())));
                    }
                    BadStepReason::NonFiniteGradient => {
                        fields.push(("reason", Json::Str("non_finite_gradient".into())));
                    }
                    BadStepReason::NonFiniteUpdate => {
                        fields.push(("reason", Json::Str("non_finite_update".into())));
                    }
                }
                fields
            }
            RecoveryEvent::RolledBack {
                step,
                restored_step,
                bad_steps,
            } => vec![
                ("action", Json::Str("rolled_back".into())),
                ("step", Json::Int(step as i128)),
                ("restored_step", Json::Int(restored_step as i128)),
                ("bad_steps", Json::Int(bad_steps as i128)),
            ],
        }
    }
}

/// The last-good-state capture the watchdog rolls back to.
struct StepSnapshot {
    step: u64,
    values: Vec<Tensor>,
    opt_model: AdamState,
    opt_baseline: AdamState,
}

/// The Algorithm-1 trainer: two Adam optimizers over disjoint parameter
/// groups, wrapped in the divergence watchdog described in the module
/// docs.
pub struct Trainer {
    opt_model: Adam,
    opt_baseline: Adam,
    model_ids: Vec<ParamId>,
    baseline_ids: Vec<ParamId>,
    alpha: f32,
    beta: f32,
    grad_clip: f32,
    warmup_epochs: usize,
    epochs_done: usize,
    // --- fault-tolerance state ---
    /// Optimizer-step attempts so far, good and skipped (one per scenario).
    step: u64,
    consecutive_bad: usize,
    events: Vec<RecoveryEvent>,
    snapshot: Option<StepSnapshot>,
    injector: Option<FaultInjector>,
    epoch_obs: EpochObs,
}

impl Trainer {
    /// Creates the trainer for a freshly built model.
    pub fn new(cfg: &KvecConfig, model: &KvecModel) -> Self {
        let model_ids = model.model_param_ids();
        let baseline_ids = model.baseline_param_ids();
        Self {
            opt_model: Adam::new(&model.store, model_ids.clone(), cfg.lr),
            opt_baseline: Adam::new(&model.store, baseline_ids.clone(), cfg.lr_baseline),
            model_ids,
            baseline_ids,
            alpha: cfg.alpha,
            beta: cfg.beta,
            grad_clip: cfg.grad_clip,
            warmup_epochs: cfg.policy_warmup_epochs,
            epochs_done: 0,
            step: 0,
            consecutive_bad: 0,
            events: Vec::new(),
            snapshot: None,
            injector: None,
            epoch_obs: EpochObs::default(),
        }
    }

    /// Buffers a watchdog event for [`Trainer::take_events`] AND forwards
    /// it to the observability layer as it happens — callers that never
    /// drain the buffer still leave a record in the trace.
    fn record_recovery(&mut self, ev: RecoveryEvent) {
        if obs::event_enabled(Level::Warn) {
            let mut fields = ev.obs_fields();
            fields.push(("epoch", Json::Int(self.epochs_done as i128)));
            obs::event(Level::Warn, "train.watchdog", &fields);
        }
        match ev {
            RecoveryEvent::StepSkipped { .. } => self.epoch_obs.skips += 1,
            RecoveryEvent::RolledBack { .. } => self.epoch_obs.rollbacks += 1,
        }
        self.events.push(ev);
    }

    /// Attaches a deterministic fault injector (test harness; see
    /// [`crate::faults`]). Injected faults act at optimizer-step
    /// granularity in both epoch drivers.
    pub fn set_fault_injector(&mut self, injector: FaultInjector) {
        self.injector = Some(injector);
    }

    /// Detaches the fault injector, if any.
    pub fn clear_fault_injector(&mut self) {
        self.injector = None;
    }

    /// Drains the recovery events recorded since the last call — the typed
    /// replacement for watchdog log lines.
    pub fn take_events(&mut self) -> Vec<RecoveryEvent> {
        std::mem::take(&mut self.events)
    }

    /// Recovery events recorded since the last [`Trainer::take_events`].
    pub fn events(&self) -> &[RecoveryEvent] {
        &self.events
    }

    /// Global optimizer-step attempts so far (good and skipped).
    pub fn steps_done(&self) -> u64 {
        self.step
    }

    /// Completed epochs (drives the warmup schedule).
    pub fn epochs_done(&self) -> usize {
        self.epochs_done
    }

    /// Whether the trainer is still in the representation warmup phase
    /// (classifier supervised at random positions, policy losses off).
    pub fn in_warmup(&self) -> bool {
        self.epochs_done < self.warmup_epochs
    }

    /// Runs one optimization step on one tangled scenario. A watchdog skip
    /// or rollback is reported through [`Trainer::take_events`], not the
    /// return value; `Err` means the runtime cannot continue (an injected
    /// crash).
    pub fn train_scenario(
        &mut self,
        model: &mut KvecModel,
        scenario: &TangledSequence,
        rng: &mut KvecRng,
    ) -> Result<StepStats, TrainError> {
        let stats = self.scenario_grads(model, scenario, rng);
        self.guarded_step(model, self.total_loss(&stats))?;
        Ok(stats)
    }

    /// The scalar objective of one step, used for the watchdog's loss
    /// finiteness check.
    fn total_loss(&self, s: &StepStats) -> f32 {
        s.loss_ce + self.alpha * s.loss_policy + self.beta * s.loss_halt + s.loss_baseline
    }

    /// The forward/backward pass of one scenario: accumulates gradients into
    /// `model.store` and reports the step diagnostics, **without** touching
    /// the optimizers. [`Trainer::train_scenario`] is this plus
    /// [`Trainer::guarded_step`].
    fn scenario_grads(
        &self,
        model: &mut KvecModel,
        scenario: &TangledSequence,
        rng: &mut KvecRng,
    ) -> StepStats {
        assert!(!scenario.is_empty(), "empty scenario");
        let _span = obs::span_at(Level::Debug, "train.scenario");
        let sess = Session::new();
        let fwd = model.encode_stream(&sess, scenario, Some(rng));
        let (store, ectl) = (&model.store, &model.ectl);
        let label_map = scenario.label_map();

        let mut l1: Option<Var<'_>> = None;
        let mut halting = HaltLosses::default();
        let mut correct = 0usize;
        let mut halt_fraction_sum = 0.0f32;
        let subsequences = scenario.key_subsequences();
        let num_keys = subsequences.len();

        let warmup = self.in_warmup();
        // Fusion states are computed for every whole sequence (teacher
        // forcing) so the classifier can be supervised at arbitrary
        // positions; the episode's halting point only governs the policy
        // losses. Fusion draws no randomness, so all keys are fused up
        // front, step by step as one batch.
        let fused = fuse_keys(model, &sess, fwd.e, &subsequences);
        for (k, (key, item_rows)) in subsequences.iter().enumerate() {
            let label = label_map[key];
            let state_at = |i: usize| fused.h.row(fused.row(k, i));
            // The policy and the baseline read a detached state: the
            // halting losses train their heads only, never reshaping the
            // shared representation (which the classification loss owns).
            // At this reproduction's scale, coupled gradients let the
            // REINFORCE variance erode the encoder.
            let detached_at = |i: usize| {
                let row = sess
                    .graph()
                    .with_value(fused.h, |h| h.row_tensor(fused.row(k, i)));
                sess.input(row)
            };
            // During warmup the halting position is drawn uniformly (the
            // policy is neither consulted nor trained) so the classifier
            // and the baseline learn at every prefix length first.
            let len = item_rows.len();
            let forced_n = warmup.then(|| rng.range(1, len + 1));
            let episode = ectl.sample_halt(&sess, store, len, forced_n, detached_at, rng);
            let n_k = episode.n_k;
            halt_fraction_sum += n_k as f32 / len as f32;
            HALT_STEP_HIST.record(n_k as f64);

            // --- classify at the halting position ---
            let class_logits = model.classifier.logits(&sess, store, state_at(n_k - 1));
            let pred = class_logits.value().argmax_row(0);
            let reward = if pred == label {
                correct += 1;
                1.0f32
            } else {
                -1.0f32
            };

            // --- losses ---
            // CE at the halting position plus CE at one random position:
            // the classifier must stay calibrated across prefix lengths,
            // both for the reward signal and for deployment-time halting
            // anywhere in the sequence.
            let ce = cross_entropy_logits(class_logits, label);
            l1 = Some(accumulate(l1, ce.scale(0.5)));
            let extra = rng.below(len);
            let extra_logits = model.classifier.logits(&sess, store, state_at(extra));
            let extra_ce = cross_entropy_logits(extra_logits, label);
            l1 = Some(accumulate(l1, extra_ce.scale(0.5)));
            ectl.add_halt_losses(&sess, store, &episode, reward, detached_at, &mut halting);
        }

        let inv_k = 1.0 / num_keys as f32;
        let l1 = l1.expect("at least one key").scale(inv_k);
        let [l2, l3, lb] = halting.totals(&sess).map(|l| l.scale(inv_k));
        let stats = StepStats {
            loss_ce: l1.value().item(),
            loss_policy: l2.value().item(),
            loss_halt: l3.value().item(),
            loss_baseline: lb.value().item(),
            accuracy: correct as f32 / num_keys as f32,
            earliness: halt_fraction_sum / num_keys as f32,
            num_keys,
        };

        let total = l1
            .add(l2.scale(self.alpha))
            .add(l3.scale(self.beta))
            .add(lb);
        sess.backward(total);
        sess.accumulate_grads(&mut model.store);
        stats
    }

    /// The update half of [`Trainer::train_scenario`]: runs the watchdog
    /// checks, then either clips + steps both optimizers or skips/rolls
    /// back, recording a [`RecoveryEvent`].
    fn guarded_step(&mut self, model: &mut KvecModel, step_loss: f32) -> Result<(), TrainError> {
        let step = self.step;
        if let Some(inj) = &mut self.injector {
            if inj.should_kill(step) {
                return Err(TrainError::Killed { step });
            }
            inj.poison(&mut model.store, step);
        }
        // Establish an initial rollback target before the first update so
        // divergence on step 0 is still recoverable.
        if self.snapshot.is_none() {
            self.capture_snapshot(model);
        }
        self.step += 1;

        let checked = if step_loss.is_finite() {
            // The two groups partition the store, so this reads every
            // gradient once, for its finiteness and for the clip norms.
            let store = &mut model.store;
            let norm = clip_global_norm(store, &self.model_ids, self.grad_clip);
            let baseline = clip_global_norm(store, &self.baseline_ids, self.grad_clip);
            match (norm, baseline) {
                (Some(norm), Some(_)) => Ok(norm),
                _ => Err(BadStepReason::NonFiniteGradient),
            }
        } else {
            Err(BadStepReason::NonFiniteLoss)
        };
        let norm = match checked {
            Ok(norm) => norm,
            Err(reason) => {
                model.store.zero_grads();
                self.record_recovery(RecoveryEvent::StepSkipped { step, reason });
                self.consecutive_bad += 1;
                if self.consecutive_bad >= MAX_CONSECUTIVE_BAD {
                    self.rollback(model, step);
                }
                return Ok(());
            }
        };

        // `&`, not `&&`: both groups step, as they would on a finite write.
        let finite =
            self.opt_model.step(&mut model.store) & self.opt_baseline.step(&mut model.store);
        model.store.zero_grads();
        if !finite {
            // The update itself corrupted the parameters (pathological
            // moments / learning rate). The damage is already applied, so
            // restore the last good state immediately rather than waiting
            // out K skips on garbage parameters.
            self.record_recovery(RecoveryEvent::StepSkipped {
                step,
                reason: BadStepReason::NonFiniteUpdate,
            });
            self.consecutive_bad += 1;
            self.rollback(model, step);
            return Ok(());
        }

        self.consecutive_bad = 0;
        GRAD_NORM_HIST.record(norm as f64);
        self.epoch_obs.grad_norm_sum += norm as f64;
        self.epoch_obs.grad_steps += 1;
        obs::event(
            Level::Debug,
            "train.step",
            &[
                ("step", Json::Int(step as i128)),
                ("epoch", Json::Int(self.epochs_done as i128)),
                ("loss", Json::Float(step_loss as f64)),
                ("grad_norm", Json::Float(norm as f64)),
            ],
        );
        self.capture_snapshot(model);
        Ok(())
    }

    /// Captures the current state as the rollback target, copying into
    /// the previous snapshot's buffers when there is one.
    fn capture_snapshot(&mut self, model: &KvecModel) {
        match &mut self.snapshot {
            Some(snap) => {
                snap.step = self.step;
                model.store.snapshot_values_into(&mut snap.values);
                self.opt_model.export_state_into(&mut snap.opt_model);
                self.opt_baseline.export_state_into(&mut snap.opt_baseline);
            }
            None => {
                self.snapshot = Some(StepSnapshot {
                    step: self.step,
                    values: model.store.snapshot_values(),
                    opt_model: self.opt_model.export_state(),
                    opt_baseline: self.opt_baseline.export_state(),
                })
            }
        }
    }

    /// Restores parameters and optimizer moments from the last good
    /// snapshot. The RNG and the step/epoch counters are deliberately NOT
    /// rewound: training continues forward over fresh data, it does not
    /// replay the steps that diverged.
    fn rollback(&mut self, model: &mut KvecModel, step: u64) {
        let snap = self
            .snapshot
            .as_ref()
            .expect("a snapshot is taken before the first update");
        model.store.restore_values(&snap.values);
        model.store.zero_grads();
        let restored_step = snap.step;
        self.opt_model
            .import_state(snap.opt_model.clone())
            .expect("snapshot always matches its own optimizer");
        self.opt_baseline
            .import_state(snap.opt_baseline.clone())
            .expect("snapshot always matches its own optimizer");
        self.record_recovery(RecoveryEvent::RolledBack {
            step,
            restored_step,
            bad_steps: self.consecutive_bad,
        });
        self.consecutive_bad = 0;
    }

    /// Trains one pass over a set of scenarios, one optimizer step per
    /// scenario (Algorithm 1's schedule). Watchdog interventions are
    /// reported through [`Trainer::take_events`]; `Err` aborts the epoch
    /// (an injected crash).
    pub fn train_epoch(
        &mut self,
        model: &mut KvecModel,
        scenarios: &[TangledSequence],
        rng: &mut KvecRng,
    ) -> Result<EpochStats, TrainError> {
        let _span = obs::span("train.epoch");
        self.epoch_obs = EpochObs::default();
        let mut agg = EpochStats::default();
        for scenario in scenarios {
            let s = self.train_scenario(model, scenario, rng)?;
            self.fold_step(&mut agg, s);
        }
        Self::finish_epoch_stats(&mut agg);
        self.epochs_done += 1;
        self.emit_epoch_event(&agg);
        Ok(agg)
    }

    /// The per-epoch Info record: loss/accuracy/earliness plus the mean
    /// pre-clip gradient norm and the watchdog's intervention counts for
    /// the epoch that just finished.
    fn emit_epoch_event(&self, agg: &EpochStats) {
        if !obs::event_enabled(Level::Info) {
            return;
        }
        let eo = &self.epoch_obs;
        let mean_norm = if eo.grad_steps > 0 {
            eo.grad_norm_sum / eo.grad_steps as f64
        } else {
            f64::NAN
        };
        obs::event(
            Level::Info,
            "train.epoch",
            &[
                ("epoch", Json::Int(self.epochs_done as i128 - 1)),
                ("loss", Json::Float(agg.loss as f64)),
                ("accuracy", Json::Float(agg.accuracy as f64)),
                ("earliness", Json::Float(agg.earliness as f64)),
                ("num_keys", Json::Int(agg.num_keys as i128)),
                ("grad_norm_mean", Json::Float(mean_norm)),
                ("good_steps", Json::Int(eo.grad_steps as i128)),
                ("watchdog_skips", Json::Int(eo.skips as i128)),
                ("watchdog_rollbacks", Json::Int(eo.rollbacks as i128)),
            ],
        );
    }

    /// Atomically writes the complete trainer state — parameters, both
    /// optimizers' moments and counters, the epoch/step/consecutive-bad
    /// counters and the RNG state — as a versioned, checksummed checkpoint
    /// (see `kvec_nn::checkpoint` for the container guarantees). Pass the
    /// *training* RNG so a resumed run continues its exact stream.
    pub fn save_checkpoint(
        &self,
        model: &KvecModel,
        rng: &KvecRng,
        path: impl AsRef<Path>,
    ) -> Result<(), CheckpointError> {
        let state = TrainerState {
            params: model.store.values_to_json(),
            opt_model: self.opt_model.export_state(),
            opt_baseline: self.opt_baseline.export_state(),
            epochs_done: self.epochs_done,
            step: self.step,
            consecutive_bad: self.consecutive_bad,
            rng_state: rng.state(),
        };
        write_atomic(path, checkpoint::encode_state(&state).as_bytes())
    }

    /// Restores a checkpoint written by [`Trainer::save_checkpoint`] into
    /// a model freshly built from the *same configuration*, returning the
    /// reconstructed trainer and training RNG.
    ///
    /// **Determinism-after-resume contract:** continuing from the returned
    /// `(trainer, rng)` produces a trajectory bit-identical to the run
    /// that wrote the checkpoint had it never stopped — same parameters,
    /// same stats, same RNG draws. Corruption (torn write, bit rot, wrong
    /// version, parameter mismatch, non-finite values) is always detected
    /// here, never deferred to a later forward pass.
    ///
    /// A fault injector is not part of a checkpoint.
    pub fn resume(
        cfg: &KvecConfig,
        model: &mut KvecModel,
        path: impl AsRef<Path>,
    ) -> Result<(Self, KvecRng), CheckpointError> {
        let payload = read_verified(path)?;
        let state = checkpoint::decode_state(&payload)?;
        model
            .store
            .load_values_json(&state.params)
            .map_err(CheckpointError::InvalidPayload)?;
        let mut trainer = Trainer::new(cfg, model);
        trainer
            .opt_model
            .import_state(state.opt_model)
            .map_err(|e| CheckpointError::InvalidPayload(format!("model optimizer: {e}")))?;
        trainer
            .opt_baseline
            .import_state(state.opt_baseline)
            .map_err(|e| CheckpointError::InvalidPayload(format!("baseline optimizer: {e}")))?;
        trainer.epochs_done = state.epochs_done;
        trainer.step = state.step;
        trainer.consecutive_bad = state.consecutive_bad;
        let rng = KvecRng::from_state(state.rng_state).ok_or_else(|| {
            CheckpointError::InvalidPayload("rng state is the all-zero fixed point".into())
        })?;
        Ok((trainer, rng))
    }

    fn fold_step(&self, agg: &mut EpochStats, s: StepStats) {
        let k = s.num_keys as f32;
        agg.loss += (s.loss_ce + self.alpha * s.loss_policy + self.beta * s.loss_halt) * k;
        agg.accuracy += s.accuracy * k;
        agg.earliness += s.earliness * k;
        agg.num_keys += s.num_keys;
    }

    fn finish_epoch_stats(agg: &mut EpochStats) {
        if agg.num_keys > 0 {
            let n = agg.num_keys as f32;
            agg.loss /= n;
            agg.accuracy /= n;
            agg.earliness /= n;
        }
    }

    /// The trade-off weight `beta` currently in effect.
    pub fn beta(&self) -> f32 {
        self.beta
    }
}

/// The teacher-forced fusion states of every key of one scenario.
struct FusedKeys<'s> {
    /// Every step's states stacked: step `i` holds one row per key that has
    /// an item `i`, starting at row `offsets[i]`.
    h: Var<'s>,
    offsets: Vec<usize>,
    /// Row of key `k` (its index in `key_subsequences` order) within every
    /// step it appears in.
    slot: Vec<usize>,
}

impl FusedKeys<'_> {
    /// Row of key `k`'s state after its item `i` in the stacked states.
    fn row(&self, k: usize, i: usize) -> usize {
        self.offsets[i] + self.slot[k]
    }
}

/// Runs the fusion cell over all keys at once, as one tape op: step `i`
/// advances every key with more than `i` items as one `B_i x d` batch.
/// Keys take their rows in order of decreasing length, so the keys still
/// active at a step are always the leading rows of the carried state.
fn fuse_keys<'s>(
    model: &KvecModel,
    sess: &'s Session,
    e: Var<'s>,
    subsequences: &[(Key, Vec<usize>)],
) -> FusedKeys<'s> {
    let mut by_len: Vec<usize> = (0..subsequences.len()).collect();
    by_len.sort_by_key(|&k| std::cmp::Reverse(subsequences[k].1.len()));
    let mut slot = vec![0; by_len.len()];
    for (row, &k) in by_len.iter().enumerate() {
        slot[k] = row;
    }
    let steps: Vec<Vec<usize>> = (0..subsequences[by_len[0]].1.len())
        .map(|i| {
            let items = by_len.iter().map(|&k| subsequences[k].1.get(i));
            items.map_while(|item| item.copied()).collect()
        })
        .collect();
    let mut rows = 0;
    let offsets = steps
        .iter()
        .map(|step| {
            rows += step.len();
            rows - step.len()
        })
        .collect();
    let h = model
        .encoder
        .fusion
        .step_keys(sess, &model.store, e, &steps);
    FusedKeys { h, offsets, slot }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kvec_data::synth::TrafficConfig;
    use kvec_data::{synth, Dataset};

    fn tiny_dataset(seed: u64) -> Dataset {
        let mut rng = KvecRng::seed_from_u64(seed);
        let cfg = TrafficConfig {
            num_flows: 24,
            num_classes: 2,
            mean_len: 14,
            min_len: 10,
            max_len: 20,
            ..TrafficConfig::traffic_app(0)
        };
        let pool = synth::generate_traffic(&cfg, &mut rng);
        Dataset::from_pool("tiny", cfg.schema(), 2, pool, 4, &mut rng)
    }

    #[test]
    fn one_step_updates_parameters_and_reports_stats() {
        let ds = tiny_dataset(1);
        let cfg = KvecConfig::tiny(&ds.schema, ds.num_classes);
        let mut rng = KvecRng::seed_from_u64(2);
        let mut model = KvecModel::new(&cfg, &mut rng);
        let before: Vec<_> = model
            .store
            .ids()
            .iter()
            .map(|&id| model.store.value(id).clone())
            .collect();

        let mut trainer = Trainer::new(&cfg, &model);
        let stats = trainer
            .train_scenario(&mut model, &ds.train[0], &mut rng)
            .unwrap();
        assert!(stats.num_keys > 0);
        assert!(stats.loss_ce > 0.0, "CE of an untrained model is positive");
        assert!(stats.earliness > 0.0 && stats.earliness <= 1.0);

        let changed = model
            .store
            .ids()
            .iter()
            .filter(|&&id| model.store.value(id) != &before[id.index()])
            .count();
        assert!(
            changed > model.store.len() / 2,
            "only {changed}/{} params changed",
            model.store.len()
        );
        assert!(!model.store.has_non_finite());
    }

    #[test]
    fn a_checkpoint_with_the_dropped_watchdog_fields_still_resumes() {
        // Payloads once carried `good_steps` and `grad_norm_ema`; resume
        // ignores them and continues exactly as from today's payload.
        let ds = tiny_dataset(7);
        let cfg = KvecConfig::tiny(&ds.schema, ds.num_classes);
        let mut rng = KvecRng::seed_from_u64(8);
        let mut model = KvecModel::new(&cfg, &mut rng);
        let mut trainer = Trainer::new(&cfg, &model);
        trainer
            .train_scenario(&mut model, &ds.train[0], &mut rng)
            .unwrap();
        let dir = std::env::temp_dir().join("kvec-train-old-payload");
        let path = dir.join("now.ckpt");
        trainer.save_checkpoint(&model, &rng, &path).unwrap();
        let payload = String::from_utf8(read_verified(&path).unwrap()).unwrap();
        let old = payload.replacen(
            r#""consecutive_bad""#,
            r#""good_steps":1,"grad_norm_ema":0.5,"consecutive_bad""#,
            1,
        );
        assert_ne!(old, payload);
        let old_path = dir.join("old.ckpt");
        write_atomic(&old_path, old.as_bytes()).unwrap();

        let resume_and_step = |path: &Path| {
            let mut model = KvecModel::new(&cfg, &mut KvecRng::seed_from_u64(99));
            let (mut trainer, mut rng) = Trainer::resume(&cfg, &mut model, path).unwrap();
            trainer
                .train_scenario(&mut model, &ds.train[1], &mut rng)
                .unwrap();
            (trainer.steps_done(), model.store.snapshot_values())
        };
        let now = resume_and_step(&path);
        assert_eq!(now.0, 2);
        assert_eq!(resume_and_step(&old_path), now);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn training_reduces_cross_entropy() {
        let ds = tiny_dataset(3);
        let cfg = KvecConfig::tiny(&ds.schema, ds.num_classes);
        let mut rng = KvecRng::seed_from_u64(4);
        let mut model = KvecModel::new(&cfg, &mut rng);
        let mut trainer = Trainer::new(&cfg, &model);

        let first = trainer
            .train_epoch(&mut model, &ds.train, &mut rng)
            .unwrap();
        let mut last = first;
        for _ in 0..6 {
            last = trainer
                .train_epoch(&mut model, &ds.train, &mut rng)
                .unwrap();
        }
        assert!(
            last.accuracy > first.accuracy || last.loss < first.loss,
            "no learning signal: first {:?} last {:?}",
            first,
            last
        );
    }

    #[test]
    fn large_beta_halts_earlier_than_negative_beta() {
        let ds = tiny_dataset(5);
        let run = |beta: f32| {
            let cfg = KvecConfig::tiny(&ds.schema, ds.num_classes).with_beta(beta);
            let mut rng = KvecRng::seed_from_u64(6);
            let mut model = KvecModel::new(&cfg, &mut rng);
            let mut trainer = Trainer::new(&cfg, &model);
            let mut e = 0.0;
            for _ in 0..7 {
                e = trainer
                    .train_epoch(&mut model, &ds.train, &mut rng)
                    .unwrap()
                    .earliness;
            }
            e
        };
        let eager = run(2.0);
        let lazy = run(-0.05);
        assert!(
            eager < lazy,
            "beta=2 earliness {eager} should be below beta=-0.05 earliness {lazy}"
        );
    }
}
