//! End-to-end fault-tolerance contracts, driven by the deterministic
//! fault injector (`kvec::faults`):
//!
//! - a run killed at an arbitrary optimizer step resumes from its last
//!   checkpoint **bit-identically** to a run that was never interrupted;
//! - NaN gradients are skipped (parameters untouched), reported through
//!   the typed [`RecoveryEvent`] API, and after K consecutive bad steps
//!   the trainer rolls back to its last good state and keeps training;
//! - checkpoint corruption — any single byte flip, any truncation — is
//!   always detected at load, never deferred to a later forward pass, and
//!   every corruption mode yields its own readable error.

use kvec::faults::{self, FaultInjector};
use kvec::train::{Trainer, MAX_CONSECUTIVE_BAD};
use kvec::{BadStepReason, KvecConfig, KvecModel, RecoveryEvent, TrainError};
use kvec_data::synth::{generate_traffic, TrafficConfig};
use kvec_data::Dataset;
use kvec_nn::checkpoint::CheckpointError;
use kvec_tensor::KvecRng;
use std::path::{Path, PathBuf};

const EPOCHS: usize = 3;
const SEED: u64 = 77;

fn dataset(seed: u64) -> Dataset {
    let mut rng = KvecRng::seed_from_u64(seed);
    let cfg = TrafficConfig {
        num_flows: 24,
        num_classes: 2,
        mean_len: 12,
        min_len: 10,
        max_len: 16,
        ..TrafficConfig::traffic_app(0)
    };
    let pool = generate_traffic(&cfg, &mut rng);
    Dataset::from_pool("ft", cfg.schema(), 2, pool, 4, &mut rng)
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("kvec-fault-tolerance").join(name);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Every parameter value of the model as raw bits — the strictest
/// possible "same trajectory" witness (`==` on f32 would let -0.0 == 0.0
/// slip through).
fn param_bits(model: &KvecModel) -> Vec<u32> {
    model
        .store
        .ids()
        .iter()
        .flat_map(|&id| model.store.value(id).data().iter().map(|f| f.to_bits()))
        .collect()
}

/// Bitwise fingerprint of one epoch's stats.
type Fingerprint = (u32, u32, u32, usize);

fn epoch_fingerprint(s: &kvec::train::EpochStats) -> Fingerprint {
    (
        s.loss.to_bits(),
        s.accuracy.to_bits(),
        s.earliness.to_bits(),
        s.num_keys,
    )
}

/// Trains EPOCHS epochs, checkpointing after each, and returns the
/// per-epoch fingerprints plus the final parameter bits.
fn uninterrupted_run(ds: &Dataset, dir: &Path) -> (Vec<Fingerprint>, Vec<u32>) {
    let cfg = KvecConfig::tiny(&ds.schema, ds.num_classes);
    let mut rng = KvecRng::seed_from_u64(SEED);
    let mut model = KvecModel::new(&cfg, &mut rng);
    let mut trainer = Trainer::new(&cfg, &model);
    let mut fingerprints = Vec::with_capacity(EPOCHS);
    for epoch in 0..EPOCHS {
        let s = trainer
            .train_epoch(&mut model, &ds.train, &mut rng)
            .expect("uninterrupted run must not fail");
        fingerprints.push(epoch_fingerprint(&s));
        trainer
            .save_checkpoint(&model, &rng, dir.join(format!("epoch{epoch}.ckpt")))
            .expect("checkpoint write");
    }
    (fingerprints, param_bits(&model))
}

/// The kill/resume contract: die at `kill_step` (an arbitrary optimizer
/// step inside epoch 1), resume from the epoch-0 checkpoint the killed run
/// itself wrote, finish the remaining epochs, and land on exactly the
/// uninterrupted trajectory.
fn kill_resume_is_bit_identical(kill_step: u64, dir_name: &str) {
    let ds = dataset(1);
    assert!(ds.train.len() >= 3, "need a few scenarios per epoch");

    let ref_dir = tmp_dir(&format!("{dir_name}-ref"));
    let (ref_fingerprints, ref_bits) = uninterrupted_run(&ds, &ref_dir);

    // --- the run that crashes ---
    let crash_dir = tmp_dir(&format!("{dir_name}-crash"));
    let cfg = KvecConfig::tiny(&ds.schema, ds.num_classes);
    let mut rng = KvecRng::seed_from_u64(SEED);
    let mut model = KvecModel::new(&cfg, &mut rng);
    let mut trainer = Trainer::new(&cfg, &model);
    trainer.set_fault_injector(FaultInjector::new(0).kill_at_step(kill_step));

    let first = trainer
        .train_epoch(&mut model, &ds.train, &mut rng)
        .expect("epoch 0 completes before the kill step");
    assert_eq!(epoch_fingerprint(&first), ref_fingerprints[0]);
    let ckpt = crash_dir.join("epoch0.ckpt");
    trainer
        .save_checkpoint(&model, &rng, &ckpt)
        .expect("checkpoint write");

    let err = trainer
        .train_epoch(&mut model, &ds.train, &mut rng)
        .expect_err("the injected crash must abort epoch 1");
    match err {
        TrainError::Killed { step } => assert_eq!(step, kill_step),
        other => panic!("expected Killed, got {other}"),
    }

    // --- resume into a fresh process (fresh model, fresh everything) ---
    let mut resumed_model = KvecModel::new(&cfg, &mut KvecRng::seed_from_u64(999));
    let (mut resumed, mut resumed_rng) =
        Trainer::resume(&cfg, &mut resumed_model, &ckpt).expect("resume");
    assert_eq!(
        resumed.epochs_done(),
        1,
        "checkpoint was at the epoch-1 boundary"
    );

    for fingerprint in &ref_fingerprints[1..] {
        let s = resumed
            .train_epoch(&mut resumed_model, &ds.train, &mut resumed_rng)
            .expect("resumed run must not fail");
        assert_eq!(
            epoch_fingerprint(&s),
            *fingerprint,
            "post-resume epoch stats diverged from the uninterrupted run"
        );
    }
    assert_eq!(
        param_bits(&resumed_model),
        ref_bits,
        "post-resume parameters are not bit-identical to the uninterrupted run"
    );

    std::fs::remove_dir_all(ref_dir).ok();
    std::fs::remove_dir_all(crash_dir).ok();
}

#[test]
fn serial_kill_and_resume_is_bit_identical() {
    let ds = dataset(1);
    let steps_per_epoch = ds.train.len() as u64;
    // Mid-epoch-1 kill: an arbitrary step, neither the first nor the last.
    kill_resume_is_bit_identical(steps_per_epoch + steps_per_epoch / 2, "serial-mid");
}

#[test]
fn serial_kill_at_first_step_of_epoch_resumes_identically() {
    let ds = dataset(1);
    let steps_per_epoch = ds.train.len() as u64;
    kill_resume_is_bit_identical(steps_per_epoch, "serial-first");
}

#[test]
fn nan_gradients_are_skipped_and_k_consecutive_trigger_rollback() {
    let ds = dataset(2);
    let cfg = KvecConfig::tiny(&ds.schema, ds.num_classes);
    let mut rng = KvecRng::seed_from_u64(5);
    let mut model = KvecModel::new(&cfg, &mut rng);
    let mut trainer = Trainer::new(&cfg, &model);
    let k = MAX_CONSECUTIVE_BAD as u64;
    assert!(
        k >= 2,
        "test needs K >= 2 to distinguish skip from rollback"
    );

    // A few clean steps to establish a good snapshot and a reference state.
    for scenario in ds.train.iter().take(2) {
        trainer
            .train_scenario(&mut model, scenario, &mut rng)
            .unwrap();
    }
    assert!(
        trainer.take_events().is_empty(),
        "clean steps emit no events"
    );
    let good_bits = param_bits(&model);
    let first_bad = trainer.steps_done();

    // Poison K consecutive steps. Each must be skipped with parameters
    // untouched; the K-th must additionally roll back.
    trainer.set_fault_injector(FaultInjector::new(3).poison_grads_at(first_bad..first_bad + k));
    for (i, scenario) in ds.train.iter().cycle().skip(2).take(k as usize).enumerate() {
        trainer
            .train_scenario(&mut model, scenario, &mut rng)
            .expect("a skipped step is not a TrainError");
        assert_eq!(
            param_bits(&model),
            good_bits,
            "parameters changed on poisoned step {i}"
        );
    }

    let events = trainer.take_events();
    assert_eq!(
        events.len(),
        k as usize + 1,
        "K skips plus one rollback: {events:?}"
    );
    for (i, ev) in events.iter().take(k as usize).enumerate() {
        match ev {
            RecoveryEvent::StepSkipped { step, reason } => {
                assert_eq!(*step, first_bad + i as u64);
                assert_eq!(*reason, BadStepReason::NonFiniteGradient);
            }
            other => panic!("expected StepSkipped, got {other:?}"),
        }
    }
    match events.last().unwrap() {
        RecoveryEvent::RolledBack {
            step,
            restored_step,
            bad_steps,
        } => {
            assert_eq!(*step, first_bad + k - 1);
            assert_eq!(*bad_steps, k as usize);
            assert!(
                *restored_step <= first_bad,
                "rolled back to a pre-fault state"
            );
        }
        other => panic!("expected RolledBack, got {other:?}"),
    }

    // Recovery: with the injector gone, training continues and learns.
    trainer.clear_fault_injector();
    trainer
        .train_scenario(&mut model, &ds.train[0], &mut rng)
        .expect("training continues after rollback");
    assert!(
        trainer.take_events().is_empty(),
        "healthy step emits no events"
    );
    assert_ne!(
        param_bits(&model),
        good_bits,
        "post-rollback step applied an update"
    );
    assert!(
        !model.store.has_non_finite(),
        "NaN never reached the parameters"
    );
}

#[test]
fn non_finite_loss_is_skipped_and_k_consecutive_trigger_rollback() {
    let ds = dataset(2);
    let cfg = KvecConfig::tiny(&ds.schema, ds.num_classes);
    let mut rng = KvecRng::seed_from_u64(5);
    let mut model = KvecModel::new(&cfg, &mut rng);
    let mut trainer = Trainer::new(&cfg, &model);
    let k = MAX_CONSECUTIVE_BAD;

    // One clean step, then a poisoned classifier weight: every later loss
    // is NaN until the rollback restores the post-step-0 snapshot.
    trainer
        .train_scenario(&mut model, &ds.train[0], &mut rng)
        .unwrap();
    let id = model.classifier.param_ids()[0];
    model.store.value_mut(id).data_mut()[0] = f32::NAN;
    for scenario in ds.train.iter().cycle().skip(1).take(k) {
        trainer
            .train_scenario(&mut model, scenario, &mut rng)
            .expect("a skipped step is not a TrainError");
    }

    let mut expected: Vec<RecoveryEvent> = (1..=k as u64)
        .map(|step| RecoveryEvent::StepSkipped {
            step,
            reason: BadStepReason::NonFiniteLoss,
        })
        .collect();
    expected.push(RecoveryEvent::RolledBack {
        step: k as u64,
        restored_step: 1,
        bad_steps: k,
    });
    assert_eq!(trainer.take_events(), expected);
    assert!(
        !model.store.has_non_finite(),
        "rollback restored finite values"
    );
}

/// `Trainer::resume` that must fail, returning the error (`Trainer` is
/// not `Debug`, so `expect_err` cannot).
fn resume_err(cfg: &KvecConfig, model: &mut KvecModel, path: &Path) -> CheckpointError {
    match Trainer::resume(cfg, model, path) {
        Ok(_) => panic!("corrupt checkpoint loaded successfully"),
        Err(e) => e,
    }
}

/// Trains briefly and writes a real checkpoint to corrupt.
fn pristine_checkpoint(dir: &Path) -> (KvecConfig, Vec<u8>, PathBuf) {
    let ds = dataset(4);
    let cfg = KvecConfig::tiny(&ds.schema, ds.num_classes);
    let mut rng = KvecRng::seed_from_u64(8);
    let mut model = KvecModel::new(&cfg, &mut rng);
    let mut trainer = Trainer::new(&cfg, &model);
    trainer
        .train_epoch(&mut model, &ds.train, &mut rng)
        .unwrap();
    let path = dir.join("pristine.ckpt");
    trainer.save_checkpoint(&model, &rng, &path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    (cfg, bytes, path)
}

#[test]
fn every_random_byte_flip_or_truncation_is_detected_at_load() {
    let dir = tmp_dir("byte-flips");
    let (cfg, pristine, _path) = pristine_checkpoint(&dir);
    let victim = dir.join("victim.ckpt");
    let mut model = KvecModel::new(&cfg, &mut KvecRng::seed_from_u64(1));
    let mut rng = KvecRng::seed_from_u64(2024);

    // The pristine file must load — otherwise the trials prove nothing.
    std::fs::write(&victim, &pristine).unwrap();
    Trainer::resume(&cfg, &mut model, &victim).expect("pristine checkpoint loads");

    for trial in 0..120 {
        std::fs::write(&victim, &pristine).unwrap();
        let offset = faults::flip_random_byte(&victim, &mut rng).unwrap();
        let res = Trainer::resume(&cfg, &mut model, &victim);
        assert!(
            res.is_err(),
            "trial {trial}: flip at byte {offset} loaded successfully"
        );
    }
    for trial in 0..30 {
        std::fs::write(&victim, &pristine).unwrap();
        let keep = rng.below(pristine.len());
        faults::truncate_file(&victim, keep).unwrap();
        let res = Trainer::resume(&cfg, &mut model, &victim);
        assert!(
            res.is_err(),
            "trial {trial}: truncation to {keep} bytes loaded successfully"
        );
    }
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn each_corruption_mode_yields_its_own_readable_error() {
    let dir = tmp_dir("edge-cases");
    let (cfg, pristine, path) = pristine_checkpoint(&dir);
    let mut model = KvecModel::new(&cfg, &mut KvecRng::seed_from_u64(1));
    let mut load = |bytes: &[u8]| -> CheckpointError {
        std::fs::write(&path, bytes).unwrap();
        resume_err(&cfg, &mut model, &path)
    };

    // Zero-length file (crash before any byte hit the disk).
    let empty = load(b"");
    assert!(matches!(empty, CheckpointError::Empty), "{empty}");

    // Torn write: the tail of the payload is missing.
    let torn = load(&pristine[..pristine.len() - 7]);
    assert!(
        matches!(torn, CheckpointError::LengthMismatch { .. }),
        "{torn}"
    );

    // Foreign file: right extension, wrong content.
    let foreign = load(b"{\"not\": \"a checkpoint\"}");
    assert!(matches!(foreign, CheckpointError::BadMagic), "{foreign}");

    // Future container version.
    let text = String::from_utf8(pristine.clone()).unwrap();
    let future = load(text.replacen("KVECCKPT 1 ", "KVECCKPT 99 ", 1).as_bytes());
    assert!(
        matches!(
            future,
            CheckpointError::UnsupportedVersion { found: 99, .. }
        ),
        "{future}"
    );

    // Bit rot in the payload.
    let mut flipped = pristine.clone();
    let last = flipped.len() - 1;
    flipped[last] ^= 0x10;
    let rot = load(&flipped);
    assert!(
        matches!(rot, CheckpointError::ChecksumMismatch { .. }),
        "{rot}"
    );

    // Every mode reads differently — an operator can tell them apart.
    let messages = [
        empty.to_string(),
        torn.to_string(),
        foreign.to_string(),
        future.to_string(),
        rot.to_string(),
    ];
    for (i, a) in messages.iter().enumerate() {
        assert!(!a.is_empty());
        for b in &messages[i + 1..] {
            assert_ne!(a, b, "two corruption modes share an error message");
        }
    }
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn checkpoint_for_a_different_architecture_is_rejected() {
    let dir = tmp_dir("arch-mismatch");
    let (cfg, _pristine, path) = pristine_checkpoint(&dir);

    // Fewer parameters in the target model than in the checkpoint (and
    // vice versa): resume must fail with a parameter-level explanation,
    // not load a mangled model.
    for blocks in [2usize, 3] {
        let mut wrong = cfg.clone();
        wrong.n_blocks = blocks;
        let mut model = KvecModel::new(&wrong, &mut KvecRng::seed_from_u64(1));
        let err = resume_err(&wrong, &mut model, &path);
        let msg = err.to_string();
        assert!(
            matches!(err, CheckpointError::InvalidPayload(_)),
            "expected InvalidPayload, got {msg}"
        );
    }
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn missing_checkpoint_file_is_an_io_error() {
    let dir = tmp_dir("missing");
    let ds = dataset(5);
    let cfg = KvecConfig::tiny(&ds.schema, ds.num_classes);
    let mut model = KvecModel::new(&cfg, &mut KvecRng::seed_from_u64(1));
    let err = resume_err(&cfg, &mut model, &dir.join("never-written.ckpt"));
    assert!(matches!(err, CheckpointError::Io(_)), "{err}");
    std::fs::remove_dir_all(dir).ok();
}
