//! Model checkpointing: train, save weights, restore into a fresh process
//! (simulated here by a fresh model), and verify the restored model is the
//! same — including through the streaming inference engine.
//!
//! Run with: `cargo run --release --example checkpointing`

use kvec::train::Trainer;
use kvec::{evaluate, KvecConfig, KvecModel, StreamingEngine};
use kvec_data::synth::{generate_traffic, TrafficConfig};
use kvec_data::Dataset;
use kvec_tensor::KvecRng;

fn main() {
    let mut rng = KvecRng::seed_from_u64(19);
    let data_cfg = TrafficConfig::traffic_app(100).scaled_len(0.35);
    let pool = generate_traffic(&data_cfg, &mut rng);
    let ds = Dataset::from_pool(
        data_cfg.name,
        data_cfg.schema(),
        data_cfg.num_classes,
        pool,
        6,
        &mut rng,
    );

    let mut cfg = KvecConfig::for_schema(&ds.schema, ds.num_classes);
    cfg.d_model = 32;
    cfg.fusion_hidden = 32;
    cfg.d_ff = 64;
    let cfg = cfg.with_beta(0.1);

    // Train.
    let mut model = KvecModel::new(&cfg, &mut rng);
    let mut trainer = Trainer::new(&cfg, &model);
    for _ in 0..12 {
        trainer
            .train_epoch(&mut model, &ds.train, &mut rng)
            .expect("training failed");
    }
    let before = evaluate(&model, &ds.test);
    println!(
        "trained model : accuracy {:.3}, earliness {:.3}",
        before.accuracy, before.earliness
    );

    // Save.
    let path = std::env::temp_dir().join("kvec-example-checkpoint/weights.ckpt");
    model.save_weights(&path).expect("save checkpoint");
    let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    println!("checkpoint    : {} ({bytes} bytes)", path.display());

    // Restore into a model built from the same config (state-dict style).
    let mut restored = KvecModel::new(&cfg, &mut KvecRng::seed_from_u64(999));
    restored.load_weights(&path).expect("load checkpoint");
    let after = evaluate(&restored, &ds.test);
    println!(
        "restored model: accuracy {:.3}, earliness {:.3}",
        after.accuracy, after.earliness
    );
    assert_eq!(before.accuracy, after.accuracy, "restored model must match");
    assert_eq!(before.earliness, after.earliness);

    // The streaming engine sees identical decisions too.
    let orig = StreamingEngine::run(&model, &ds.test[0]);
    let rest = StreamingEngine::run(&restored, &ds.test[0]);
    assert_eq!(orig.len(), rest.len());
    for (a, b) in orig.iter().zip(&rest) {
        assert_eq!((a.key, a.pred, a.n_items), (b.key, b.pred, b.n_items));
    }
    println!("streaming decisions identical across the checkpoint round-trip");

    // --- crash and resume ---
    // Weights files capture the model only. A *trainer* checkpoint
    // captures the whole training trajectory (parameters, optimizer
    // moments, epoch/step counters, RNG state), so an interrupted run can
    // continue exactly where it stopped. Simulate a crash after 6 of 12
    // epochs and show the resumed run lands on the very same model.
    let ckpt = std::env::temp_dir().join("kvec-example-checkpoint/trainer.ckpt");
    let mut rng_a = KvecRng::seed_from_u64(23);
    let mut model_a = KvecModel::new(&cfg, &mut rng_a);
    let mut trainer_a = Trainer::new(&cfg, &model_a);
    for _ in 0..12 {
        trainer_a
            .train_epoch(&mut model_a, &ds.train, &mut rng_a)
            .expect("training failed");
    }

    let mut rng_b = KvecRng::seed_from_u64(23);
    let mut model_b = KvecModel::new(&cfg, &mut rng_b);
    let mut trainer_b = Trainer::new(&cfg, &model_b);
    for _ in 0..6 {
        trainer_b
            .train_epoch(&mut model_b, &ds.train, &mut rng_b)
            .expect("training failed");
    }
    trainer_b
        .save_checkpoint(&model_b, &rng_b, &ckpt)
        .expect("save trainer checkpoint");
    drop((trainer_b, model_b, rng_b)); // the "crash"

    let mut model_c = KvecModel::new(&cfg, &mut KvecRng::seed_from_u64(999));
    let (mut trainer_c, mut rng_c) =
        Trainer::resume(&cfg, &mut model_c, &ckpt).expect("resume trainer checkpoint");
    for _ in trainer_c.epochs_done()..12 {
        trainer_c
            .train_epoch(&mut model_c, &ds.train, &mut rng_c)
            .expect("training failed");
    }
    let resumed = evaluate(&model_c, &ds.test);
    println!(
        "resumed run   : accuracy {:.3}, earliness {:.3}",
        resumed.accuracy, resumed.earliness
    );
    for id in model_a.store.ids() {
        assert_eq!(
            model_a.store.value(id),
            model_c.store.value(id),
            "resumed run must be bit-identical to the uninterrupted one"
        );
    }
    println!("crash at epoch 6 + resume reproduces the 12-epoch run exactly");

    std::fs::remove_dir_all(ckpt.parent().unwrap()).ok();
}
