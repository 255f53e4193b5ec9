//! Integration tests of the extension surface: cross-validation,
//! checkpointing, multi-head + layer-norm variants, and clustered
//! tangling — the features beyond the paper's minimal scope.

use kvec::cv::cross_validate;
use kvec::train::Trainer;
use kvec::{evaluate, KvecConfig, KvecModel, StreamingEngine};
use kvec_data::synth::{generate_traffic, TrafficConfig};
use kvec_data::{mixer, Dataset};
use kvec_tensor::KvecRng;

fn data_cfg(num_flows: usize) -> TrafficConfig {
    TrafficConfig {
        num_flows,
        num_classes: 3,
        mean_len: 12,
        min_len: 10,
        max_len: 16,
        shared_prefix: 0,
        ..TrafficConfig::traffic_fg(0)
    }
}

#[test]
fn cross_validation_covers_every_key_once() {
    let mut rng = KvecRng::seed_from_u64(1);
    let dcfg = data_cfg(30);
    let pool = generate_traffic(&dcfg, &mut rng);
    let cfg = KvecConfig::tiny(&dcfg.schema(), 3);
    let report = cross_validate(&cfg, &pool, 5, 4, 1, &mut rng);
    assert_eq!(report.folds.len(), 5);
    let tested: usize = report.folds.iter().map(|f| f.outcomes.len()).sum();
    assert_eq!(tested, 30);
    assert!(report.accuracy.std >= 0.0);
    assert!((0.0..=1.0).contains(&report.hm.mean));
}

#[test]
fn multihead_layernorm_variant_trains_and_checkpoints() {
    let mut rng = KvecRng::seed_from_u64(4);
    let dcfg = data_cfg(24);
    let pool = generate_traffic(&dcfg, &mut rng);
    let ds = Dataset::from_pool("mh", dcfg.schema(), 3, pool, 4, &mut rng);
    let mut cfg = KvecConfig::tiny(&ds.schema, 3);
    cfg.n_heads = 4;
    cfg.use_layer_norm = true;
    let mut model = KvecModel::new(&cfg, &mut rng);
    let mut trainer = Trainer::new(&cfg, &model);
    for _ in 0..3 {
        trainer
            .train_epoch(&mut model, &ds.train, &mut rng)
            .unwrap();
    }
    assert!(!model.store.has_non_finite());
    let before = evaluate(&model, &ds.test);

    // Checkpoint round trip preserves behavior, including streaming.
    let dir = std::env::temp_dir().join("kvec-extended-ckpt");
    let path = dir.join("w.ckpt");
    model.save_weights(&path).unwrap();
    let mut restored = KvecModel::new(&cfg, &mut KvecRng::seed_from_u64(777));
    restored.load_weights(&path).unwrap();
    std::fs::remove_dir_all(dir).ok();
    let after = evaluate(&restored, &ds.test);
    assert_eq!(before.accuracy, after.accuracy);
    assert_eq!(before.earliness, after.earliness);

    let a = StreamingEngine::run(&model, &ds.test[0]);
    let b = StreamingEngine::run(&restored, &ds.test[0]);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!((x.key, x.pred, x.n_items), (y.key, y.pred, y.n_items));
    }
}

#[test]
fn clustered_tangling_trains_end_to_end() {
    let mut rng = KvecRng::seed_from_u64(5);
    let dcfg = data_cfg(36);
    let pool = generate_traffic(&dcfg, &mut rng);
    let ds = Dataset::from_pool_clustered("cl", dcfg.schema(), 3, pool, 6, 2, &mut rng);
    // Every scenario spans at most 2 classes.
    for sc in ds.train.iter().chain(&ds.val).chain(&ds.test) {
        let classes: std::collections::BTreeSet<usize> =
            sc.labels.iter().map(|&(_, l)| l).collect();
        assert!(classes.len() <= 2);
    }
    let cfg = KvecConfig::tiny(&ds.schema, 3);
    let mut model = KvecModel::new(&cfg, &mut rng);
    let mut trainer = Trainer::new(&cfg, &model);
    let stats = trainer
        .train_epoch(&mut model, &ds.train, &mut rng)
        .unwrap();
    assert!(stats.num_keys > 0);
    assert!(!model.store.has_non_finite());
}

#[test]
fn clustered_and_plain_tangling_share_the_key_universe() {
    let mut rng = KvecRng::seed_from_u64(6);
    let dcfg = data_cfg(30);
    let pool = generate_traffic(&dcfg, &mut rng);
    let mut rng_a = KvecRng::seed_from_u64(7);
    let plain = mixer::tangle_scenarios(&pool, 5, &mut rng_a);
    let mut rng_b = KvecRng::seed_from_u64(7);
    let clustered = mixer::tangle_scenarios_clustered(&pool, 5, 2, &mut rng_b);
    let keys = |scs: &[kvec_data::TangledSequence]| {
        scs.iter()
            .flat_map(|t| t.labels.iter().map(|&(k, _)| k.0))
            .collect::<std::collections::BTreeSet<_>>()
    };
    assert_eq!(keys(&plain), keys(&clustered));
}
