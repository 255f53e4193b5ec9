//! K-fold cross-validation — the paper's evaluation protocol
//! (Section V-A4: "We conduct five-fold cross-validation on each dataset
//! and report the average performance").

use crate::eval::{evaluate, EvalReport};
use crate::train::Trainer;
use crate::{KvecConfig, KvecModel};
use kvec_data::{mixer, split, LabeledSequence};
use kvec_tensor::KvecRng;

/// Mean and sample standard deviation of one metric across folds.
#[derive(Debug, Clone, Copy, Default)]
pub struct FoldedMetric {
    /// Mean over folds.
    pub mean: f32,
    /// Sample standard deviation over folds (0 for a single fold).
    pub std: f32,
}

impl FoldedMetric {
    fn from_samples(samples: &[f32]) -> Self {
        let n = samples.len() as f32;
        if samples.is_empty() {
            return Self::default();
        }
        let mean = samples.iter().sum::<f32>() / n;
        let var = if samples.len() < 2 {
            0.0
        } else {
            samples.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / (n - 1.0)
        };
        Self {
            mean,
            std: var.sqrt(),
        }
    }
}

/// Cross-validated results.
#[derive(Debug, Clone, Default)]
pub struct CrossValReport {
    /// Accuracy across folds.
    pub accuracy: FoldedMetric,
    /// Earliness across folds.
    pub earliness: FoldedMetric,
    /// Macro F1 across folds.
    pub f1: FoldedMetric,
    /// Harmonic mean across folds.
    pub hm: FoldedMetric,
    /// The raw per-fold reports.
    pub folds: Vec<EvalReport>,
}

/// Runs k-fold cross-validation of KVEC on a pool of labeled sequences:
/// for each fold, the held-out keys form the test set, the rest are
/// tangled into `k_concurrent`-way training scenarios, a fresh model is
/// trained for `epochs`, and the fold report is collected.
///
/// The folds share one RNG stream, so the split and every fold's
/// trajectory are reproducible from the seed.
pub fn cross_validate(
    cfg: &KvecConfig,
    pool: &[LabeledSequence],
    folds: usize,
    k_concurrent: usize,
    epochs: usize,
    rng: &mut KvecRng,
) -> CrossValReport {
    let fold_sets = split::k_folds(pool, folds, rng);
    let mut reports = Vec::with_capacity(folds);
    for (train_pool, test_pool) in fold_sets {
        let train = mixer::tangle_scenarios(&train_pool, k_concurrent, rng);
        let test = mixer::tangle_scenarios(&test_pool, k_concurrent, rng);
        let mut model = KvecModel::new(cfg, rng);
        let mut trainer = Trainer::new(cfg, &model);
        for _ in 0..epochs {
            trainer
                .train_epoch(&mut model, &train, rng)
                .expect("fold training failed");
        }
        reports.push(evaluate(&model, &test));
    }
    summarize(reports)
}

/// Aggregates per-fold reports into folded metrics.
pub fn summarize(folds: Vec<EvalReport>) -> CrossValReport {
    let pick = |f: &dyn Fn(&EvalReport) -> f32| -> FoldedMetric {
        FoldedMetric::from_samples(&folds.iter().map(f).collect::<Vec<_>>())
    };
    CrossValReport {
        accuracy: pick(&|r| r.accuracy),
        earliness: pick(&|r| r.earliness),
        f1: pick(&|r| r.f1),
        hm: pick(&|r| r.hm),
        folds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kvec_data::synth::{generate_traffic, TrafficConfig};

    #[test]
    fn folded_metric_statistics() {
        let m = FoldedMetric::from_samples(&[1.0, 2.0, 3.0]);
        assert!((m.mean - 2.0).abs() < 1e-6);
        assert!((m.std - 1.0).abs() < 1e-6);
        let single = FoldedMetric::from_samples(&[5.0]);
        assert_eq!(single.mean, 5.0);
        assert_eq!(single.std, 0.0);
        assert_eq!(FoldedMetric::from_samples(&[]).mean, 0.0);
    }

    #[test]
    fn cross_validation_runs_all_folds() {
        let mut rng = KvecRng::seed_from_u64(1);
        let dcfg = TrafficConfig {
            num_flows: 24,
            num_classes: 2,
            mean_len: 11,
            min_len: 10,
            max_len: 12,
            ..TrafficConfig::traffic_app(0)
        };
        let pool = generate_traffic(&dcfg, &mut rng);
        let cfg = KvecConfig::tiny(&dcfg.schema(), 2);
        let report = cross_validate(&cfg, &pool, 3, 4, 1, &mut rng);
        assert_eq!(report.folds.len(), 3);
        let total: usize = report.folds.iter().map(|f| f.outcomes.len()).sum();
        assert_eq!(total, 24, "every key tested exactly once across folds");
        assert!((0.0..=1.0).contains(&report.accuracy.mean));
        assert!(report.earliness.mean > 0.0);
    }

    #[test]
    fn summarize_matches_manual_average() {
        let a = EvalReport {
            accuracy: 0.8,
            hm: 0.6,
            ..Default::default()
        };
        let b = EvalReport {
            accuracy: 0.4,
            hm: 0.2,
            ..Default::default()
        };
        let cv = summarize(vec![a, b]);
        assert!((cv.accuracy.mean - 0.6).abs() < 1e-6);
        assert!((cv.hm.mean - 0.4).abs() < 1e-6);
        assert!(cv.accuracy.std > 0.0);
    }
}
