//! Train-and-evaluate plumbing shared by the figure binaries.

use crate::datasets::fast_mode;
use kvec::eval::EvalReport;
use kvec::train::Trainer;
use kvec::{evaluate, KvecConfig, KvecModel};
use kvec_baselines::{
    BaselineConfig, Earliest, EarlyClassifier, SrnConfidence, SrnEarliest, SrnFixed,
};
use kvec_data::Dataset;
use kvec_tensor::KvecRng;

/// The five compared methods (paper Section V-A2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// The paper's contribution.
    Kvec,
    /// LSTM + RL halting.
    Earliest,
    /// Transformer + RL halting.
    SrnEarliest,
    /// Transformer + fixed halting step.
    SrnFixed,
    /// Transformer + confidence threshold.
    SrnConfidence,
}

impl Method {
    /// Display name matching the paper.
    pub fn name(&self) -> &'static str {
        match self {
            Method::Kvec => "KVEC",
            Method::Earliest => "EARLIEST",
            Method::SrnEarliest => "SRN-EARLIEST",
            Method::SrnFixed => "SRN-Fixed",
            Method::SrnConfidence => "SRN-Confidence",
        }
    }

    /// All methods in the paper's legend order.
    pub fn all() -> [Method; 5] {
        [
            Method::Kvec,
            Method::Earliest,
            Method::SrnEarliest,
            Method::SrnFixed,
            Method::SrnConfidence,
        ]
    }

    /// The earliness-knob grid swept for the performance-vs-earliness
    /// curves (Table II: beta for KVEC, lambda for the RL baselines, tau
    /// for SRN-Fixed, mu for SRN-Confidence).
    pub fn knob_grid(&self) -> Vec<f32> {
        match self {
            Method::Kvec | Method::Earliest | Method::SrnEarliest => {
                vec![2.0, 0.5, 0.1, 0.02, 0.0, -0.05]
            }
            Method::SrnFixed => vec![1.0, 2.0, 4.0, 6.0, 10.0, 16.0],
            Method::SrnConfidence => vec![0.5, 0.7, 0.8, 0.9, 0.97, 0.995],
        }
    }
}

/// Default training epochs (lower in fast mode).
pub fn default_epochs() -> usize {
    if fast_mode() {
        2
    } else {
        25
    }
}

/// Repro-scale KVEC configuration (width 32, 2 blocks) for a dataset.
pub fn kvec_config(ds: &Dataset) -> KvecConfig {
    let mut cfg = KvecConfig::for_schema(&ds.schema, ds.num_classes);
    cfg.d_model = 32;
    cfg.fusion_hidden = 32;
    cfg.d_ff = 64;
    cfg.n_blocks = 2;
    cfg.membership_buckets = 32;
    cfg.baseline_hidden = 16;
    cfg
}

/// Repro-scale baseline configuration matched to [`kvec_config`].
pub fn baseline_config(ds: &Dataset) -> BaselineConfig {
    let mut cfg = BaselineConfig::for_schema(&ds.schema, ds.num_classes);
    cfg.d_model = 32;
    cfg.d_ff = 64;
    cfg.n_blocks = 2;
    cfg.baseline_hidden = 16;
    cfg
}

/// Trains KVEC under `cfg` and returns the model plus its test report.
pub fn run_kvec_with(
    cfg: &KvecConfig,
    ds: &Dataset,
    epochs: usize,
    seed: u64,
) -> (KvecModel, EvalReport) {
    let mut rng = KvecRng::seed_from_u64(seed);
    let mut model = KvecModel::new(cfg, &mut rng);
    let mut trainer = Trainer::new(cfg, &model);
    for _ in 0..epochs {
        trainer
            .train_epoch(&mut model, &ds.train, &mut rng)
            .unwrap();
    }
    let report = evaluate(&model, &ds.test);
    (model, report)
}

/// Trains one method with one earliness-knob value, returning its test
/// report.
pub fn train_and_eval(
    method: Method,
    knob: f32,
    ds: &Dataset,
    epochs: usize,
    seed: u64,
) -> EvalReport {
    match method {
        Method::Kvec => {
            let cfg = kvec_config(ds).with_beta(knob);
            run_kvec_with(&cfg, ds, epochs, seed).1
        }
        Method::Earliest => {
            let cfg = baseline_config(ds).with_lambda(knob);
            let mut rng = KvecRng::seed_from_u64(seed);
            let mut m = Earliest::new(&cfg, &mut rng);
            for _ in 0..epochs {
                m.train_epoch(&ds.train, &mut rng);
            }
            m.evaluate(&ds.test)
        }
        Method::SrnEarliest => {
            let cfg = baseline_config(ds).with_lambda(knob);
            let mut rng = KvecRng::seed_from_u64(seed);
            let mut m = SrnEarliest::new(&cfg, &mut rng);
            for _ in 0..epochs {
                m.train_epoch(&ds.train, &mut rng);
            }
            m.evaluate(&ds.test)
        }
        Method::SrnFixed => {
            let cfg = baseline_config(ds).with_tau(knob.round().max(1.0) as usize);
            let mut rng = KvecRng::seed_from_u64(seed);
            let mut m = SrnFixed::new(&cfg, &mut rng);
            for _ in 0..epochs {
                m.train_epoch(&ds.train, &mut rng);
            }
            m.evaluate(&ds.test)
        }
        Method::SrnConfidence => {
            let cfg = baseline_config(ds).with_mu(knob);
            let mut rng = KvecRng::seed_from_u64(seed);
            let mut m = SrnConfidence::new(&cfg, &mut rng);
            for _ in 0..epochs {
                m.train_epoch(&ds.train, &mut rng);
            }
            m.evaluate(&ds.test)
        }
    }
}

/// One point of an earliness sweep, as cached on disk so Figures 3-6 and
/// Figure 7 (which share the same training runs) never retrain twice.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Method name.
    pub method: String,
    /// Earliness-knob value.
    pub knob: f32,
    /// Observed test earliness.
    pub earliness: f32,
    /// Test accuracy.
    pub accuracy: f32,
    /// Macro precision.
    pub precision: f32,
    /// Macro recall.
    pub recall: f32,
    /// Macro F1.
    pub f1: f32,
    /// Harmonic mean of accuracy and earliness.
    pub hm: f32,
}

impl kvec_json::ToJson for SweepPoint {
    fn to_json(&self) -> kvec_json::Json {
        kvec_json::Json::obj([
            ("method", self.method.to_json()),
            ("knob", self.knob.to_json()),
            ("earliness", self.earliness.to_json()),
            ("accuracy", self.accuracy.to_json()),
            ("precision", self.precision.to_json()),
            ("recall", self.recall.to_json()),
            ("f1", self.f1.to_json()),
            ("hm", self.hm.to_json()),
        ])
    }
}

impl kvec_json::FromJson for SweepPoint {
    fn from_json(j: &kvec_json::Json) -> Result<Self, kvec_json::JsonError> {
        Ok(Self {
            method: String::from_json(j.get("method")?)?,
            knob: f32::from_json(j.get("knob")?)?,
            earliness: f32::from_json(j.get("earliness")?)?,
            accuracy: f32::from_json(j.get("accuracy")?)?,
            precision: f32::from_json(j.get("precision")?)?,
            recall: f32::from_json(j.get("recall")?)?,
            f1: f32::from_json(j.get("f1")?)?,
            hm: f32::from_json(j.get("hm")?)?,
        })
    }
}

impl SweepPoint {
    fn from_report(method: &str, knob: f32, r: &EvalReport) -> Self {
        Self {
            method: method.to_string(),
            knob,
            earliness: r.earliness,
            accuracy: r.accuracy,
            precision: r.precision,
            recall: r.recall,
            f1: r.f1,
            hm: r.hm,
        }
    }
}

fn sweep_cache_path(dataset: &str, epochs: usize, seed: u64) -> std::path::PathBuf {
    std::path::PathBuf::from("results/sweep_cache").join(format!(
        "{dataset}_e{epochs}_s{seed}{}.json",
        if fast_mode() { "_fast" } else { "" }
    ))
}

/// Runs (or loads from cache) the full 5-method earliness sweep on one
/// dataset. The cache lives under `results/sweep_cache/` and is keyed by
/// dataset, epochs, seed and fast-mode.
pub fn sweep_dataset(name: &str, epochs: usize, seed: u64) -> Vec<SweepPoint> {
    let path = sweep_cache_path(name, epochs, seed);
    if let Ok(json) = std::fs::read_to_string(&path) {
        if let Ok(points) = kvec_json::decode::<Vec<SweepPoint>>(&json) {
            eprintln!("[sweep] loaded cached results from {}", path.display());
            return points;
        }
    }
    let ds = crate::datasets::by_name(name, seed);
    let mut points = Vec::new();
    for method in Method::all() {
        for knob in method.knob_grid() {
            let report = train_and_eval(method, knob, &ds, epochs, seed);
            eprintln!(
                "[sweep {name}] {} knob {knob}: earliness {:.3} acc {:.3}",
                method.name(),
                report.earliness,
                report.accuracy
            );
            points.push(SweepPoint::from_report(method.name(), knob, &report));
        }
    }
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).ok();
    }
    std::fs::write(&path, kvec_json::encode(&points)).ok();
    points
}

/// Prints the metric-table header used by the figure binaries.
pub fn print_header() {
    println!(
        "{:<16} {:>8} {:>10} {:>9} {:>10} {:>8} {:>8} {:>8}",
        "method", "knob", "earliness", "accuracy", "precision", "recall", "f1", "hm"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knob_grids_are_nonempty_and_method_names_unique() {
        let mut names = std::collections::BTreeSet::new();
        for m in Method::all() {
            assert!(!m.knob_grid().is_empty());
            assert!(names.insert(m.name()));
        }
    }

    #[test]
    fn smoke_train_and_eval_every_method() {
        std::env::set_var("KVEC_FAST", "1");
        let ds = crate::datasets::traffic_app(11);
        for m in Method::all() {
            let knob = m.knob_grid()[2];
            let r = train_and_eval(m, knob, &ds, 1, 42);
            assert!(!r.outcomes.is_empty(), "{} produced no outcomes", m.name());
            assert!((0.0..=1.0).contains(&r.accuracy));
        }
        std::env::remove_var("KVEC_FAST");
    }
}
