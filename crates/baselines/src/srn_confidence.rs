//! SRN-Confidence: halt once the classifier's maximum softmax probability
//! clears a threshold `mu` (inspired by Parrish et al., JMLR 2013).
//!
//! Training supervises the classifier at *every* prefix position so its
//! confidence is calibrated for any halting point; evaluation walks the
//! sequence until the confidence clears `mu`.

use crate::seq::{evaluate_sequences, guarded_step, train_sequences, SeqSample};
use crate::srn::SrnEncoder;
use crate::{BaselineConfig, EarlyClassifier};
use kvec::eval::EvalReport;
use kvec_autograd::Var;
use kvec_data::TangledSequence;
use kvec_nn::loss::cross_entropy_logits;
use kvec_nn::{Adam, Linear, ParamId, ParamStore, Session};
use kvec_tensor::KvecRng;

/// The SRN-Confidence baseline.
pub struct SrnConfidence {
    cfg: BaselineConfig,
    store: ParamStore,
    encoder: SrnEncoder,
    classifier: Linear,
    opt: Adam,
    ids: Vec<ParamId>,
}

impl SrnConfidence {
    /// Builds the model; the halting threshold is `cfg.mu`.
    pub fn new(cfg: &BaselineConfig, rng: &mut KvecRng) -> Self {
        let mut store = ParamStore::new();
        let encoder = SrnEncoder::new(&mut store, "srn_c", cfg, rng);
        let classifier = Linear::new(
            &mut store,
            "srn_c.classifier",
            cfg.d_model,
            cfg.num_classes,
            rng,
        );
        let mut ids = encoder.param_ids();
        ids.extend(classifier.param_ids());
        let opt = Adam::new(&store, ids.clone(), cfg.lr);
        Self {
            cfg: cfg.clone(),
            store,
            encoder,
            classifier,
            opt,
            ids,
        }
    }

    fn train_sequence(&mut self, seq: &SeqSample, rng: &mut KvecRng) -> f32 {
        let sess = Session::new();
        let e = self
            .encoder
            .encode(&sess, &self.store, &seq.values, Some(rng));
        // Supervise every prefix, averaged, so confidence is meaningful at
        // any halting point.
        let mut loss_acc: Option<Var<'_>> = None;
        for i in 0..seq.len() {
            let logits = self.classifier.forward(&sess, &self.store, e.row(i));
            let ce = cross_entropy_logits(logits, seq.label);
            loss_acc = Some(match loss_acc {
                Some(a) => a.add(ce),
                None => ce,
            });
        }
        let loss_var = loss_acc.expect("non-empty").scale(1.0 / seq.len() as f32);
        let loss = loss_var.value().item();
        sess.backward(loss_var);
        sess.accumulate_grads(&mut self.store);
        let mut groups = [(&self.ids[..], &mut self.opt)];
        guarded_step(&mut self.store, &mut groups, self.cfg.grad_clip);
        loss
    }
}

impl EarlyClassifier for SrnConfidence {
    fn name(&self) -> &'static str {
        "SRN-Confidence"
    }

    fn train_epoch(&mut self, scenarios: &[TangledSequence], rng: &mut KvecRng) -> f32 {
        train_sequences(scenarios, |seq| self.train_sequence(seq, rng))
    }

    fn evaluate(&self, scenarios: &[TangledSequence]) -> EvalReport {
        evaluate_sequences(scenarios, self.cfg.num_classes, |seq| {
            // One causal encode; confidence checked at every prefix row.
            let e = self.encoder.encode_tensor(&self.store, &seq.values);
            (0..seq.len())
                .find_map(|i| {
                    let logits = self.classifier.apply(&self.store, &e.row_tensor(i));
                    let probs = logits.softmax_rows();
                    let best = probs.argmax_row(0);
                    let last = i + 1 == seq.len();
                    (probs[(0, best)] > self.cfg.mu || last).then_some((i + 1, best))
                })
                .expect("sequences are non-empty")
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kvec_data::synth::{generate_traffic, TrafficConfig};
    use kvec_data::Dataset;

    fn dataset(seed: u64) -> Dataset {
        let mut rng = KvecRng::seed_from_u64(seed);
        let dcfg = TrafficConfig {
            num_flows: 24,
            num_classes: 2,
            mean_len: 12,
            min_len: 10,
            max_len: 16,
            sig_noise: 0.0,
            ..TrafficConfig::traffic_app(0)
        };
        let pool = generate_traffic(&dcfg, &mut rng);
        Dataset::from_pool("t", dcfg.schema(), 2, pool, 4, &mut rng)
    }

    #[test]
    fn evaluates_within_bounds() {
        let ds = dataset(1);
        let cfg = BaselineConfig::tiny(&ds.schema, 2).with_mu(0.9);
        let mut rng = KvecRng::seed_from_u64(2);
        let model = SrnConfidence::new(&cfg, &mut rng);
        let report = model.evaluate(&ds.test);
        for o in &report.outcomes {
            assert!(o.n_k >= 1 && o.n_k <= o.seq_len);
        }
    }

    #[test]
    fn lower_mu_halts_earlier_after_training() {
        let ds = dataset(3);
        let mut rng = KvecRng::seed_from_u64(4);
        let cfg = BaselineConfig::tiny(&ds.schema, 2);
        let mut model = SrnConfidence::new(&cfg, &mut rng);
        for _ in 0..8 {
            model.train_epoch(&ds.train, &mut rng);
        }
        let mut low = model;
        low.cfg.mu = 0.6;
        let e_low = low.evaluate(&ds.test).earliness;
        low.cfg.mu = 0.999;
        let e_high = low.evaluate(&ds.test).earliness;
        assert!(
            e_low <= e_high,
            "mu=0.6 earliness {e_low} vs mu=0.999 {e_high}"
        );
    }

    #[test]
    fn training_loss_decreases() {
        let ds = dataset(5);
        let cfg = BaselineConfig::tiny(&ds.schema, 2);
        let mut rng = KvecRng::seed_from_u64(6);
        let mut model = SrnConfidence::new(&cfg, &mut rng);
        let first = model.train_epoch(&ds.train, &mut rng);
        let mut last = first;
        for _ in 0..5 {
            last = model.train_epoch(&ds.train, &mut rng);
        }
        assert!(last < first, "first {first} last {last}");
    }
}
