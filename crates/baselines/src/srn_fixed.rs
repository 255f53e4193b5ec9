//! SRN-Fixed: halt every sequence after a fixed number of items `tau`
//! (inspired by Ma et al., CVPR 2016). The simplest halting policy; its
//! earliness knob is `tau` itself.

use crate::seq::{evaluate_sequences, guarded_step, train_sequences, SeqSample};
use crate::srn::SrnEncoder;
use crate::{BaselineConfig, EarlyClassifier};
use kvec::eval::EvalReport;
use kvec_data::TangledSequence;
use kvec_nn::loss::cross_entropy_logits;
use kvec_nn::{Adam, Linear, ParamId, ParamStore, Session};
use kvec_tensor::KvecRng;

/// The SRN-Fixed baseline.
pub struct SrnFixed {
    cfg: BaselineConfig,
    store: ParamStore,
    encoder: SrnEncoder,
    classifier: Linear,
    opt: Adam,
    ids: Vec<ParamId>,
}

impl SrnFixed {
    /// Builds the model; the halting step is `cfg.tau`.
    pub fn new(cfg: &BaselineConfig, rng: &mut KvecRng) -> Self {
        let mut store = ParamStore::new();
        let encoder = SrnEncoder::new(&mut store, "srn_f", cfg, rng);
        let classifier = Linear::new(
            &mut store,
            "srn_f.classifier",
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

    fn halt_step(&self, seq_len: usize) -> usize {
        self.cfg.tau.min(seq_len)
    }

    fn train_sequence(&mut self, seq: &SeqSample, rng: &mut KvecRng) -> f32 {
        let n = self.halt_step(seq.len());
        let sess = Session::new();
        // Encode only the prefix the classifier will ever see.
        let e = self
            .encoder
            .encode(&sess, &self.store, &seq.values[..n], Some(rng));
        let logits = self.classifier.forward(&sess, &self.store, e.row(n - 1));
        let loss_var = cross_entropy_logits(logits, seq.label);
        let loss = loss_var.value().item();
        sess.backward(loss_var);
        sess.accumulate_grads(&mut self.store);
        let mut groups = [(&self.ids[..], &mut self.opt)];
        guarded_step(&mut self.store, &mut groups, self.cfg.grad_clip);
        loss
    }
}

impl EarlyClassifier for SrnFixed {
    fn name(&self) -> &'static str {
        "SRN-Fixed"
    }

    fn train_epoch(&mut self, scenarios: &[TangledSequence], rng: &mut KvecRng) -> f32 {
        train_sequences(scenarios, |seq| self.train_sequence(seq, rng))
    }

    fn evaluate(&self, scenarios: &[TangledSequence]) -> EvalReport {
        evaluate_sequences(scenarios, self.cfg.num_classes, |seq| {
            let n = self.halt_step(seq.len());
            let e = self.encoder.encode_tensor(&self.store, &seq.values[..n]);
            let logits = self.classifier.apply(&self.store, &e.row_tensor(n - 1));
            (n, logits.argmax_row(0))
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
    fn halts_exactly_at_tau() {
        let ds = dataset(1);
        let cfg = BaselineConfig::tiny(&ds.schema, 2).with_tau(3);
        let mut rng = KvecRng::seed_from_u64(2);
        let model = SrnFixed::new(&cfg, &mut rng);
        let report = model.evaluate(&ds.test);
        for o in &report.outcomes {
            assert_eq!(o.n_k, 3.min(o.seq_len));
        }
    }

    #[test]
    fn learns_the_signature_with_small_tau() {
        // The class signature sits in the first 6 items; tau = 6 suffices.
        let ds = dataset(3);
        let cfg = BaselineConfig::tiny(&ds.schema, 2).with_tau(6);
        let mut rng = KvecRng::seed_from_u64(4);
        let mut model = SrnFixed::new(&cfg, &mut rng);
        for _ in 0..12 {
            model.train_epoch(&ds.train, &mut rng);
        }
        let report = model.evaluate(&ds.test);
        assert!(
            report.accuracy > 0.7,
            "accuracy {} too low on noiseless signatures",
            report.accuracy
        );
    }

    #[test]
    fn larger_tau_means_later() {
        let ds = dataset(5);
        let mut rng = KvecRng::seed_from_u64(6);
        let early = SrnFixed::new(&BaselineConfig::tiny(&ds.schema, 2).with_tau(2), &mut rng)
            .evaluate(&ds.test)
            .earliness;
        let late = SrnFixed::new(&BaselineConfig::tiny(&ds.schema, 2).with_tau(10), &mut rng)
            .evaluate(&ds.test)
            .earliness;
        assert!(early < late);
    }
}
