//! SRN-EARLIEST: the EARLIEST halting scheme on top of the per-sequence
//! transformer encoder — the paper's most competitive baseline.

use crate::rl::RlHalting;
use crate::seq::{evaluate_sequences, train_sequences, SeqSample};
use crate::srn::SrnEncoder;
use crate::{BaselineConfig, EarlyClassifier};
use kvec::eval::EvalReport;
use kvec_data::TangledSequence;
use kvec_nn::{ParamStore, Session};
use kvec_tensor::{KvecRng, Tensor};

/// The SRN-EARLIEST baseline.
pub struct SrnEarliest {
    cfg: BaselineConfig,
    store: ParamStore,
    encoder: SrnEncoder,
    rl: RlHalting,
}

impl SrnEarliest {
    /// Builds the model.
    pub fn new(cfg: &BaselineConfig, rng: &mut KvecRng) -> Self {
        let mut store = ParamStore::new();
        let encoder = SrnEncoder::new(&mut store, "srn_e", cfg, rng);
        let rl = RlHalting::new(&mut store, "srn_e", encoder.param_ids(), cfg, rng);
        Self {
            cfg: cfg.clone(),
            store,
            encoder,
            rl,
        }
    }

    fn train_sequence(&mut self, seq: &SeqSample, rng: &mut KvecRng) -> f32 {
        let sess = Session::new();
        let e = self
            .encoder
            .encode(&sess, &self.store, &seq.values, Some(rng));
        // State after observing i+1 items = causally refined row i.
        let states: Vec<_> = (0..seq.len()).map(|i| e.row(i)).collect();
        self.rl
            .train_sequence(&sess, &mut self.store, &self.cfg, &states, seq.label, rng)
    }

    fn states_tensor(&self, seq: &SeqSample) -> Vec<Tensor> {
        // One causal encode; row i is the state after i+1 items.
        let e = self.encoder.encode_tensor(&self.store, &seq.values);
        (0..seq.len()).map(|i| e.row_tensor(i)).collect()
    }
}

impl EarlyClassifier for SrnEarliest {
    fn name(&self) -> &'static str {
        "SRN-EARLIEST"
    }

    fn train_epoch(&mut self, scenarios: &[TangledSequence], rng: &mut KvecRng) -> f32 {
        let loss = train_sequences(scenarios, |seq| self.train_sequence(seq, rng));
        self.rl.end_epoch();
        loss
    }

    fn evaluate(&self, scenarios: &[TangledSequence]) -> EvalReport {
        evaluate_sequences(scenarios, self.cfg.num_classes, |seq| {
            let states = self.states_tensor(seq);
            self.rl
                .decide(&self.store, &states, self.cfg.halt_threshold)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kvec_data::synth::{generate_traffic, TrafficConfig};
    use kvec_data::Dataset;

    #[test]
    fn trains_and_evaluates() {
        let mut rng = KvecRng::seed_from_u64(1);
        let dcfg = TrafficConfig {
            num_flows: 16,
            num_classes: 2,
            mean_len: 12,
            min_len: 10,
            max_len: 14,
            ..TrafficConfig::traffic_app(0)
        };
        let pool = generate_traffic(&dcfg, &mut rng);
        let ds = Dataset::from_pool("t", dcfg.schema(), 2, pool, 4, &mut rng);
        let cfg = BaselineConfig::tiny(&ds.schema, 2);
        let mut model = SrnEarliest::new(&cfg, &mut rng);

        let loss = model.train_epoch(&ds.train, &mut rng);
        assert!(loss.is_finite());
        let report = model.evaluate(&ds.test);
        assert!(!report.outcomes.is_empty());
        for o in &report.outcomes {
            assert!(o.n_k >= 1 && o.n_k <= o.seq_len);
        }
    }

    #[test]
    fn learning_improves_on_easy_data() {
        // Note: the raw loss is a per-episode *sum*, so it grows as the
        // policy learns to wait longer; accuracy is the stable progress
        // signal.
        let mut rng = KvecRng::seed_from_u64(2);
        let dcfg = TrafficConfig {
            num_flows: 60,
            num_classes: 2,
            mean_len: 12,
            min_len: 10,
            max_len: 14,
            sig_noise: 0.0,
            shared_prefix: 0,
            ..TrafficConfig::traffic_app(0)
        };
        let pool = generate_traffic(&dcfg, &mut rng);
        let ds = Dataset::from_pool("t", dcfg.schema(), 2, pool, 4, &mut rng);
        let cfg = BaselineConfig::tiny(&ds.schema, 2).with_lambda(0.05);
        let mut model = SrnEarliest::new(&cfg, &mut rng);

        for _ in 0..12 {
            model.train_epoch(&ds.train, &mut rng);
        }
        let trained = model.evaluate(&ds.test).accuracy;
        assert!(
            trained >= 0.6,
            "trained accuracy {trained} too low on noiseless signatures"
        );
    }
}
