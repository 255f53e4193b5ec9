//! EARLIEST (Hartvigsen et al., SIGKDD 2019): LSTM feature extraction plus
//! a REINFORCE halting policy, applied to each key-value sequence
//! independently. The paper's strongest *time-series* early-classification
//! baseline — and, per its experiments, a poor fit for key-value data,
//! which this reproduction's Figs. 3-6 harness confirms.

use crate::rl::RlHalting;
use crate::seq::{evaluate_sequences, train_sequences, SeqSample};
use crate::{BaselineConfig, EarlyClassifier};
use kvec::eval::EvalReport;
use kvec_autograd::Var;
use kvec_data::TangledSequence;
use kvec_nn::{Embedding, LstmCell, ParamId, ParamStore, Session};
use kvec_tensor::{KvecRng, Tensor};

/// The EARLIEST baseline.
pub struct Earliest {
    cfg: BaselineConfig,
    store: ParamStore,
    field_tables: Vec<Embedding>,
    lstm: LstmCell,
    rl: RlHalting,
}

impl Earliest {
    /// Builds the model.
    pub fn new(cfg: &BaselineConfig, rng: &mut KvecRng) -> Self {
        let mut store = ParamStore::new();
        let field_tables: Vec<Embedding> = cfg
            .field_cardinalities
            .iter()
            .enumerate()
            .map(|(f, &card)| {
                Embedding::new(
                    &mut store,
                    &format!("earliest.field{f}"),
                    card,
                    cfg.d_model,
                    rng,
                )
            })
            .collect();
        let lstm = LstmCell::new(&mut store, "earliest.lstm", cfg.d_model, cfg.d_model, rng);
        let mut encoder_ids: Vec<ParamId> =
            field_tables.iter().flat_map(Embedding::param_ids).collect();
        encoder_ids.extend(lstm.param_ids());
        let rl = RlHalting::new(&mut store, "earliest", encoder_ids, cfg, rng);
        Self {
            cfg: cfg.clone(),
            store,
            field_tables,
            lstm,
            rl,
        }
    }

    fn embed_item<'s>(&self, sess: &'s Session, value: &[u32]) -> Var<'s> {
        let mut total: Option<Var<'s>> = None;
        for (f, table) in self.field_tables.iter().enumerate() {
            let e = table.forward(sess, &self.store, &[value[f] as usize]);
            total = Some(match total {
                Some(acc) => acc.add(e),
                None => e,
            });
        }
        total.expect("at least one field")
    }

    /// Per-step hidden states of one sequence (tape path).
    fn states<'s>(&self, sess: &'s Session, seq: &SeqSample) -> Vec<Var<'s>> {
        let mut state = self.lstm.zero_state(sess);
        let mut states = Vec::with_capacity(seq.len());
        for value in &seq.values {
            let x = self.embed_item(sess, value);
            state = self.lstm.step(sess, &self.store, x, state);
            states.push(state.h);
        }
        states
    }

    /// Per-step hidden states (tape-free evaluation path).
    fn states_tensor(&self, seq: &SeqSample) -> Vec<Tensor> {
        let mut h = Tensor::zeros(1, self.cfg.d_model);
        let mut c = Tensor::zeros(1, self.cfg.d_model);
        let mut out = Vec::with_capacity(seq.len());
        for value in &seq.values {
            let mut x = self.field_tables[0].lookup(&self.store, &[value[0] as usize]);
            for (f, table) in self.field_tables.iter().enumerate().skip(1) {
                x.add_assign(&table.lookup(&self.store, &[value[f] as usize]));
            }
            let (h2, c2) = self.lstm.step_tensors(&self.store, &x, &h, &c);
            h = h2;
            c = c2;
            out.push(h.clone());
        }
        out
    }

    fn train_sequence(&mut self, seq: &SeqSample, rng: &mut KvecRng) -> f32 {
        let sess = Session::new();
        let states = self.states(&sess, seq);
        self.rl
            .train_sequence(&sess, &mut self.store, &self.cfg, &states, seq.label, rng)
    }
}

impl EarlyClassifier for Earliest {
    fn name(&self) -> &'static str {
        "EARLIEST"
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
    use crate::seq::sequences_of;
    use kvec_data::synth::{generate_traffic, TrafficConfig};
    use kvec_data::Dataset;

    fn dataset(seed: u64) -> Dataset {
        let mut rng = KvecRng::seed_from_u64(seed);
        let dcfg = TrafficConfig {
            num_flows: 20,
            num_classes: 2,
            mean_len: 12,
            min_len: 10,
            max_len: 16,
            ..TrafficConfig::traffic_app(0)
        };
        let pool = generate_traffic(&dcfg, &mut rng);
        Dataset::from_pool("t", dcfg.schema(), 2, pool, 4, &mut rng)
    }

    #[test]
    fn trains_and_evaluates() {
        let ds = dataset(1);
        let cfg = BaselineConfig::tiny(&ds.schema, 2);
        let mut rng = KvecRng::seed_from_u64(2);
        let mut model = Earliest::new(&cfg, &mut rng);
        let loss1 = model.train_epoch(&ds.train, &mut rng);
        assert!(loss1.is_finite());
        let report = model.evaluate(&ds.test);
        let n_test: usize = ds.test.iter().map(TangledSequence::num_keys).sum();
        assert_eq!(report.outcomes.len(), n_test);
        assert!((0.0..=1.0).contains(&report.accuracy));
        assert!(report.earliness > 0.0 && report.earliness <= 1.0);
    }

    #[test]
    fn halt_position_is_the_scenario_position_of_the_last_observed_item() {
        let ds = dataset(7);
        let cfg = BaselineConfig::tiny(&ds.schema, 2);
        let mut rng = KvecRng::seed_from_u64(8);
        let mut model = Earliest::new(&cfg, &mut rng);
        model.train_epoch(&ds.train, &mut rng);
        let report = model.evaluate(&ds.test);
        let rows: Vec<Vec<usize>> = ds
            .test
            .iter()
            .flat_map(|t| t.key_subsequences().into_iter().map(|(_, rows)| rows))
            .collect();
        assert_eq!(report.outcomes.len(), rows.len());
        for (o, rows) in report.outcomes.iter().zip(&rows) {
            assert_eq!(o.halt_global_pos, rows[o.n_k - 1]);
        }
        // Tangled keys interleave, so a key's n_k-th item is rarely the
        // scenario's n_k-th.
        assert!(report
            .outcomes
            .iter()
            .any(|o| o.halt_global_pos != o.n_k - 1));
    }

    #[test]
    fn tape_free_states_match_tape_states() {
        let ds = dataset(3);
        let cfg = BaselineConfig::tiny(&ds.schema, 2);
        let mut rng = KvecRng::seed_from_u64(4);
        let model = Earliest::new(&cfg, &mut rng);
        let seq = &sequences_of(&ds.test)[0];

        let sess = Session::new();
        let tape: Vec<Tensor> = model
            .states(&sess, seq)
            .into_iter()
            .map(|v| v.value())
            .collect();
        let tensor = model.states_tensor(seq);
        for (a, b) in tape.iter().zip(&tensor) {
            assert!(a.allclose(b, 1e-5));
        }
    }

    #[test]
    fn lambda_controls_earliness() {
        let ds = dataset(5);
        let run = |lambda: f32| {
            let cfg = BaselineConfig::tiny(&ds.schema, 2).with_lambda(lambda);
            let mut rng = KvecRng::seed_from_u64(6);
            let mut model = Earliest::new(&cfg, &mut rng);
            for _ in 0..4 {
                model.train_epoch(&ds.train, &mut rng);
            }
            model.evaluate(&ds.test).earliness
        };
        let eager = run(2.0);
        let lazy = run(-0.05);
        assert!(eager <= lazy, "eager {eager} vs lazy {lazy}");
    }
}
