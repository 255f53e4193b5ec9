//! The assembled KVEC model.

use crate::classifier::Classifier;
use crate::ectl::Ectl;
use crate::kvrl::KvrlEncoder;
use crate::mask::visible_lists;
use crate::KvecConfig;
use kvec_autograd::Var;
use kvec_data::TangledSequence;
use kvec_nn::{ParamId, ParamStore, Session};
use kvec_tensor::{KvecRng, VisibleLists};
use std::rc::Rc;

/// KVRL + ECTL + classifier, sharing one [`ParamStore`].
///
/// `Clone` replicates the full model (parameters included).
#[derive(Clone)]
pub struct KvecModel {
    /// The model configuration.
    pub cfg: KvecConfig,
    /// Owner of every trainable tensor.
    pub store: ParamStore,
    /// The representation module.
    pub encoder: KvrlEncoder,
    /// The halting policy + value baseline.
    pub ectl: Ectl,
    /// The classification head.
    pub classifier: Classifier,
}

/// Everything the teacher-forced full forward produces for one tangled
/// sequence.
pub struct StreamForward<'s> {
    /// Refined item embeddings `E` (`T x d`).
    pub e: Var<'s>,
    /// The dynamic mask: every row's visible list.
    pub lists: Rc<VisibleLists>,
}

impl KvecModel {
    /// Builds a model with freshly initialized parameters.
    pub fn new(cfg: &KvecConfig, rng: &mut KvecRng) -> Self {
        cfg.validate();
        let mut store = ParamStore::new();
        let encoder = KvrlEncoder::new(&mut store, cfg, rng);
        let ectl = Ectl::new(&mut store, "ectl", cfg.d_model, cfg.baseline_hidden, rng);
        let classifier =
            Classifier::new(&mut store, "classifier", cfg.d_model, cfg.num_classes, rng);
        Self {
            cfg: cfg.clone(),
            store,
            encoder,
            ectl,
            classifier,
        }
    }

    /// Parameter ids of `theta` — everything Algorithm 1 updates at the
    /// model learning rate: KVRL, the classifier and the halting policy.
    pub fn model_param_ids(&self) -> Vec<ParamId> {
        let mut ids = self.encoder.param_ids();
        ids.extend(self.classifier.param_ids());
        ids.extend(self.ectl.policy_param_ids());
        ids
    }

    /// Parameter ids of `theta_b` — the value baseline, updated at its own
    /// learning rate.
    pub fn baseline_param_ids(&self) -> Vec<ParamId> {
        self.ectl.baseline_param_ids()
    }

    /// Total trainable scalar count.
    pub fn num_parameters(&self) -> usize {
        self.store.total_elements()
    }

    /// Writes the trained weights as a JSON checkpoint.
    pub fn save_weights(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        self.store.save(path)
    }

    /// Restores weights written by [`KvecModel::save_weights`] into a model
    /// built from the *same configuration* (names, order and shapes must
    /// match).
    pub fn load_weights(&mut self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        self.store.load(path)
    }

    /// Teacher-forced full forward over a tangled stream (the training
    /// forward): builds every row's visible list and runs the taped
    /// attention stack once for all arrived items. By causality of the
    /// mask, row `t` of `E` equals the representation item `t` had at its
    /// arrival time, so per-step fusion/halting can be simulated
    /// afterwards. Inference runs the tape-free
    /// [`KvrlEncoder::encode_rows`] instead; with dropout off, `E` has its
    /// bits.
    pub fn encode_stream<'s>(
        &self,
        sess: &'s Session,
        tangled: &TangledSequence,
        dropout_rng: Option<&mut KvecRng>,
    ) -> StreamForward<'s> {
        assert!(!tangled.is_empty(), "cannot encode an empty stream");
        let lists = Rc::new(visible_lists(
            tangled,
            self.cfg.session_field,
            self.cfg.use_key_correlation,
            self.cfg.use_value_correlation,
        ));
        let indices = self.encoder.input.indices_for(tangled);
        let e = self
            .encoder
            .encode(sess, &self.store, &indices, &lists, dropout_rng);
        StreamForward { e, lists }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kvec_data::{Item, Key, ValueSchema};

    fn schema() -> ValueSchema {
        ValueSchema::new(vec!["dir".into(), "size".into()], vec![2, 4], 0)
    }

    fn sample() -> TangledSequence {
        let items = vec![
            Item::new(Key(1), vec![0, 1], 0),
            Item::new(Key(2), vec![0, 2], 1),
            Item::new(Key(1), vec![1, 3], 2),
        ];
        TangledSequence::new(items, vec![(Key(1), 0), (Key(2), 1)])
    }

    #[test]
    fn construction_and_param_groups() {
        let cfg = KvecConfig::tiny(&schema(), 2);
        let mut rng = KvecRng::seed_from_u64(1);
        let model = KvecModel::new(&cfg, &mut rng);
        assert!(model.num_parameters() > 1000);

        let theta: std::collections::BTreeSet<_> = model.model_param_ids().into_iter().collect();
        let theta_b: std::collections::BTreeSet<_> =
            model.baseline_param_ids().into_iter().collect();
        assert!(theta.is_disjoint(&theta_b));
        // Together they cover the whole store.
        assert_eq!(theta.len() + theta_b.len(), model.store.len());
    }

    #[test]
    fn encode_stream_produces_consistent_shapes() {
        let cfg = KvecConfig::tiny(&schema(), 2);
        let mut rng = KvecRng::seed_from_u64(2);
        let model = KvecModel::new(&cfg, &mut rng);
        let sess = Session::new();
        let fwd = model.encode_stream(&sess, &sample(), None);
        assert_eq!(fwd.e.shape(), (3, cfg.d_model));
        assert_eq!(fwd.lists.len(), 3);
        // The inference forward covers the same rows, under the same
        // lists, and holds one weight per visible entry.
        let rows = model.encoder.encode_rows(&model.store, &cfg, &sample());
        assert_eq!(rows.e.shape(), fwd.e.shape());
        assert_eq!(rows.lists, *fwd.lists);
        assert_eq!(rows.weights.len(), fwd.lists.nnz());
    }

    #[test]
    fn checkpoint_round_trip_preserves_predictions() {
        let cfg = KvecConfig::tiny(&schema(), 2);
        let mut rng = KvecRng::seed_from_u64(7);
        let model = KvecModel::new(&cfg, &mut rng);
        let tangled = sample();
        let before = crate::eval::evaluate_scenario(&model, &tangled);

        let dir = std::env::temp_dir().join("kvec-model-ckpt");
        let path = dir.join("weights.json");
        model.save_weights(&path).unwrap();

        let mut restored = KvecModel::new(&cfg, &mut KvecRng::seed_from_u64(999));
        restored.load_weights(&path).unwrap();
        let after = crate::eval::evaluate_scenario(&restored, &tangled);
        std::fs::remove_dir_all(dir).ok();

        assert_eq!(before.len(), after.len());
        for (a, b) in before.iter().zip(&after) {
            assert_eq!(a.pred, b.pred);
            assert_eq!(a.n_k, b.n_k);
        }
    }

    #[test]
    fn same_seed_same_model() {
        let cfg = KvecConfig::tiny(&schema(), 2);
        let a = KvecModel::new(&cfg, &mut KvecRng::seed_from_u64(5));
        let b = KvecModel::new(&cfg, &mut KvecRng::seed_from_u64(5));
        for (ia, ib) in a.store.ids().into_iter().zip(b.store.ids()) {
            assert_eq!(a.store.value(ia), b.store.value(ib));
        }
    }
}
