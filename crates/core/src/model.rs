//! The assembled KVEC model.

use crate::classifier::Classifier;
use crate::ectl::Ectl;
use crate::kvrl::KvrlEncoder;
use crate::mask::visible_lists;
use crate::KvecConfig;
use kvec_autograd::Var;
use kvec_data::TangledSequence;
use kvec_nn::checkpoint::{read_verified, write_atomic, CheckpointError};
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

    /// Writes the trained weights — every parameter's name and values, no
    /// optimizer state — as an atomic, checksummed `KVECCKPT` file (see
    /// `kvec_nn::checkpoint`).
    pub fn save_weights(&self, path: impl AsRef<std::path::Path>) -> Result<(), CheckpointError> {
        write_atomic(path, self.store.values_to_json().dump().as_bytes())
    }

    /// Restores weights written by [`KvecModel::save_weights`] into a model
    /// built from the *same configuration*. A corrupt file, a trainer
    /// checkpoint, a parameter count, name or shape that differs, and a
    /// non-finite value are all refused
    /// ([`ParamStore::load_values_json`]).
    pub fn load_weights(
        &mut self,
        path: impl AsRef<std::path::Path>,
    ) -> Result<(), CheckpointError> {
        let json = crate::checkpoint::parse_payload(&read_verified(path)?)?;
        self.store
            .load_values_json(&json)
            .map_err(CheckpointError::InvalidPayload)
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
        let path = dir.join("weights.ckpt");
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
    fn load_weights_refuses_mismatched_poisoned_and_trainer_files() {
        use kvec_json::{Json, ToJson};
        use kvec_tensor::Tensor;
        let cfg = KvecConfig::tiny(&schema(), 2);
        let mut rng = KvecRng::seed_from_u64(3);
        let model = KvecModel::new(&cfg, &mut rng);
        let dir = std::env::temp_dir().join("kvec-model-weights-refused");

        // Weights payloads that differ from the model's in one way each.
        let pairs = model.store.values_to_json().as_arr().unwrap().to_vec();
        let id = model.store.ids()[0];
        let (name, value) = (model.store.name(id), model.store.value(id));
        let with_first = |tensor: Json, name: &str| {
            let mut p = pairs.clone();
            p[0] = Json::arr([name.to_json(), tensor]);
            Json::arr(p)
        };
        let mut nan = value.clone();
        nan.data_mut()[0] = f32::NAN;
        // An f64 beyond f32 range decodes to inf; a NaN encodes as `null`.
        let (r, c) = value.shape();
        let inf = format!(
            r#"{{"data":[1e300{}],"rows":{r},"cols":{c}}}"#,
            ",0".repeat(r * c - 1)
        );
        let cases = [
            ("count", Json::arr(pairs[1..].to_vec())),
            ("name", with_first(value.to_json(), "renamed")),
            ("shape", with_first(Tensor::zeros(1, 1).to_json(), name)),
            ("nan", with_first(nan.to_json(), name)),
            ("inf", with_first(Json::parse(&inf).unwrap(), name)),
        ];
        let mut fresh = model.clone();
        for (case, payload) in &cases {
            let path = dir.join(format!("{case}.ckpt"));
            write_atomic(&path, payload.dump().as_bytes()).unwrap();
            let err = fresh.load_weights(&path).unwrap_err();
            assert!(
                matches!(err, CheckpointError::InvalidPayload(_)),
                "{case}: {err}"
            );
            if *case == "inf" {
                assert!(err.to_string().contains("non-finite"), "{err}");
            }
            assert!(!fresh.store.has_non_finite(), "{case} reached the store");
        }

        let trainer_path = dir.join("trainer.ckpt");
        crate::train::Trainer::new(&cfg, &model)
            .save_checkpoint(&model, &rng, &trainer_path)
            .unwrap();
        let err = fresh.load_weights(&trainer_path).unwrap_err();
        assert!(matches!(err, CheckpointError::InvalidPayload(_)), "{err}");
        std::fs::remove_dir_all(dir).ok();
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
