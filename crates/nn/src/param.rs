//! Ownership of trainable tensors and their accumulated gradients.

use kvec_tensor::Tensor;

/// Identifier of a parameter inside a [`ParamStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ParamId(pub(crate) usize);

impl ParamId {
    /// The raw index of this parameter in its store.
    pub fn index(&self) -> usize {
        self.0
    }
}

#[derive(Clone)]
struct ParamEntry {
    name: String,
    value: Tensor,
    grad: Tensor,
}

/// Owns every trainable tensor of a model, together with a same-shaped
/// gradient accumulator per parameter.
///
/// The training loop is:
/// 1. build a [`crate::Session`], run the forward pass binding parameters;
/// 2. `session.backward(loss)`;
/// 3. `session.accumulate_grads(&mut store)`;
/// 4. `optimizer.step(&mut store)` followed by `store.zero_grads()`.
#[derive(Default, Clone)]
pub struct ParamStore {
    entries: Vec<ParamEntry>,
}

impl ParamStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a parameter and returns its id. Names are for debugging and
    /// model inspection; they need not be unique, but prefixed module paths
    /// (`"kvrl.block0.wq"`) are recommended.
    pub fn add(&mut self, name: impl Into<String>, value: Tensor) -> ParamId {
        let (r, c) = value.shape();
        self.entries.push(ParamEntry {
            name: name.into(),
            value,
            grad: Tensor::zeros(r, c),
        });
        ParamId(self.entries.len() - 1)
    }

    /// Number of registered parameters (tensors, not scalars).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no parameter is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total number of trainable scalar elements.
    pub fn total_elements(&self) -> usize {
        self.entries.iter().map(|e| e.value.len()).sum()
    }

    /// All parameter ids, in registration order.
    pub fn ids(&self) -> Vec<ParamId> {
        (0..self.entries.len()).map(ParamId).collect()
    }

    /// The debug name of a parameter.
    pub fn name(&self, id: ParamId) -> &str {
        &self.entries[id.0].name
    }

    /// Immutable view of a parameter value.
    pub fn value(&self, id: ParamId) -> &Tensor {
        &self.entries[id.0].value
    }

    /// Mutable view of a parameter value (used by optimizers).
    pub fn value_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.entries[id.0].value
    }

    /// Immutable view of a parameter's accumulated gradient.
    pub fn grad(&self, id: ParamId) -> &Tensor {
        &self.entries[id.0].grad
    }

    /// Adds `contrib` into the parameter's gradient accumulator.
    pub fn accumulate_grad(&mut self, id: ParamId, contrib: &Tensor) {
        self.entries[id.0].grad.add_assign(contrib);
    }

    /// Multiplies a parameter's gradient accumulator by `s` in place.
    pub fn scale_grad(&mut self, id: ParamId, s: f32) {
        self.entries[id.0].grad.scale_assign(s);
    }

    /// Clears every gradient accumulator.
    pub fn zero_grads(&mut self) {
        for e in &mut self.entries {
            for v in e.grad.data_mut() {
                *v = 0.0;
            }
        }
    }

    /// Global L2 norm over the gradients of the given parameters.
    pub fn grad_norm(&self, ids: &[ParamId]) -> f32 {
        ids.iter()
            .map(|id| {
                let g = self.grad(*id);
                g.data().iter().map(|v| v * v).sum::<f32>()
            })
            .sum::<f32>()
            .sqrt()
    }

    /// True if any parameter value or gradient contains NaN/inf — a cheap
    /// guard the training loops assert on.
    pub fn has_non_finite(&self) -> bool {
        self.entries
            .iter()
            .any(|e| e.value.has_non_finite() || e.grad.has_non_finite())
    }

    /// True if any accumulated gradient contains NaN/inf — the divergence
    /// watchdog's pre-step check (values are covered by the post-step
    /// check, so the two failure modes are reported distinctly).
    pub fn has_non_finite_grad(&self) -> bool {
        self.entries.iter().any(|e| e.grad.has_non_finite())
    }

    /// Serializes every parameter (name + tensor) as a JSON value — an
    /// array of `[name, tensor]` pairs, the same layout the earlier
    /// serde-based format produced. Used both by the legacy weights file
    /// ([`ParamStore::save`]) and embedded inside the trainer's versioned
    /// checkpoint payload.
    pub fn values_to_json(&self) -> kvec_json::Json {
        use kvec_json::ToJson;
        let dump: Vec<(&str, &Tensor)> = self
            .entries
            .iter()
            .map(|e| (e.name.as_str(), &e.value))
            .collect();
        dump.to_json()
    }

    /// Restores parameter values from a JSON value produced by
    /// [`ParamStore::values_to_json`] into an already-constructed store
    /// (the state-dict pattern: build the model from the same config first,
    /// then load). Fails — leaving already-written entries in place but
    /// never silently accepting bad data — if names, order, shapes or
    /// count differ, or if any restored tensor carries NaN/inf (a poisoned
    /// checkpoint must not reach the next forward pass).
    pub fn load_values_json(&mut self, j: &kvec_json::Json) -> Result<(), String> {
        use kvec_json::FromJson;
        let dump = Vec::<(String, Tensor)>::from_json(j).map_err(|e| e.to_string())?;
        if dump.len() != self.entries.len() {
            return Err(format!(
                "checkpoint has {} parameters, model has {}",
                dump.len(),
                self.entries.len()
            ));
        }
        for (entry, (name, value)) in self.entries.iter_mut().zip(dump) {
            if entry.name != name {
                return Err(format!(
                    "parameter name mismatch: model `{}` vs checkpoint `{name}`",
                    entry.name
                ));
            }
            if entry.value.shape() != value.shape() {
                return Err(format!(
                    "shape mismatch for `{name}`: model {:?} vs checkpoint {:?}",
                    entry.value.shape(),
                    value.shape()
                ));
            }
            if value.has_non_finite() {
                return Err(format!(
                    "parameter `{name}` contains non-finite values; refusing to load \
                     a poisoned checkpoint"
                ));
            }
            entry.value = value;
        }
        Ok(())
    }

    /// Writes a checkpoint of every parameter (name + tensor) as JSON.
    /// This is the legacy raw-JSON weights format; the fault-tolerant
    /// trainer checkpoint (versioned, checksummed, atomic) lives in
    /// `kvec`'s `Trainer::save_checkpoint`.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        let json = self.values_to_json().dump();
        if let Some(parent) = path.as_ref().parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, json)
    }

    /// Restores a checkpoint written by [`ParamStore::save`]. Same
    /// validation as [`ParamStore::load_values_json`], including the
    /// non-finite rejection.
    pub fn load(&mut self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        let json = std::fs::read_to_string(path)?;
        let value = kvec_json::Json::parse(&json).map_err(std::io::Error::other)?;
        self.load_values_json(&value).map_err(std::io::Error::other)
    }

    /// Clones every parameter value in id order — the in-memory snapshot
    /// the divergence watchdog rolls back to.
    pub fn snapshot_values(&self) -> Vec<Tensor> {
        self.entries.iter().map(|e| e.value.clone()).collect()
    }

    /// Restores values captured by [`ParamStore::snapshot_values`].
    /// Panics on count/shape mismatch — snapshots never leave the process,
    /// so a mismatch is a caller bug, not corrupt input.
    pub fn restore_values(&mut self, values: &[Tensor]) {
        assert_eq!(
            values.len(),
            self.entries.len(),
            "snapshot/store length mismatch"
        );
        for (entry, v) in self.entries.iter_mut().zip(values) {
            assert_eq!(entry.value.shape(), v.shape(), "snapshot shape mismatch");
            entry.value = v.clone();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_lookup() {
        let mut ps = ParamStore::new();
        let id = ps.add("w", Tensor::ones(2, 3));
        assert_eq!(ps.len(), 1);
        assert_eq!(ps.total_elements(), 6);
        assert_eq!(ps.name(id), "w");
        assert_eq!(ps.value(id).shape(), (2, 3));
        assert_eq!(ps.grad(id).shape(), (2, 3));
        assert_eq!(ps.grad(id).sum(), 0.0);
    }

    #[test]
    fn grad_accumulation_and_reset() {
        let mut ps = ParamStore::new();
        let id = ps.add("w", Tensor::zeros(1, 2));
        ps.accumulate_grad(id, &Tensor::row_vector(&[1.0, 2.0]));
        ps.accumulate_grad(id, &Tensor::row_vector(&[1.0, 2.0]));
        assert_eq!(ps.grad(id).data(), &[2.0, 4.0]);
        ps.zero_grads();
        assert_eq!(ps.grad(id).data(), &[0.0, 0.0]);
    }

    #[test]
    fn grad_norm_over_groups() {
        let mut ps = ParamStore::new();
        let a = ps.add("a", Tensor::zeros(1, 1));
        let b = ps.add("b", Tensor::zeros(1, 1));
        ps.accumulate_grad(a, &Tensor::scalar(3.0));
        ps.accumulate_grad(b, &Tensor::scalar(4.0));
        assert!((ps.grad_norm(&[a, b]) - 5.0).abs() < 1e-6);
        assert!((ps.grad_norm(&[a]) - 3.0).abs() < 1e-6);
    }

    #[test]
    fn checkpoint_save_load_round_trips() {
        let mut ps = ParamStore::new();
        let a = ps.add("layer.w", Tensor::from_rows(&[vec![1.5, -2.0]]).unwrap());
        let b = ps.add("layer.b", Tensor::scalar(0.25));

        let dir = std::env::temp_dir().join("kvec-nn-ckpt-test");
        let path = dir.join("model.json");
        ps.save(&path).unwrap();

        let mut fresh = ParamStore::new();
        fresh.add("layer.w", Tensor::zeros(1, 2));
        fresh.add("layer.b", Tensor::zeros(1, 1));
        fresh.load(&path).unwrap();
        assert_eq!(fresh.value(a), ps.value(a));
        assert_eq!(fresh.value(b), ps.value(b));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn checkpoint_load_rejects_mismatches() {
        let mut ps = ParamStore::new();
        ps.add("w", Tensor::zeros(2, 2));
        let dir = std::env::temp_dir().join("kvec-nn-ckpt-mismatch");
        let path = dir.join("model.json");
        ps.save(&path).unwrap();

        // Wrong count.
        let mut empty = ParamStore::new();
        assert!(empty.load(&path).is_err());
        // Wrong name.
        let mut named = ParamStore::new();
        named.add("v", Tensor::zeros(2, 2));
        assert!(named.load(&path).is_err());
        // Wrong shape.
        let mut shaped = ParamStore::new();
        shaped.add("w", Tensor::zeros(1, 2));
        assert!(shaped.load(&path).is_err());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn checkpoint_load_rejects_non_finite_values() {
        // Two poisoning routes: a NaN tensor round-trips as JSON `null`
        // (type error at decode), and an f64 literal beyond f32 range
        // casts to `inf` — the explicit non-finite check must catch the
        // latter so it never reaches a forward pass.
        let dir = std::env::temp_dir().join("kvec-nn-ckpt-nan");
        std::fs::create_dir_all(&dir).unwrap();

        let null_path = dir.join("null.json");
        let mut nan_store = ParamStore::new();
        let id = nan_store.add("w", Tensor::zeros(1, 2));
        nan_store.value_mut(id).data_mut()[1] = f32::NAN;
        nan_store.save(&null_path).unwrap();

        let inf_path = dir.join("inf.json");
        std::fs::write(
            &inf_path,
            r#"[["w",{"data":[0.0,1e300],"rows":1,"cols":2}]]"#,
        )
        .unwrap();

        for path in [&null_path, &inf_path] {
            let mut fresh = ParamStore::new();
            fresh.add("w", Tensor::zeros(1, 2));
            assert!(fresh.load(path).is_err(), "poisoned {path:?} loaded");
            // The target store keeps its pristine values.
            assert!(!fresh.has_non_finite());
        }
        let err = {
            let mut fresh = ParamStore::new();
            fresh.add("w", Tensor::zeros(1, 2));
            fresh.load(&inf_path).unwrap_err().to_string()
        };
        assert!(err.contains("non-finite"), "unexpected error: {err}");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn snapshot_and_restore_round_trip() {
        let mut ps = ParamStore::new();
        let id = ps.add("w", Tensor::row_vector(&[1.0, 2.0]));
        let snap = ps.snapshot_values();
        ps.value_mut(id).data_mut()[0] = 99.0;
        ps.restore_values(&snap);
        assert_eq!(ps.value(id).data(), &[1.0, 2.0]);
    }

    #[test]
    fn non_finite_guard() {
        let mut ps = ParamStore::new();
        let id = ps.add("w", Tensor::zeros(1, 1));
        assert!(!ps.has_non_finite());
        ps.value_mut(id).data_mut()[0] = f32::INFINITY;
        assert!(ps.has_non_finite());
    }
}
