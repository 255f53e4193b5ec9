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

    /// The value to update and the gradient to read, borrowed at once:
    /// an optimizer reads the gradient in place instead of cloning it.
    pub fn value_and_grad_mut(&mut self, id: ParamId) -> (&mut Tensor, &Tensor) {
        let entry = &mut self.entries[id.0];
        (&mut entry.value, &entry.grad)
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

    /// Global L2 norm over the gradients of the given parameters, or `None`
    /// when any of their elements is NaN/inf. One read of each gradient
    /// gives both, so the training step guard reads the gradients once.
    pub fn grad_norm(&self, ids: &[ParamId]) -> Option<f32> {
        let mut finite = true;
        let sum = ids
            .iter()
            .map(|id| {
                let g = self.grad(*id);
                g.data()
                    .iter()
                    .map(|v| {
                        finite &= v.is_finite();
                        v * v
                    })
                    .sum::<f32>()
            })
            .sum::<f32>();
        finite.then(|| sum.sqrt())
    }

    /// True if any parameter value or gradient contains NaN/inf.
    pub fn has_non_finite(&self) -> bool {
        self.entries
            .iter()
            .any(|e| e.value.has_non_finite() || e.grad.has_non_finite())
    }

    /// Serializes every parameter (name + tensor) as a JSON value — an
    /// array of `[name, tensor]` pairs, the same layout the earlier
    /// serde-based format produced. It is the whole payload of a weights
    /// file and the `params` field of a trainer checkpoint.
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

    /// Clones every parameter value in id order — the in-memory snapshot
    /// the divergence watchdog rolls back to.
    pub fn snapshot_values(&self) -> Vec<Tensor> {
        self.entries.iter().map(|e| e.value.clone()).collect()
    }

    /// [`Self::snapshot_values`] into an earlier snapshot's tensors,
    /// allocating nothing once `out` holds one of the right size.
    pub fn snapshot_values_into(&self, out: &mut Vec<Tensor>) {
        out.truncate(self.entries.len());
        for (slot, e) in out.iter_mut().zip(&self.entries) {
            slot.clone_from(&e.value);
        }
        let have = out.len();
        out.extend(self.entries[have..].iter().map(|e| e.value.clone()));
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
        assert!((ps.grad_norm(&[a, b]).unwrap() - 5.0).abs() < 1e-6);
        assert!((ps.grad_norm(&[a]).unwrap() - 3.0).abs() < 1e-6);
        ps.accumulate_grad(b, &Tensor::scalar(f32::INFINITY));
        assert_eq!(ps.grad_norm(&[a, b]), None);
        assert_eq!(ps.grad_norm(&[a]), Some(3.0));
        // Finite elements whose squares overflow: the norm is inf, and the
        // gradients still count as finite.
        let big = ps.add("big", Tensor::zeros(1, 1));
        ps.accumulate_grad(big, &Tensor::scalar(1e30));
        assert_eq!(ps.grad_norm(&[big]), Some(f32::INFINITY));
    }

    #[test]
    fn checkpoint_load_rejects_mismatches() {
        let mut ps = ParamStore::new();
        ps.add("w", Tensor::zeros(2, 2));
        let json = ps.values_to_json();

        // Wrong count.
        let mut empty = ParamStore::new();
        assert!(empty.load_values_json(&json).is_err());
        // Wrong name.
        let mut named = ParamStore::new();
        named.add("v", Tensor::zeros(2, 2));
        assert!(named.load_values_json(&json).is_err());
        // Wrong shape.
        let mut shaped = ParamStore::new();
        shaped.add("w", Tensor::zeros(1, 2));
        assert!(shaped.load_values_json(&json).is_err());
    }

    #[test]
    fn checkpoint_load_rejects_non_finite_values() {
        // Two poisoning routes: a NaN tensor round-trips as JSON `null`
        // (type error at decode), and an f64 literal beyond f32 range
        // casts to `inf` — the explicit non-finite check must catch the
        // latter so it never reaches a forward pass.
        let mut nan_store = ParamStore::new();
        let id = nan_store.add("w", Tensor::zeros(1, 2));
        nan_store.value_mut(id).data_mut()[1] = f32::NAN;
        let null_json = kvec_json::Json::parse(&nan_store.values_to_json().dump()).unwrap();
        let inf_json =
            kvec_json::Json::parse(r#"[["w",{"data":[0.0,1e300],"rows":1,"cols":2}]]"#).unwrap();

        for json in [&null_json, &inf_json] {
            let mut fresh = ParamStore::new();
            fresh.add("w", Tensor::zeros(1, 2));
            assert!(
                fresh.load_values_json(json).is_err(),
                "poisoned {json:?} loaded"
            );
            // The target store keeps its pristine values.
            assert!(!fresh.has_non_finite());
        }
        let err = {
            let mut fresh = ParamStore::new();
            fresh.add("w", Tensor::zeros(1, 2));
            fresh.load_values_json(&inf_json).unwrap_err()
        };
        assert!(err.contains("non-finite"), "unexpected error: {err}");
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
    fn snapshot_into_reuses_the_previous_buffers() {
        let mut ps = ParamStore::new();
        let a = ps.add("a", Tensor::row_vector(&[1.0, 2.0]));
        ps.add("b", Tensor::zeros(2, 2));
        let mut snap = Vec::new();
        ps.snapshot_values_into(&mut snap);
        assert_eq!(snap, ps.snapshot_values());
        let buffers: Vec<*const f32> = snap.iter().map(|t| t.data().as_ptr()).collect();
        ps.value_mut(a).data_mut()[1] = -7.0;
        ps.snapshot_values_into(&mut snap);
        assert_eq!(snap, ps.snapshot_values());
        let reused: Vec<*const f32> = snap.iter().map(|t| t.data().as_ptr()).collect();
        assert_eq!(reused, buffers, "a refreshed snapshot reallocated");
    }

    #[test]
    fn value_and_grad_mut_borrow_one_entry() {
        let mut ps = ParamStore::new();
        let id = ps.add("w", Tensor::row_vector(&[1.0, 2.0]));
        ps.accumulate_grad(id, &Tensor::row_vector(&[0.5, -1.0]));
        let (w, g) = ps.value_and_grad_mut(id);
        for (w, &g) in w.data_mut().iter_mut().zip(g.data()) {
            *w += 2.0 * g;
        }
        assert_eq!(ps.value(id).data(), &[2.0, 0.0]);
        assert_eq!(ps.grad(id).data(), &[0.5, -1.0]);
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
