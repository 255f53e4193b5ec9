//! First-order optimizers over parameter groups.

use crate::{ParamId, ParamStore};
use kvec_tensor::Tensor;

/// Kingma & Ba's standard first-moment decay, second-moment decay and
/// denominator fuzz.
const BETA1: f32 = 0.9;
const BETA2: f32 = 0.999;
const EPS: f32 = 1e-8;

/// Adam (Kingma & Ba) with bias correction — the optimizer the paper uses —
/// updating a fixed group of parameters.
///
/// Groups make the paper's two-rate scheme (Algorithm 1 lines 18-19: the
/// model at `gamma_theta`, the value baseline at `gamma_theta_b`) a matter
/// of instantiating two optimizers over disjoint id sets.
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    params: Vec<ParamId>,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Adam {
    /// Creates Adam over a parameter group with the standard
    /// `beta1 = 0.9`, `beta2 = 0.999`, `eps = 1e-8`. Panics unless `lr` is
    /// finite and positive, the rule [`Adam::import_state`] applies.
    pub fn new(store: &ParamStore, params: Vec<ParamId>, lr: f32) -> Self {
        assert!(
            lr.is_finite() && lr > 0.0,
            "learning rate must be finite and positive, got {lr}"
        );
        let m = params
            .iter()
            .map(|&id| {
                let (r, c) = store.value(id).shape();
                Tensor::zeros(r, c)
            })
            .collect::<Vec<_>>();
        let v = m.clone();
        Self {
            lr,
            beta1: BETA1,
            beta2: BETA2,
            eps: EPS,
            t: 0,
            params,
            m,
            v,
        }
    }

    /// Applies one update from the store's accumulated gradients and
    /// returns whether every value it wrote is finite. Does not clear the
    /// gradients; call [`ParamStore::zero_grads`] afterwards.
    pub fn step(&mut self, store: &mut ParamStore) -> bool {
        let mut finite = true;
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for (slot, &id) in self.params.iter().enumerate() {
            let (w, g) = store.value_and_grad_mut(id);
            let m = &mut self.m[slot];
            let v = &mut self.v[slot];
            for ((m_i, v_i), g_i) in m.data_mut().iter_mut().zip(v.data_mut()).zip(g.data()) {
                *m_i = self.beta1 * *m_i + (1.0 - self.beta1) * g_i;
                *v_i = self.beta2 * *v_i + (1.0 - self.beta2) * g_i * g_i;
            }
            for ((w_i, m_i), v_i) in w.data_mut().iter_mut().zip(m.data()).zip(v.data()) {
                let m_hat = m_i / bc1;
                let v_hat = v_i / bc2;
                *w_i -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
                finite &= w_i.is_finite();
            }
        }
        finite
    }
}

/// Serializable snapshot of an [`Adam`] optimizer: the step count, the
/// hyperparameters and both moment buffers. Together with the parameter
/// values and the RNG state this is everything needed to resume training
/// bit-identically.
#[derive(Debug, Clone, PartialEq)]
pub struct AdamState {
    /// Bias-correction step count.
    pub t: u64,
    /// Learning rate at capture time.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Denominator fuzz.
    pub eps: f32,
    /// First-moment buffers, one per owned parameter, in group order.
    pub m: Vec<Tensor>,
    /// Second-moment buffers, one per owned parameter, in group order.
    pub v: Vec<Tensor>,
}

impl kvec_json::ToJson for AdamState {
    fn to_json(&self) -> kvec_json::Json {
        kvec_json::Json::obj([
            ("t", self.t.to_json()),
            ("lr", self.lr.to_json()),
            ("beta1", self.beta1.to_json()),
            ("beta2", self.beta2.to_json()),
            ("eps", self.eps.to_json()),
            ("m", self.m.to_json()),
            ("v", self.v.to_json()),
        ])
    }
}

impl kvec_json::FromJson for AdamState {
    fn from_json(j: &kvec_json::Json) -> Result<Self, kvec_json::JsonError> {
        Ok(Self {
            t: u64::from_json(j.get("t")?)?,
            lr: f32::from_json(j.get("lr")?)?,
            beta1: f32::from_json(j.get("beta1")?)?,
            beta2: f32::from_json(j.get("beta2")?)?,
            eps: f32::from_json(j.get("eps")?)?,
            m: Vec::<Tensor>::from_json(j.get("m")?)?,
            v: Vec::<Tensor>::from_json(j.get("v")?)?,
        })
    }
}

impl Adam {
    /// Captures the optimizer's full state for checkpointing or in-memory
    /// rollback snapshots.
    pub fn export_state(&self) -> AdamState {
        AdamState {
            t: self.t,
            lr: self.lr,
            beta1: self.beta1,
            beta2: self.beta2,
            eps: self.eps,
            m: self.m.clone(),
            v: self.v.clone(),
        }
    }

    /// [`Self::export_state`] into an earlier capture, reusing its moment
    /// buffers: a snapshot refreshed every step allocates nothing.
    pub fn export_state_into(&self, state: &mut AdamState) {
        state.t = self.t;
        state.lr = self.lr;
        state.beta1 = self.beta1;
        state.beta2 = self.beta2;
        state.eps = self.eps;
        state.m.clone_from(&self.m);
        state.v.clone_from(&self.v);
    }

    /// Restores a state captured by [`Adam::export_state`]. Fails (leaving
    /// the optimizer untouched) if the snapshot's moment buffers do not
    /// match this optimizer's parameter group in count or shape, or carry
    /// non-finite values.
    pub fn import_state(&mut self, state: AdamState) -> Result<(), String> {
        if state.m.len() != self.params.len() || state.v.len() != self.params.len() {
            return Err(format!(
                "optimizer state has {}/{} moment buffers, group has {} parameters",
                state.m.len(),
                state.v.len(),
                self.params.len()
            ));
        }
        for (slot, (m, v)) in state.m.iter().zip(&state.v).enumerate() {
            if m.shape() != self.m[slot].shape() || v.shape() != self.v[slot].shape() {
                return Err(format!(
                    "moment shape mismatch at slot {slot}: state ({:?}, {:?}), group ({:?})",
                    m.shape(),
                    v.shape(),
                    self.m[slot].shape()
                ));
            }
            if m.has_non_finite() || v.has_non_finite() {
                return Err(format!("non-finite moment values at slot {slot}"));
            }
        }
        if !(state.lr.is_finite() && state.lr > 0.0) {
            return Err(format!("invalid learning rate {}", state.lr));
        }
        self.t = state.t;
        self.lr = state.lr;
        self.beta1 = state.beta1;
        self.beta2 = state.beta2;
        self.eps = state.eps;
        self.m = state.m;
        self.v = state.v;
        Ok(())
    }
}

/// Rescales the gradients of `ids` so their global L2 norm is at most
/// `max_norm`. Returns the pre-clip norm, or `None`, gradients untouched,
/// when any gradient element is NaN/inf ([`ParamStore::grad_norm`]).
/// REINFORCE gradients are heavy-tailed; the KVEC trainer clips before
/// every step.
pub fn clip_global_norm(store: &mut ParamStore, ids: &[ParamId], max_norm: f32) -> Option<f32> {
    let norm = store.grad_norm(ids)?;
    if norm > max_norm && norm > 0.0 {
        let scale = max_norm / norm;
        for &id in ids {
            store.scale_grad(id, scale);
        }
    }
    Some(norm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kvec_tensor::KvecRng;

    /// Minimizes `(w - 3)^2` and checks convergence.
    #[test]
    fn adam_minimizes_quadratic() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::scalar(0.0));
        let mut opt = Adam::new(&store, vec![w], 0.1);
        for _ in 0..500 {
            let wv = store.value(w).item();
            let grad = 2.0 * (wv - 3.0);
            store.zero_grads();
            store.accumulate_grad(w, &Tensor::scalar(grad));
            opt.step(&mut store);
        }
        let final_w = store.value(w).item();
        assert!((final_w - 3.0).abs() < 0.05, "w = {final_w}");
    }

    #[test]
    fn adam_only_touches_its_group() {
        let mut store = ParamStore::new();
        let a = store.add("a", Tensor::scalar(1.0));
        let b = store.add("b", Tensor::scalar(1.0));
        let mut opt = Adam::new(&store, vec![a], 0.1);
        store.accumulate_grad(a, &Tensor::scalar(1.0));
        store.accumulate_grad(b, &Tensor::scalar(1.0));
        opt.step(&mut store);
        assert!(store.value(a).item() < 1.0);
        assert_eq!(store.value(b).item(), 1.0);
    }

    #[test]
    fn adam_step_reports_a_non_finite_write() {
        // At `f32::MAX` a step of size `lr` pushed outward overflows to inf.
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::row_vector(&[f32::MAX, 0.0]));
        let mut opt = Adam::new(&store, vec![w], f32::MAX);
        store.accumulate_grad(w, &Tensor::row_vector(&[-1.0, 0.0]));
        assert!(!opt.step(&mut store));
        assert_eq!(store.value(w).data()[0], f32::INFINITY);

        let mut opt = Adam::new(&store, vec![w], 0.1);
        store.value_mut(w).data_mut()[0] = 1.0;
        assert!(opt.step(&mut store), "a finite step reports finite");
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn adam_refuses_an_infinite_learning_rate() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::zeros(1, 1));
        Adam::new(&store, vec![w], f32::INFINITY);
    }

    #[test]
    fn clip_leaves_small_gradients_alone() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::zeros(1, 2));
        store.accumulate_grad(w, &Tensor::row_vector(&[0.3, 0.4]));
        let pre = clip_global_norm(&mut store, &[w], 1.0).unwrap();
        assert!((pre - 0.5).abs() < 1e-6);
        assert_eq!(store.grad(w).data(), &[0.3, 0.4]);
    }

    #[test]
    fn clip_rescales_large_gradients() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::zeros(1, 2));
        store.accumulate_grad(w, &Tensor::row_vector(&[30.0, 40.0]));
        let pre = clip_global_norm(&mut store, &[w], 5.0).unwrap();
        assert!((pre - 50.0).abs() < 1e-3);
        let g = store.grad(w);
        assert!((g.data()[0] - 3.0).abs() < 1e-4);
        assert!((g.data()[1] - 4.0).abs() < 1e-4);
        assert!((store.grad_norm(&[w]).unwrap() - 5.0).abs() < 1e-4);
        store.accumulate_grad(w, &Tensor::row_vector(&[f32::NAN, 0.0]));
        assert_eq!(clip_global_norm(&mut store, &[w], 5.0), None);
        assert_eq!(
            store.grad(w).data()[1],
            4.0,
            "non-finite gradients are left alone"
        );
    }

    #[test]
    fn adam_state_round_trip_resumes_bit_identically() {
        // Two optimizers over the same problem: one runs 40 steps straight,
        // the other is checkpointed (through JSON, like the on-disk path)
        // at step 20 and resumed into a fresh instance. Trajectories must
        // agree bitwise.
        let drive =
            |store: &mut ParamStore, opt: &mut Adam, w: ParamId, steps: std::ops::Range<usize>| {
                for i in steps {
                    let wv = store.value(w).item();
                    let grad = 2.0 * (wv - 3.0) + 0.01 * (i as f32).sin();
                    store.zero_grads();
                    store.accumulate_grad(w, &Tensor::scalar(grad));
                    opt.step(store);
                }
            };

        let mut store_a = ParamStore::new();
        let wa = store_a.add("w", Tensor::scalar(0.0));
        let mut opt_a = Adam::new(&store_a, vec![wa], 0.07);
        drive(&mut store_a, &mut opt_a, wa, 0..40);

        let mut store_b = ParamStore::new();
        let wb = store_b.add("w", Tensor::scalar(0.0));
        let mut opt_b = Adam::new(&store_b, vec![wb], 0.07);
        drive(&mut store_b, &mut opt_b, wb, 0..20);
        let json = kvec_json::encode(&opt_b.export_state());
        let snapshot = store_b.value(wb).clone();

        let mut store_c = ParamStore::new();
        let wc = store_c.add("w", snapshot);
        let mut opt_c = Adam::new(&store_c, vec![wc], 0.999); // wrong lr on purpose
        opt_c
            .import_state(kvec_json::decode(&json).unwrap())
            .unwrap();
        assert_eq!(opt_c.export_state().lr, 0.07, "lr restored from state");
        drive(&mut store_c, &mut opt_c, wc, 20..40);

        assert_eq!(store_a.value(wa).item(), store_c.value(wc).item());
    }

    #[test]
    fn export_state_into_refreshes_an_earlier_capture_in_place() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::row_vector(&[0.5, -1.0, 2.0]));
        let mut opt = Adam::new(&store, vec![w], 0.05);
        let mut state = opt.export_state();
        let buffers = (state.m[0].data().as_ptr(), state.v[0].data().as_ptr());
        for _ in 0..3 {
            store.accumulate_grad(w, &Tensor::row_vector(&[0.3, -0.1, 0.2]));
            opt.step(&mut store);
            store.zero_grads();
        }
        opt.export_state_into(&mut state);
        assert_eq!(state, opt.export_state());
        assert_eq!(
            (state.m[0].data().as_ptr(), state.v[0].data().as_ptr()),
            buffers,
            "moment buffers reallocated"
        );
    }

    #[test]
    fn checkpoint_payload_is_pinned() {
        // The optimizer's share of a `KVECCKPT` payload, byte for byte: a
        // two-parameter group after two steps. Round trips within one build
        // cannot see a change to the moment update, the defaults or the
        // field set; this literal can.
        let mut store = ParamStore::new();
        let a = store.add("a", Tensor::row_vector(&[0.5, -1.0]));
        let b = store.add("b", Tensor::scalar(2.0));
        let mut opt = Adam::new(&store, vec![a, b], 0.01);
        for g in [[0.25, -0.5, 1.0], [-0.125, 0.75, 0.5]] {
            store.accumulate_grad(a, &Tensor::row_vector(&g[..2]));
            store.accumulate_grad(b, &Tensor::scalar(g[2]));
            opt.step(&mut store);
            store.zero_grads();
        }
        let pinned = concat!(
            r#"{"t":2,"lr":0.009999999776482582,"beta1":0.8999999761581421,"#,
            r#""beta2":0.9990000128746033,"eps":0.00000000999999993922529,"#,
            r#""m":[{"data":[0.010000001639127731,0.030000008642673492],"rows":1,"cols":2},"#,
            r#"{"data":[0.14000003039836884],"rows":1,"cols":1}],"#,
            r#""v":[{"data":[0.00007806149369571358,0.0008122395374812186],"rows":1,"cols":2},"#,
            r#"{"data":[0.0012489838991314173],"rows":1,"cols":1}]}"#,
        );
        assert_eq!(kvec_json::encode(&opt.export_state()), pinned);
    }

    #[test]
    fn adam_import_rejects_mismatched_or_poisoned_state() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::zeros(1, 2));
        let mut opt = Adam::new(&store, vec![w], 0.1);
        let good = opt.export_state();

        let mut wrong_count = good.clone();
        wrong_count.m.clear();
        assert!(opt.import_state(wrong_count).is_err());

        let mut wrong_shape = good.clone();
        wrong_shape.m[0] = Tensor::zeros(2, 2);
        assert!(opt.import_state(wrong_shape).is_err());

        let mut poisoned = good.clone();
        poisoned.v[0].data_mut()[0] = f32::NAN;
        assert!(opt.import_state(poisoned).is_err());

        let mut bad_lr = good.clone();
        bad_lr.lr = f32::NAN;
        assert!(opt.import_state(bad_lr).is_err());

        assert!(opt.import_state(good).is_ok(), "pristine state loads");
    }

    #[test]
    fn adam_trains_a_linear_regression() {
        // Fit y = 2x - 1 from noisy samples using the full stack.
        use crate::{Linear, Session};
        let mut rng = KvecRng::seed_from_u64(42);
        let mut store = ParamStore::new();
        let lin = Linear::new(&mut store, "reg", 1, 1, &mut rng);
        let mut opt = Adam::new(&store, store.ids(), 0.05);
        for _ in 0..300 {
            let x = rng.uniform(-1.0, 1.0);
            let y = 2.0 * x - 1.0 + rng.normal(0.0, 0.01);
            let sess = Session::new();
            let xv = sess.input(Tensor::scalar(x));
            let pred = lin.forward(&sess, &store, xv);
            let loss = pred.add_scalar(-y).square();
            sess.backward(loss);
            sess.accumulate_grads(&mut store);
            opt.step(&mut store);
            store.zero_grads();
        }
        let w = store.value(lin.param_ids()[0]).item();
        let b = store.value(lin.param_ids()[1]).item();
        assert!((w - 2.0).abs() < 0.2, "w = {w}");
        assert!((b + 1.0).abs() < 0.2, "b = {b}");
    }
}
