//! ECTL: the early co-classification timing learning module
//! (paper Section IV-C) — the halting policy and its value baseline.

use crate::KvecConfig;
use kvec_autograd::Var;
use kvec_nn::{Linear, ParamId, ParamStore, Session};
use kvec_tensor::{sigmoid_scalar, simd, KvecRng, Tensor};

/// The two actions of the halting agent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Stop observing and classify the sequence now.
    Halt,
    /// Keep collecting items.
    Wait,
}

/// The halting policy `pi(s) = sigmoid(w_pi . s + b_pi)` plus the
/// REINFORCE value baseline `b(s)` (a shallow feed-forward network, as the
/// paper prescribes).
#[derive(Clone)]
pub struct Ectl {
    policy: Linear,
    baseline_hidden: Linear,
    baseline_out: Linear,
}

impl Ectl {
    /// Creates the module.
    pub fn new(store: &mut ParamStore, cfg: &KvecConfig, rng: &mut KvecRng) -> Self {
        Self {
            policy: Linear::new(store, "ectl.policy", cfg.d_model, 1, rng),
            baseline_hidden: Linear::new(
                store,
                "ectl.baseline.hidden",
                cfg.d_model,
                cfg.baseline_hidden,
                rng,
            ),
            baseline_out: Linear::new(store, "ectl.baseline.out", cfg.baseline_hidden, 1, rng),
        }
    }

    /// Bound of the halting logit: `z = BOUND * tanh(w . s + b)`.
    ///
    /// The paper's raw linear logit admits an unbounded descent direction
    /// when `beta < 0` (the lateness loss `beta * l3` keeps decreasing as
    /// `z -> -inf`, dragging the shared representation with it). Bounding
    /// the logit caps that drift while leaving the halting probability an
    /// effectively full range (`sigmoid(+-8) ~ 1 / 3e-4`).
    pub const LOGIT_BOUND: f32 = 8.0;

    /// The pre-sigmoid halting logit `z` for a state `s` (`1 x d`).
    /// `P(Halt) = sigmoid(z)`.
    pub fn policy_logit<'s>(&self, sess: &'s Session, store: &ParamStore, s: Var<'s>) -> Var<'s> {
        self.policy
            .forward(sess, store, s)
            .tanh()
            .scale(Self::LOGIT_BOUND)
    }

    /// Tape-free halting probability for inference (`s` is `1 x d`).
    pub fn halt_probability(&self, store: &ParamStore, s: &Tensor) -> f32 {
        assert_eq!(s.rows(), 1, "halting probability of one state row");
        self.halt_probability_row(store, s.data())
    }

    /// [`Self::halt_probability`] of a state row held in a slice, with its
    /// bits and no allocation.
    pub fn halt_probability_row(&self, store: &ParamStore, s: &[f32]) -> f32 {
        // The one-element tanh on the active path: the bits the taped
        // `policy_logit` gets from `Tensor::tanh`, so streaming and batch
        // agree on every halt at the threshold edge.
        let mut raw = [0.0f32];
        self.policy.apply_into(store, s, &mut raw);
        simd::tanh_on(simd::active_path(), &mut raw);
        sigmoid_scalar(Self::LOGIT_BOUND * raw[0])
    }

    /// Samples an action from the policy (training-time exploration).
    pub fn sample_action(prob_halt: f32, rng: &mut KvecRng) -> Action {
        if rng.bernoulli(prob_halt) {
            Action::Halt
        } else {
            Action::Wait
        }
    }

    /// Deterministic action at evaluation time: halt when the probability
    /// clears the threshold.
    pub fn threshold_action(prob_halt: f32, threshold: f32) -> Action {
        if prob_halt > threshold {
            Action::Halt
        } else {
            Action::Wait
        }
    }

    /// The state-value baseline `b(s)`. Pass a **detached** state: the
    /// baseline regression must not shape the representation (the paper
    /// updates `theta_b` independently, Algorithm 1 line 19).
    pub fn baseline<'s>(
        &self,
        sess: &'s Session,
        store: &ParamStore,
        s_detached: Var<'s>,
    ) -> Var<'s> {
        let h = self.baseline_hidden.forward(sess, store, s_detached).relu();
        self.baseline_out.forward(sess, store, h)
    }

    /// Parameter ids of the policy (part of `theta`).
    pub fn policy_param_ids(&self) -> Vec<ParamId> {
        self.policy.param_ids()
    }

    /// Parameter ids of the baseline (`theta_b`).
    pub fn baseline_param_ids(&self) -> Vec<ParamId> {
        let mut ids = self.baseline_hidden.param_ids();
        ids.extend(self.baseline_out.param_ids());
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kvec_data::ValueSchema;

    fn cfg() -> KvecConfig {
        let schema = ValueSchema::new(vec!["a".into()], vec![4], 0);
        KvecConfig::tiny(&schema, 2)
    }

    #[test]
    fn policy_logit_is_scalar_and_matches_tensor_path() {
        let c = cfg();
        let mut store = ParamStore::new();
        let mut rng = KvecRng::seed_from_u64(1);
        let ectl = Ectl::new(&mut store, &c, &mut rng);
        let s = Tensor::rand_uniform(1, c.d_model, -1.0, 1.0, &mut rng);

        let sess = Session::new();
        let sv = sess.input(s.clone());
        let z = ectl.policy_logit(&sess, &store, sv);
        assert_eq!(z.shape(), (1, 1));
        let p_tape = sigmoid_scalar(z.value().item());
        let p_tensor = ectl.halt_probability(&store, &s);
        assert_eq!(p_tape.to_bits(), p_tensor.to_bits());
    }

    #[test]
    fn action_sampling_follows_probability() {
        let mut rng = KvecRng::seed_from_u64(2);
        let halts = (0..1000)
            .filter(|_| Ectl::sample_action(0.8, &mut rng) == Action::Halt)
            .count();
        assert!((700..900).contains(&halts), "halts {halts}");
        assert_eq!(Ectl::sample_action(0.0, &mut rng), Action::Wait);
        assert_eq!(Ectl::sample_action(1.0, &mut rng), Action::Halt);
    }

    #[test]
    fn threshold_action_is_deterministic() {
        assert_eq!(Ectl::threshold_action(0.6, 0.5), Action::Halt);
        assert_eq!(Ectl::threshold_action(0.4, 0.5), Action::Wait);
        assert_eq!(Ectl::threshold_action(0.5, 0.5), Action::Wait, "strict");
    }

    #[test]
    fn baseline_on_detached_state_does_not_touch_representation() {
        let c = cfg();
        let mut store = ParamStore::new();
        let mut rng = KvecRng::seed_from_u64(3);
        let ectl = Ectl::new(&mut store, &c, &mut rng);

        let sess = Session::new();
        let s = sess.input(Tensor::rand_uniform(1, c.d_model, -1.0, 1.0, &mut rng));
        let b = ectl.baseline(&sess, &store, s.detach());
        sess.backward(b.square());
        sess.accumulate_grads(&mut store);
        assert!(sess.graph().grad(s).is_none(), "state must stay untouched");
        for id in ectl.baseline_param_ids() {
            // At least the output layer must receive gradient; hidden may
            // be zero if ReLU kills it, so check the group norm instead.
            let _ = id;
        }
        assert!(store.grad_norm(&ectl.baseline_param_ids()) > 0.0);
        assert_eq!(store.grad_norm(&ectl.policy_param_ids()), 0.0);
    }

    #[test]
    fn param_groups_are_disjoint() {
        let c = cfg();
        let mut store = ParamStore::new();
        let mut rng = KvecRng::seed_from_u64(4);
        let ectl = Ectl::new(&mut store, &c, &mut rng);
        let p: std::collections::BTreeSet<_> = ectl.policy_param_ids().into_iter().collect();
        let b: std::collections::BTreeSet<_> = ectl.baseline_param_ids().into_iter().collect();
        assert!(p.is_disjoint(&b));
    }
}
