//! ECTL: the early co-classification timing learning module
//! (paper Section IV-C) — the halting policy, its value baseline, and the
//! REINFORCE episode of Algorithm 1 that trains them.
//!
//! This is the one halting implementation: KVEC's trainer and the two RL
//! baselines (EARLIEST, SRN-EARLIEST) build an [`Ectl`] and a
//! [`Classifier`] over their own per-step states, train them with
//! [`Ectl::sample_halt`] and [`Ectl::add_halt_losses`], and halt at
//! evaluation with [`threshold_halt`].

use crate::classifier::Classifier;
use kvec_autograd::Var;
use kvec_nn::loss::{log_one_minus_sigmoid, log_sigmoid, squared_error};
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
    /// Creates the module over `d_model`-wide states, with a `hidden`-wide
    /// baseline; its parameters are named `{prefix}.policy`,
    /// `{prefix}.baseline.hidden` and `{prefix}.baseline.out` (created in
    /// that order).
    pub fn new(
        store: &mut ParamStore,
        prefix: &str,
        d_model: usize,
        hidden: usize,
        rng: &mut KvecRng,
    ) -> Self {
        let name = |part: &str| format!("{prefix}.{part}");
        Self {
            policy: Linear::new(store, &name("policy"), d_model, 1, rng),
            baseline_hidden: Linear::new(store, &name("baseline.hidden"), d_model, hidden, rng),
            baseline_out: Linear::new(store, &name("baseline.out"), hidden, 1, rng),
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

    /// Samples one episode over `len` states (Algorithm 1 lines 5-9):
    /// Halt or Wait is drawn at each state in turn until the first Halt; a
    /// sequence that never halts ends at its last item. A warm-up
    /// `forced_n` ends it there without consulting the policy.
    /// `policy_state(i)` is the state the policy reads after `i + 1` items.
    pub fn sample_halt<'s>(
        &self,
        sess: &'s Session,
        store: &ParamStore,
        len: usize,
        forced_n: Option<usize>,
        mut policy_state: impl FnMut(usize) -> Var<'s>,
        rng: &mut KvecRng,
    ) -> Episode<'s> {
        assert!(len > 0, "an episode needs at least one state");
        let mut episode = Episode {
            n_k: forced_n.unwrap_or(len),
            halted_by_policy: false,
            logits: Vec::new(),
        };
        if forced_n.is_some() {
            return episode;
        }
        for i in 0..len {
            let z = self.policy_logit(sess, store, policy_state(i));
            episode.logits.push(z);
            if Self::sample_action(sigmoid_scalar(z.value().item()), rng) == Action::Halt {
                episode.n_k = i + 1;
                episode.halted_by_policy = true;
                break;
            }
        }
        episode
    }

    /// Adds one episode's losses to `acc`. Step `i` of `n_k`, with return
    /// `R_i = (n_k - i) * reward`, adds the surrogate
    /// `-(R_i - b_i) log pi(a_i | s_i)`, the lateness term
    /// `-log P(Halt | s_i)` and the regression `(b_i - R_i)^2`; a warm-up
    /// episode trains the baseline only. `baseline_state(i)` is the
    /// (detached, see [`Self::baseline`]) state after `i + 1` items.
    pub fn add_halt_losses<'s>(
        &self,
        sess: &'s Session,
        store: &ParamStore,
        episode: &Episode<'s>,
        reward: f32,
        mut baseline_state: impl FnMut(usize) -> Var<'s>,
        acc: &mut HaltLosses<'s>,
    ) {
        let n_k = episode.n_k;
        for i in 1..=n_k {
            let ret = (n_k - i) as f32 * reward;
            let b_var = self.baseline(sess, store, baseline_state(i - 1));
            let Some(&z) = episode.logits.get(i - 1) else {
                // Warm-up: keep the baseline calibrated, no policy losses.
                acc.lb = Some(accumulate(acc.lb, squared_error(b_var, ret)));
                continue;
            };
            let advantage = ret - b_var.value().item();
            // The surrogate covers *sampled* actions only: Wait for
            // i < n_k, Halt at i == n_k when the policy chose it. A halt
            // forced by the end of the sequence was never sampled, so it
            // contributes no policy-gradient term.
            let log_p = if i < n_k {
                Some(log_one_minus_sigmoid(z))
            } else {
                episode.halted_by_policy.then(|| log_sigmoid(z))
            };
            if let Some(log_p) = log_p {
                acc.l2 = Some(accumulate(acc.l2, log_p.scale(-advantage)));
            }
            acc.l3 = Some(accumulate(acc.l3, log_sigmoid(z).neg()));
            acc.lb = Some(accumulate(acc.lb, squared_error(b_var, ret)));
        }
    }
}

/// One sampled halting episode ([`Ectl::sample_halt`]).
pub struct Episode<'s> {
    /// Number of observed items.
    pub n_k: usize,
    /// True when the policy drew the halt, false when warm-up or the end of
    /// the sequence forced it.
    pub halted_by_policy: bool,
    /// The logits `z_1 ..= z_{n_k}` the actions were drawn from; empty in
    /// warm-up.
    pub logits: Vec<Var<'s>>,
}

/// Algorithm 1's halting losses, each summed over episode steps
/// ([`Ectl::add_halt_losses`]). The caller owns them: they may sum over
/// one sequence or over every key of a scenario.
#[derive(Default)]
pub struct HaltLosses<'s> {
    /// REINFORCE-with-baseline surrogate over the sampled actions.
    pub l2: Option<Var<'s>>,
    /// Lateness penalty `-sum_i log P(Halt | s_i)`.
    pub l3: Option<Var<'s>>,
    /// Value-baseline regression `sum_i (b_i - R_i)^2`.
    pub lb: Option<Var<'s>>,
}

impl<'s> HaltLosses<'s> {
    /// `[l2, l3, lb]`, with a zero scalar for a loss no step added to.
    pub fn totals(self, sess: &'s Session) -> [Var<'s>; 3] {
        let zero = || sess.scalar(0.0);
        [self.l2, self.l3, self.lb].map(|l| l.unwrap_or_else(zero))
    }
}

/// Deterministic threshold halting over tape-free per-step states
/// (`1 x d` each): halts at the first state whose halting probability
/// clears `threshold` ([`Ectl::threshold_action`]), else at the last.
/// Returns `(n_k, prediction)`.
pub fn threshold_halt(
    store: &ParamStore,
    ectl: &Ectl,
    classifier: &Classifier,
    states: &[Tensor],
    threshold: f32,
) -> (usize, usize) {
    assert!(!states.is_empty(), "halting needs at least one state");
    let n_k = states
        .iter()
        .position(|s| {
            Ectl::threshold_action(ectl.halt_probability(store, s), threshold) == Action::Halt
        })
        .map_or(states.len(), |i| i + 1);
    (n_k, classifier.predict(store, &states[n_k - 1]).0)
}

/// `acc + term`, or `term` when nothing has been added yet.
pub(crate) fn accumulate<'s>(acc: Option<Var<'s>>, term: Var<'s>) -> Var<'s> {
    match acc {
        Some(a) => a.add(term),
        None => term,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const D: usize = 16;
    const H: usize = 8;

    fn states<'s>(sess: &'s Session, n: usize, rng: &mut KvecRng) -> Vec<Var<'s>> {
        (0..n)
            .map(|_| sess.input(Tensor::rand_uniform(1, D, -1.0, 1.0, rng)))
            .collect()
    }

    /// A module whose policy ignores the state: `z = +-LOGIT_BOUND`.
    fn saturated(halt: bool, store: &mut ParamStore, rng: &mut KvecRng) -> Ectl {
        let ectl = Ectl::new(store, "ectl", D, H, rng);
        let ids = ectl.policy_param_ids();
        store.value_mut(ids[0]).data_mut().fill(0.0);
        store.value_mut(ids[1]).data_mut()[0] = if halt { 100.0 } else { -100.0 };
        ectl
    }

    fn item(v: Var<'_>) -> f32 {
        v.value().item()
    }

    #[test]
    fn policy_logit_is_scalar_and_matches_tensor_path() {
        let mut store = ParamStore::new();
        let mut rng = KvecRng::seed_from_u64(1);
        let ectl = Ectl::new(&mut store, "ectl", D, H, &mut rng);
        let s = Tensor::rand_uniform(1, D, -1.0, 1.0, &mut rng);

        let sess = Session::new();
        let sv = sess.input(s.clone());
        let z = ectl.policy_logit(&sess, &store, sv);
        assert_eq!(z.shape(), (1, 1));
        let p_tape = sigmoid_scalar(z.value().item());
        let p_tensor = ectl.halt_probability(&store, &s);
        assert_eq!(p_tape.to_bits(), p_tensor.to_bits());
    }

    #[test]
    fn parameters_are_named_after_the_prefix_in_creation_order() {
        let mut store = ParamStore::new();
        let mut rng = KvecRng::seed_from_u64(1);
        Ectl::new(&mut store, "earliest", D, H, &mut rng);
        let names: Vec<_> = store.ids().into_iter().map(|id| store.name(id)).collect();
        assert_eq!(names.len(), 6, "{names:?}");
        assert!(names[..2].iter().all(|n| n.starts_with("earliest.policy")));
        assert!(names[2..4]
            .iter()
            .all(|n| n.starts_with("earliest.baseline.hidden")));
        assert!(names[4..]
            .iter()
            .all(|n| n.starts_with("earliest.baseline.out")));
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
        let mut store = ParamStore::new();
        let mut rng = KvecRng::seed_from_u64(3);
        let ectl = Ectl::new(&mut store, "ectl", D, H, &mut rng);

        let sess = Session::new();
        let s = sess.input(Tensor::rand_uniform(1, D, -1.0, 1.0, &mut rng));
        let b = ectl.baseline(&sess, &store, s.detach());
        sess.backward(b.square());
        sess.accumulate_grads(&mut store);
        assert!(sess.graph().grad(s).is_none(), "state must stay untouched");
        // The hidden layer may get no gradient if ReLU kills it, so check
        // the group norm.
        assert!(store.grad_norm(&ectl.baseline_param_ids()) > Some(0.0));
        assert_eq!(store.grad_norm(&ectl.policy_param_ids()), Some(0.0));
    }

    #[test]
    fn param_groups_are_disjoint() {
        let mut store = ParamStore::new();
        let mut rng = KvecRng::seed_from_u64(4);
        let ectl = Ectl::new(&mut store, "ectl", D, H, &mut rng);
        let p: std::collections::BTreeSet<_> = ectl.policy_param_ids().into_iter().collect();
        let b: std::collections::BTreeSet<_> = ectl.baseline_param_ids().into_iter().collect();
        assert!(p.is_disjoint(&b));
    }

    #[test]
    fn warmup_episode_draws_nothing_and_trains_the_baseline_only() {
        let mut store = ParamStore::new();
        let mut rng = KvecRng::seed_from_u64(5);
        let ectl = Ectl::new(&mut store, "ectl", D, H, &mut rng);
        let sess = Session::new();
        let s = states(&sess, 4, &mut rng);

        let before = rng.state();
        let ep = ectl.sample_halt(&sess, &store, 4, Some(2), |i| s[i], &mut rng);
        assert_eq!(rng.state(), before, "warm-up draws no action");
        assert_eq!((ep.n_k, ep.halted_by_policy), (2, false));
        assert!(ep.logits.is_empty());

        let mut acc = HaltLosses::default();
        ectl.add_halt_losses(&sess, &store, &ep, -1.0, |i| s[i].detach(), &mut acc);
        assert!(acc.l2.is_none() && acc.l3.is_none());
        let b = |i: usize| item(ectl.baseline(&sess, &store, s[i]));
        // Returns R = ((2 - 1) * -1, 0).
        let expected = (b(0) + 1.0).powi(2) + b(1).powi(2);
        let [l2, l3, lb] = acc.totals(&sess);
        assert_eq!((item(l2), item(l3)), (0.0, 0.0));
        assert!((item(lb) - expected).abs() < 1e-5);
    }

    #[test]
    fn a_sampled_halt_ends_the_episode_and_is_reinforced() {
        let mut store = ParamStore::new();
        let mut rng = KvecRng::seed_from_u64(6);
        let ectl = saturated(true, &mut store, &mut rng);
        let sess = Session::new();
        let s = states(&sess, 3, &mut rng);

        let ep = ectl.sample_halt(&sess, &store, 3, None, |i| s[i], &mut rng);
        assert_eq!((ep.n_k, ep.halted_by_policy, ep.logits.len()), (1, true, 1));

        let mut acc = HaltLosses::default();
        ectl.add_halt_losses(&sess, &store, &ep, 1.0, |i| s[i].detach(), &mut acc);
        let [l2, l3, lb] = acc.totals(&sess);
        let b0 = item(ectl.baseline(&sess, &store, s[0]));
        let log_halt = item(log_sigmoid(sess.scalar(Ectl::LOGIT_BOUND)));
        // One sampled Halt with return 0: -(0 - b) log P(Halt).
        assert!((item(l2) - b0 * log_halt).abs() < 1e-5);
        assert!((item(l3) + log_halt).abs() < 1e-6);
        assert!((item(lb) - b0 * b0).abs() < 1e-5);
    }

    #[test]
    fn a_halt_forced_by_the_sequence_end_adds_no_surrogate_term() {
        let mut store = ParamStore::new();
        let mut rng = KvecRng::seed_from_u64(7);
        let ectl = saturated(false, &mut store, &mut rng);
        let sess = Session::new();
        let s = states(&sess, 3, &mut rng);

        let ep = ectl.sample_halt(&sess, &store, 3, None, |i| s[i], &mut rng);
        assert_eq!(
            (ep.n_k, ep.halted_by_policy, ep.logits.len()),
            (3, false, 3)
        );

        let mut acc = HaltLosses::default();
        ectl.add_halt_losses(&sess, &store, &ep, 1.0, |i| s[i].detach(), &mut acc);
        let [l2, l3, lb] = acc.totals(&sess);
        let b: Vec<f32> = s
            .iter()
            .map(|&v| item(ectl.baseline(&sess, &store, v)))
            .collect();
        let z = sess.scalar(-Ectl::LOGIT_BOUND);
        let (log_wait, log_halt) = (item(log_one_minus_sigmoid(z)), item(log_sigmoid(z)));
        // Returns R = (2, 1, 0); two sampled Waits, the last step unsampled.
        let l2_expected = -((2.0 - b[0]) + (1.0 - b[1])) * log_wait;
        assert!((item(l2) - l2_expected).abs() < 1e-5);
        assert!((item(l3) + 3.0 * log_halt).abs() < 1e-4);
        let lb_expected = (b[0] - 2.0).powi(2) + (b[1] - 1.0).powi(2) + b[2].powi(2);
        assert!((item(lb) - lb_expected).abs() < 1e-5);
    }

    #[test]
    fn threshold_halt_stops_at_the_first_confident_state() {
        let mut rng = KvecRng::seed_from_u64(8);
        let s: Vec<Tensor> = (0..4)
            .map(|_| Tensor::rand_uniform(1, D, -1.0, 1.0, &mut rng))
            .collect();
        for (halt, n_k) in [(true, 1), (false, 4)] {
            let mut store = ParamStore::new();
            let ectl = saturated(halt, &mut store, &mut rng);
            let clf = Classifier::new(&mut store, "classifier", D, 3, &mut rng);
            let pred = clf.predict(&store, &s[n_k - 1]).0;
            assert_eq!(threshold_halt(&store, &ectl, &clf, &s, 0.5), (n_k, pred));
        }
    }
}
