//! The REINFORCE training step EARLIEST and SRN-EARLIEST share. Both run
//! on KVEC's own halting module, [`kvec::ectl`]: an [`Ectl`] and a
//! [`Classifier`] over the baseline's per-step states, trained by the same
//! episode code as KVEC's trainer, with Algorithm 1's two optimizers.
//!
//! Where the baselines differ from KVEC: the policy reads the states as
//! they are (KVEC's reads a detached copy), and the classifier is
//! supervised at the halting position only (KVEC's also at one random
//! position).

use crate::seq::guarded_step;
use crate::BaselineConfig;
use kvec::classifier::Classifier;
use kvec::ectl::{self, Ectl, HaltLosses};
use kvec_autograd::Var;
use kvec_nn::loss::cross_entropy_logits;
use kvec_nn::{Adam, ParamId, ParamStore, Session};
use kvec_tensor::{KvecRng, Tensor};

/// The halting heads of an RL baseline and the optimizers of its whole
/// model.
pub(crate) struct RlHalting {
    ectl: Ectl,
    classifier: Classifier,
    opt_model: Adam,
    opt_baseline: Adam,
    model_ids: Vec<ParamId>,
    baseline_ids: Vec<ParamId>,
    epochs_done: usize,
}

impl RlHalting {
    /// Creates the heads, named under `prefix`, after the encoder whose
    /// parameters are `encoder_ids`. The model optimizer updates the
    /// encoder, the policy and the classifier; the value baseline has its
    /// own.
    pub(crate) fn new(
        store: &mut ParamStore,
        prefix: &str,
        encoder_ids: Vec<ParamId>,
        cfg: &BaselineConfig,
        rng: &mut KvecRng,
    ) -> Self {
        let ectl = Ectl::new(store, prefix, cfg.d_model, cfg.baseline_hidden, rng);
        let name = format!("{prefix}.classifier");
        let classifier = Classifier::new(store, &name, cfg.d_model, cfg.num_classes, rng);
        let mut model_ids = encoder_ids;
        model_ids.extend(ectl.policy_param_ids());
        model_ids.extend(classifier.param_ids());
        let baseline_ids = ectl.baseline_param_ids();
        Self {
            opt_model: Adam::new(store, model_ids.clone(), cfg.lr),
            opt_baseline: Adam::new(store, baseline_ids.clone(), cfg.lr_baseline),
            ectl,
            classifier,
            model_ids,
            baseline_ids,
            epochs_done: 0,
        }
    }

    /// One REINFORCE step on one sequence's taped per-step states: samples
    /// an episode (its halt drawn uniformly during the warm-up epochs),
    /// backpropagates `l1 + alpha l2 + lambda l3 + lb` and steps both
    /// optimizers. Returns the loss.
    pub(crate) fn train_sequence<'s>(
        &mut self,
        sess: &'s Session,
        store: &mut ParamStore,
        cfg: &BaselineConfig,
        states: &[Var<'s>],
        label: usize,
        rng: &mut KvecRng,
    ) -> f32 {
        let forced_n =
            (self.epochs_done < cfg.warmup_epochs).then(|| rng.range(1, states.len() + 1));
        let episode =
            self.ectl
                .sample_halt(sess, store, states.len(), forced_n, |i| states[i], rng);
        let class_logits = self.classifier.logits(sess, store, states[episode.n_k - 1]);
        let reward = if class_logits.value().argmax_row(0) == label {
            1.0
        } else {
            -1.0
        };
        let l1 = cross_entropy_logits(class_logits, label);
        let mut losses = HaltLosses::default();
        let detached = |i: usize| states[i].detach();
        self.ectl
            .add_halt_losses(sess, store, &episode, reward, detached, &mut losses);
        let [l2, l3, lb] = losses.totals(sess);
        let total = l1
            .add(l2.scale(cfg.alpha))
            .add(l3.scale(cfg.lambda))
            .add(lb);
        let loss = total.value().item();
        sess.backward(total);
        sess.accumulate_grads(store);
        let mut groups = [
            (&self.model_ids[..], &mut self.opt_model),
            (&self.baseline_ids[..], &mut self.opt_baseline),
        ];
        guarded_step(store, &mut groups, cfg.grad_clip);
        loss
    }

    /// Ends a training epoch (the warm-up counts epochs).
    pub(crate) fn end_epoch(&mut self) {
        self.epochs_done += 1;
    }

    /// Deterministic halting over tape-free per-step states:
    /// `(n_k, prediction)` ([`ectl::threshold_halt`]).
    pub(crate) fn decide(
        &self,
        store: &ParamStore,
        states: &[Tensor],
        threshold: f32,
    ) -> (usize, usize) {
        ectl::threshold_halt(store, &self.ectl, &self.classifier, states, threshold)
    }
}
