//! Model and training configuration, including the paper's ablation
//! switches and the earliness-accuracy trade-off hyperparameters.

use kvec_data::ValueSchema;

/// Complete configuration of a KVEC model and its trainer.
#[derive(Debug, Clone)]
pub struct KvecConfig {
    // ---- data ----
    /// Cardinality of each value field (copied from the dataset schema).
    pub field_cardinalities: Vec<usize>,
    /// Index of the session field within the value fields.
    pub session_field: usize,
    /// Number of classes.
    pub num_classes: usize,

    // ---- architecture ----
    /// Model width `d` (the paper uses 128 for traffic, 64 for MovieLens).
    pub d_model: usize,
    /// Number of stacked attention blocks (paper: 6 or 2).
    pub n_blocks: usize,
    /// Attention heads per block (paper formulation: 1). `d_model` must
    /// divide by it.
    pub n_heads: usize,
    /// Layer normalization after every attention block — standard
    /// stabilizer for deeper stacks; off by default to match the paper's
    /// formulas.
    pub use_layer_norm: bool,
    /// Hidden width `d'` of the attention-block feed-forward network.
    pub d_ff: usize,
    /// Hidden width of the fusion LSTM state (paper: 256; the fused
    /// representation here keeps `d_model` width for simplicity of the
    /// downstream heads — the paper's 256-cell LSTM maps back to `d`).
    pub fusion_hidden: usize,
    /// Buckets for the hashed membership embedding (test keys are unseen,
    /// so keys hash into a fixed bucket space).
    pub membership_buckets: usize,
    /// Maximum relative position distinguished by the position embedding;
    /// later items clip to the last bucket.
    pub max_rel_pos: usize,
    /// Number of arrival-time buckets.
    pub time_buckets: usize,
    /// Items per arrival-time bucket.
    pub time_bucket_size: usize,
    /// Dropout probability inside attention blocks (paper: 0.1).
    pub dropout: f32,
    /// Residual connections around attention/FFN (see
    /// [`kvec_nn::AttentionBlock`]); on by default for trainability.
    pub use_residual: bool,
    /// Hidden width of the value-baseline network.
    pub baseline_hidden: usize,

    // ---- ablation switches (paper Fig. 9) ----
    /// Key correlation edges in the dynamic mask ("w/o Key Correlation"
    /// disables).
    pub use_key_correlation: bool,
    /// Value (session) correlation edges ("w/o Value Correlation"
    /// disables; each sequence is then modeled independently).
    pub use_value_correlation: bool,
    /// Relative-position + arrival-time embeddings ("w/o Time-related
    /// Embed." disables).
    pub use_time_embeddings: bool,
    /// Membership embedding ("w/o Membership Embed." disables).
    pub use_membership_embedding: bool,

    // ---- training (paper Table II & Section V-A4) ----
    /// Weight of the policy surrogate loss `l2` (paper freezes 0.1).
    pub alpha: f32,
    /// Weight of the lateness penalty `l3`; the earliness knob (paper tunes
    /// in `[-0.05, 5]`).
    pub beta: f32,
    /// Learning rate of the model parameters.
    pub lr: f32,
    /// Learning rate of the value baseline.
    pub lr_baseline: f32,
    /// Global gradient-norm clip.
    pub grad_clip: f32,
    /// Halting threshold at evaluation time (`Halt` when `pi > 0.5`).
    pub halt_threshold: f32,
    /// Representation warmup epochs before the halting policy trains: the
    /// classifier is supervised at *random* halting positions (policy
    /// losses off), so the reward signal the policy later sees is
    /// informative at every prefix. Without this, an untrained classifier
    /// makes early halts look as good as late ones and REINFORCE can lock
    /// into degenerate immediate halting.
    pub policy_warmup_epochs: usize,
}

impl KvecConfig {
    /// Paper-shaped defaults for a dataset schema (width 64, 2 blocks),
    /// scaled to CPU training.
    pub fn for_schema(schema: &ValueSchema, num_classes: usize) -> Self {
        Self {
            field_cardinalities: schema.cardinalities.clone(),
            session_field: schema.session_field,
            num_classes,
            d_model: 64,
            n_blocks: 2,
            n_heads: 1,
            use_layer_norm: false,
            d_ff: 128,
            fusion_hidden: 64,
            membership_buckets: 64,
            max_rel_pos: 64,
            time_buckets: 64,
            time_bucket_size: 8,
            dropout: 0.1,
            use_residual: true,
            baseline_hidden: 32,
            use_key_correlation: true,
            use_value_correlation: true,
            use_time_embeddings: true,
            use_membership_embedding: true,
            alpha: 0.1,
            beta: 0.01,
            lr: 1e-3,
            lr_baseline: 1e-3,
            grad_clip: 5.0,
            halt_threshold: 0.5,
            policy_warmup_epochs: 5,
        }
    }

    /// A small configuration for tests and quick experiments
    /// (width 16, 1 block).
    pub fn tiny(schema: &ValueSchema, num_classes: usize) -> Self {
        Self {
            d_model: 16,
            n_blocks: 1,
            d_ff: 32,
            fusion_hidden: 16,
            membership_buckets: 16,
            max_rel_pos: 32,
            time_buckets: 32,
            time_bucket_size: 8,
            baseline_hidden: 8,
            policy_warmup_epochs: 1,
            ..Self::for_schema(schema, num_classes)
        }
    }

    /// Sets the earliness-accuracy trade-off `beta` (builder style).
    pub fn with_beta(mut self, beta: f32) -> Self {
        self.beta = beta;
        self
    }

    /// Sets the policy-loss weight `alpha` (builder style).
    pub fn with_alpha(mut self, alpha: f32) -> Self {
        self.alpha = alpha;
        self
    }

    /// Validates internal consistency; panics with a descriptive message on
    /// misconfiguration. Called by [`crate::KvecModel::new`].
    pub fn validate(&self) {
        assert!(!self.field_cardinalities.is_empty(), "no value fields");
        assert!(
            self.session_field < self.field_cardinalities.len(),
            "session_field out of range"
        );
        assert!(self.num_classes >= 2, "need at least two classes");
        assert!(self.d_model > 0 && self.n_blocks > 0, "degenerate model");
        assert!(
            self.n_heads >= 1 && self.d_model.is_multiple_of(self.n_heads),
            "d_model must divide by n_heads"
        );
        assert!(
            self.fusion_hidden == self.d_model,
            "fusion_hidden must equal d_model (the fused state feeds the \
             classifier and policy heads directly)"
        );
        assert!(self.membership_buckets > 0, "membership_buckets == 0");
        assert!(self.max_rel_pos > 0 && self.time_buckets > 0, "bad buckets");
        assert!((0.0..1.0).contains(&self.dropout), "dropout out of range");
        assert!(self.alpha >= 0.0, "alpha must be non-negative");
        assert!(
            [self.lr, self.lr_baseline]
                .iter()
                .all(|lr| lr.is_finite() && *lr > 0.0),
            "learning rates must be finite and positive"
        );
        assert!(self.grad_clip > 0.0, "grad_clip must be positive");
        assert!(
            (0.0..=1.0).contains(&self.halt_threshold),
            "halt_threshold out of range"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> ValueSchema {
        ValueSchema::new(vec!["a".into(), "b".into()], vec![2, 16], 0)
    }

    #[test]
    fn defaults_validate() {
        KvecConfig::for_schema(&schema(), 10).validate();
        KvecConfig::tiny(&schema(), 2).validate();
    }

    #[test]
    fn builders_set_tradeoff_knobs() {
        let cfg = KvecConfig::tiny(&schema(), 2)
            .with_beta(0.5)
            .with_alpha(1.0);
        assert_eq!(cfg.beta, 0.5);
        assert_eq!(cfg.alpha, 1.0);
    }

    #[test]
    #[should_panic(expected = "at least two classes")]
    fn single_class_rejected() {
        KvecConfig::tiny(&schema(), 1).validate();
    }

    #[test]
    #[should_panic(expected = "fusion_hidden")]
    fn fusion_width_mismatch_rejected() {
        let mut cfg = KvecConfig::tiny(&schema(), 2);
        cfg.fusion_hidden = 8;
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "divide by n_heads")]
    fn indivisible_heads_rejected() {
        let mut cfg = KvecConfig::tiny(&schema(), 2);
        cfg.n_heads = 5;
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "learning rates must be finite")]
    fn infinite_learning_rate_rejected() {
        let mut cfg = KvecConfig::tiny(&schema(), 2);
        cfg.lr = f32::INFINITY;
        cfg.validate();
    }

    #[test]
    fn negative_beta_is_allowed() {
        // The paper sweeps beta down to -0.05 (rewarding lateness).
        let cfg = KvecConfig::tiny(&schema(), 2).with_beta(-0.05);
        cfg.validate();
    }
}
