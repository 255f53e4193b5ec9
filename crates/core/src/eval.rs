//! Evaluation: deterministic-threshold halting, classification metrics and
//! the paper's earliness / harmonic-mean measures (Section V-A3).

use crate::ectl::{Action, Ectl};
use crate::model::KvecModel;
use kvec_data::{Key, TangledSequence};
use kvec_nn::Session;
use kvec_tensor::sigmoid_scalar;

/// Outcome of one key-value sequence at evaluation time.
#[derive(Debug, Clone)]
pub struct KeyOutcome {
    /// The sequence's key.
    pub key: Key,
    /// Ground-truth label.
    pub label: usize,
    /// Predicted label.
    pub pred: usize,
    /// Number of observed items `n_k`.
    pub n_k: usize,
    /// Full sequence length `|S_k|`.
    pub seq_len: usize,
    /// Global stream position of the halting item.
    pub halt_global_pos: usize,
    /// Mean attention mass on intra-sequence (self + key-correlation)
    /// edges over the observed items, averaged over blocks (Fig. 10's
    /// "internal attention score").
    pub internal_attention: f32,
    /// Mean attention mass on cross-sequence value-correlation edges
    /// ("external attention score").
    pub external_attention: f32,
}

impl KeyOutcome {
    /// `n_k / |S_k|`, this sequence's contribution to earliness.
    pub fn halt_fraction(&self) -> f32 {
        self.n_k as f32 / self.seq_len as f32
    }

    /// Whether the prediction was correct.
    pub fn correct(&self) -> bool {
        self.pred == self.label
    }
}

/// Aggregate evaluation metrics.
#[derive(Debug, Clone, Default)]
pub struct EvalReport {
    /// Fraction of correctly classified sequences.
    pub accuracy: f32,
    /// Mean `n_k / |S_k|` — smaller is earlier.
    pub earliness: f32,
    /// Macro-averaged precision over classes with support.
    pub precision: f32,
    /// Macro-averaged recall.
    pub recall: f32,
    /// Macro-averaged F1.
    pub f1: f32,
    /// Harmonic mean of accuracy and (1 - earliness).
    pub hm: f32,
    /// Per-sequence outcomes (inputs to Figs. 10-11 style analyses).
    pub outcomes: Vec<KeyOutcome>,
}

/// Computes the harmonic mean of accuracy and earliness the paper reports:
/// `HM = 2 (1-E) A / ((1-E) + A)`.
pub fn harmonic_mean(accuracy: f32, earliness: f32) -> f32 {
    let e = 1.0 - earliness;
    if e + accuracy == 0.0 {
        0.0
    } else {
        2.0 * e * accuracy / (e + accuracy)
    }
}

/// Macro-averaged precision/recall/F1 over classes with support, given
/// `(label, pred)` pairs.
pub fn macro_prf(pairs: &[(usize, usize)], num_classes: usize) -> (f32, f32, f32) {
    let mut tp = vec![0usize; num_classes];
    let mut fp = vec![0usize; num_classes];
    let mut fn_ = vec![0usize; num_classes];
    for &(label, pred) in pairs {
        if label == pred {
            tp[label] += 1;
        } else {
            fp[pred] += 1;
            fn_[label] += 1;
        }
    }
    let mut p_sum = 0.0;
    let mut r_sum = 0.0;
    let mut f_sum = 0.0;
    let mut supported = 0usize;
    for c in 0..num_classes {
        let support = tp[c] + fn_[c];
        if support == 0 {
            continue;
        }
        supported += 1;
        let p = if tp[c] + fp[c] == 0 {
            0.0
        } else {
            tp[c] as f32 / (tp[c] + fp[c]) as f32
        };
        let r = tp[c] as f32 / support as f32;
        let f = if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        };
        p_sum += p;
        r_sum += r;
        f_sum += f;
    }
    if supported == 0 {
        (0.0, 0.0, 0.0)
    } else {
        let n = supported as f32;
        (p_sum / n, r_sum / n, f_sum / n)
    }
}

/// Evaluates one scenario, returning per-key outcomes.
///
/// Halting is deterministic: the first item whose halting probability
/// clears `cfg.halt_threshold` stops the sequence; a sequence that never
/// clears it is classified at its last item.
pub fn evaluate_scenario(model: &KvecModel, scenario: &TangledSequence) -> Vec<KeyOutcome> {
    if scenario.is_empty() {
        return Vec::new();
    }
    let sess = Session::new();
    let fwd = model.encode_stream(&sess, scenario, None);
    let label_map = scenario.label_map();
    let mut outcomes = Vec::new();

    for (key, item_rows) in scenario.key_subsequences() {
        let label = label_map[&key];
        let mut state = model.encoder.fusion.zero_state(&sess);
        let mut n_k = item_rows.len();
        let mut final_state = None;
        for (i, &g) in item_rows.iter().enumerate() {
            state = model
                .encoder
                .fusion
                .step(&sess, &model.store, fwd.e.row(g), state);
            let z = model.ectl.policy_logit(&sess, &model.store, state.h);
            let p_halt = sigmoid_scalar(z.value().item());
            if Ectl::threshold_action(p_halt, model.cfg.halt_threshold) == Action::Halt {
                n_k = i + 1;
                final_state = Some(state.h);
                break;
            }
        }
        let final_state = final_state.unwrap_or(state.h);
        let (pred, _probs) = model.classifier.predict(&model.store, &final_state.value());

        // Attention-mass split over the observed items (all blocks).
        let mut internal = 0.0f32;
        let mut external = 0.0f32;
        let mut samples = 0usize;
        for &g in &item_rows[..n_k] {
            for trace in &fwd.traces {
                let (i_mass, e_mass) = fwd.dyn_mask.split_attention_row(&trace.weights, g);
                internal += i_mass;
                external += e_mass;
                samples += 1;
            }
        }
        let inv = 1.0 / samples.max(1) as f32;

        outcomes.push(KeyOutcome {
            key,
            label,
            pred,
            n_k,
            seq_len: item_rows.len(),
            halt_global_pos: item_rows[n_k - 1],
            internal_attention: internal * inv,
            external_attention: external * inv,
        });
    }
    outcomes
}

/// One bucket of the per-position attention profile (paper Fig. 10).
#[derive(Debug, Clone, Copy, Default)]
pub struct AttentionBucket {
    /// Mean attention mass on intra-sequence edges.
    pub internal: f32,
    /// Mean attention mass on cross-sequence value-correlation edges.
    pub external: f32,
    /// Number of (item, block) samples aggregated.
    pub count: usize,
}

/// Profiles the internal/external attention split as a function of the
/// item's relative position inside its own sequence, over `bins` equal
/// buckets of `position / |S_k|` — the quantity behind the paper's
/// Fig. 10: early items (little intra-sequence history) should lean on
/// external attention, late items on internal.
pub fn attention_profile(
    model: &KvecModel,
    scenarios: &[TangledSequence],
    bins: usize,
) -> Vec<AttentionBucket> {
    assert!(bins > 0, "need at least one bin");
    let mut buckets = vec![AttentionBucket::default(); bins];
    for scenario in scenarios {
        if scenario.is_empty() {
            continue;
        }
        let sess = Session::new();
        let fwd = model.encode_stream(&sess, scenario, None);
        for (_key, item_rows) in scenario.key_subsequences() {
            let len = item_rows.len();
            for (i, &g) in item_rows.iter().enumerate() {
                let rel = i as f32 / len as f32;
                let b = ((rel * bins as f32) as usize).min(bins - 1);
                for trace in &fwd.traces {
                    let (int, ext) = fwd.dyn_mask.split_attention_row(&trace.weights, g);
                    buckets[b].internal += int;
                    buckets[b].external += ext;
                    buckets[b].count += 1;
                }
            }
        }
    }
    for b in &mut buckets {
        if b.count > 0 {
            b.internal /= b.count as f32;
            b.external /= b.count as f32;
        }
    }
    buckets
}

/// Evaluates a set of scenarios, in order, and aggregates every metric.
pub fn evaluate(model: &KvecModel, scenarios: &[TangledSequence]) -> EvalReport {
    let outcomes = scenarios
        .iter()
        .flat_map(|s| evaluate_scenario(model, s))
        .collect();
    report_from_outcomes(outcomes, model.cfg.num_classes)
}

/// Builds an [`EvalReport`] from raw outcomes (shared with the baselines).
pub fn report_from_outcomes(outcomes: Vec<KeyOutcome>, num_classes: usize) -> EvalReport {
    if outcomes.is_empty() {
        return EvalReport::default();
    }
    let n = outcomes.len() as f32;
    let accuracy = outcomes.iter().filter(|o| o.correct()).count() as f32 / n;
    let earliness = outcomes.iter().map(KeyOutcome::halt_fraction).sum::<f32>() / n;
    let pairs: Vec<(usize, usize)> = outcomes.iter().map(|o| (o.label, o.pred)).collect();
    let (precision, recall, f1) = macro_prf(&pairs, num_classes);
    EvalReport {
        accuracy,
        earliness,
        precision,
        recall,
        f1,
        hm: harmonic_mean(accuracy, earliness),
        outcomes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KvecConfig;
    use kvec_data::synth::{generate_traffic, TrafficConfig};
    use kvec_data::Dataset;
    use kvec_tensor::KvecRng;

    #[test]
    fn harmonic_mean_properties() {
        assert_eq!(harmonic_mean(0.0, 0.0), 0.0);
        assert!((harmonic_mean(1.0, 0.0) - 1.0).abs() < 1e-6);
        assert_eq!(harmonic_mean(0.0, 1.0), 0.0);
        // Symmetric in accuracy and (1 - earliness).
        let a = harmonic_mean(0.8, 0.4); // acc .8, 1-e .6
        let b = harmonic_mean(0.6, 0.2); // acc .6, 1-e .8
        assert!((a - b).abs() < 1e-6);
        // Dominated by the weaker of the two.
        assert!(harmonic_mean(0.9, 0.9) < 0.2);
    }

    #[test]
    fn macro_prf_perfect_and_degenerate() {
        let perfect = [(0, 0), (1, 1), (0, 0)];
        assert_eq!(macro_prf(&perfect, 2), (1.0, 1.0, 1.0));
        let all_wrong = [(0, 1), (1, 0)];
        let (p, r, f) = macro_prf(&all_wrong, 2);
        assert_eq!((p, r, f), (0.0, 0.0, 0.0));
        assert_eq!(macro_prf(&[], 3), (0.0, 0.0, 0.0));
    }

    #[test]
    fn macro_prf_skips_unsupported_classes() {
        // Class 2 never appears as a label; macro averages over 2 classes.
        let pairs = [(0, 0), (1, 1), (1, 2)];
        let (p, r, _f) = macro_prf(&pairs, 3);
        // class0: p=1 r=1; class1: p=1 r=0.5
        assert!((p - 1.0).abs() < 1e-6);
        assert!((r - 0.75).abs() < 1e-6);
    }

    #[test]
    fn evaluate_covers_every_key_and_bounds_hold() {
        let mut rng = KvecRng::seed_from_u64(1);
        let dcfg = TrafficConfig {
            num_flows: 20,
            num_classes: 2,
            mean_len: 12,
            min_len: 10,
            max_len: 16,
            ..TrafficConfig::traffic_app(0)
        };
        let pool = generate_traffic(&dcfg, &mut rng);
        let ds = Dataset::from_pool("t", dcfg.schema(), 2, pool, 4, &mut rng);
        let cfg = KvecConfig::tiny(&ds.schema, 2);
        let model = KvecModel::new(&cfg, &mut rng);

        let report = evaluate(&model, &ds.test);
        let test_keys: usize = ds.test.iter().map(TangledSequence::num_keys).sum();
        assert_eq!(report.outcomes.len(), test_keys);
        assert!((0.0..=1.0).contains(&report.accuracy));
        assert!(report.earliness > 0.0 && report.earliness <= 1.0);
        for o in &report.outcomes {
            assert!(o.n_k >= 1 && o.n_k <= o.seq_len);
            let total = o.internal_attention + o.external_attention;
            assert!(
                (total - 1.0).abs() < 1e-3,
                "attention masses must partition: {total}"
            );
        }
    }

    #[test]
    fn attention_profile_partitions_and_trends() {
        let mut rng = KvecRng::seed_from_u64(3);
        let dcfg = TrafficConfig {
            num_flows: 12,
            num_classes: 2,
            mean_len: 14,
            min_len: 10,
            max_len: 18,
            ..TrafficConfig::traffic_app(0)
        };
        let pool = generate_traffic(&dcfg, &mut rng);
        let ds = Dataset::from_pool("t", dcfg.schema(), 2, pool, 6, &mut rng);
        let cfg = KvecConfig::tiny(&ds.schema, 2);
        let model = KvecModel::new(&cfg, &mut rng);
        let profile = attention_profile(&model, &ds.test, 4);
        assert_eq!(profile.len(), 4);
        for b in &profile {
            if b.count > 0 {
                assert!(
                    (b.internal + b.external - 1.0).abs() < 1e-3,
                    "masses must partition"
                );
            }
        }
        // Structural property of the mask: the first bucket has the least
        // intra-sequence history, so its internal share is the smallest.
        let populated: Vec<_> = profile.iter().filter(|b| b.count > 0).collect();
        if populated.len() >= 2 {
            assert!(
                populated[0].internal <= populated.last().unwrap().internal + 1e-3,
                "internal attention should not shrink with position"
            );
        }
    }

    #[test]
    fn evaluation_is_deterministic() {
        let mut rng = KvecRng::seed_from_u64(2);
        let dcfg = TrafficConfig {
            num_flows: 12,
            num_classes: 2,
            mean_len: 12,
            min_len: 10,
            max_len: 14,
            ..TrafficConfig::traffic_app(0)
        };
        let pool = generate_traffic(&dcfg, &mut rng);
        let ds = Dataset::from_pool("t", dcfg.schema(), 2, pool, 4, &mut rng);
        let cfg = KvecConfig::tiny(&ds.schema, 2);
        let model = KvecModel::new(&cfg, &mut rng);
        let a = evaluate(&model, &ds.test);
        let b = evaluate(&model, &ds.test);
        assert_eq!(a.accuracy, b.accuracy);
        assert_eq!(a.earliness, b.earliness);
    }
}
