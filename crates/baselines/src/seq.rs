//! Extraction of independent per-key sequences from tangled scenarios,
//! and the per-sequence training and evaluation drivers every baseline
//! runs on them.
//!
//! Every baseline ignores the tangled structure: it sees each key's items
//! in order, alone. This module performs that untangling.

use kvec::eval::{report_from_outcomes, EvalReport, KeyOutcome};
use kvec_data::{Key, TangledSequence};
use kvec_nn::{clip_global_norm, Adam, ParamId, ParamStore};

/// One independent sequence sample.
#[derive(Debug, Clone)]
pub struct SeqSample {
    /// The originating key.
    pub key: Key,
    /// Ground-truth label.
    pub label: usize,
    /// Value vectors in arrival order.
    pub values: Vec<Vec<u32>>,
    /// The scenario position of each item (`values[i]` arrived at
    /// `rows[i]`).
    pub rows: Vec<usize>,
}

impl SeqSample {
    /// Number of items.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when there are no items.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// Untangles scenarios into independent per-key sequences, preserving
/// per-key arrival order.
pub fn sequences_of(scenarios: &[TangledSequence]) -> Vec<SeqSample> {
    let mut out = Vec::new();
    for scenario in scenarios {
        let labels = scenario.label_map();
        for (key, rows) in scenario.key_subsequences() {
            out.push(SeqSample {
                key,
                label: labels[&key],
                values: rows
                    .iter()
                    .map(|&i| scenario.items[i].value.clone())
                    .collect(),
                rows,
            });
        }
    }
    out
}

/// One training pass over the untangled sequences of `scenarios`:
/// `train` takes one step per sequence and returns its loss. Returns the
/// mean loss.
pub(crate) fn train_sequences(
    scenarios: &[TangledSequence],
    mut train: impl FnMut(&SeqSample) -> f32,
) -> f32 {
    let seqs = sequences_of(scenarios);
    let mut total = 0.0;
    for seq in &seqs {
        total += train(seq);
    }
    total / seqs.len().max(1) as f32
}

/// The baselines' step guard, KVEC's trainer's rule for a bad gradient:
/// clips each group's gradients to a global norm of `max_norm` and steps
/// its optimizer, unless a gradient of any group is NaN or infinite — then
/// no optimizer steps. The gradients are zeroed either way. Returns
/// whether the step was taken.
pub(crate) fn guarded_step(
    store: &mut ParamStore,
    groups: &mut [(&[ParamId], &mut Adam)],
    max_norm: f32,
) -> bool {
    let mut finite = true;
    for (ids, _) in groups.iter() {
        finite &= clip_global_norm(store, ids, max_norm).is_some();
    }
    if finite {
        for (_, opt) in groups.iter_mut() {
            opt.step(store);
        }
    }
    store.zero_grads();
    finite
}

/// Evaluates the untangled sequences of `scenarios`: `decide` returns a
/// sequence's `(n_k, prediction)`. Independent sequences have no
/// cross-sequence attention, so all of it counts as internal.
pub(crate) fn evaluate_sequences(
    scenarios: &[TangledSequence],
    num_classes: usize,
    decide: impl Fn(&SeqSample) -> (usize, usize),
) -> EvalReport {
    let outcomes = sequences_of(scenarios)
        .into_iter()
        .map(|seq| {
            let (n_k, pred) = decide(&seq);
            KeyOutcome {
                key: seq.key,
                label: seq.label,
                pred,
                n_k,
                seq_len: seq.len(),
                halt_global_pos: seq.rows[n_k - 1],
                internal_attention: 1.0,
                external_attention: 0.0,
            }
        })
        .collect();
    report_from_outcomes(outcomes, num_classes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kvec_data::Item;
    use kvec_tensor::{KvecRng, Tensor};

    #[test]
    fn a_poisoned_gradient_leaves_every_parameter_unchanged() {
        let mut rng = KvecRng::seed_from_u64(3);
        let mut store = ParamStore::new();
        let model = store.add("model", Tensor::rand_uniform(3, 4, -1.0, 1.0, &mut rng));
        let baseline = store.add("baseline", Tensor::rand_uniform(1, 4, -1.0, 1.0, &mut rng));
        let (mut opt_model, mut opt_baseline) = (
            Adam::new(&store, vec![model], 0.1),
            Adam::new(&store, vec![baseline], 0.1),
        );
        let before = store.clone();
        let grads = |store: &mut ParamStore, poison: bool| {
            let mut g = Tensor::full(3, 4, 0.5);
            if poison {
                g.data_mut()[5] = f32::NAN;
            }
            store.accumulate_grad(model, &g);
            store.accumulate_grad(baseline, &Tensor::full(1, 4, -0.5));
        };
        let (model_ids, baseline_ids) = ([model], [baseline]);
        let mut step = |store: &mut ParamStore| {
            let mut groups = [
                (&model_ids[..], &mut opt_model),
                (&baseline_ids[..], &mut opt_baseline),
            ];
            guarded_step(store, &mut groups, 1.0)
        };

        grads(&mut store, true);
        assert!(!step(&mut store), "a NaN gradient is skipped");
        for id in [model, baseline] {
            assert_eq!(store.value(id), before.value(id), "{}", store.name(id));
            assert!(!store.value(id).has_non_finite());
            assert_eq!(store.grad(id).frobenius_norm(), 0.0, "gradients zeroed");
        }
        // The next finite step moves both groups, from unchanged moments.
        grads(&mut store, false);
        assert!(step(&mut store));
        for id in [model, baseline] {
            assert_ne!(store.value(id), before.value(id), "{}", store.name(id));
            assert!(!store.value(id).has_non_finite());
        }
    }

    #[test]
    fn untangles_preserving_order() {
        let items = vec![
            Item::new(Key(1), vec![0], 0),
            Item::new(Key(2), vec![9], 1),
            Item::new(Key(1), vec![1], 2),
        ];
        let t = TangledSequence::new(items, vec![(Key(1), 0), (Key(2), 1)]);
        let seqs = sequences_of(&[t]);
        assert_eq!(seqs.len(), 2);
        let k1 = seqs.iter().find(|s| s.key == Key(1)).unwrap();
        assert_eq!(k1.values, vec![vec![0], vec![1]]);
        assert_eq!(k1.rows, vec![0, 2]);
        assert_eq!(k1.label, 0);
        let k2 = seqs.iter().find(|s| s.key == Key(2)).unwrap();
        assert_eq!(k2.values, vec![vec![9]]);
        assert_eq!(k2.rows, vec![1]);
    }

    #[test]
    fn multiple_scenarios_concatenate() {
        let make =
            |k: u64| TangledSequence::new(vec![Item::new(Key(k), vec![0], 0)], vec![(Key(k), 0)]);
        let seqs = sequences_of(&[make(1), make(2), make(3)]);
        assert_eq!(seqs.len(), 3);
    }
}
