//! Evaluation: deterministic-threshold halting, classification metrics and
//! the paper's earliness / harmonic-mean measures (Section V-A3).

use crate::ectl::{Action, Ectl};
use crate::kvrl::EncodeWorkspace;
use crate::mask::split_attention_row;
use crate::model::KvecModel;
use kvec_data::{Key, TangledSequence};
use kvec_tensor::{simd, LstmGates, Tensor};

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

/// One key's halting decision on encoded rows.
#[derive(Debug, Clone)]
pub struct KeyDecision {
    /// Number of observed items `n_k`.
    pub n_k: usize,
    /// Predicted label.
    pub pred: usize,
    /// Class probabilities at the halt.
    pub probs: Vec<f32>,
}

/// Rows [`evaluate_scenario`] encodes between two rounds of decisions
/// (waves of 16 and 32 rows measured alike on `eval-batch`, 64 slower).
const WAVE: usize = 32;

/// Fusion and halting for many keys in lockstep: the fusion cell's gates
/// packed once, every key's state, and one round's gathered rows. Once a
/// key has decided, its `seen` is its `n_k`. Reused across scenarios.
struct Lockstep {
    gates: LstmGates,
    /// Per key: `h` and `c` (each `hidden` wide, flat), the items stepped
    /// and whether it has decided.
    h: Vec<f32>,
    c: Vec<f32>,
    seen: Vec<usize>,
    decided: Vec<bool>,
    /// One round's keys, then its `[h; x]` rows, gate pre-activations, `c`,
    /// `tanh(C')` and new `h`, one row per key.
    round: Vec<usize>,
    cat: Vec<f32>,
    z: Vec<f32>,
    c_round: Vec<f32>,
    tanh_c: Vec<f32>,
    h_round: Vec<f32>,
}

impl Lockstep {
    fn new(model: &KvecModel) -> Self {
        Self {
            gates: model.encoder.fusion.packed_gates(&model.store),
            h: Vec::new(),
            c: Vec::new(),
            seen: Vec::new(),
            decided: Vec::new(),
            round: Vec::new(),
            cat: Vec::new(),
            z: Vec::new(),
            c_round: Vec::new(),
            tanh_c: Vec::new(),
            h_round: Vec::new(),
        }
    }

    /// Starts `keys` keys at the zero state, none decided.
    fn reset(&mut self, keys: usize) {
        let hd = self.gates.hidden();
        for state in [&mut self.h, &mut self.c] {
            state.clear();
            state.resize(keys * hd, 0.0);
        }
        self.seen.clear();
        self.seen.resize(keys, 0);
        self.decided.clear();
        self.decided.resize(keys, false);
    }

    fn all_decided(&self) -> bool {
        self.decided.iter().all(|&d| d)
    }

    /// Key `k`'s hidden state as a `1 x hidden` row.
    fn h_row(&self, k: usize) -> Tensor {
        let hd = self.gates.hidden();
        Tensor::row_vector(&self.h[k * hd..(k + 1) * hd])
    }

    /// Steps every undecided key over its items (`rows_of(k)`, in arrival
    /// order) in the rows `< end` of `e`, in rounds: each round gathers
    /// the `[h; x]` row of every undecided key with a next item before
    /// `end`, steps them all in one [`LstmGates::round`], then reads each
    /// one's halting probability. The first item whose probability clears
    /// `cfg.halt_threshold` decides a key; a key that never clears it
    /// decides at its last item. A round row has the bits the default
    /// engine's one-row step gives, so every decision is the engine's.
    fn advance<'k>(
        &mut self,
        model: &KvecModel,
        e: &Tensor,
        end: usize,
        rows_of: impl Fn(usize) -> &'k [usize],
    ) {
        let (store, path) = (&model.store, simd::active_path());
        let (hd, width) = (self.gates.hidden(), self.gates.width());
        loop {
            self.round.clear();
            let ready = |k: &usize| {
                !self.decided[*k] && rows_of(*k).get(self.seen[*k]).is_some_and(|&g| g < end)
            };
            self.round.extend((0..self.seen.len()).filter(ready));
            let n = self.round.len();
            if n == 0 {
                return;
            }
            self.cat.resize(n * width, 0.0);
            self.z.resize(n * 4 * hd, 0.0);
            for buf in [&mut self.c_round, &mut self.tanh_c, &mut self.h_round] {
                buf.resize(n * hd, 0.0);
            }
            let rows = self
                .cat
                .chunks_exact_mut(width)
                .zip(self.c_round.chunks_exact_mut(hd));
            for (&k, (cat, c)) in self.round.iter().zip(rows) {
                cat[..hd].copy_from_slice(&self.h[k * hd..(k + 1) * hd]);
                cat[hd..].copy_from_slice(e.row(rows_of(k)[self.seen[k]]));
                c.copy_from_slice(&self.c[k * hd..(k + 1) * hd]);
            }
            let (c, tanh_c, h) = (&mut self.c_round, &mut self.tanh_c, &mut self.h_round);
            self.gates.round(path, &self.cat, &mut self.z, c, tanh_c, h);
            let rows = self
                .h_round
                .chunks_exact(hd)
                .zip(self.c_round.chunks_exact(hd));
            for (&k, (h, c)) in self.round.iter().zip(rows) {
                self.h[k * hd..(k + 1) * hd].copy_from_slice(h);
                self.c[k * hd..(k + 1) * hd].copy_from_slice(c);
                self.seen[k] += 1;
                let p_halt = model.ectl.halt_probability_row(store, h);
                let halt = Ectl::threshold_action(p_halt, model.cfg.halt_threshold) == Action::Halt;
                self.decided[k] = halt || self.seen[k] == rows_of(k).len();
            }
        }
    }
}

/// Runs fusion and halting over one key's rows of `e` (`item_rows`, in
/// arrival order): [`evaluate_scenario`]'s lockstep rounds with one key,
/// so the decision has the default engine's bits.
pub fn decide_key(model: &KvecModel, e: &Tensor, item_rows: &[usize]) -> KeyDecision {
    let mut key = Lockstep::new(model);
    key.reset(1);
    key.advance(model, e, e.rows(), |_| item_rows);
    let (pred, probs) = model.classifier.predict(&model.store, &key.h_row(0));
    let (n_k, probs) = (key.seen[0], probs.into_vec());
    KeyDecision { n_k, pred, probs }
}

/// What [`evaluate`] builds once per call and reuses for every scenario:
/// the encoder's workspace (weights packed once, buffers grown to the
/// most rows a scenario encoded) and the lockstep fusion.
struct Evaluator<'a> {
    model: &'a KvecModel,
    /// Lent to the scenario's [`PrefixEncoder`](crate::kvrl::PrefixEncoder)
    /// while it runs.
    encode: Option<EncodeWorkspace<'a>>,
    fusion: Lockstep,
}

impl<'a> Evaluator<'a> {
    fn new(model: &'a KvecModel) -> Self {
        Self {
            model,
            encode: Some(model.encoder.workspace(&model.store, &model.cfg)),
            fusion: Lockstep::new(model),
        }
    }

    /// [`evaluate_scenario_encoded`] on the reused workspace.
    fn scenario(&mut self, scenario: &'a TangledSequence) -> (Vec<KeyOutcome>, usize) {
        let model = self.model;
        let keys = scenario.key_subsequences();
        let rows_of = |k: usize| &keys[k].1[..];
        self.fusion.reset(keys.len());
        let ws = self.encode.take().expect("one scenario at a time");
        let mut prefix = ws.begin(scenario);
        while !self.fusion.all_decided() {
            let end = prefix.encoded() + WAVE;
            prefix.advance(end);
            self.fusion.advance(model, &prefix.rows().e, end, rows_of);
        }

        let rows = prefix.rows();
        let label_map = scenario.label_map();
        let mut outcomes = Vec::with_capacity(keys.len());
        for (k, (key, item_rows)) in keys.iter().enumerate() {
            let (pred, _) = model
                .classifier
                .predict(&model.store, &self.fusion.h_row(k));
            let n_k = self.fusion.seen[k];

            // Attention-mass split over the observed items.
            let mut internal = 0.0f32;
            let mut external = 0.0f32;
            for &g in &item_rows[..n_k] {
                let (visible, weights) = rows.row(g);
                let (i_mass, e_mass) = split_attention_row(&scenario.items, g, visible, weights);
                internal += i_mass;
                external += e_mass;
            }
            let inv = 1.0 / n_k as f32;

            outcomes.push(KeyOutcome {
                key: *key,
                label: label_map[key],
                pred,
                n_k,
                seq_len: item_rows.len(),
                halt_global_pos: item_rows[n_k - 1],
                internal_attention: internal * inv,
                external_attention: external * inv,
            });
        }
        let encoded = prefix.encoded();
        self.encode = Some(prefix.into_workspace());
        (outcomes, encoded)
    }
}

/// Evaluates one scenario, returning per-key outcomes. Every decision
/// equals the default `StreamingEngine`'s, bit for bit.
pub fn evaluate_scenario(model: &KvecModel, scenario: &TangledSequence) -> Vec<KeyOutcome> {
    evaluate_scenario_encoded(model, scenario).0
}

/// [`evaluate_scenario`] and the number of rows it encoded. The
/// [`PrefixEncoder`](crate::kvrl::PrefixEncoder) advances by `WAVE` (32)
/// rows; then every undecided key steps over its rows in the wave, in
/// lockstep rounds, and encoding stops once every key has decided. Row
/// `g` reads only rows `<= g`, so the rows past the last decision would
/// change none.
pub fn evaluate_scenario_encoded(
    model: &KvecModel,
    scenario: &TangledSequence,
) -> (Vec<KeyOutcome>, usize) {
    Evaluator::new(model).scenario(scenario)
}

/// One bucket of the per-position attention profile (paper Fig. 10).
#[derive(Debug, Clone, Copy, Default)]
pub struct AttentionBucket {
    /// Mean attention mass on intra-sequence edges.
    pub internal: f32,
    /// Mean attention mass on cross-sequence value-correlation edges.
    pub external: f32,
    /// Number of items aggregated.
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
    let mut ws = model.encoder.workspace(&model.store, &model.cfg);
    for scenario in scenarios {
        let mut prefix = ws.begin(scenario);
        prefix.advance(scenario.len());
        let rows = prefix.rows();
        for (_key, item_rows) in scenario.key_subsequences() {
            let len = item_rows.len();
            for (i, &g) in item_rows.iter().enumerate() {
                let rel = i as f32 / len as f32;
                let b = ((rel * bins as f32) as usize).min(bins - 1);
                let (visible, weights) = rows.row(g);
                let (int, ext) = split_attention_row(&scenario.items, g, visible, weights);
                buckets[b].internal += int;
                buckets[b].external += ext;
                buckets[b].count += 1;
            }
        }
        ws = prefix.into_workspace();
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
/// One workspace serves every scenario: the weights are packed once per
/// call, and each outcome equals [`evaluate_scenario`]'s on its scenario
/// alone.
pub fn evaluate(model: &KvecModel, scenarios: &[TangledSequence]) -> EvalReport {
    let mut evaluator = Evaluator::new(model);
    let outcomes = scenarios
        .iter()
        .flat_map(|s| evaluator.scenario(s).0)
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
    use crate::{KvecConfig, StreamingEngine};
    use kvec_data::mixer::tangle_group;
    use kvec_data::synth::{generate_traffic, TrafficConfig};
    use kvec_data::Dataset;
    use kvec_tensor::KvecRng;

    /// A tiny untrained model and one tangled group of its traffic, long
    /// enough that every key has arrived more than a wave before the end.
    fn early_exit_fixture(halt_threshold: f32) -> (KvecModel, TangledSequence) {
        let mut rng = KvecRng::seed_from_u64(5);
        let dcfg = TrafficConfig {
            num_flows: 6,
            num_classes: 2,
            mean_len: 30,
            min_len: 24,
            max_len: 36,
            ..TrafficConfig::traffic_app(0)
        };
        let tangled = tangle_group(&generate_traffic(&dcfg, &mut rng), &mut rng);
        let mut model = KvecModel::new(&KvecConfig::tiny(&dcfg.schema(), 2), &mut rng);
        model.cfg.halt_threshold = halt_threshold;
        (model, tangled)
    }

    /// Evaluates the scenario, checks every outcome bit-equal to the default
    /// engine's decision, and returns the rows evaluation encoded.
    fn rows_encoded_bit_equal_to_engine(model: &KvecModel, scenario: &TangledSequence) -> usize {
        let (outcomes, encoded) = evaluate_scenario_encoded(model, scenario);
        let decisions = StreamingEngine::run(model, scenario);
        let rows = model
            .encoder
            .encode_rows(&model.store, &model.cfg, scenario);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(outcomes.len(), decisions.len());
        for ((key, item_rows), o) in scenario.key_subsequences().iter().zip(&outcomes) {
            let d = decisions
                .iter()
                .find(|d| d.key == *key)
                .expect("engine decision");
            assert_eq!((o.key, o.pred, o.n_k), (d.key, d.pred, d.n_items));
            if d.halted_by_policy {
                assert_eq!(o.halt_global_pos, d.global_pos);
            }
            let batch = decide_key(model, &rows.e, item_rows);
            assert_eq!(
                bits(&batch.probs),
                bits(&d.probs),
                "probabilities of {key:?}"
            );
        }
        encoded
    }

    #[test]
    fn evaluation_stops_a_wave_after_the_last_decision() {
        // Every key halts on its first item, so the last decision is at the
        // last key's first arrival; encoding stops at the end of its wave.
        let (model, scenario) = early_exit_fixture(0.0);
        let encoded = rows_encoded_bit_equal_to_engine(&model, &scenario);
        let last_first = scenario
            .key_subsequences()
            .iter()
            .map(|(_, rows)| rows[0])
            .max();
        let want = (last_first.unwrap() + 1).next_multiple_of(WAVE);
        assert_eq!(encoded, want.min(scenario.len()));
        assert!(
            encoded < scenario.len(),
            "{encoded} of {} rows",
            scenario.len()
        );
        let outcomes = evaluate_scenario(&model, &scenario);
        assert!(outcomes.iter().all(|o| o.n_k == 1));
    }

    #[test]
    fn evaluation_encodes_every_row_when_no_key_halts() {
        let (model, scenario) = early_exit_fixture(1.0);
        assert_eq!(
            rows_encoded_bit_equal_to_engine(&model, &scenario),
            scenario.len()
        );
        let outcomes = evaluate_scenario(&model, &scenario);
        assert!(outcomes.iter().all(|o| o.n_k == o.seq_len));
    }

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
