//! The streaming inference engine must agree exactly with batch
//! evaluation on a *trained* model, and batch evaluation must agree with
//! the taped teacher-forced forward that training runs — the contracts
//! that make the training-time full forward a valid surrogate for
//! deployment-time incremental inference.

use kvec::ectl::{Action, Ectl};
use kvec::eval::{decide_key, evaluate_scenario};
use kvec::kvrl::EncodedRows;
use kvec::train::Trainer;
use kvec::{KvecConfig, KvecModel, StreamingEngine};
use kvec_data::synth::{generate_traffic, TrafficConfig};
use kvec_data::{mixer, Dataset, Key, TangledSequence};
use kvec_nn::Session;
use kvec_tensor::{sigmoid_scalar, KvecRng, Tensor};
use std::collections::BTreeMap;

fn setup(seed: u64) -> (KvecModel, Dataset) {
    let mut rng = KvecRng::seed_from_u64(seed);
    let cfg = TrafficConfig {
        num_flows: 40,
        num_classes: 3,
        mean_len: 14,
        min_len: 10,
        max_len: 18,
        ..TrafficConfig::traffic_fg(0)
    };
    let pool = generate_traffic(&cfg, &mut rng);
    let ds = Dataset::from_pool("stream", cfg.schema(), 3, pool, 4, &mut rng);

    let mcfg = KvecConfig::tiny(&ds.schema, 3).with_beta(0.1);
    let mut model = KvecModel::new(&mcfg, &mut rng);
    let mut trainer = Trainer::new(&mcfg, &model);
    for _ in 0..6 {
        trainer
            .train_epoch(&mut model, &ds.train, &mut rng)
            .unwrap();
    }
    (model, ds)
}

#[test]
fn trained_streaming_matches_batch_on_every_test_scenario() {
    let (model, ds) = setup(11);
    for scenario in ds.test.iter().chain(&ds.val) {
        assert_bit_equal_to_engine(&model, scenario);
    }
}

#[test]
fn streaming_decisions_are_causal() {
    // A decision emitted at stream position p may only depend on items
    // 0..=p: replaying a truncated stream must reproduce every decision
    // whose position is inside the truncation.
    let (model, ds) = setup(13);
    let scenario = &ds.test[0];
    let full = StreamingEngine::run(&model, scenario);

    let cut = scenario.len() / 2;
    let prefix = scenario.prefix(cut);
    let mut engine = StreamingEngine::new(&model);
    let mut early_decisions = Vec::new();
    for item in &prefix.items {
        if let Some(d) = engine.feed(item).unwrap() {
            early_decisions.push(d);
        }
    }
    for d in &early_decisions {
        let in_full = full
            .iter()
            .find(|f| f.key == d.key && f.halted_by_policy)
            .expect("policy decision must also exist in the full replay");
        assert_eq!(d.pred, in_full.pred);
        assert_eq!(d.n_items, in_full.n_items);
        assert_eq!(d.global_pos, in_full.global_pos);
    }
}

#[test]
fn engine_throughput_state_grows_linearly() {
    // Smoke check on cache bookkeeping: items_seen counts every fed item,
    // halted keys never exceed key count.
    let (model, ds) = setup(17);
    let scenario = &ds.test[0];
    let mut engine = StreamingEngine::new(&model);
    for (i, item) in scenario.items.iter().enumerate() {
        let _ = engine.feed(item).unwrap();
        assert_eq!(engine.items_seen(), i + 1);
        assert!(engine.halted_count() <= scenario.num_keys());
    }
}

/// Untrained models over the block shapes and mask ablations the trained
/// fixture does not cover: two blocks, several heads with `W_o`, layer
/// norm, and each correlation switched off.
fn shape_fixtures() -> Vec<(KvecModel, TangledSequence)> {
    let mut rng = KvecRng::seed_from_u64(23);
    let dcfg = TrafficConfig {
        num_flows: 8,
        num_classes: 2,
        mean_len: 12,
        min_len: 10,
        max_len: 16,
        ..TrafficConfig::traffic_app(0)
    };
    let variants: [(usize, bool, bool, bool); 4] = [
        (2, true, true, true),
        (4, true, true, false),
        (1, false, true, true),
        (1, true, false, false),
    ];
    variants
        .into_iter()
        .map(|(heads, key_corr, value_corr, norm)| {
            let pool = generate_traffic(&dcfg, &mut rng);
            let tangled = mixer::tangle_group(&pool, &mut rng);
            let mut cfg = KvecConfig::tiny(&dcfg.schema(), 2);
            cfg.n_blocks = 2;
            cfg.n_heads = heads;
            cfg.use_key_correlation = key_corr;
            cfg.use_value_correlation = value_corr;
            cfg.use_layer_norm = norm;
            (KvecModel::new(&cfg, &mut rng), tangled)
        })
        .collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// `evaluate` is bit-equal to the default engine: same prediction, halting
/// point and halt position for every key, and the same class
/// probabilities to the bit.
fn assert_bit_equal_to_engine(model: &KvecModel, scenario: &TangledSequence) {
    let outcomes = evaluate_scenario(model, scenario);
    let decisions = StreamingEngine::run(model, scenario);
    assert_eq!(decisions.len(), outcomes.len());
    let engine: BTreeMap<_, _> = decisions.iter().map(|d| (d.key, d)).collect();
    let rows = model
        .encoder
        .encode_rows(&model.store, &model.cfg, scenario);
    let subsequences: BTreeMap<Key, Vec<usize>> = scenario.key_subsequences().into_iter().collect();
    for o in &outcomes {
        let d = engine[&o.key];
        let item_rows = &subsequences[&o.key];
        assert_eq!(
            (d.pred, d.n_items),
            (o.pred, o.n_k),
            "decision for {:?}",
            o.key
        );
        // A forced decision is stamped with the stream end, `evaluate`'s
        // with the key's last item.
        let engine_pos = if d.halted_by_policy {
            d.global_pos
        } else {
            *item_rows.last().unwrap()
        };
        assert_eq!(
            engine_pos, o.halt_global_pos,
            "halt position for {:?}",
            o.key
        );
        let batch = decide_key(model, &rows.e, item_rows);
        assert_eq!((batch.pred, batch.n_k), (o.pred, o.n_k));
        assert_eq!(
            bits(&batch.probs),
            bits(&d.probs),
            "probabilities for {:?}",
            o.key
        );
    }
}

#[test]
fn evaluate_is_bit_equal_to_the_default_engine_across_block_shapes() {
    for (model, scenario) in shape_fixtures() {
        assert_bit_equal_to_engine(&model, &scenario);
    }
}

/// Rows `0..end` of `want` — `e`, the CSR and its weights — are `got`'s,
/// bit for bit, and `got` holds no more.
fn assert_prefix_bit_equal(got: &EncodedRows, want: &EncodedRows, end: usize) {
    let (n, d) = (
        (0..end).map(|g| want.lists.row(g).len()).sum(),
        want.e.cols(),
    );
    assert_eq!(got.lists.len(), end, "rows encoded");
    assert_eq!(got.lists.nnz(), n, "entries up to row {end}");
    for g in 0..end {
        assert_eq!(got.lists.row(g), want.lists.row(g), "list of row {g}");
    }
    assert_eq!(
        bits(&got.weights),
        bits(&want.weights[..n]),
        "weights up to row {end}"
    );
    assert_eq!(
        bits(&got.e.data()[..end * d]),
        bits(&want.e.data()[..end * d]),
        "encoded rows up to row {end}"
    );
}

#[test]
fn piecewise_encoding_is_bit_equal_to_one_shot() {
    for (model, scenario) in &shape_fixtures() {
        let (store, cfg, t) = (&model.store, &model.cfg, scenario.len());
        let whole = model.encoder.encode_rows(store, cfg, scenario);
        // `advance` to each cut in turn; a cut at or below the rows
        // already encoded is a no-op, one past the stream is clamped.
        let encode_by = |cuts: &[usize]| {
            let mut prefix = model.encoder.prefix_encoder(store, cfg, scenario);
            for &end in cuts {
                let want = end.min(t).max(prefix.encoded());
                prefix.advance(end);
                assert_eq!(prefix.encoded(), want, "cuts {cuts:?}");
                assert_prefix_bit_equal(prefix.rows(), &whole, want);
            }
            assert_eq!(prefix.encoded(), t, "cuts {cuts:?}");
        };
        for wave in [1, 2, 7, 32, 64, t] {
            let cuts: Vec<usize> = (1..=t.div_ceil(wave)).map(|i| i * wave).collect();
            encode_by(&cuts);
        }
        kvec_check::check_n("random cuts", 32, |g| {
            let mut cuts: Vec<usize> = (0..g.usize_in(0, 9))
                .map(|_| g.usize_in(0, t + 2))
                .collect();
            cuts.push(t);
            encode_by(&cuts);
        });
    }
}

/// The taped evaluation `evaluate_scenario` ran before it moved onto the
/// tape-free forward: the training forward `encode_stream`, then one-row
/// fusion and policy tapes per key. Returns `(key, pred, n_k, halt
/// position)` in key-subsequence order.
fn taped_decisions(
    model: &KvecModel,
    scenario: &TangledSequence,
) -> Vec<(Key, usize, usize, usize)> {
    let sess = Session::new();
    let fwd = model.encode_stream(&sess, scenario, None);
    let mut out = Vec::new();
    for (key, item_rows) in scenario.key_subsequences() {
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
        let (pred, _) = model.classifier.predict(&model.store, &final_state.value());
        out.push((key, pred, n_k, item_rows[n_k - 1]));
    }
    out
}

#[test]
fn taped_training_forward_agrees_with_evaluate() {
    let (model, ds) = setup(11);
    let shapes = shape_fixtures();
    let trained = ds.test.iter().chain(&ds.val).map(|s| (&model, s));
    for (model, scenario) in trained.chain(shapes.iter().map(|(m, s)| (m, s))) {
        let got: Vec<_> = evaluate_scenario(model, scenario)
            .iter()
            .map(|o| (o.key, o.pred, o.n_k, o.halt_global_pos))
            .collect();
        assert_eq!(got, taped_decisions(model, scenario));

        let sess = Session::new();
        let taped = model.encode_stream(&sess, scenario, None).e.value();
        let rows = model
            .encoder
            .encode_rows(&model.store, &model.cfg, scenario);
        assert_eq!(
            bits(rows.e.data()),
            bits(taped.data()),
            "tape-free rows differ from the training forward"
        );
    }
}

/// Every key's halting probability after each of its items, on the
/// tape-free rows and the engine's one-row fusion step.
fn halt_probabilities(model: &KvecModel, scenario: &TangledSequence) -> Vec<Vec<f32>> {
    let (store, fusion) = (&model.store, &model.encoder.fusion);
    let rows = model.encoder.encode_rows(store, &model.cfg, scenario);
    let zeros = || Tensor::zeros(1, fusion.hidden());
    let per_key = scenario
        .key_subsequences()
        .into_iter()
        .map(|(_, item_rows)| {
            let (mut h, mut c) = (zeros(), zeros());
            let step = |&g: &usize| {
                (h, c) = fusion.step_tensors(store, &rows.e.row_tensor(g), &h, &c);
                model.ectl.halt_probability(store, &h)
            };
            item_rows.iter().map(step).collect()
        });
    per_key.collect()
}

#[test]
fn evaluate_over_many_scenarios_equals_each_scenario_alone() {
    // One `evaluate` call reuses its workspace — the encoded rows, the
    // per-block K/V, the CSR, the mask builder and the fusion states —
    // from scenario to scenario. Long, then short, then long: a short
    // scenario after a long one leaves stale rows past its end, and a
    // long one after a short one grows every buffer again.
    let (mut model, ds) = setup(19);
    let all = ds.train.iter().chain(&ds.val).chain(&ds.test);
    let mut scenarios: Vec<TangledSequence> = all.cloned().collect();
    scenarios.sort_by_key(TangledSequence::len);
    let short = scenarios.remove(0);
    let (long_a, long_b) = (scenarios.pop().unwrap(), scenarios.pop().unwrap());
    let scenarios = [long_a, short, long_b];
    assert!(scenarios[1].len() < scenarios[2].len());

    // A threshold some keys clear on their first item and others never
    // clear: stale fusion or mask state then moves an `n_k`.
    let probs: Vec<Vec<f32>> = scenarios
        .iter()
        .flat_map(|s| halt_probabilities(&model, s))
        .collect();
    let split = |t: f32| {
        let first = probs.iter().filter(|p| p[0] > t).count();
        let never = probs.iter().filter(|p| p.iter().all(|&x| x <= t)).count();
        first.min(never)
    };
    let threshold = probs
        .iter()
        .map(|p| p.iter().copied().fold(f32::MIN, f32::max))
        .max_by_key(|&t| split(t))
        .unwrap();
    assert!(split(threshold) > 0, "no threshold splits the keys");
    model.cfg.halt_threshold = threshold;

    let together = kvec::evaluate(&model, &scenarios).outcomes;
    let alone: Vec<_> = scenarios
        .iter()
        .flat_map(|s| evaluate_scenario(&model, s))
        .collect();
    assert_eq!(together.len(), alone.len());
    assert!(together.iter().any(|o| o.n_k == 1));
    assert!(together.iter().any(|o| o.n_k == o.seq_len && o.n_k > 1));
    let fields = |o: &kvec::eval::KeyOutcome| {
        (
            o.key,
            o.pred,
            o.n_k,
            o.halt_global_pos,
            o.internal_attention.to_bits(),
            o.external_attention.to_bits(),
        )
    };
    for (got, want) in together.iter().zip(&alone) {
        assert_eq!(fields(got), fields(want), "outcome of {:?}", want.key);
    }
}
