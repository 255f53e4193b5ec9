//! Online inference over a live tangled stream.
//!
//! [`StreamingEngine`] consumes items one at a time — the deployment mode
//! the paper motivates (a router classifying flows as packets arrive). It
//! exploits the causality of the dynamic mask: an item's representation at
//! every layer is fixed at arrival time, so the engine caches per-layer
//! keys/values and computes only the *new row* of each attention block per
//! arrival (`O(L * visible * d)` instead of re-encoding the prefix).
//!
//! The whole path is tape-free (plain tensors): no autodiff overhead at
//! inference. Equivalence with the teacher-forced training forward is
//! enforced by tests and by the `streaming_matches_batch` integration
//! test.
//!
//! # Bounded memory
//!
//! By default the per-layer KV caches append one row per arrival forever —
//! exact batch equivalence, but O(t·d) per layer on an unbounded stream.
//! Two opt-in modes trade the halted-key tail for a flat memory profile:
//!
//! * [`with_halted_feed_dropping`](StreamingEngine::with_halted_feed_dropping)
//!   drops arrivals of already-halted keys before they enter the caches
//!   (counted by `stream.halted_feed_drops`) and retires a key's mask
//!   state when it halts, so its rows leave every future visible set.
//! * [`with_windowed_cache`](StreamingEngine::with_windowed_cache)
//!   additionally evicts cache rows older than every live key's
//!   correlation window ([`MaskBuilder::live_horizon`]) through a
//!   compacting [`CacheWindow`], bounding resident rows to
//!   O(live span · d) per layer. Eviction only removes rows no visible
//!   list can ever reference again, so windowed decisions are
//!   bit-identical to the drop-only engine's (pinned by property test).

use crate::cache::CacheWindow;
use crate::ectl::{Action, Ectl};
use crate::embedding::ItemIndices;
use crate::mask::MaskBuilder;
use crate::model::KvecModel;
use kvec_data::{Item, Key, TangledSequence};
use kvec_json::Json;
use kvec_obs::{self as obs, FlowCtx, LazyCounter, LazyGauge, Level};
use kvec_tensor::Tensor;
use std::collections::btree_map::{BTreeMap, Entry};
use std::fmt;

/// Distinct keys with *live* (not yet halted) fusion state — sampled after
/// every accepted item and after every halt, so it settles back to zero as
/// sequences classify; its high-water mark is the concurrency a deployment
/// must provision for.
static ACTIVE_KEYS_GAUGE: LazyGauge = LazyGauge::new("stream.active_keys");
static STREAM_ITEMS: LazyCounter = LazyCounter::new("stream.items");
static STREAM_HALTS: LazyCounter = LazyCounter::new("stream.halts");
/// Feeds addressed to an already-halted key that were discarded under
/// [`StreamingEngine::with_halted_feed_dropping`].
static HALTED_FEED_DROPS: LazyCounter = LazyCounter::new("stream.halted_feed_drops");
/// Physical KV rows resident per layer right now. Flat on a long stream
/// under [`StreamingEngine::with_windowed_cache`]; equal to the arrival
/// count on the default unbounded engine.
static CACHE_ROWS_GAUGE: LazyGauge = LazyGauge::new("stream.cache_rows");
/// Total KV rows evicted from the front of the caches so far.
static EVICTED_ROWS_GAUGE: LazyGauge = LazyGauge::new("stream.evicted_rows");

/// Misuse of a [`StreamingEngine`], reported as a typed error instead of
/// silently corrupting per-key state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamError {
    /// [`StreamingEngine::feed`] was called after
    /// [`StreamingEngine::finish`]: the stream has ended and every
    /// sequence has already received its (possibly forced) decision, so a
    /// late arrival can no longer be attributed consistently.
    Finished,
    /// Feeding the item would start a new sequence beyond the configured
    /// [`StreamingEngine::with_max_active_keys`] bound. The engine state
    /// is untouched — the offending item was not consumed.
    ActiveKeyLimit {
        /// The configured bound that would have been exceeded.
        limit: usize,
    },
    /// [`StreamingEngine::halt_key`] named a key this engine has never
    /// fed. A deadline enforcer or transport layer asking to force-halt a
    /// key it mis-tracked is a caller bug worth surfacing, not a silent
    /// success.
    UnknownKey {
        /// The key that was never seen.
        key: Key,
    },
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::Finished => {
                write!(f, "stream already finished; feed() is no longer valid")
            }
            StreamError::ActiveKeyLimit { limit } => write!(
                f,
                "feeding this item would exceed the active-key bound of {limit}"
            ),
            StreamError::UnknownKey { key } => {
                write!(f, "key {key:?} has never been fed to this engine")
            }
        }
    }
}

impl std::error::Error for StreamError {}

/// The classification decision emitted when a sequence halts.
#[derive(Debug, Clone, PartialEq)]
pub struct Decision {
    /// The halted sequence's key.
    pub key: Key,
    /// Predicted class.
    pub pred: usize,
    /// Class probabilities.
    pub probs: Vec<f32>,
    /// Number of items observed before halting (`n_k`).
    pub n_items: usize,
    /// Global stream position of the halting item.
    pub global_pos: usize,
    /// Whether the policy halted (vs. the caller forcing classification
    /// via [`StreamingEngine::finish`] or
    /// [`StreamingEngine::halt_key`]).
    pub halted_by_policy: bool,
}

struct KeySeqState {
    h: Tensor,
    c: Tensor,
    n_items: usize,
    halted: bool,
}

impl KeySeqState {
    /// Frees the fusion state once a decision has been emitted — a halted
    /// key keeps only this struct's scalars, not two `d`-wide tensors.
    fn release(&mut self) {
        self.h = Tensor::zeros(0, 0);
        self.c = Tensor::zeros(0, 0);
    }
}

/// Incremental inference engine over one tangled stream.
pub struct StreamingEngine<'m> {
    model: &'m KvecModel,
    masks: MaskBuilder,
    /// Cached key/value projections per block. Row `g - base` holds global
    /// position `g`, where `base` is 0 for the unbounded engine and
    /// [`CacheWindow::base`] under `with_windowed_cache`.
    layer_keys: Vec<Tensor>,
    layer_values: Vec<Tensor>,
    keys_state: BTreeMap<Key, KeySeqState>,
    /// Accepted arrivals: rows appended to the mask and caches.
    t: usize,
    /// All `Ok` feeds, including halted-key drops.
    fed: usize,
    /// Halted sequences, maintained incrementally (O(1) `halted_count`).
    halted: usize,
    dropped_feeds: usize,
    finished: bool,
    max_active_keys: Option<usize>,
    high_water: usize,
    /// Discard feeds for already-halted keys and retire their mask state.
    drop_halted: bool,
    /// Prefix eviction over the KV caches (implies `drop_halted`).
    window: Option<CacheWindow>,
    /// Per-arrival scratch, reused so that `feed` allocates nothing once
    /// it has grown: the visible list, the item's lookup indices, the row
    /// `x` going through the blocks, one projection row, one block's
    /// logits and attended row, `finish_row`'s residual and FFN strip, and
    /// the LSTM step's `[h; x]` and gate strip.
    visible: Vec<usize>,
    indices: ItemIndices,
    x: Vec<f32>,
    row: Vec<f32>,
    logits: Vec<f32>,
    attended: Vec<f32>,
    block_scratch: Vec<f32>,
    fusion_scratch: Vec<f32>,
}

impl<'m> StreamingEngine<'m> {
    /// Creates an engine bound to a trained model.
    pub fn new(model: &'m KvecModel) -> Self {
        let n_blocks = model.encoder.blocks().len();
        Self {
            model,
            masks: MaskBuilder::streaming(
                model.cfg.use_key_correlation,
                model.cfg.use_value_correlation,
            ),
            layer_keys: vec![Tensor::zeros(0, 0); n_blocks],
            layer_values: vec![Tensor::zeros(0, 0); n_blocks],
            keys_state: BTreeMap::new(),
            t: 0,
            fed: 0,
            halted: 0,
            dropped_feeds: 0,
            finished: false,
            max_active_keys: None,
            high_water: 0,
            drop_halted: false,
            window: None,
            visible: Vec::new(),
            indices: ItemIndices::default(),
            x: vec![0.0; model.cfg.d_model],
            row: vec![0.0; model.cfg.d_model],
            logits: Vec::new(),
            attended: vec![0.0; model.cfg.d_model],
            block_scratch: Vec::new(),
            fusion_scratch: Vec::new(),
        }
    }

    /// Bounds the number of distinct keys the engine will track (a memory
    /// guard for long-lived deployments: each key holds per-sequence
    /// bookkeeping forever). Feeding an item that would *start* a new
    /// sequence beyond the bound returns [`StreamError::ActiveKeyLimit`];
    /// items of already known keys — live or halted — are unaffected.
    pub fn with_max_active_keys(mut self, limit: usize) -> Self {
        assert!(limit > 0, "active-key bound must be at least 1");
        self.max_active_keys = Some(limit);
        self
    }

    /// Discards feeds addressed to already-halted keys instead of caching
    /// them as attention context, and retires a key's mask state when it
    /// halts so its rows drop out of every future visible set.
    ///
    /// This is the semantic cut that makes bounded memory possible: under
    /// the default semantics a halted key's frozen trailing session stays
    /// value-attendable forever, pinning its whole history live. Dropped
    /// feeds are counted (`stream.halted_feed_drops`,
    /// [`halted_feed_drops`](StreamingEngine::halted_feed_drops)) rather
    /// than silently no-oped. Decisions for *live* keys change only in so
    /// far as halted-key context disappears — exact batch equivalence is
    /// traded for a flat memory profile.
    pub fn with_halted_feed_dropping(mut self) -> Self {
        self.drop_halted = true;
        self
    }

    /// Bounds resident KV cache memory: implies
    /// [`with_halted_feed_dropping`](StreamingEngine::with_halted_feed_dropping)
    /// and additionally evicts cache rows older than
    /// [`MaskBuilder::live_horizon`] — the oldest global position any live
    /// key's correlation window can still attend — through a compacting
    /// [`CacheWindow`]. Eviction never removes a row a future visible
    /// list can reference, so decisions are bit-identical to
    /// `with_halted_feed_dropping` alone (pinned by property test) while
    /// resident rows stay O(live span) regardless of stream length.
    pub fn with_windowed_cache(mut self) -> Self {
        self.drop_halted = true;
        self.window = Some(CacheWindow::new());
        self
    }

    /// Whether [`StreamingEngine::finish`] has been called.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Number of items consumed so far (including feeds dropped under
    /// [`with_halted_feed_dropping`](StreamingEngine::with_halted_feed_dropping)).
    pub fn items_seen(&self) -> usize {
        self.fed
    }

    /// Number of sequences already halted. O(1): maintained incrementally
    /// rather than scanning the key map.
    pub fn halted_count(&self) -> usize {
        self.halted
    }

    /// Distinct keys with live (not yet halted) fusion state.
    pub fn active_keys(&self) -> usize {
        self.keys_state.len() - self.halted
    }

    /// Distinct keys ever seen, live or halted — the count bounded by
    /// [`StreamingEngine::with_max_active_keys`].
    pub fn tracked_keys(&self) -> usize {
        self.keys_state.len()
    }

    /// The most keys this engine has ever had live at once — the
    /// concurrency a deployment should compare against
    /// [`StreamingEngine::with_max_active_keys`].
    pub fn active_keys_high_water(&self) -> usize {
        self.high_water
    }

    /// Physical KV rows currently resident per layer (equals the arrival
    /// count on the default unbounded engine).
    pub fn cache_rows(&self) -> usize {
        self.window.as_ref().map_or(self.t, |w| w.resident(self.t))
    }

    /// Total KV rows evicted so far (always 0 without
    /// [`with_windowed_cache`](StreamingEngine::with_windowed_cache)).
    pub fn evicted_rows(&self) -> usize {
        self.window.as_ref().map_or(0, CacheWindow::evicted)
    }

    /// Feeds discarded because their key had already halted (only under
    /// [`with_halted_feed_dropping`](StreamingEngine::with_halted_feed_dropping)).
    pub fn halted_feed_drops(&self) -> usize {
        self.dropped_feeds
    }

    /// Feeds one arriving item. Returns `Ok(Some(decision))` when this item
    /// makes its sequence halt. Items of already-halted sequences produce
    /// no further decisions: by default they still enter the attention
    /// caches (they remain visible context for other sequences — a
    /// deliberate `Ok(None)` no-op, not an error); under
    /// [`with_halted_feed_dropping`](StreamingEngine::with_halted_feed_dropping)
    /// they are counted and discarded instead.
    ///
    /// Fails — leaving the engine state untouched — when the stream was
    /// already [`finish`](StreamingEngine::finish)ed or the item would
    /// start a sequence beyond the active-key bound.
    pub fn feed(&mut self, item: &Item) -> Result<Option<Decision>, StreamError> {
        self.feed_traced(item, &FlowCtx::inactive())
    }

    /// [`feed`](StreamingEngine::feed) with a caller-supplied flow trace
    /// context: any decision this item triggers is emitted with the
    /// flow's `trace_id`, linking the engine-level `stream.decision`
    /// record to the serving layer's `flow.*` span chain. Passing
    /// [`FlowCtx::inactive`] (what `feed` does) is the untraced path and
    /// costs one branch.
    pub fn feed_traced(
        &mut self,
        item: &Item,
        ctx: &FlowCtx,
    ) -> Result<Option<Decision>, StreamError> {
        if self.finished {
            return Err(StreamError::Finished);
        }
        // The arrival's one key-state lookup. A new key's state is
        // inserted only past the active-key bound check, so a refused item
        // leaves the engine untouched.
        let tracked = self.keys_state.len();
        let d_fusion = self.model.cfg.fusion_hidden;
        let (state, tracked) = match self.keys_state.entry(item.key) {
            Entry::Occupied(slot) => (slot.into_mut(), tracked),
            Entry::Vacant(slot) => {
                if let Some(limit) = self.max_active_keys.filter(|&limit| tracked >= limit) {
                    return Err(StreamError::ActiveKeyLimit { limit });
                }
                let fresh = KeySeqState {
                    h: Tensor::zeros(1, d_fusion),
                    c: Tensor::zeros(1, d_fusion),
                    n_items: 0,
                    halted: false,
                };
                (slot.insert(fresh), tracked + 1)
            }
        };
        self.fed += 1;
        STREAM_ITEMS.add(1);
        if self.drop_halted && state.halted {
            self.dropped_feeds += 1;
            HALTED_FEED_DROPS.add(1);
            return Ok(None);
        }
        let model = self.model;
        let store = &model.store;
        let session_code = item.value[model.cfg.session_field];
        // The visible list: the key's history, the matching trailing
        // sessions of other keys and this arrival, merged ascending. The
        // two edge runs are disjoint (own items versus other keys' items),
        // so no index is attended twice — which would double its softmax
        // weight. Pinned by `mask::tests::key_and_value_edges_never_overlap`.
        let pos_in_key = self
            .masks
            .push_visible(item.key, session_code, &mut self.visible);
        let visible = &self.visible;
        debug_assert!(
            visible.windows(2).all(|w| w[0] < w[1]),
            "visible list has duplicates: {visible:?}"
        );
        // The mask counts a key's earlier items as the engine does, under
        // every correlation ablation: it retires a key only once the
        // key's later feeds are dropped.
        debug_assert_eq!(pos_in_key, state.n_items, "position within the key");
        let global_pos = self.t;
        self.t += 1;

        // Embed and run the new row through the block stack. Visible
        // positions are global; the window base maps them to physical
        // cache rows (0 for the unbounded engine).
        let base = self.window.as_ref().map_or(0, CacheWindow::base);
        let input = &model.encoder.input;
        input.indices_for_item_into(
            item.key,
            &item.value,
            pos_in_key,
            global_pos,
            &mut self.indices,
        );
        let x = &mut self.x;
        input.lookup_one_into(store, &self.indices, x);
        let row = &mut self.row;
        for (l, block) in model.encoder.blocks().iter().enumerate() {
            block.project_k_into(store, x, row);
            self.layer_keys[l].push_row(row);
            block.project_v_into(store, x, row);
            self.layer_values[l].push_row(row);
            block.project_q_into(store, x, row);
            block.attend_row_into(
                row,
                (&self.layer_keys[l], &self.layer_values[l]),
                visible,
                base,
                &mut self.logits,
                &mut self.attended,
                None,
            );
            block.finish_row_into(store, &self.attended, x, &mut self.block_scratch);
            if let Some(norms) = model.encoder.norms() {
                norms[l].apply_in_place(store, x);
            }
        }

        // Fusion + halting for this key (skipped once halted).
        let live = tracked - self.halted;
        self.high_water = self.high_water.max(live);
        ACTIVE_KEYS_GAUGE.set(live as f64);
        state.n_items += 1;
        if state.halted {
            self.maintain_window();
            return Ok(None);
        }
        model.encoder.fusion.step_into(
            store,
            x,
            state.h.data_mut(),
            state.c.data_mut(),
            &mut self.fusion_scratch,
        );

        let p_halt = model.ectl.halt_probability_row(store, state.h.data());
        let mut decision = None;
        if Ectl::threshold_action(p_halt, model.cfg.halt_threshold) == Action::Halt {
            state.halted = true;
            let (pred, probs) = model.classifier.predict(store, &state.h);
            state.release();
            let d = Decision {
                key: item.key,
                pred,
                probs: probs.into_vec(),
                n_items: state.n_items,
                global_pos,
                halted_by_policy: true,
            };
            self.note_halt(item.key);
            STREAM_HALTS.add(1);
            emit_decision(&d, ctx);
            decision = Some(d);
        }
        self.maintain_window();
        Ok(decision)
    }

    /// Tape-free look at a *live* key's current classifier posterior
    /// without halting it: `(argmax class, class probabilities)` as
    /// [`halt_key`](StreamingEngine::halt_key) would emit right now.
    /// `None` for unknown or already-halted keys. This is what a serving
    /// layer's load-shedding policy reads: a key whose posterior margin is
    /// already decisive is the cheapest arrival to drop under pressure.
    pub fn peek(&self, key: Key) -> Option<(usize, Vec<f32>)> {
        let state = self.keys_state.get(&key)?;
        if state.halted || state.n_items == 0 {
            return None;
        }
        let (pred, probs) = self.model.classifier.predict(&self.model.store, &state.h);
        Some((pred, probs.into_vec()))
    }

    /// Forces an immediate classification for one live key (e.g. the
    /// transport layer reported the flow closed, or a deadline enforcer
    /// is trading earliness for bounded latency). The emitted decision
    /// has `halted_by_policy: false`. Under the bounded-memory modes this
    /// also retires the key, letting the eviction horizon advance past
    /// its rows.
    ///
    /// Halting a key that already halted — naturally or forced — is a
    /// documented `Ok(None)` no-op: a deadline enforcer legitimately
    /// races natural halts, and the first decision must stand. Naming a
    /// key this engine has *never fed* returns
    /// [`StreamError::UnknownKey`]: that is a caller bookkeeping bug, not
    /// a race, and silently succeeding would hide it.
    pub fn halt_key(&mut self, key: Key) -> Result<Option<Decision>, StreamError> {
        self.halt_key_traced(key, &FlowCtx::inactive())
    }

    /// [`halt_key`](StreamingEngine::halt_key) with a flow trace context
    /// — see [`feed_traced`](StreamingEngine::feed_traced).
    pub fn halt_key_traced(
        &mut self,
        key: Key,
        ctx: &FlowCtx,
    ) -> Result<Option<Decision>, StreamError> {
        let model = self.model;
        let state = self
            .keys_state
            .get_mut(&key)
            .ok_or(StreamError::UnknownKey { key })?;
        if state.halted || state.n_items == 0 {
            return Ok(None);
        }
        state.halted = true;
        let (pred, probs) = model.classifier.predict(&model.store, &state.h);
        state.release();
        let decision = Decision {
            key,
            pred,
            probs: probs.into_vec(),
            n_items: state.n_items,
            global_pos: self.t.saturating_sub(1),
            halted_by_policy: false,
        };
        self.note_halt(key);
        self.maintain_window();
        STREAM_HALTS.add(1);
        emit_decision(&decision, ctx);
        Ok(Some(decision))
    }

    /// Forces a classification for every still-active sequence (stream
    /// end). Returns their decisions in key order. Marks the stream
    /// finished: any later [`feed`](StreamingEngine::feed) returns
    /// [`StreamError::Finished`]; calling `finish` again is an idempotent
    /// no-op returning an empty vector. The `stream.active_keys` gauge
    /// settles to zero and, under
    /// [`with_windowed_cache`](StreamingEngine::with_windowed_cache), the
    /// caches are fully reclaimed.
    pub fn finish(&mut self) -> Vec<Decision> {
        self.finished = true;
        let model = self.model;
        let mut decisions = Vec::new();
        let mut halted_keys = Vec::new();
        for (&key, state) in self.keys_state.iter_mut() {
            if state.halted || state.n_items == 0 {
                continue;
            }
            state.halted = true;
            let (pred, probs) = model.classifier.predict(&model.store, &state.h);
            state.release();
            let decision = Decision {
                key,
                pred,
                probs: probs.into_vec(),
                n_items: state.n_items,
                global_pos: self.t.saturating_sub(1),
                halted_by_policy: false,
            };
            halted_keys.push(key);
            STREAM_HALTS.add(1);
            emit_decision(&decision, &FlowCtx::inactive());
            decisions.push(decision);
        }
        for key in halted_keys {
            self.note_halt(key);
        }
        // Stream end: everything is dead; reclaim the caches outright.
        if let Some(window) = self.window.as_mut() {
            let drop = window.flush(self.t);
            if drop > 0 {
                for k in &mut self.layer_keys {
                    k.drop_front_rows(drop);
                }
                for v in &mut self.layer_values {
                    v.drop_front_rows(drop);
                }
            }
        }
        self.publish_memory_gauges();
        ACTIVE_KEYS_GAUGE.set(self.active_keys() as f64);
        decisions
    }

    /// Bookkeeping shared by every halt path: the incremental counter, the
    /// live-keys gauge, and (in drop mode) mask retirement so the key's
    /// rows leave every future visible set.
    fn note_halt(&mut self, key: Key) {
        self.halted += 1;
        if self.drop_halted {
            self.masks.retire(key);
        }
        ACTIVE_KEYS_GAUGE.set(self.active_keys() as f64);
    }

    /// Advances the eviction horizon, compacts the caches when the dead
    /// prefix is worth a memmove, and publishes the memory gauges.
    fn maintain_window(&mut self) {
        if let Some(window) = self.window.as_mut() {
            window.advance(self.masks.live_horizon());
            let drop = window.take_compaction(self.t);
            if drop > 0 {
                for k in &mut self.layer_keys {
                    k.drop_front_rows(drop);
                }
                for v in &mut self.layer_values {
                    v.drop_front_rows(drop);
                }
            }
        }
        self.publish_memory_gauges();
    }

    fn publish_memory_gauges(&self) {
        CACHE_ROWS_GAUGE.set(self.cache_rows() as f64);
        EVICTED_ROWS_GAUGE.set(self.evicted_rows() as f64);
    }

    /// Replays a whole tangled sequence, returning every decision
    /// (policy-halted first, then forced ones at stream end).
    pub fn run(model: &'m KvecModel, tangled: &TangledSequence) -> Vec<Decision> {
        let mut engine = StreamingEngine::new(model);
        let mut decisions = Vec::new();
        for item in &tangled.items {
            // A fresh unbounded engine that is never finished mid-stream
            // cannot hit a StreamError.
            if let Some(d) = engine.feed(item).expect("fresh engine cannot fault") {
                decisions.push(d);
            }
        }
        decisions.extend(engine.finish());
        decisions
    }
}

/// Debug-level record of one emitted [`Decision`]. Carries the flow's
/// `trace_id` when the caller fed through the traced entry points, so a
/// trace reader can join engine decisions to serving-layer span chains.
fn emit_decision(d: &Decision, ctx: &FlowCtx) {
    if !obs::event_enabled(Level::Debug) {
        return;
    }
    let mut fields = vec![
        ("key", Json::Int(d.key.0 as i128)),
        ("pred", Json::Int(d.pred as i128)),
        ("n_items", Json::Int(d.n_items as i128)),
        ("global_pos", Json::Int(d.global_pos as i128)),
        ("halted_by_policy", Json::Bool(d.halted_by_policy)),
    ];
    if ctx.is_active() {
        fields.push(("trace_id", Json::Int(ctx.trace_id as i128)));
    }
    obs::event(Level::Debug, "stream.decision", &fields);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::evaluate_scenario;
    use crate::KvecConfig;
    use kvec_data::synth::{generate_traffic, TrafficConfig};
    use kvec_data::{mixer, ValueSchema};
    use kvec_tensor::KvecRng;

    fn setup(seed: u64) -> (KvecModel, TangledSequence) {
        let mut rng = KvecRng::seed_from_u64(seed);
        let dcfg = TrafficConfig {
            num_flows: 6,
            num_classes: 2,
            mean_len: 12,
            min_len: 10,
            max_len: 16,
            ..TrafficConfig::traffic_app(0)
        };
        let pool = generate_traffic(&dcfg, &mut rng);
        let tangled = mixer::tangle_group(&pool, &mut rng);
        let cfg = KvecConfig::tiny(&dcfg.schema(), 2);
        let model = KvecModel::new(&cfg, &mut rng);
        (model, tangled)
    }

    #[test]
    fn every_key_gets_exactly_one_decision() {
        let (model, tangled) = setup(1);
        let decisions = StreamingEngine::run(&model, &tangled);
        assert_eq!(decisions.len(), tangled.num_keys());
        let mut keys: Vec<_> = decisions.iter().map(|d| d.key).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), tangled.num_keys());
        for d in &decisions {
            assert!((d.probs.iter().sum::<f32>() - 1.0).abs() < 1e-4);
            assert!(d.n_items >= 1);
        }
    }

    #[test]
    fn streaming_matches_teacher_forced_evaluation() {
        // The engine's incremental attention must reproduce the batch
        // forward exactly: same halting points, same predictions.
        let (model, tangled) = setup(2);
        let batch = evaluate_scenario(&model, &tangled);
        let streaming = StreamingEngine::run(&model, &tangled);

        let stream_map: std::collections::BTreeMap<_, _> =
            streaming.iter().map(|d| (d.key, d)).collect();
        for outcome in &batch {
            let d = stream_map[&outcome.key];
            assert_eq!(d.pred, outcome.pred, "prediction for {:?}", outcome.key);
            assert_eq!(d.n_items, outcome.n_k, "halt point for {:?}", outcome.key);
        }
    }

    #[test]
    fn engine_counts_and_finish_are_idempotent() {
        let (model, tangled) = setup(3);
        let mut engine = StreamingEngine::new(&model);
        for item in &tangled.items {
            let _ = engine.feed(item).unwrap();
        }
        assert_eq!(engine.items_seen(), tangled.len());
        assert_eq!(engine.tracked_keys(), tangled.num_keys());
        // Live + halted always partitions the tracked keys.
        assert_eq!(
            engine.active_keys() + engine.halted_count(),
            tangled.num_keys()
        );
        let high_water = engine.active_keys_high_water();
        assert!(high_water >= 1 && high_water <= tangled.num_keys());
        let first = engine.finish();
        let second = engine.finish();
        assert!(second.is_empty(), "finish must not re-emit decisions");
        assert_eq!(engine.halted_count(), tangled.num_keys());
        assert_eq!(engine.active_keys(), 0, "gauge state settles at finish");
        assert_eq!(
            engine.active_keys_high_water(),
            high_water,
            "finish must not inflate the high-water mark"
        );
        let _ = first;
    }

    #[test]
    fn feeding_after_finish_is_a_typed_error() {
        let (model, tangled) = setup(6);
        let mut engine = StreamingEngine::new(&model);
        engine.feed(&tangled.items[0]).unwrap();
        assert!(!engine.is_finished());
        engine.finish();
        assert!(engine.is_finished());
        let before = engine.items_seen();
        assert!(matches!(
            engine.feed(&tangled.items[1]),
            Err(StreamError::Finished)
        ));
        assert_eq!(engine.items_seen(), before, "rejected item was consumed");
        let msg = StreamError::Finished.to_string();
        assert!(msg.contains("finished"), "{msg}");
    }

    #[test]
    fn active_key_bound_rejects_new_keys_but_not_known_ones() {
        let (model, tangled) = setup(7);
        assert!(tangled.num_keys() > 1, "scenario must tangle several keys");
        let mut engine = StreamingEngine::new(&model).with_max_active_keys(1);
        let first_key = tangled.items[0].key;
        let mut rejected = 0usize;
        for item in &tangled.items {
            match engine.feed(item) {
                Ok(_) => assert_eq!(item.key, first_key),
                Err(StreamError::ActiveKeyLimit { limit }) => {
                    assert_eq!(limit, 1);
                    assert_ne!(item.key, first_key);
                    rejected += 1;
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert!(rejected > 0, "other keys should have been rejected");
        // Only the admitted key gets a decision.
        let mut engine_decisions: Vec<_> = engine.finish();
        assert!(engine_decisions.len() <= 1);
        engine_decisions.retain(|d| d.key != first_key);
        assert!(engine_decisions.is_empty());
    }

    #[test]
    fn feeding_a_halted_key_is_a_documented_no_op() {
        let (model, tangled) = setup(8);
        let mut engine = StreamingEngine::new(&model);
        let mut halted_key = None;
        for item in &tangled.items {
            let seen_before = engine.items_seen();
            let decision = engine.feed(item).unwrap();
            assert_eq!(engine.items_seen(), seen_before + 1);
            if let Some(d) = decision {
                halted_key = Some(d.key);
                break;
            }
        }
        let Some(key) = halted_key else {
            // Policy never halted on this seed; nothing further to check.
            return;
        };
        // Feeding more items of the halted key is Ok(None): the items enter
        // the attention caches but never re-open the sequence.
        let extra: Vec<_> = tangled.items.iter().filter(|i| i.key == key).collect();
        let halted_before = engine.halted_count();
        let cache_before = engine.cache_rows();
        let n_extra = extra.len();
        for item in extra {
            assert_eq!(engine.feed(item).unwrap().map(|d| d.key), None);
        }
        assert_eq!(engine.halted_count(), halted_before);
        assert_eq!(
            engine.cache_rows(),
            cache_before + n_extra,
            "default engine keeps halted-key items as attention context"
        );
        assert_eq!(engine.halted_feed_drops(), 0);
    }

    #[test]
    fn halted_feed_dropping_discards_and_counts() {
        let (model, tangled) = setup(8);
        let mut engine = StreamingEngine::new(&model).with_halted_feed_dropping();
        let mut halted_key = None;
        for item in &tangled.items {
            if let Some(d) = engine.feed(item).unwrap() {
                halted_key = Some(d.key);
                break;
            }
        }
        let Some(key) = halted_key else {
            return;
        };
        let extra: Vec<_> = tangled.items.iter().filter(|i| i.key == key).collect();
        let n_extra = extra.len();
        let cache_before = engine.cache_rows();
        let seen_before = engine.items_seen();
        for item in extra {
            assert_eq!(engine.feed(item).unwrap().map(|d| d.key), None);
        }
        assert_eq!(engine.halted_feed_drops(), n_extra);
        assert_eq!(
            engine.items_seen(),
            seen_before + n_extra,
            "drops still count as consumed"
        );
        assert_eq!(
            engine.cache_rows(),
            cache_before,
            "dropped feeds must not grow the cache"
        );
    }

    #[test]
    fn halt_key_forces_a_decision_once() {
        let (model, tangled) = setup(9);
        let mut engine = StreamingEngine::new(&model).with_halted_feed_dropping();
        // Feed a short prefix so at least one key has items but the
        // policy has (very likely) not classified everything yet.
        let mut fed_key = None;
        for item in tangled.items.iter().take(3) {
            let _ = engine.feed(item).unwrap();
            if fed_key.is_none() {
                fed_key = Some(item.key);
            }
        }
        let key = fed_key.expect("fed at least one item");
        let live_before = engine.active_keys();
        let halted_before = engine.halted_count();
        let Some(decision) = engine.halt_key(key).unwrap() else {
            // The policy already halted this key on its own; forcing it
            // again must be a no-op.
            assert_eq!(engine.halt_key(key), Ok(None));
            return;
        };
        assert_eq!(decision.key, key);
        assert!(!decision.halted_by_policy);
        assert!(decision.n_items >= 1);
        assert_eq!(engine.active_keys(), live_before - 1);
        assert_eq!(engine.halted_count(), halted_before + 1);
        assert_eq!(engine.halt_key(key), Ok(None), "second halt is a no-op");
        assert!(
            engine.finish().iter().all(|d| d.key != key),
            "finish must not re-emit a forced decision"
        );
        assert_eq!(engine.halt_key(key), Ok(None), "still halted after finish");
    }

    #[test]
    fn halt_key_on_an_unknown_key_is_a_typed_error() {
        let (model, tangled) = setup(11);
        let mut engine = StreamingEngine::new(&model);
        let fed = tangled.items[0].key;
        engine.feed(&tangled.items[0]).unwrap();
        // A key the engine has never seen must not silently "succeed":
        // the deadline enforcer calling halt_key concurrently with
        // natural halts needs to distinguish "already decided" (Ok(None),
        // a benign race) from "never existed" (its own bookkeeping bug).
        let ghost = Key(u64::MAX);
        assert_ne!(ghost, fed);
        let err = engine.halt_key(ghost).unwrap_err();
        assert_eq!(err, StreamError::UnknownKey { key: ghost });
        assert!(err.to_string().contains("never been fed"), "{err}");
        // The failed call must not have perturbed any engine state.
        assert_eq!(engine.tracked_keys(), 1);
        assert_eq!(engine.halted_count(), 0);
        // A live key force-halts fine, and a *repeat* force-halt is the
        // documented Ok(None) no-op — not UnknownKey, not a decision.
        assert!(engine.halt_key(fed).unwrap().is_some());
        assert_eq!(engine.halt_key(fed), Ok(None));
        // Unknown stays unknown even after finish.
        engine.finish();
        assert_eq!(
            engine.halt_key(ghost),
            Err(StreamError::UnknownKey { key: ghost })
        );
    }

    #[test]
    fn peek_reads_the_live_posterior_without_halting() {
        let (model, tangled) = setup(12);
        let mut engine = StreamingEngine::new(&model);
        assert!(engine.peek(tangled.items[0].key).is_none(), "nothing fed");
        for item in tangled.items.iter().take(4) {
            let _ = engine.feed(item).unwrap();
        }
        // Pick any key still live after the warmup (peek is None for the
        // ones the policy already halted).
        let live_key = tangled
            .items
            .iter()
            .take(4)
            .map(|i| i.key)
            .find(|&k| engine.peek(k).is_some());
        let Some(key) = live_key else { return };
        let halted_before = engine.halted_count();
        let (pred, probs) = engine.peek(key).expect("key is live");
        assert!((probs.iter().sum::<f32>() - 1.0).abs() < 1e-4);
        // Peeking must not decide anything.
        assert_eq!(engine.halted_count(), halted_before, "peek must not halt");
        // The forced decision must be exactly what peek promised.
        let d = engine.halt_key(key).unwrap().expect("key was live");
        assert_eq!(d.pred, pred);
        let bits = |p: &[f32]| p.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&d.probs), bits(&probs));
        assert!(engine.peek(key).is_none(), "halted keys have no posterior");
    }

    #[test]
    fn windowed_cache_matches_drop_mode_decisions() {
        let (model, tangled) = setup(10);
        let run = |mut engine: StreamingEngine| -> Vec<Decision> {
            let mut out = Vec::new();
            for item in &tangled.items {
                if let Some(d) = engine.feed(item).unwrap() {
                    out.push(d);
                }
            }
            out.extend(engine.finish());
            assert_eq!(engine.active_keys(), 0);
            out
        };
        let reference = run(StreamingEngine::new(&model).with_halted_feed_dropping());
        let mut windowed_engine = StreamingEngine::new(&model).with_windowed_cache();
        let mut windowed = Vec::new();
        for item in &tangled.items {
            if let Some(d) = windowed_engine.feed(item).unwrap() {
                windowed.push(d);
            }
        }
        windowed.extend(windowed_engine.finish());
        assert_eq!(
            windowed_engine.cache_rows(),
            0,
            "finish reclaims the windowed caches outright"
        );
        // Every accepted arrival (dropped halted-key feeds never enter
        // the cache) is eventually evicted.
        assert_eq!(
            windowed_engine.evicted_rows() + windowed_engine.halted_feed_drops(),
            tangled.len()
        );

        assert_eq!(reference.len(), windowed.len());
        for (a, b) in reference.iter().zip(&windowed) {
            assert_eq!(a.key, b.key);
            assert_eq!(a.pred, b.pred);
            assert_eq!(a.n_items, b.n_items);
            assert_eq!(a.global_pos, b.global_pos);
            assert_eq!(a.halted_by_policy, b.halted_by_policy);
            // Bit-identical, not merely close: eviction must not perturb
            // a single arithmetic input.
            let bits = |p: &[f32]| p.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&a.probs), bits(&b.probs));
        }
    }

    #[test]
    fn multi_head_layer_norm_streaming_matches_batch() {
        let mut rng = KvecRng::seed_from_u64(5);
        let dcfg = TrafficConfig {
            num_flows: 6,
            num_classes: 2,
            mean_len: 12,
            min_len: 10,
            max_len: 14,
            ..TrafficConfig::traffic_app(0)
        };
        let pool = generate_traffic(&dcfg, &mut rng);
        let tangled = mixer::tangle_group(&pool, &mut rng);
        let mut cfg = KvecConfig::tiny(&dcfg.schema(), 2);
        cfg.n_heads = 4;
        cfg.use_layer_norm = true;
        let model = KvecModel::new(&cfg, &mut rng);

        let batch = evaluate_scenario(&model, &tangled);
        let streaming = StreamingEngine::run(&model, &tangled);
        let stream_map: std::collections::BTreeMap<_, _> =
            streaming.iter().map(|d| (d.key, d)).collect();
        for outcome in &batch {
            assert_eq!(stream_map[&outcome.key].pred, outcome.pred);
            assert_eq!(stream_map[&outcome.key].n_items, outcome.n_k);
        }
    }

    #[test]
    fn works_with_ablated_correlations() {
        let mut rng = KvecRng::seed_from_u64(4);
        let dcfg = TrafficConfig {
            num_flows: 4,
            num_classes: 2,
            mean_len: 10,
            min_len: 10,
            max_len: 12,
            ..TrafficConfig::traffic_app(0)
        };
        let pool = generate_traffic(&dcfg, &mut rng);
        let tangled = mixer::tangle_group(&pool, &mut rng);
        let schema: ValueSchema = dcfg.schema();
        let mut cfg = KvecConfig::tiny(&schema, 2);
        cfg.use_key_correlation = false;
        cfg.use_value_correlation = false;
        let model = KvecModel::new(&cfg, &mut rng);

        let batch = evaluate_scenario(&model, &tangled);
        let streaming = StreamingEngine::run(&model, &tangled);
        let stream_map: std::collections::BTreeMap<_, _> =
            streaming.iter().map(|d| (d.key, d)).collect();
        for outcome in &batch {
            assert_eq!(stream_map[&outcome.key].pred, outcome.pred);
            assert_eq!(stream_map[&outcome.key].n_items, outcome.n_k);
        }
    }
}
