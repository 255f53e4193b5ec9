//! The ledger's tracer and shadow feed loop: `StreamingEngine::feed`
//! reassembled from public parts only, with a span around every call into a
//! layer, so `feed`'s time can be attributed without touching the engine.

use crate::gen::{Event, Pool};
use kvec::cache::CacheWindow;
use kvec::ectl::{Action, Ectl};
use kvec::mask::MaskBuilder;
use kvec::streaming::Decision;
use kvec::KvecModel;
use kvec_data::{Item, Key};
use kvec_tensor::Tensor;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

/// What a span covers: the root (`Feed`) or one public call inside it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Part {
    Feed,
    MaskPush,
    EmbedLookup,
    ProjectQkv,
    AttendRowWindow,
    FinishRow,
    LstmStep,
    Heads,
}

pub const PARTS: [(Part, &str); 8] = [
    (Part::Feed, "shadow.feed"),
    (Part::MaskPush, "core.mask_push"),
    (Part::EmbedLookup, "core.embed_lookup"),
    (Part::ProjectQkv, "nn.project_qkv"),
    (Part::AttendRowWindow, "nn.attend_row_window"),
    (Part::FinishRow, "nn.finish_row"),
    (Part::LstmStep, "nn.lstm_step"),
    (Part::Heads, "core.heads"),
];

#[derive(Clone, Copy)]
struct Span {
    part: Part,
    /// Index of the enclosing span, `u32::MAX` for a root.
    parent: u32,
    arrival: u32,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span recorder for one thread.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn with_capacity(spans: usize) -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::with_capacity(spans),
            open: Vec::with_capacity(4),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn enter(&mut self, part: Part, arrival: u32) {
        let parent = self.open.last().copied().unwrap_or(u32::MAX);
        self.open.push(self.spans.len() as u32);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            part,
            parent,
            arrival,
            start_ns,
            end_ns: start_ns,
        });
    }

    fn exit(&mut self) {
        let end_ns = self.now_ns();
        let id = self.open.pop().expect("exit without enter");
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Total self time per part, in `PARTS` order: each span's duration
    /// minus the duration of its children.
    pub fn self_ns(&self) -> [u64; PARTS.len()] {
        let mut children = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if span.parent != u32::MAX {
                children[span.parent as usize] += span.end_ns - span.start_ns;
            }
        }
        let mut out = [0u64; PARTS.len()];
        for (span, child_ns) in self.spans.iter().zip(children) {
            let slot = PARTS
                .iter()
                .position(|(p, _)| *p == span.part)
                .expect("listed");
            out[slot] += span.end_ns - span.start_ns - child_ns;
        }
        out
    }

    /// Nanoseconds an empty span reads: the share of the two clock reads
    /// that falls inside it, which every part's self time carries once per
    /// call and which is taken off again before the parts are reported.
    pub fn empty_span_ns() -> f64 {
        const N: usize = 20_000;
        let mut tr = Tracer::with_capacity(N + 1);
        tr.enter(Part::Feed, 0);
        for _ in 0..N {
            tr.enter(Part::Heads, 0);
            tr.exit();
        }
        tr.exit();
        tr.self_ns()[PARTS.len() - 1] as f64 / N as f64
    }

    /// Writes the spans of the first `arrivals` arrivals as JSON lines.
    pub fn write_jsonl(&self, workload: &str, arrivals: u32) -> std::io::Result<String> {
        let dir = std::path::Path::new("target").join("kvbench");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("trace-{workload}.jsonl"));
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        for (id, span) in self.spans.iter().enumerate() {
            if span.arrival >= arrivals {
                continue;
            }
            let name = PARTS
                .iter()
                .find(|(p, _)| *p == span.part)
                .expect("listed")
                .1;
            let parent = if span.parent == u32::MAX {
                "null".to_string()
            } else {
                span.parent.to_string()
            };
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{name}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"arrival\":{}}}",
                span.start_ns, span.end_ns, span.arrival
            )?;
        }
        out.flush()?;
        Ok(path.display().to_string())
    }
}

/// Arrivals whose spans go to the trace file (every span is timed; the
/// file holds the head of the lap).
pub const TRACE_FILE_ARRIVALS: u32 = 5_000;

struct ShadowKey {
    h: Tensor,
    c: Tensor,
    n_items: usize,
    halted: bool,
}

/// `StreamingEngine::feed` (halted-feed dropping, windowed cache)
/// reassembled from public parts only, with a span around every call into
/// a layer. Its decisions must equal the engine's bit for bit.
struct Shadow<'m> {
    model: &'m KvecModel,
    masks: MaskBuilder,
    keys: Vec<Tensor>,
    values: Vec<Tensor>,
    state: BTreeMap<Key, ShadowKey>,
    window: CacheWindow,
    t: usize,
    processed: u64,
    visible_total: u64,
}

impl<'m> Shadow<'m> {
    fn new(model: &'m KvecModel) -> Self {
        let cfg = &model.cfg;
        assert!(
            cfg.use_key_correlation && !cfg.use_layer_norm,
            "the shadow loop covers the benchmark's model configurations"
        );
        let blocks = model.encoder.blocks().len();
        Self {
            model,
            masks: MaskBuilder::streaming(cfg.use_key_correlation, cfg.use_value_correlation),
            keys: vec![Tensor::zeros(0, 0); blocks],
            values: vec![Tensor::zeros(0, 0); blocks],
            state: BTreeMap::new(),
            window: CacheWindow::new(),
            t: 0,
            processed: 0,
            visible_total: 0,
        }
    }

    fn feed(&mut self, item: &Item, arrival: u32, tr: &mut Tracer) -> Option<Decision> {
        tr.enter(Part::Feed, arrival);
        let decision = self.feed_inner(item, arrival, tr);
        tr.exit();
        decision
    }

    fn feed_inner(&mut self, item: &Item, arrival: u32, tr: &mut Tracer) -> Option<Decision> {
        if self.state.get(&item.key).is_some_and(|s| s.halted) {
            return None;
        }
        let model = self.model;
        let store = &model.store;

        tr.enter(Part::MaskPush, arrival);
        let edges = self
            .masks
            .push(item.key, item.value[model.cfg.session_field]);
        tr.exit();
        let global_pos = self.t;
        self.t += 1;
        let mut visible = Vec::with_capacity(edges.key_edges.len() + edges.value_edges.len() + 1);
        visible.extend_from_slice(&edges.key_edges);
        visible.extend_from_slice(&edges.value_edges);
        visible.push(global_pos);
        visible.sort_unstable();
        self.processed += 1;
        self.visible_total += visible.len() as u64;

        tr.enter(Part::EmbedLookup, arrival);
        let input = &model.encoder.input;
        let idx = input.indices_for_item(item.key, &item.value, edges.key_edges.len(), global_pos);
        let mut x = input.lookup_one(store, &idx);
        tr.exit();

        let base = self.window.base();
        for (l, block) in model.encoder.blocks().iter().enumerate() {
            tr.enter(Part::ProjectQkv, arrival);
            let k = block.project_k(store, &x);
            let v = block.project_v(store, &x);
            let q = block.project_q(store, &x);
            tr.exit();
            self.keys[l].push_row(k.data());
            self.values[l].push_row(v.data());
            tr.enter(Part::AttendRowWindow, arrival);
            let (attended, _) =
                block.attend_row_window(&q, &self.keys[l], &self.values[l], &visible, base);
            tr.exit();
            tr.enter(Part::FinishRow, arrival);
            x = block.finish_row(store, &attended, &x);
            tr.exit();
        }

        let d = model.cfg.fusion_hidden;
        let state = self.state.entry(item.key).or_insert_with(|| ShadowKey {
            h: Tensor::zeros(1, d),
            c: Tensor::zeros(1, d),
            n_items: 0,
            halted: false,
        });
        state.n_items += 1;
        tr.enter(Part::LstmStep, arrival);
        let (h, c) = model
            .encoder
            .fusion
            .step_tensors(store, &x, &state.h, &state.c);
        tr.exit();
        state.h = h;
        state.c = c;

        tr.enter(Part::Heads, arrival);
        let p_halt = model.ectl.halt_probability(store, &state.h);
        let mut decision = None;
        if Ectl::threshold_action(p_halt, model.cfg.halt_threshold) == Action::Halt {
            let (pred, probs) = model.classifier.predict(store, &state.h);
            decision = Some(Decision {
                key: item.key,
                pred,
                probs: probs.into_vec(),
                n_items: state.n_items,
                global_pos,
                halted_by_policy: true,
            });
        }
        tr.exit();
        if decision.is_some() {
            self.retire(item.key);
        }
        self.maintain_window();
        decision
    }

    fn halt_key(&mut self, key: Key) -> Option<Decision> {
        let state = self.state.get(&key)?;
        if state.halted || state.n_items == 0 {
            return None;
        }
        let (pred, probs) = self.model.classifier.predict(&self.model.store, &state.h);
        let decision = Decision {
            key,
            pred,
            probs: probs.into_vec(),
            n_items: state.n_items,
            global_pos: self.t.saturating_sub(1),
            halted_by_policy: false,
        };
        self.retire(key);
        self.maintain_window();
        Some(decision)
    }

    fn retire(&mut self, key: Key) {
        let state = self.state.get_mut(&key).expect("retiring a fed key");
        state.halted = true;
        state.h = Tensor::zeros(0, 0);
        state.c = Tensor::zeros(0, 0);
        self.masks.retire(key);
    }

    fn maintain_window(&mut self) {
        self.window.advance(self.masks.live_horizon());
        let dropped = self.window.take_compaction(self.t);
        if dropped > 0 {
            for cache in self.keys.iter_mut().chain(&mut self.values) {
                cache.drop_front_rows(dropped);
            }
        }
    }
}

/// What one traced lap of the shadow loop produced.
pub struct ShadowLap {
    pub decisions: Vec<Decision>,
    pub seconds: f64,
    pub processed: u64,
    /// Attended rows summed over processed arrivals.
    pub visible_total: u64,
}

/// One traced lap of the shadow loop over `pool`, from a fresh state;
/// `tr` is cleared first and holds the lap's spans afterwards.
pub fn shadow_lap(model: &KvecModel, pool: &Pool, tr: &mut Tracer) -> ShadowLap {
    tr.spans.clear();
    let mut shadow = Shadow::new(model);
    let mut decisions = Vec::new();
    let mut arrival = 0u32;
    let t0 = Instant::now();
    for event in pool.events() {
        let d = match event {
            Event::Item(item) => {
                arrival += 1;
                shadow.feed(item, arrival - 1, tr)
            }
            Event::FlowEnd(key) => shadow.halt_key(key),
        };
        decisions.extend(d);
    }
    ShadowLap {
        decisions,
        seconds: t0.elapsed().as_secs_f64(),
        processed: shadow.processed,
        visible_total: shadow.visible_total,
    }
}
