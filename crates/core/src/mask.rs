//! The dynamic correlation mask `M^(t)` (paper Section IV-B).
//!
//! Visibility rules for an arriving item `e_t` (with key `k` and session
//! code `v` — the value of its session field):
//!
//! - **self**: `M_tt = 0` always;
//! - **key correlation** `e_t ~key~ e_j`: every earlier item of the same
//!   key `k` is visible;
//! - **value correlation** `e_t ~value~ e_j`: every item in the *trailing
//!   session* of another key `k'` is visible when that trailing session's
//!   code equals `v` — i.e. appending `e_t` to `S_{k'}` would continue that
//!   session (this operationalizes the paper's "if we change `e_t.k` to
//!   `e_3.k`, then they belong to a same session" example);
//! - everything else is `-inf` (invisible), and causality (`j <= t`) holds
//!   by construction.
//!
//! The builder is incremental: rows are fixed at arrival time and never
//! change afterwards, matching how `M^(t)` grows in the paper and enabling
//! the streaming inference engine to cache per-layer attention outputs.
//! A session index (code → positions of the matching trailing sessions)
//! keeps an arrival's cost linear in its visible set, with no scan over
//! the live keys and no sort.

use kvec_data::{Item, Key, TangledSequence};
use kvec_tensor::VisibleLists;
use std::collections::BTreeMap;

/// Classification of one (query item, earlier item) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeKind {
    /// Invisible (masked out).
    None,
    /// The diagonal.
    SelfEdge,
    /// Same key — *internal* attention in the paper's Fig. 10 terms.
    Key,
    /// Cross-sequence session match — *external* attention.
    Value,
}

/// The visible set of one arriving item, split by correlation type.
#[derive(Debug, Clone, Default)]
pub struct RowEdges {
    /// Indices of earlier same-key items.
    pub key_edges: Vec<usize>,
    /// Indices of earlier cross-key session-matched items.
    pub value_edges: Vec<usize>,
}

struct KeyState {
    /// Global positions of the key's registered items, ascending.
    items: Vec<usize>,
    trailing_code: u32,
    /// The trailing session is the suffix `items[trailing_start..]`: a
    /// session is a maximal run of one code, and the trailing one is the
    /// key's last run.
    trailing_start: usize,
    /// Oldest global position any *future* arrival can still attend
    /// through this key: with key correlation, its first item (key edges
    /// reach the whole history); otherwise the start of its trailing
    /// session (the only value-edge targets); `None` when both
    /// correlations are ablated (no row of this key outlives its own
    /// arrival).
    anchor: Option<usize>,
}

impl KeyState {
    fn trailing(&self) -> &[usize] {
        &self.items[self.trailing_start..]
    }
}

/// The three ascending runs one arrival's visible set is made of, read
/// before the arrival is registered.
struct Runs<'a> {
    /// The key's own history (empty without key correlation).
    own: &'a [usize],
    /// Every registered key's trailing session with the arriving code
    /// (empty without value correlation), the arriving key's included.
    shared: &'a [usize],
    /// The arriving key's own trailing session when it is in `shared`:
    /// value edges reach only *other* keys, so these are skipped there.
    skip: &'a [usize],
}

impl Runs<'_> {
    /// `shared \ skip`: the value edges, ascending.
    fn value_edges(&self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.shared.len() - self.skip.len());
        let mut s = 0;
        for &p in self.shared {
            if self.skip.get(s) == Some(&p) {
                s += 1;
            } else {
                out.push(p);
            }
        }
        out
    }

    fn row_edges(&self) -> RowEdges {
        RowEdges {
            key_edges: self.own.to_vec(),
            value_edges: self.value_edges(),
        }
    }

    /// Appends `own ∪ (shared \ skip) ∪ {t}` to `out` in ascending order,
    /// as one linear merge. The union is disjoint — `own` holds only the
    /// arriving key's items, `shared \ skip` only other keys' — so no
    /// index is written twice, and `t` exceeds every earlier position.
    fn merge_into(&self, t: usize, out: &mut Vec<usize>) {
        out.reserve(self.own.len() + self.shared.len() + 1);
        let (own, mut i, mut s) = (self.own, 0, 0);
        for &p in self.shared {
            if self.skip.get(s) == Some(&p) {
                s += 1;
                continue;
            }
            while i < own.len() && own[i] < p {
                out.push(own[i]);
                i += 1;
            }
            out.push(p);
        }
        out.extend_from_slice(&own[i..]);
        out.push(t);
    }
}

/// Removes `gone` from `list`; both ascending, `gone ⊆ list`.
fn remove_sorted(list: &mut Vec<usize>, gone: &[usize]) {
    let Some(&first) = gone.first() else {
        return;
    };
    let start = list.partition_point(|&p| p < first);
    let (mut g, mut w) = (0, start);
    for r in start..list.len() {
        let p = list[r];
        if gone.get(g) == Some(&p) {
            g += 1;
        } else {
            list[w] = p;
            w += 1;
        }
    }
    debug_assert_eq!(g, gone.len(), "removed positions not in the session list");
    list.truncate(w);
}

/// Incremental builder of the dynamic mask.
pub struct MaskBuilder {
    use_key: bool,
    use_value: bool,
    keys: BTreeMap<Key, KeyState>,
    /// The session index (maintained only under value correlation):
    /// session code → the ascending positions of every registered key's
    /// trailing session with that code. An arrival appends its own
    /// position to its code's list; a session switch or a retirement
    /// removes the key's old trailing session from its list. So the value
    /// edges of an arrival are one list, read without a scan over the
    /// keys. A list that empties keeps its entry, so the index holds at
    /// most one list per code the session field takes.
    sessions: BTreeMap<u32, Vec<usize>>,
    /// Every row's edges, kept by the row-recording test builder for the
    /// [`Self::recorded_lists`] / [`Self::edge_kinds`] oracles.
    #[cfg(test)]
    rows: Option<Vec<RowEdges>>,
    /// Items pushed so far.
    len: usize,
    /// Multiset of the registered keys' anchors (position -> key count).
    /// Its minimum is [`Self::live_horizon`].
    anchors: BTreeMap<usize, usize>,
}

fn add_anchor(anchors: &mut BTreeMap<usize, usize>, pos: usize) {
    *anchors.entry(pos).or_insert(0) += 1;
}

fn remove_anchor(anchors: &mut BTreeMap<usize, usize>, pos: usize) {
    match anchors.get_mut(&pos) {
        Some(1) => {
            anchors.remove(&pos);
        }
        Some(n) => *n -= 1,
        None => debug_assert!(false, "anchor {pos} not in multiset"),
    }
}

impl MaskBuilder {
    /// Creates a builder; the flags implement the paper's Fig. 9 ablations.
    /// No row's edges are retained, so builder memory is O(live keys ·
    /// window), not O(stream length).
    pub fn streaming(use_key: bool, use_value: bool) -> Self {
        Self {
            use_key,
            use_value,
            keys: BTreeMap::new(),
            sessions: BTreeMap::new(),
            #[cfg(test)]
            rows: None,
            len: 0,
            anchors: BTreeMap::new(),
        }
    }

    /// A builder with identical edges that also records every row's edges,
    /// for the [`Self::recorded_lists`] / [`Self::edge_kinds`] oracles.
    #[cfg(test)]
    pub fn new(use_key: bool, use_value: bool) -> Self {
        Self {
            rows: Some(Vec::new()),
            ..Self::streaming(use_key, use_value)
        }
    }

    /// Forgets every item and key, as a fresh [`Self::streaming`] builder
    /// with the same flags, but keeps the session index's lists (emptied)
    /// and their allocations for the next stream.
    pub fn reset(&mut self) {
        self.keys.clear();
        self.sessions.values_mut().for_each(Vec::clear);
        self.anchors.clear();
        self.len = 0;
        #[cfg(test)]
        if let Some(rows) = &mut self.rows {
            rows.clear();
        }
    }

    /// Number of items pushed so far.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True before any item arrives.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of keys currently registered (not yet retired).
    pub fn tracked_keys(&self) -> usize {
        self.keys.len()
    }

    /// Registers the arrival of an item, returning its visible set split
    /// by correlation type: the same runs [`Self::push_visible`] merges,
    /// copied into two fresh lists.
    pub fn push(&mut self, key: Key, session_code: u32) -> RowEdges {
        self.arrive(key, session_code, |runs, _| runs.row_edges())
    }

    /// Registers the arrival of an item and writes its whole visible list
    /// into `visible` (cleared first): the key's own history, the trailing
    /// sessions of other keys with this session code, and the arrival's
    /// own position — ascending and without duplicates, the list
    /// `attend_row` takes. Returns how many earlier items of this key are
    /// registered (its position within its sequence). Allocates nothing
    /// once `visible`, the key's history and its code's session list have
    /// grown to size.
    pub fn push_visible(&mut self, key: Key, session_code: u32, visible: &mut Vec<usize>) -> usize {
        let t = self.len;
        visible.clear();
        self.arrive(key, session_code, |runs, prior| {
            runs.merge_into(t, visible);
            prior
        })
    }

    /// Registers `items` in order and appends each one's visible list — the
    /// list [`Self::push_visible`] writes — to `lists` as its next row,
    /// then hands `each` the row's index in `lists`, the item and its
    /// position within its key. This is the one mask loop behind every
    /// CSR of visible lists: the training forward's ([`visible_lists`])
    /// and the block-major inference encoder's
    /// (`kvrl::PrefixEncoder::advance`). Allocates nothing once `lists`
    /// and the builder's state have grown to size.
    pub fn push_rows<'i>(
        &mut self,
        items: impl IntoIterator<Item = &'i Item>,
        session_field: usize,
        lists: &mut VisibleLists,
        mut each: impl FnMut(usize, &'i Item, usize),
    ) {
        for item in items {
            let t = self.len;
            let g = lists.len();
            let pos_in_key = lists.push_row_with(|out| {
                self.arrive(item.key, item.value[session_field], |runs, prior| {
                    runs.merge_into(t, out);
                    prior
                })
            });
            each(g, item, pos_in_key);
        }
    }

    /// The one body of [`Self::push`], [`Self::push_visible`] and
    /// [`Self::push_rows`]: hands
    /// `read` the arrival's runs and the key's earlier item count, taken
    /// before the arrival is registered, then registers it — the key's
    /// history and trailing session, the session index and the anchor
    /// multiset.
    fn arrive<R>(
        &mut self,
        key: Key,
        session_code: u32,
        read: impl FnOnce(&Runs<'_>, usize) -> R,
    ) -> R {
        let t = self.len;
        let state = self.keys.entry(key).or_insert_with(|| KeyState {
            items: Vec::new(),
            trailing_code: session_code,
            trailing_start: 0,
            anchor: None,
        });
        let runs = Runs {
            own: if self.use_key { &state.items } else { &[] },
            shared: match self.sessions.get(&session_code) {
                Some(list) if self.use_value => list,
                _ => &[],
            },
            skip: if self.use_value && state.trailing_code == session_code {
                state.trailing()
            } else {
                &[]
            },
        };
        let out = read(&runs, state.items.len());
        #[cfg(test)]
        if let Some(rows) = &mut self.rows {
            rows.push(runs.row_edges());
        }

        // A new code starts a new trailing session; the old one leaves the
        // index. (A fresh key starts with its own code, so it continues.)
        if state.trailing_code != session_code {
            if self.use_value {
                let list = self
                    .sessions
                    .get_mut(&state.trailing_code)
                    .expect("a trailing session is indexed under its code");
                remove_sorted(list, state.trailing());
            }
            state.trailing_code = session_code;
            state.trailing_start = state.items.len();
        }
        state.items.push(t);
        if self.use_value {
            self.sessions.entry(session_code).or_default().push(t);
        }
        // Re-derive the anchor: fixed at the first item under key
        // correlation, tracking the trailing-session start under value
        // correlation alone, absent otherwise.
        let new_anchor = if self.use_key {
            Some(state.items[0])
        } else if self.use_value {
            Some(state.items[state.trailing_start])
        } else {
            None
        };
        if state.anchor != new_anchor {
            if let Some(old) = state.anchor {
                remove_anchor(&mut self.anchors, old);
            }
            if let Some(new) = new_anchor {
                add_anchor(&mut self.anchors, new);
            }
            state.anchor = new_anchor;
        }
        self.len += 1;
        out
    }

    /// Unregisters a key: none of its past items will appear in any future
    /// visible set (its key-edge history and trailing session both leave
    /// the attention pool), and [`Self::live_horizon`] no longer waits on
    /// it. The streaming engine calls this when a sequence halts under
    /// drop-halted semantics. Unknown keys are a no-op.
    pub fn retire(&mut self, key: Key) {
        if let Some(state) = self.keys.remove(&key) {
            if self.use_value {
                let list = self
                    .sessions
                    .get_mut(&state.trailing_code)
                    .expect("a trailing session is indexed under its code");
                remove_sorted(list, state.trailing());
            }
            if let Some(anchor) = state.anchor {
                remove_anchor(&mut self.anchors, anchor);
            }
        }
    }

    /// The oldest global position any future arrival can still attend:
    /// every row strictly before this horizon is *dead* — no key edge
    /// (whole history of a registered key) nor value edge (a registered
    /// key's trailing session) nor self edge (the arriving row itself,
    /// always `>= len`) can ever reach it again. Equals [`Self::len`]
    /// when no registered key holds attendable rows (then the entire
    /// prefix is dead). Monotonically non-decreasing across pushes and
    /// retires — the guarantee that makes prefix eviction sound.
    pub fn live_horizon(&self) -> usize {
        self.anchors.keys().next().copied().unwrap_or(self.len)
    }

    /// The recorded rows; panics on a [`Self::streaming`] builder.
    #[cfg(test)]
    fn recorded_rows(&self) -> &[RowEdges] {
        self.rows
            .as_deref()
            .expect("the oracles need a row-recording builder (MaskBuilder::new)")
    }

    /// Every recorded row's visible list — its key and value edges and the
    /// row itself, sorted — rebuilt from the recorded edges: the oracle of
    /// [`visible_lists`].
    #[cfg(test)]
    pub fn recorded_lists(&self) -> VisibleLists {
        let rows: Vec<Vec<usize>> = self
            .recorded_rows()
            .iter()
            .enumerate()
            .map(|(i, row)| {
                let mut list: Vec<usize> = row
                    .key_edges
                    .iter()
                    .chain(&row.value_edges)
                    .copied()
                    .collect();
                list.push(i);
                list.sort_unstable();
                list
            })
            .collect();
        VisibleLists::from_rows(&rows)
    }

    /// Materializes the edge-kind matrix (row-major `T*T`) from the
    /// recorded rows. When a pair is both key- and value-correlated, `Key`
    /// wins: it is intra-sequence and therefore *internal* attention.
    #[cfg(test)]
    pub fn edge_kinds(&self) -> Vec<EdgeKind> {
        let t = self.recorded_rows().len();
        let mut kinds = vec![EdgeKind::None; t * t];
        for (i, row) in self.recorded_rows().iter().enumerate() {
            kinds[i * t + i] = EdgeKind::SelfEdge;
            for &j in &row.value_edges {
                kinds[i * t + j] = EdgeKind::Value;
            }
            for &j in &row.key_edges {
                kinds[i * t + j] = EdgeKind::Key;
            }
        }
        kinds
    }
}

/// Splits one row's attention weights into (internal, external) mass, the
/// paper's Fig. 10 quantities. `visible` and `weights` are the row's
/// visible positions and their weights. An entry of the row's own key
/// (itself or a key edge) is internal; an entry of another key is
/// external, and only value edges reach other keys.
pub fn split_attention_row(
    items: &[Item],
    row: usize,
    visible: &[usize],
    weights: &[f32],
) -> (f32, f32) {
    let key = items[row].key;
    let mut internal = 0.0;
    let mut external = 0.0;
    for (&j, &w) in visible.iter().zip(weights) {
        if items[j].key == key {
            internal += w;
        } else {
            external += w;
        }
    }
    (internal, external)
}

/// Every row's visible list over a whole tangled sequence, in CSR form:
/// [`MaskBuilder::push_rows`] on a fresh streaming builder. This is the
/// mask the training forward attends under; row `i`'s list is the one the
/// streaming engine builds for item `i`. `session_field` selects the value
/// dimension defining sessions.
pub fn visible_lists(
    tangled: &TangledSequence,
    session_field: usize,
    use_key: bool,
    use_value: bool,
) -> VisibleLists {
    let mut lists = VisibleLists::new();
    MaskBuilder::streaming(use_key, use_value).push_rows(
        &tangled.items,
        session_field,
        &mut lists,
        |_, _, _| {},
    );
    lists
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Stream: key A: dir 0, key A: dir 0, key B: dir 0, key B: dir 1,
    /// key A: dir 1.
    fn sample() -> TangledSequence {
        let items = vec![
            Item::new(Key(1), vec![0], 0),
            Item::new(Key(1), vec![0], 1),
            Item::new(Key(2), vec![0], 2),
            Item::new(Key(2), vec![1], 3),
            Item::new(Key(1), vec![1], 4),
        ];
        TangledSequence::new(items, vec![(Key(1), 0), (Key(2), 1)])
    }

    #[test]
    fn key_correlation_links_same_key_history() {
        let lists = visible_lists(&sample(), 0, true, false);
        // Item 4 (key A) sees items 0, 1 (key A) and itself; never key B.
        assert_eq!(lists.row(4), [0, 1, 4]);
    }

    #[test]
    fn value_correlation_links_matching_trailing_sessions() {
        let lists = visible_lists(&sample(), 0, false, true);
        // Item 2 (key B, dir 0) arrives while key A's trailing session is
        // {0, 1} with code 0 -> value edges to 0 and 1.
        assert_eq!(lists.row(2), [0, 1, 2]);
        // Item 3 (key B, dir 1): key A's trailing session still has code 0
        // -> no value edges; self always visible.
        assert_eq!(lists.row(3), [3]);
        // Item 4 (key A, dir 1): key B's trailing session is {3} with code
        // 1 -> value edge to 3, not to 2.
        assert_eq!(lists.row(4), [3, 4]);
    }

    #[test]
    fn causality_upper_triangle_is_masked() {
        let lists = visible_lists(&sample(), 0, true, true);
        for i in 0..5 {
            let row = lists.row(i);
            assert!(row.iter().all(|&j| j <= i), "row {i} sees ahead: {row:?}");
        }
    }

    #[test]
    fn a_reset_builder_gives_a_fresh_builders_lists() {
        // A builder reused after a stream, with keys still registered and
        // session lists still full, must build the next stream's lists as
        // a fresh builder does: stale keys or positions would leak edges.
        let first = sample();
        let second = TangledSequence::new(
            vec![
                Item::new(Key(2), vec![1], 0),
                Item::new(Key(3), vec![1], 1),
                Item::new(Key(1), vec![0], 2),
                Item::new(Key(2), vec![1], 3),
            ],
            vec![(Key(1), 0), (Key(2), 1), (Key(3), 0)],
        );
        for (use_key, use_value) in [(true, true), (true, false), (false, true)] {
            let mut builder = MaskBuilder::streaming(use_key, use_value);
            let mut lists = VisibleLists::new();
            builder.push_rows(&first.items, 0, &mut lists, |_, _, _| {});
            builder.reset();
            lists.clear();
            builder.push_rows(&second.items, 0, &mut lists, |_, _, _| {});
            assert_eq!(lists, visible_lists(&second, 0, use_key, use_value));
            assert_eq!(builder.live_horizon(), {
                let mut fresh = MaskBuilder::streaming(use_key, use_value);
                fresh.push_rows(&second.items, 0, &mut VisibleLists::new(), |_, _, _| {});
                fresh.live_horizon()
            });
        }
    }

    #[test]
    fn edge_kinds_prioritize_key_over_value() {
        let mut builder = MaskBuilder::new(true, true);
        for item in &sample().items {
            builder.push(item.key, item.value[0]);
        }
        let kinds = builder.edge_kinds();
        let t = 5;
        // Item 1 (key A, dir 0): item 0 is both same-key and in a matching
        // trailing session of... no other key exists; it's key-correlated.
        assert_eq!(kinds[t], EdgeKind::Key);
        assert_eq!(kinds[2 * t], EdgeKind::Value, "cross-key edge");
        assert_eq!(kinds[0], EdgeKind::SelfEdge);
    }

    #[test]
    fn disabled_correlations_leave_only_diagonal() {
        let lists = visible_lists(&sample(), 0, false, false);
        for i in 0..5 {
            assert_eq!(lists.row(i), [i]);
        }
    }

    #[test]
    fn trailing_session_resets_on_code_change() {
        // Key A: 0 0 1; then key B: 0 -> B must NOT see A's old session
        // {0,1} (code 0 is no longer trailing), nor item 2 (code 1).
        let items = vec![
            Item::new(Key(1), vec![0], 0),
            Item::new(Key(1), vec![0], 1),
            Item::new(Key(1), vec![1], 2),
            Item::new(Key(2), vec![0], 3),
        ];
        let t = TangledSequence::new(items, vec![(Key(1), 0), (Key(2), 1)]);
        let lists = visible_lists(&t, 0, false, true);
        assert_eq!(lists.row(3), [3]);
    }

    #[test]
    fn push_returns_the_same_edges_as_build() {
        let tangled = sample();
        let mut builder = MaskBuilder::new(true, true);
        let mut rows = Vec::new();
        for item in &tangled.items {
            rows.push(builder.push(item.key, item.value[0]));
        }
        let lists = visible_lists(&tangled, 0, true, true);
        for (i, row) in rows.iter().enumerate() {
            for &j in row.key_edges.iter().chain(&row.value_edges) {
                assert!(lists.row(i).contains(&j), "row {i} misses {j}");
            }
            let visible = lists.row(i).iter().filter(|&&j| j != i).count();
            assert_eq!(visible, row.key_edges.len() + row.value_edges.len());
        }
    }

    #[test]
    fn key_and_value_edges_never_overlap() {
        // Audit for the streaming engine's `visible` list, which
        // `push_visible` builds as one merge WITHOUT deduplicating: an
        // index reachable by both edge types would then be attended
        // twice, silently doubling its softmax weight. The builder makes
        // overlap impossible — value edges only ever reference *other*
        // keys' items (the arriving key's own trailing session is skipped
        // in its code's list) while key edges only reference the same
        // key's items — and this test pins that invariant on an
        // adversarial stream where every key shares one session code, so
        // trailing sessions match constantly and value edges are as dense
        // as they can get.
        let mut builder = MaskBuilder::new(true, true);
        let mut merged = MaskBuilder::streaming(true, true);
        let mut visible = Vec::new();
        // 3 keys interleaved, all items session code 0, then a code flip
        // and back, exercising trailing-session resets too.
        let stream: Vec<(u64, u32)> = vec![
            (1, 0),
            (2, 0),
            (1, 0),
            (3, 0),
            (2, 0),
            (1, 1),
            (3, 0),
            (1, 0),
            (2, 0),
        ];
        for (i, &(key, code)) in stream.iter().enumerate() {
            let edges = builder.push(Key(key), code);
            merged.push_visible(Key(key), code, &mut visible);

            // Strictly increasing == no index attended twice.
            assert!(
                visible.windows(2).all(|w| w[0] < w[1]),
                "item {i}: duplicate index in visible list {visible:?}"
            );
            assert_eq!(
                visible.len(),
                edges.key_edges.len() + edges.value_edges.len() + 1,
                "item {i}: the merge is the disjoint union of both edge lists and self"
            );
            for j in &edges.key_edges {
                assert!(
                    !edges.value_edges.contains(j),
                    "item {i}: index {j} reachable by both edge types"
                );
            }
        }
        // Sanity: the stream actually produced both edge types.
        let kinds = builder.edge_kinds();
        assert!(kinds.contains(&EdgeKind::Key));
        assert!(kinds.contains(&EdgeKind::Value));
    }

    /// The pre-index `push`: a scan over every registered key for a
    /// trailing session with the arriving code, then a sort. Kept as the
    /// oracle the session index is checked against.
    fn scan_edges(b: &MaskBuilder, key: Key, session_code: u32) -> RowEdges {
        let mut edges = RowEdges::default();
        if b.use_key {
            if let Some(state) = b.keys.get(&key) {
                edges.key_edges.extend_from_slice(&state.items);
            }
        }
        if b.use_value {
            for (other_key, state) in &b.keys {
                if *other_key != key && state.trailing_code == session_code {
                    edges.value_edges.extend_from_slice(state.trailing());
                }
            }
            edges.value_edges.sort_unstable();
        }
        edges
    }

    /// The horizon re-derived from the keys' histories, without the
    /// anchor multiset.
    fn scan_horizon(b: &MaskBuilder) -> usize {
        let anchor = |s: &KeyState| match (b.use_key, b.use_value) {
            (true, _) => Some(s.items[0]),
            (false, true) => Some(s.trailing()[0]),
            (false, false) => None,
        };
        b.keys.values().filter_map(anchor).min().unwrap_or(b.len)
    }

    /// Every index list is exactly the ascending union of the registered
    /// keys' trailing sessions with its code.
    fn assert_index_consistent(b: &MaskBuilder) {
        let mut want: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
        if b.use_value {
            for state in b.keys.values() {
                let list = want.entry(state.trailing_code).or_default();
                list.extend_from_slice(state.trailing());
            }
        }
        for list in want.values_mut() {
            list.sort_unstable();
        }
        let got: BTreeMap<u32, Vec<usize>> = b
            .sessions
            .iter()
            .filter(|(_, list)| !list.is_empty())
            .map(|(&code, list)| (code, list.clone()))
            .collect();
        assert_eq!(got, want, "session index out of step with the keys");
    }

    #[test]
    fn session_index_matches_scan_oracle_under_random_retires() {
        for (use_key, use_value) in [(true, true), (true, false), (false, true), (false, false)] {
            for cardinality in [2u32, 16] {
                let name = format!(
                    "session index (key={use_key}, value={use_value}, codes={cardinality})"
                );
                kvec_check::check_n(&name, 48, |g| {
                    let mut by_push = MaskBuilder::streaming(use_key, use_value);
                    let mut by_merge = MaskBuilder::streaming(use_key, use_value);
                    let mut visible = Vec::new();
                    let n_keys = g.usize_in(1, 12) as u64;
                    let mut last_horizon = 0;
                    for _ in 0..g.usize_in(1, 240) {
                        if g.usize_in(0, 8) == 0 {
                            let gone = Key(g.u64() % n_keys);
                            by_push.retire(gone);
                            by_merge.retire(gone);
                        }
                        let key = Key(g.u64() % n_keys);
                        let code = g.u32_below(cardinality);
                        let t = by_push.len();
                        let oracle = scan_edges(&by_push, key, code);
                        let prior = by_push.keys.get(&key).map_or(0, |s| s.items.len());

                        let edges = by_push.push(key, code);
                        assert_eq!(edges.key_edges, oracle.key_edges, "key edges at {t}");
                        assert_eq!(edges.value_edges, oracle.value_edges, "value edges at {t}");

                        let got_prior = by_merge.push_visible(key, code, &mut visible);
                        let mut want: Vec<usize> = oracle
                            .key_edges
                            .iter()
                            .chain(&oracle.value_edges)
                            .copied()
                            .collect();
                        want.push(t);
                        want.sort_unstable();
                        assert_eq!(visible, want, "visible list at {t}");
                        assert_eq!(got_prior, prior, "position in key at {t}");

                        let horizon = by_push.live_horizon();
                        assert_eq!(horizon, scan_horizon(&by_push), "horizon at {t}");
                        assert_eq!(by_merge.live_horizon(), horizon, "horizon at {t}");
                        assert!(horizon >= last_horizon, "horizon regressed at {t}");
                        last_horizon = horizon;
                        assert_index_consistent(&by_push);
                        assert_index_consistent(&by_merge);
                    }
                });
            }
        }
    }

    #[test]
    fn visible_lists_match_the_row_recording_builder() {
        for (use_key, use_value) in [(true, true), (true, false), (false, true), (false, false)] {
            let name = format!("visible_lists (key={use_key}, value={use_value})");
            kvec_check::check_n(&name, 48, |g| {
                let n_keys = g.usize_in(1, 10) as u64;
                let cardinality = g.usize_in(1, 6) as u32;
                let items: Vec<Item> = (0..g.usize_in(1, 120))
                    .map(|t| {
                        Item::new(
                            Key(g.u64() % n_keys),
                            vec![g.u32_below(cardinality)],
                            t as u64,
                        )
                    })
                    .collect();
                let labels = (0..n_keys).map(|k| (Key(k), 0)).collect();
                let tangled = TangledSequence::new(items, labels);
                let mut rec = MaskBuilder::new(use_key, use_value);
                for item in &tangled.items {
                    rec.push(item.key, item.value[0]);
                }
                let got = visible_lists(&tangled, 0, use_key, use_value);
                assert_eq!(got, rec.recorded_lists());

                // Rows pushed in two runs into one CSR are the same rows, and
                // each row's position within its key counts its key's items.
                let (mut lists, mut seen) = (VisibleLists::new(), BTreeMap::new());
                let mut b = MaskBuilder::streaming(use_key, use_value);
                let cut = tangled.len() / 2;
                for run in [&tangled.items[..cut], &tangled.items[cut..]] {
                    b.push_rows(run, 0, &mut lists, |row, item, pos_in_key| {
                        assert_eq!(item.time, row as u64, "row index");
                        let count: &mut usize = seen.entry(item.key).or_default();
                        assert_eq!(pos_in_key, *count, "position within key at {row}");
                        *count += 1;
                    });
                }
                assert_eq!(lists, got);
            });
        }
    }

    #[test]
    fn streaming_builder_matches_recording_builder_edges() {
        let tangled = sample();
        let mut rec = MaskBuilder::new(true, true);
        let mut stream = MaskBuilder::streaming(true, true);
        for item in &tangled.items {
            let a = rec.push(item.key, item.value[0]);
            let b = stream.push(item.key, item.value[0]);
            assert_eq!(a.key_edges, b.key_edges);
            assert_eq!(a.value_edges, b.value_edges);
        }
        assert_eq!(stream.len(), rec.len());
    }

    #[test]
    #[should_panic(expected = "row-recording builder")]
    fn streaming_builder_rejects_the_oracles() {
        let mut b = MaskBuilder::streaming(true, true);
        b.push(Key(1), 0);
        let _ = b.recorded_lists();
    }

    #[test]
    fn retire_removes_key_and_value_visibility() {
        // Key 1 builds history and a trailing session; after retirement,
        // neither key 1 itself (were it to somehow re-arrive) nor other
        // keys can see any of its rows.
        let mut b = MaskBuilder::streaming(true, true);
        b.push(Key(1), 0);
        b.push(Key(1), 0);
        // Key 2 arriving with code 0 sees key 1's trailing session.
        let e = b.push(Key(2), 0);
        assert_eq!(e.value_edges, vec![0, 1]);
        b.retire(Key(1));
        assert_eq!(b.tracked_keys(), 1);
        // A later arrival of key 3 with the matching code no longer sees
        // key 1's rows — only key 2's trailing session.
        let e = b.push(Key(3), 0);
        assert_eq!(e.value_edges, vec![2]);
        // Key 1 re-arriving is treated as a fresh key: no key edges to its
        // pre-retirement history.
        let e = b.push(Key(1), 0);
        assert!(e.key_edges.is_empty());
    }

    #[test]
    fn live_horizon_tracks_oldest_attendable_row() {
        // With key correlation, a key pins its first item until retired.
        let mut b = MaskBuilder::streaming(true, true);
        assert_eq!(b.live_horizon(), 0, "empty builder: nothing is live");
        b.push(Key(1), 0); // pos 0
        b.push(Key(2), 0); // pos 1
        b.push(Key(1), 1); // pos 2
        assert_eq!(b.live_horizon(), 0, "key 1 anchors at its first item");
        b.retire(Key(1));
        assert_eq!(b.live_horizon(), 1, "key 2 now holds the horizon");
        b.retire(Key(2));
        assert_eq!(b.live_horizon(), 3, "no keys: the whole prefix is dead");
        // Horizon is monotone: a new arrival anchors at its own position.
        b.push(Key(3), 0); // pos 3
        assert_eq!(b.live_horizon(), 3);
    }

    #[test]
    fn live_horizon_follows_trailing_session_without_key_correlation() {
        // Value-only masks: a key's rows are attendable only through its
        // trailing session, so a session reset advances its anchor.
        let mut b = MaskBuilder::streaming(false, true);
        b.push(Key(1), 0); // pos 0
        b.push(Key(1), 0); // pos 1
        b.push(Key(2), 7); // pos 2
        assert_eq!(b.live_horizon(), 0);
        b.push(Key(1), 5); // pos 3: key 1's session resets -> anchor 3
        assert_eq!(b.live_horizon(), 2, "key 2's trailing start now oldest");
        b.push(Key(2), 7); // pos 4: extends key 2's session, anchor stays 2
        assert_eq!(b.live_horizon(), 2);
        b.push(Key(2), 8); // pos 5: key 2 resets -> anchor 5
        assert_eq!(b.live_horizon(), 3);
    }

    #[test]
    fn live_horizon_with_both_correlations_ablated_is_len() {
        // Only the self edge exists; every already-pushed row is dead.
        let mut b = MaskBuilder::streaming(false, false);
        for (i, key) in [1u64, 2, 1, 3].iter().enumerate() {
            b.push(Key(*key), 0);
            assert_eq!(b.live_horizon(), i + 1);
        }
    }

    #[test]
    fn live_horizon_is_monotone_under_adversarial_stream() {
        // The eviction contract: the horizon never moves backwards, no
        // matter how sessions reset or keys retire.
        for (use_key, use_value) in [(true, true), (true, false), (false, true), (false, false)] {
            let mut b = MaskBuilder::streaming(use_key, use_value);
            let stream: Vec<(u64, u32)> = vec![
                (1, 0),
                (2, 0),
                (1, 1),
                (3, 0),
                (2, 1),
                (1, 0),
                (3, 0),
                (2, 1),
            ];
            let mut last = b.live_horizon();
            for (i, &(k, c)) in stream.iter().enumerate() {
                b.push(Key(k), c);
                if i == 4 {
                    b.retire(Key(1));
                }
                let h = b.live_horizon();
                assert!(
                    h >= last,
                    "horizon regressed {last} -> {h} (key={use_key}, value={use_value})"
                );
                assert!(h <= b.len());
                last = h;
            }
        }
    }

    #[test]
    fn split_attention_row_partitions_mass() {
        let tangled = sample();
        let mut builder = MaskBuilder::streaming(true, true);
        let mut visible = Vec::new();
        for item in &tangled.items[..3] {
            builder.push_visible(item.key, item.value[0], &mut visible);
        }
        // Row 2 (key B) sees itself and two value edges into key A.
        assert_eq!(visible, [0, 1, 2]);
        let w = [0.25, 0.25, 0.5];
        let (internal, external) = split_attention_row(&tangled.items, 2, &visible, &w);
        assert!((internal - 0.5).abs() < 1e-6);
        assert!((external - 0.5).abs() < 1e-6);
        // Key A's row 1 sees only its own key: all of its mass is internal.
        let (internal, external) = split_attention_row(&tangled.items, 1, &[0, 1], &[0.25, 0.75]);
        assert_eq!((internal, external), (1.0, 0.0));
    }
}
