//! Input embedding (paper Section IV-B, "Input Embedding").
//!
//! Each item's preliminary embedding is the sum of
//! - a **value embedding** — one table per value field, summed (so items
//!   sharing a value field share that component);
//! - a **membership embedding** — the key, hashed into a fixed bucket
//!   space (test keys are unseen at training time, so a per-key table
//!   would leak; hashing gives every key a stable vector);
//! - a **relative-position embedding** — the item's index inside its own
//!   key's sequence, clipped;
//! - a **time embedding** — the item's global arrival order, bucketed.
//!
//! The membership and time-related components can be ablated (paper
//! Fig. 9).

use crate::KvecConfig;
use kvec_autograd::Var;
use kvec_data::{Key, TangledSequence};
use kvec_nn::{Embedding, ParamId, ParamStore, Session};
use kvec_tensor::KvecRng;
use std::collections::BTreeMap;

/// Precomputed lookup indices of one item.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ItemIndices {
    /// One code per value field.
    pub fields: Vec<usize>,
    /// Membership bucket of the key.
    pub membership: usize,
    /// Clipped relative position within the key's sequence.
    pub rel_pos: usize,
    /// Clipped global arrival-time bucket.
    pub time: usize,
}

/// The four-component input embedding module.
#[derive(Clone)]
pub struct InputEmbedding {
    field_tables: Vec<Embedding>,
    membership: Embedding,
    rel_pos: Embedding,
    time: Embedding,
    use_membership: bool,
    use_time: bool,
    membership_buckets: usize,
    max_rel_pos: usize,
    time_buckets: usize,
    time_bucket_size: usize,
}

/// Stable key-to-bucket hash (splitmix-style avalanche).
pub fn membership_bucket(key: Key, buckets: usize) -> usize {
    let mut x = key.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    (x % buckets as u64) as usize
}

impl InputEmbedding {
    /// Creates the module's tables from the config.
    pub fn new(store: &mut ParamStore, cfg: &KvecConfig, rng: &mut KvecRng) -> Self {
        let d = cfg.d_model;
        let field_tables = cfg
            .field_cardinalities
            .iter()
            .enumerate()
            .map(|(f, &card)| Embedding::new(store, &format!("embed.field{f}"), card, d, rng))
            .collect();
        Self {
            field_tables,
            membership: Embedding::new(store, "embed.membership", cfg.membership_buckets, d, rng),
            rel_pos: Embedding::new(store, "embed.rel_pos", cfg.max_rel_pos, d, rng),
            time: Embedding::new(store, "embed.time", cfg.time_buckets, d, rng),
            use_membership: cfg.use_membership_embedding,
            use_time: cfg.use_time_embeddings,
            membership_buckets: cfg.membership_buckets,
            max_rel_pos: cfg.max_rel_pos,
            time_buckets: cfg.time_buckets,
            time_bucket_size: cfg.time_bucket_size,
        }
    }

    /// Computes lookup indices for every item of a tangled sequence.
    pub fn indices_for(&self, tangled: &TangledSequence) -> Vec<ItemIndices> {
        let mut per_key_count: BTreeMap<Key, usize> = BTreeMap::new();
        tangled
            .items
            .iter()
            .enumerate()
            .map(|(t, item)| {
                let pos = per_key_count.entry(item.key).or_insert(0);
                let rel_pos = (*pos).min(self.max_rel_pos - 1);
                *pos += 1;
                ItemIndices {
                    fields: item.value.iter().map(|&v| v as usize).collect(),
                    membership: membership_bucket(item.key, self.membership_buckets),
                    rel_pos,
                    time: (t / self.time_bucket_size).min(self.time_buckets - 1),
                }
            })
            .collect()
    }

    /// Computes the lookup indices of a single item arriving in a stream.
    ///
    /// `pos_in_key` is how many items of this key arrived before it;
    /// `global_t` its position in the tangled stream.
    pub fn indices_for_item(
        &self,
        key: Key,
        value: &[u32],
        pos_in_key: usize,
        global_t: usize,
    ) -> ItemIndices {
        let mut idx = ItemIndices::default();
        self.indices_for_item_into(key, value, pos_in_key, global_t, &mut idx);
        idx
    }

    /// [`Self::indices_for_item`] into a reused `idx`: its `fields` list is
    /// refilled in place, so a stream's one `ItemIndices` allocates only
    /// until it has grown to the field count.
    pub fn indices_for_item_into(
        &self,
        key: Key,
        value: &[u32],
        pos_in_key: usize,
        global_t: usize,
        idx: &mut ItemIndices,
    ) {
        idx.fields.clear();
        idx.fields.extend(value.iter().map(|&v| v as usize));
        idx.membership = membership_bucket(key, self.membership_buckets);
        idx.rel_pos = pos_in_key.min(self.max_rel_pos - 1);
        idx.time = (global_t / self.time_bucket_size).min(self.time_buckets - 1);
    }

    /// Embeds a batch of items, producing the dynamic embedding matrix
    /// `E_0` (`T x d`).
    pub fn forward<'s>(
        &self,
        sess: &'s Session,
        store: &ParamStore,
        items: &[ItemIndices],
    ) -> Var<'s> {
        assert!(!items.is_empty(), "cannot embed an empty batch");
        // Value embeddings: sum over fields.
        let mut total: Option<Var<'s>> = None;
        for (f, table) in self.field_tables.iter().enumerate() {
            let ids: Vec<usize> = items.iter().map(|it| it.fields[f]).collect();
            let e = table.forward(sess, store, &ids);
            total = Some(match total {
                Some(acc) => acc.add(e),
                None => e,
            });
        }
        let mut total = total.expect("at least one value field");

        if self.use_membership {
            let ids: Vec<usize> = items.iter().map(|it| it.membership).collect();
            total = total.add(self.membership.forward(sess, store, &ids));
        }
        if self.use_time {
            let pos_ids: Vec<usize> = items.iter().map(|it| it.rel_pos).collect();
            total = total.add(self.rel_pos.forward(sess, store, &pos_ids));
            let time_ids: Vec<usize> = items.iter().map(|it| it.time).collect();
            total = total.add(self.time.forward(sess, store, &time_ids));
        }
        total
    }

    /// Tape-free embedding of a single item (streaming inference): an
    /// allocating wrapper over [`Self::lookup_one_into`], with its bits.
    pub fn lookup_one(&self, store: &ParamStore, idx: &ItemIndices) -> kvec_tensor::Tensor {
        let mut out = kvec_tensor::Tensor::zeros(1, self.membership.dim());
        self.lookup_one_into(store, idx, out.data_mut());
        out
    }

    /// Writes one item's embedding into `out` (`d_model` wide): the
    /// component rows summed in the batch [`Self::forward`]'s order —
    /// value fields first, then membership, relative position and time.
    pub fn lookup_one_into(&self, store: &ParamStore, idx: &ItemIndices, out: &mut [f32]) {
        let add = |out: &mut [f32], row: &[f32]| {
            for (o, &v) in out.iter_mut().zip(row) {
                *o += v;
            }
        };
        out.copy_from_slice(self.field_tables[0].row(store, idx.fields[0]));
        for (f, table) in self.field_tables.iter().enumerate().skip(1) {
            add(out, table.row(store, idx.fields[f]));
        }
        if self.use_membership {
            add(out, self.membership.row(store, idx.membership));
        }
        if self.use_time {
            add(out, self.rel_pos.row(store, idx.rel_pos));
            add(out, self.time.row(store, idx.time));
        }
    }

    /// All trainable parameter ids of the module.
    pub fn param_ids(&self) -> Vec<ParamId> {
        let mut ids: Vec<ParamId> = self
            .field_tables
            .iter()
            .flat_map(Embedding::param_ids)
            .collect();
        ids.extend(self.membership.param_ids());
        ids.extend(self.rel_pos.param_ids());
        ids.extend(self.time.param_ids());
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kvec_data::{Item, ValueSchema};

    fn schema() -> ValueSchema {
        ValueSchema::new(vec!["dir".into(), "size".into()], vec![2, 4], 0)
    }

    fn cfg() -> KvecConfig {
        KvecConfig::tiny(&schema(), 2)
    }

    fn sample() -> TangledSequence {
        let items = vec![
            Item::new(Key(1), vec![0, 1], 0),
            Item::new(Key(2), vec![0, 1], 1),
            Item::new(Key(1), vec![1, 3], 2),
        ];
        TangledSequence::new(items, vec![(Key(1), 0), (Key(2), 1)])
    }

    #[test]
    fn membership_bucket_is_stable_and_bounded() {
        for k in 0..100u64 {
            let b = membership_bucket(Key(k), 16);
            assert!(b < 16);
            assert_eq!(b, membership_bucket(Key(k), 16));
        }
        // Buckets are actually spread out.
        let distinct: std::collections::BTreeSet<_> =
            (0..100u64).map(|k| membership_bucket(Key(k), 16)).collect();
        assert!(distinct.len() > 8);
    }

    #[test]
    fn indices_track_per_key_positions() {
        let mut store = ParamStore::new();
        let mut rng = KvecRng::seed_from_u64(1);
        let emb = InputEmbedding::new(&mut store, &cfg(), &mut rng);
        let idx = emb.indices_for(&sample());
        assert_eq!(idx[0].rel_pos, 0, "key 1 first item");
        assert_eq!(idx[1].rel_pos, 0, "key 2 first item");
        assert_eq!(idx[2].rel_pos, 1, "key 1 second item");
        assert_eq!(idx[0].fields, vec![0, 1]);
    }

    #[test]
    fn forward_shape_and_value_sharing() {
        let mut store = ParamStore::new();
        let mut rng = KvecRng::seed_from_u64(2);
        let c = cfg();
        let emb = InputEmbedding::new(&mut store, &c, &mut rng);
        let sess = Session::new();
        let idx = emb.indices_for(&sample());
        let e0 = emb.forward(&sess, &store, &idx);
        assert_eq!(e0.shape(), (3, c.d_model));
    }

    #[test]
    fn ablation_flags_change_the_embedding() {
        let t = sample();
        let embed_with = |use_mem: bool, use_time: bool| {
            let mut store = ParamStore::new();
            let mut rng = KvecRng::seed_from_u64(3);
            let mut c = cfg();
            c.use_membership_embedding = use_mem;
            c.use_time_embeddings = use_time;
            let emb = InputEmbedding::new(&mut store, &c, &mut rng);
            let sess = Session::new();
            let idx = emb.indices_for(&t);
            emb.forward(&sess, &store, &idx).value()
        };
        let full = embed_with(true, true);
        let no_mem = embed_with(false, true);
        let no_time = embed_with(true, false);
        assert!(!full.allclose(&no_mem, 1e-6));
        assert!(!full.allclose(&no_time, 1e-6));
    }

    #[test]
    fn same_inputs_same_rows_without_time() {
        // Items 0 and 1 share value fields; with membership and time
        // disabled their embeddings must coincide.
        let mut store = ParamStore::new();
        let mut rng = KvecRng::seed_from_u64(4);
        let mut c = cfg();
        c.use_membership_embedding = false;
        c.use_time_embeddings = false;
        let emb = InputEmbedding::new(&mut store, &c, &mut rng);
        let sess = Session::new();
        let idx = emb.indices_for(&sample());
        let e0 = emb.forward(&sess, &store, &idx).value();
        assert_eq!(e0.row(0), e0.row(1));
        assert_ne!(e0.row(0), e0.row(2));
    }

    #[test]
    fn streaming_indices_match_batch_indices() {
        let mut store = ParamStore::new();
        let mut rng = KvecRng::seed_from_u64(5);
        let emb = InputEmbedding::new(&mut store, &cfg(), &mut rng);
        let t = sample();
        let batch = emb.indices_for(&t);
        let mut per_key: BTreeMap<Key, usize> = BTreeMap::new();
        for (g, item) in t.items.iter().enumerate() {
            let pos = per_key.entry(item.key).or_insert(0);
            let single = emb.indices_for_item(item.key, &item.value, *pos, g);
            *pos += 1;
            assert_eq!(single, batch[g], "item {g}");
        }
    }

    #[test]
    fn lookup_one_matches_batch_forward() {
        let mut store = ParamStore::new();
        let mut rng = KvecRng::seed_from_u64(7);
        let emb = InputEmbedding::new(&mut store, &cfg(), &mut rng);
        let t = sample();
        let idx = emb.indices_for(&t);
        let sess = Session::new();
        let batch = emb.forward(&sess, &store, &idx).value();
        for (g, one) in idx.iter().enumerate() {
            let row = emb.lookup_one(&store, one);
            assert!(row.allclose(&batch.row_tensor(g), 1e-6), "row {g}");
        }
    }

    #[test]
    fn rel_pos_clips_at_table_end() {
        let mut store = ParamStore::new();
        let mut rng = KvecRng::seed_from_u64(6);
        let c = cfg();
        let emb = InputEmbedding::new(&mut store, &c, &mut rng);
        let idx = emb.indices_for_item(Key(1), &[0, 0], 10_000, 10_000_000);
        assert_eq!(idx.rel_pos, c.max_rel_pos - 1);
        assert_eq!(idx.time, c.time_buckets - 1);
    }
}
