//! Property-based tests of the dynamic-mask invariants — the heart of the
//! paper's representation learning. (Ported from proptest to the in-tree
//! `kvec-check` harness.)

use kvec::mask::{visible_lists, EdgeKind, MaskBuilder};
use kvec_check::{check, Gen};
use kvec_data::{Item, Key, TangledSequence};

/// The edge-kind matrix of a whole stream (row-major `T*T`), from the
/// edges `push` returns. A pair both key- and value-correlated is `Key`.
fn edge_kinds(t: &TangledSequence) -> Vec<EdgeKind> {
    let n = t.len();
    let mut builder = MaskBuilder::streaming(true, true);
    let mut kinds = vec![EdgeKind::None; n * n];
    for (i, item) in t.items.iter().enumerate() {
        let edges = builder.push(item.key, item.value[0]);
        kinds[i * n + i] = EdgeKind::SelfEdge;
        for j in edges.value_edges {
            kinds[i * n + j] = EdgeKind::Value;
        }
        for j in edges.key_edges {
            kinds[i * n + j] = EdgeKind::Key;
        }
    }
    kinds
}

/// Random tangled streams: up to 5 keys, binary session codes, 1..30 items.
fn gen_stream(g: &mut Gen) -> TangledSequence {
    let len = g.usize_in(1, 30);
    let raw: Vec<(u64, u32)> = (0..len).map(|_| (g.u64() % 5, g.u32_below(2))).collect();
    let items: Vec<Item> = raw
        .iter()
        .enumerate()
        .map(|(t, &(k, code))| Item::new(Key(k), vec![code], t as u64))
        .collect();
    let mut keys: Vec<u64> = raw.iter().map(|&(k, _)| k).collect();
    keys.sort_unstable();
    keys.dedup();
    let labels = keys.into_iter().map(|k| (Key(k), 0usize)).collect();
    TangledSequence::new(items, labels)
}

#[test]
fn diagonal_always_visible() {
    check("diagonal_always_visible", |g| {
        let t = gen_stream(g);
        let lists = visible_lists(&t, 0, true, true);
        for i in 0..t.len() {
            assert_eq!(lists.row(i).last(), Some(&i));
        }
    });
}

#[test]
fn strict_causality() {
    check("strict_causality", |g| {
        let t = gen_stream(g);
        for (uk, uv) in [(true, true), (true, false), (false, true), (false, false)] {
            let lists = visible_lists(&t, 0, uk, uv);
            for i in 0..t.len() {
                assert!(lists.row(i).iter().all(|&j| j <= i), "row {i}");
            }
        }
    });
}

#[test]
fn edges_grow_monotonically_with_enabled_correlations() {
    check("edges_grow_monotonically_with_enabled_correlations", |g| {
        let t = gen_stream(g);
        let count = |uk: bool, uv: bool| visible_lists(&t, 0, uk, uv).nnz();
        let none = count(false, false);
        let key_only = count(true, false);
        let value_only = count(false, true);
        let both = count(true, true);
        assert!(key_only >= none);
        assert!(value_only >= none);
        assert!(both >= key_only.max(value_only));
        // With both off, exactly the diagonal survives.
        assert_eq!(none, t.len());
    });
}

#[test]
fn key_edges_never_cross_keys_and_value_edges_always_do() {
    check(
        "key_edges_never_cross_keys_and_value_edges_always_do",
        |g| {
            let t = gen_stream(g);
            let kinds = edge_kinds(&t);
            let n = t.len();
            for i in 0..n {
                for j in 0..n {
                    match kinds[i * n + j] {
                        EdgeKind::Key => {
                            assert_eq!(t.items[i].key, t.items[j].key);
                            assert!(j < i, "key edge must point backwards");
                        }
                        EdgeKind::Value => {
                            assert_ne!(t.items[i].key, t.items[j].key);
                            assert!(j < i);
                            // A value edge requires matching session codes.
                            assert_eq!(t.items[i].value[0], t.items[j].value[0]);
                        }
                        EdgeKind::SelfEdge => assert_eq!(i, j),
                        EdgeKind::None => {}
                    }
                }
            }
        },
    );
}

#[test]
fn key_correlation_is_complete_within_a_key() {
    check("key_correlation_is_complete_within_a_key", |g| {
        let t = gen_stream(g);
        // With key correlation on, every pair (i, j<i) of the same key is
        // visible.
        let lists = visible_lists(&t, 0, true, false);
        for i in 0..t.len() {
            for j in 0..i {
                if t.items[i].key == t.items[j].key {
                    assert!(lists.row(i).contains(&j), "({i}, {j})");
                }
            }
        }
    });
}

#[test]
fn kinds_and_mask_agree() {
    check("kinds_and_mask_agree", |g| {
        let t = gen_stream(g);
        let lists = visible_lists(&t, 0, true, true);
        let kinds = edge_kinds(&t);
        let n = t.len();
        for i in 0..n {
            for j in 0..n {
                let visible = lists.row(i).contains(&j);
                let kind = kinds[i * n + j];
                assert_eq!(visible, kind != EdgeKind::None, "({i}, {j})");
            }
        }
    });
}
