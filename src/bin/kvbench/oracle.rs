//! In-build oracles: what the benchmark holds the program's outputs to.

use crate::gen::Event;
use kvec::streaming::Decision;
use kvec::{KvecModel, StreamingEngine};
use kvec_data::Key;
use kvec_serve::shard_of_key;
use std::collections::BTreeSet;

/// Bit-level equality of two decisions: key, prediction, item count,
/// global position, halting cause, and every probability's bit pattern.
pub fn same_decision(a: &Decision, b: &Decision) -> bool {
    a.key == b.key
        && a.pred == b.pred
        && a.n_items == b.n_items
        && a.global_pos == b.global_pos
        && a.halted_by_policy == b.halted_by_policy
        && a.probs.len() == b.probs.len()
        && a.probs
            .iter()
            .zip(&b.probs)
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Decisions of `got` that differ from `want` position by position, plus
/// any length difference.
pub fn mismatches(got: &[Decision], want: &[Decision]) -> u64 {
    let differing = got
        .iter()
        .zip(want)
        .filter(|(g, w)| !same_decision(g, w))
        .count();
    (differing + got.len().abs_diff(want.len())) as u64
}

/// The engine the service runs per shard: halted-feed dropping plus the
/// windowed cache.
pub fn service_engine(model: &KvecModel) -> StreamingEngine<'_> {
    StreamingEngine::new(model)
        .with_halted_feed_dropping()
        .with_windowed_cache()
}

/// Feeds `events` in order to `engine` and returns its decisions in
/// emission order — the single-threaded reference a shard must equal.
pub fn reference_decisions<'a>(
    mut engine: StreamingEngine<'_>,
    events: impl IntoIterator<Item = Event<'a>>,
) -> Vec<Decision> {
    let mut out = Vec::new();
    for event in events {
        let decision = match event {
            Event::Item(item) => engine.feed(item).expect("reference engine cannot fault"),
            // A flow-end for a key with no admitted item is a no-op in the
            // service too (`halt_key` on an unknown key).
            Event::FlowEnd(key) => engine.halt_key(key).unwrap_or(None),
        };
        out.extend(decision);
    }
    out
}

/// Checks a fault-free, deadline-free service run against the determinism
/// contract: the decisions of each shard, in emission order, equal those of
/// one reference engine fed that shard's sub-stream in order. `decisions`
/// is the service's output restricted to the keys `events` covers.
/// Returns the number of mismatching decisions.
pub fn shard_mismatches(
    model: &KvecModel,
    shards: usize,
    events: &[Event<'_>],
    decisions: &[Decision],
) -> u64 {
    (0..shards)
        .map(|s| {
            let on_shard = |key: Key| shard_of_key(key, shards) == s;
            let sub = events.iter().copied().filter(|e| match e {
                Event::Item(item) => on_shard(item.key),
                Event::FlowEnd(key) => on_shard(*key),
            });
            let want = reference_decisions(service_engine(model), sub);
            let got: Vec<Decision> = decisions
                .iter()
                .filter(|d| on_shard(d.key))
                .cloned()
                .collect();
            mismatches(&got, &want)
        })
        .sum()
}

/// Keys that received more than one decision.
pub fn duplicate_decisions(decisions: &[Decision]) -> u64 {
    let mut seen = BTreeSet::new();
    decisions.iter().filter(|d| !seen.insert(d.key)).count() as u64
}

/// Which submission a decision answers, for latency attribution: a policy
/// halt answers the `n_items`-th admitted arrival of its key (every
/// admitted arrival before a decision is fed, in order); a forced decision
/// answers the key's flow-end when one had been sent, and otherwise the
/// last arrival it was fed. Times are the generator's send times.
pub fn answered_send_time(
    decision: &Decision,
    admitted_sends: &[u64],
    flow_end_send: Option<u64>,
) -> Option<u64> {
    let last_fed = decision
        .n_items
        .checked_sub(1)
        .and_then(|i| admitted_sends.get(i).copied());
    if decision.halted_by_policy {
        last_fed
    } else {
        flow_end_send.or(last_fed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{tiny_model, Pool, PoolShape};

    fn decision(n_items: usize, by_policy: bool) -> Decision {
        Decision {
            key: Key(1),
            pred: 0,
            probs: vec![0.5, 0.5],
            n_items,
            global_pos: 0,
            halted_by_policy: by_policy,
        }
    }

    #[test]
    fn decisions_are_attributed_to_the_submission_they_answer() {
        let sends = [10, 20, 30, 40];
        // Policy halt on the 3rd fed item: the 3rd admitted arrival.
        assert_eq!(
            answered_send_time(&decision(3, true), &sends, Some(99)),
            Some(30)
        );
        // Forced by a flow-end that had been sent: the flow-end.
        assert_eq!(
            answered_send_time(&decision(4, false), &sends, Some(99)),
            Some(99)
        );
        // Forced by a deadline before any flow-end: the last fed arrival.
        assert_eq!(
            answered_send_time(&decision(2, false), &sends, None),
            Some(20)
        );
        // More items than recorded sends cannot be attributed.
        assert_eq!(answered_send_time(&decision(5, true), &sends, None), None);
    }

    #[test]
    fn bit_equality_sees_one_ulp_and_reordering() {
        let a = decision(2, true);
        let mut b = a.clone();
        assert!(same_decision(&a, &b));
        b.probs[0] = f32::from_bits(b.probs[0].to_bits() + 1);
        assert!(!same_decision(&a, &b));
        assert_eq!(
            mismatches(std::slice::from_ref(&a), &[a.clone(), a.clone()]),
            1
        );
        assert_eq!(duplicate_decisions(&[a.clone(), a]), 1);
    }

    /// Negative test: the serve-closed oracle must fail when the reference
    /// engine sees a single arrival out of order, so a green check means
    /// something.
    #[test]
    fn one_arrival_out_of_order_fails_the_shard_oracle() {
        let model = tiny_model();
        let pool = Pool::traffic(
            3,
            PoolShape {
                groups: 2,
                flows_per_group: 8,
            },
        );
        let mut events: Vec<Event<'_>> = pool.events().collect();
        let served = reference_decisions(service_engine(&model), events.iter().copied());
        assert_eq!(shard_mismatches(&model, 1, &events, &served), 0);

        // Swap the first two adjacent arrivals of different keys in the
        // same session (so one attends the other), while both are live.
        let i = (0..events.len() - 1)
            .find(|&i| match (events[i], events[i + 1]) {
                (Event::Item(a), Event::Item(b)) => a.key != b.key && a.value[0] == b.value[0],
                _ => false,
            })
            .expect("a tangled stream interleaves keys within a session");
        events.swap(i, i + 1);
        assert!(shard_mismatches(&model, 1, &events, &served) > 0);
    }
}
