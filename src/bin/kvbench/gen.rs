//! Seeded inputs: the only place `--seed` reaches. The program under test
//! sees generated items and nothing else; models are seeded by constants
//! so that the work an arrival causes is a property of the input and of
//! `halt_threshold`, not of the run's seed.

use kvec::{KvecConfig, KvecModel};
use kvec_data::synth::{
    generate_stop_signal, generate_traffic, StopPosition, StopSignalConfig, TrafficConfig,
};
use kvec_data::{mixer, Item, Key, TangledSequence, ValueSchema};
use kvec_tensor::KvecRng;

/// One lap of a streaming workload: a tangled stream of consecutive flow
/// groups, each group's keys flow-ended once the group has fully arrived
/// (as upstream FINs would). Laps replay the same stream under fresh keys.
#[derive(Clone)]
pub struct Pool {
    pub items: Vec<Item>,
    /// `(arrivals so far, keys of the group)` at each group boundary.
    pub group_ends: Vec<(usize, Vec<Key>)>,
    /// Distinct keys per lap; lap `l` uses keys `l·keys ..`.
    pub keys: u64,
}

/// One message of a stream: an arrival, or the end of a flow.
#[derive(Debug, Clone, Copy)]
pub enum Event<'a> {
    Item(&'a Item),
    FlowEnd(Key),
}

/// Shape of a traffic pool.
#[derive(Debug, Clone, Copy)]
pub struct PoolShape {
    pub groups: usize,
    pub flows_per_group: usize,
}

fn traffic_cfg(flows: usize) -> TrafficConfig {
    TrafficConfig {
        num_flows: flows,
        num_classes: 2,
        mean_len: 25,
        min_len: 20,
        max_len: 30,
        ..TrafficConfig::traffic_app(0)
    }
}

/// Schema shared by every generated stream (`[direction, size_bucket]`).
pub fn schema() -> ValueSchema {
    traffic_cfg(1).schema()
}

impl Pool {
    /// Generates the lap-0 stream from `seed`.
    pub fn traffic(seed: u64, shape: PoolShape) -> Self {
        let cfg = traffic_cfg(shape.flows_per_group);
        let mut rng = KvecRng::seed_from_u64(seed);
        let mut items = Vec::new();
        let mut group_ends = Vec::with_capacity(shape.groups);
        for g in 0..shape.groups {
            let flows = generate_traffic(&cfg, &mut rng);
            let tangled = mixer::tangle_group(&flows, &mut rng);
            let offset = (g * shape.flows_per_group) as u64;
            items.extend(tangled.items.into_iter().map(|mut item| {
                item.key = Key(item.key.0 + offset);
                item
            }));
            let keys = flows.iter().map(|f| Key(f.key.0 + offset)).collect();
            group_ends.push((items.len(), keys));
        }
        Self {
            items,
            group_ends,
            keys: (shape.groups * shape.flows_per_group) as u64,
        }
    }

    /// Moves the stream to the next lap's key range.
    pub fn next_lap(&mut self) {
        let by = self.keys;
        for item in &mut self.items {
            item.key.0 += by;
        }
        for (_, keys) in &mut self.group_ends {
            for key in keys {
                key.0 += by;
            }
        }
    }

    /// The lap's messages in send order: every item, and after a group's
    /// last item a flow-end for each of its keys.
    pub fn events(&self) -> impl Iterator<Item = Event<'_>> {
        let mut start = 0;
        self.group_ends.iter().flat_map(move |(end, keys)| {
            let items = self.items[start..*end].iter().map(Event::Item);
            start = *end;
            items.chain(keys.iter().map(|&k| Event::FlowEnd(k)))
        })
    }

    /// Flow-ends per lap (one per key).
    pub fn flows(&self) -> usize {
        self.keys as usize
    }

    /// Arrivals per lap.
    pub fn arrivals(&self) -> usize {
        self.items.len()
    }

    /// One line naming the stream: its size and its hash.
    pub fn describe(&self) -> String {
        format!(
            "stream: {} arrivals and {} flows per lap, hash {:016x}",
            self.arrivals(),
            self.flows(),
            self.stream_hash()
        )
    }

    /// FNV-1a over every item's key, value and time: equal for equal
    /// seeds, different otherwise (pinned by test).
    pub fn stream_hash(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |v: u64| {
            for b in v.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for item in &self.items {
            eat(item.key.0);
            eat(item.time);
            for &v in &item.value {
                eat(v as u64);
            }
        }
        h
    }
}

/// Seed of every model the benchmark builds; never derived from `--seed`.
/// Chosen so that the untrained tiny model decides after ~6 of a flow's
/// ~25 items at `halt_threshold = 0.5`.
const MODEL_SEED: u64 = 7;

/// The serving model: width 16, one block, `halt_threshold = 0.5` — the
/// early-classification regime, where most of a flow's arrivals come after
/// its decision and are dropped.
pub fn tiny_model() -> KvecModel {
    let cfg = KvecConfig::tiny(&schema(), 2);
    KvecModel::new(&cfg, &mut KvecRng::seed_from_u64(MODEL_SEED))
}

/// The wide model: width 64, two blocks, `halt_threshold = 0.99` so no
/// flow halts before its group's flow-end and every arrival is processed.
pub fn wide_model() -> KvecModel {
    let mut cfg = KvecConfig::for_schema(&schema(), 2);
    cfg.halt_threshold = 0.99;
    KvecModel::new(&cfg, &mut KvecRng::seed_from_u64(MODEL_SEED))
}

/// The batch model for `train-batch` / `eval-batch`: `for_schema` with the
/// lateness penalty raised so the halting policy settles within a few
/// epochs, on every seed, at the earliest operating point (halt on the
/// first item at single-packet accuracy).
pub fn batch_model() -> KvecModel {
    let cfg = KvecConfig::for_schema(&schema(), 2).with_beta(0.5);
    KvecModel::new(&cfg, &mut KvecRng::seed_from_u64(MODEL_SEED))
}

/// The paper's Synthetic-Traffic early-stop set at scaled length, tangled
/// into scenarios of `k` concurrent flows.
pub fn stop_signal_scenarios(
    seed: u64,
    flows: usize,
    len: usize,
    k: usize,
) -> Vec<TangledSequence> {
    let cfg = StopSignalConfig::paper(flows, StopPosition::Early).scaled_len(len);
    debug_assert_eq!(cfg.schema().cardinalities, schema().cardinalities);
    let mut rng = KvecRng::seed_from_u64(seed);
    let pool = generate_stop_signal(&cfg, &mut rng);
    mixer::tangle_scenarios(&pool, k, &mut rng)
}

/// Total items over a set of scenarios.
pub fn scenario_items(scenarios: &[TangledSequence]) -> usize {
    scenarios.iter().map(TangledSequence::len).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHAPE: PoolShape = PoolShape {
        groups: 3,
        flows_per_group: 4,
    };

    #[test]
    fn same_seed_same_stream_different_seed_different_stream() {
        let a = Pool::traffic(5, SHAPE);
        let b = Pool::traffic(5, SHAPE);
        let c = Pool::traffic(6, SHAPE);
        assert_eq!(a.stream_hash(), b.stream_hash());
        assert_eq!(a.items, b.items);
        assert_ne!(a.stream_hash(), c.stream_hash());
    }

    #[test]
    fn laps_use_disjoint_key_ranges_and_keep_group_structure() {
        let mut p = Pool::traffic(1, SHAPE);
        assert_eq!(p.keys, 12);
        assert_eq!(p.group_ends.last().unwrap().0, p.arrivals());
        assert!(p.items.iter().all(|i| i.key.0 < 12));
        let before = p.stream_hash();
        p.next_lap();
        assert!(p.items.iter().all(|i| (12..24).contains(&i.key.0)));
        assert!(p
            .group_ends
            .iter()
            .flat_map(|g| &g.1)
            .all(|k| (12..24).contains(&k.0)));
        assert_ne!(p.stream_hash(), before);
    }
}
