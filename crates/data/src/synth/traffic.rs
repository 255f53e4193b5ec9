//! Synthetic network-traffic flows.
//!
//! Each flow (key) belongs to one application class. A class has a stable
//! *profile* drawn from a class-seeded RNG:
//!
//! - a **handshake signature**: the first `sig_len` packets' (direction,
//!   size-bucket) pairs, lightly mutated per flow — the paper observes that
//!   "the first few packets in a network flow carry crucial information for
//!   identifying it" \[48\], and this is the knob that makes early
//!   classification possible at all;
//! - a **burst persistence** probability: packets keep their direction with
//!   probability `p_stay`, producing direction bursts whose mean length
//!   `1/(1-p_stay)` is tuned per preset to match the paper's Table I
//!   "avg session length";
//! - **per-direction size distributions** over `size_buckets` buckets.
//!
//! Values are `[direction, size_bucket]` with the direction as the session
//! field, exactly how the paper encodes its three traffic datasets.

use crate::{Key, LabeledSequence, ValueSchema};
use kvec_tensor::KvecRng;

/// Configuration of the traffic generator.
#[derive(Debug, Clone)]
pub struct TrafficConfig {
    /// Dataset name used in reports.
    pub name: &'static str,
    /// Number of flows (keys) to generate.
    pub num_flows: usize,
    /// Number of application classes.
    pub num_classes: usize,
    /// Length of the class handshake signature.
    pub sig_len: usize,
    /// Leading signature packets shared by *all* classes (a protocol
    /// handshake, e.g. TCP SYN/SYN-ACK): the first `shared_prefix` packets
    /// carry no class information, so single-packet classification is
    /// impossible by construction — mirroring real traffic, where the
    /// paper's curves only separate after a few packets.
    pub shared_prefix: usize,
    /// Per-packet probability of mutating a signature packet.
    pub sig_noise: f32,
    /// Direction persistence after the handshake (mean burst length is
    /// `1/(1-p_stay)`).
    pub p_stay: f32,
    /// Mean flow length (packets).
    pub mean_len: usize,
    /// Minimum flow length (the paper discards flows shorter than 10).
    pub min_len: usize,
    /// Maximum flow length.
    pub max_len: usize,
    /// Number of packet-size buckets.
    pub size_buckets: usize,
    /// Seed of the class profiles (fixed per dataset so that train and test
    /// flows share class structure).
    pub profile_seed: u64,
}

impl TrafficConfig {
    /// USTC-TFC2016-like: 9 classes (4 benign + 5 malware), long direction
    /// bursts (avg session ~8.3), avg flow length ~31.
    pub fn ustc_tfc2016(num_flows: usize) -> Self {
        Self {
            name: "ustc-tfc2016",
            num_flows,
            num_classes: 9,
            sig_len: 6,
            shared_prefix: 2,
            sig_noise: 0.15,
            p_stay: 0.935,
            mean_len: 28,
            min_len: 10,
            max_len: 80,
            size_buckets: 16,
            profile_seed: 0x57,
        }
    }

    /// Traffic-FG-like: 12 fine-grained service classes, short bursts
    /// (avg session ~2.4), avg flow length ~51.
    pub fn traffic_fg(num_flows: usize) -> Self {
        Self {
            name: "traffic-fg",
            num_flows,
            num_classes: 12,
            sig_len: 6,
            shared_prefix: 2,
            sig_noise: 0.12,
            p_stay: 0.60,
            mean_len: 45,
            min_len: 10,
            max_len: 120,
            size_buckets: 16,
            profile_seed: 0xF6,
        }
    }

    /// Traffic-App-like: 10 application classes (6 TCP + 4 UDP), avg
    /// session ~2.7, avg flow length ~57.
    pub fn traffic_app(num_flows: usize) -> Self {
        Self {
            name: "traffic-app",
            num_flows,
            num_classes: 10,
            sig_len: 6,
            shared_prefix: 2,
            sig_noise: 0.12,
            p_stay: 0.62,
            mean_len: 52,
            min_len: 10,
            max_len: 130,
            size_buckets: 16,
            profile_seed: 0xA9,
        }
    }

    /// Shrinks flow lengths (and caps) by `factor` for fast experiment
    /// runs, keeping the class/session structure intact.
    pub fn scaled_len(mut self, factor: f32) -> Self {
        self.mean_len = ((self.mean_len as f32 * factor) as usize).max(self.min_len + 2);
        self.max_len = ((self.max_len as f32 * factor) as usize).max(self.mean_len + 4);
        self
    }

    /// The `[direction, size_bucket]` schema of every traffic dataset.
    pub fn schema(&self) -> ValueSchema {
        ValueSchema::new(
            vec!["direction".into(), "size_bucket".into()],
            vec![2, self.size_buckets],
            0,
        )
    }
}

/// The per-class generative profile.
struct ClassProfile {
    signature: Vec<(u32, u32)>,
    p_stay: f32,
    /// `size_weights[direction][bucket]`
    size_weights: [Vec<f32>; 2],
}

fn build_profiles(cfg: &TrafficConfig) -> Vec<ClassProfile> {
    // The shared handshake prefix is identical for every class.
    let mut shared_rng = KvecRng::seed_from_u64(cfg.profile_seed ^ 0xCAFE);
    let mut shared_dir = shared_rng.below(2) as u32;
    let shared: Vec<(u32, u32)> = (0..cfg.shared_prefix.min(cfg.sig_len))
        .map(|i| {
            if i > 0 && !shared_rng.bernoulli(cfg.p_stay) {
                shared_dir ^= 1;
            }
            (shared_dir, shared_rng.below(cfg.size_buckets) as u32)
        })
        .collect();

    let mut profiles = Vec::with_capacity(cfg.num_classes);
    for class in 0..cfg.num_classes {
        let mut rng = KvecRng::seed_from_u64(
            cfg.profile_seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(class as u64),
        );
        // Handshake-prefix packets keep the shared direction but mix the
        // shared size with a class-specific one: the first packets are
        // *partially* informative, the way real protocol handshakes leak
        // application identity through payload sizes. The rest of the
        // signature is fully class-specific. Directions stay bursty
        // (persisting with p_stay) so the handshake does not artificially
        // fragment the session structure Table I reports.
        let mut signature: Vec<(u32, u32)> = shared
            .iter()
            .map(|&(dir, size)| {
                let size = if rng.bernoulli(0.5) {
                    size
                } else {
                    rng.below(cfg.size_buckets) as u32
                };
                (dir, size)
            })
            .collect();
        let mut sig_dir = signature
            .last()
            .map_or_else(|| rng.below(2) as u32, |v| v.0);
        while signature.len() < cfg.sig_len {
            if !signature.is_empty() && !rng.bernoulli(cfg.p_stay) {
                sig_dir ^= 1;
            }
            signature.push((sig_dir, rng.below(cfg.size_buckets) as u32));
        }
        // Jitter the persistence slightly per class so session statistics
        // carry a little class signal, as real applications do.
        let p_stay = (cfg.p_stay + rng.uniform(-0.05, 0.05)).clamp(0.05, 0.97);
        let mut size_weights = [vec![0.0; cfg.size_buckets], vec![0.0; cfg.size_buckets]];
        for dir_weights in &mut size_weights {
            // Sparse, peaked distributions: a few preferred buckets.
            for w in dir_weights.iter_mut() {
                *w = rng.uniform(0.02, 0.2);
            }
            for _ in 0..3 {
                let peak = rng.below(cfg.size_buckets);
                dir_weights[peak] += rng.uniform(0.8, 2.0);
            }
        }
        profiles.push(ClassProfile {
            signature,
            p_stay,
            size_weights,
        });
    }
    profiles
}

fn sample_length(cfg: &TrafficConfig, rng: &mut KvecRng) -> usize {
    // Log-normal-ish heavy tail around the mean.
    let z = rng.normal(0.0, 0.5);
    let len = (cfg.mean_len as f32 * z.exp()) as usize;
    len.clamp(cfg.min_len, cfg.max_len)
}

/// Generates the flow pool for a traffic dataset.
pub fn generate_traffic(cfg: &TrafficConfig, rng: &mut KvecRng) -> Vec<LabeledSequence> {
    assert!(cfg.num_classes >= 2, "need at least two classes");
    assert!(cfg.sig_len < cfg.min_len, "signature must fit into min_len");
    let profiles = build_profiles(cfg);
    let mut pool = Vec::with_capacity(cfg.num_flows);
    for flow_idx in 0..cfg.num_flows {
        let class = flow_idx % cfg.num_classes;
        let profile = &profiles[class];
        let len = sample_length(cfg, rng);
        let mut values = Vec::with_capacity(len);

        // Handshake signature with per-flow mutation noise.
        for &(dir, size) in &profile.signature {
            let (mut d, mut s) = (dir, size);
            if rng.bernoulli(cfg.sig_noise) {
                d = rng.below(2) as u32;
            }
            if rng.bernoulli(cfg.sig_noise) {
                s = rng.below(cfg.size_buckets) as u32;
            }
            values.push(vec![d, s]);
        }

        // Burst-structured body.
        let mut dir = values.last().map_or(0, |v| v[0]);
        while values.len() < len {
            if !rng.bernoulli(profile.p_stay) {
                dir ^= 1;
            }
            let size = rng.weighted_index(&profile.size_weights[dir as usize]) as u32;
            values.push(vec![dir, size]);
        }
        pool.push(LabeledSequence::new(Key(flow_idx as u64), class, values));
    }
    pool
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::compute_stats;

    #[test]
    fn pool_size_classes_and_schema_validity() {
        let cfg = TrafficConfig::traffic_fg(120);
        let mut rng = KvecRng::seed_from_u64(1);
        let pool = generate_traffic(&cfg, &mut rng);
        assert_eq!(pool.len(), 120);
        let schema = cfg.schema();
        for s in &pool {
            assert!(s.label < 12);
            assert!(s.len() >= cfg.min_len && s.len() <= cfg.max_len);
            assert!(s.values.iter().all(|v| schema.validates(v)));
        }
        // Balanced classes.
        let stats = compute_stats(&pool, &schema);
        assert_eq!(stats.num_classes, 12);
        assert!(stats.class_counts.iter().all(|&c| c == 10));
    }

    #[test]
    fn session_lengths_track_p_stay() {
        let mut rng = KvecRng::seed_from_u64(2);
        let bursty = TrafficConfig::ustc_tfc2016(150);
        let choppy = TrafficConfig::traffic_fg(150);
        let s_bursty = compute_stats(&generate_traffic(&bursty, &mut rng), &bursty.schema());
        let s_choppy = compute_stats(&generate_traffic(&choppy, &mut rng), &choppy.schema());
        assert!(
            s_bursty.avg_session_len > 2.0 * s_choppy.avg_session_len,
            "ustc {} vs fg {}",
            s_bursty.avg_session_len,
            s_choppy.avg_session_len
        );
    }

    #[test]
    fn signatures_are_class_discriminative() {
        // Two flows of the same class share most signature packets; flows
        // of different classes rarely do.
        let cfg = TrafficConfig::traffic_app(40);
        let mut rng = KvecRng::seed_from_u64(3);
        let pool = generate_traffic(&cfg, &mut rng);
        let same: Vec<_> = pool.iter().filter(|s| s.label == 0).collect();
        let other: Vec<_> = pool.iter().filter(|s| s.label == 1).collect();
        let agree = |a: &LabeledSequence, b: &LabeledSequence| {
            (0..cfg.sig_len)
                .filter(|&i| a.values[i] == b.values[i])
                .count()
        };
        let within = agree(same[0], same[1]);
        let across = agree(same[0], other[0]);
        assert!(
            within > across,
            "within-class {within} <= across-class {across}"
        );
        assert!(within >= cfg.sig_len / 2);
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = TrafficConfig::ustc_tfc2016(20);
        let a = generate_traffic(&cfg, &mut KvecRng::seed_from_u64(9));
        let b = generate_traffic(&cfg, &mut KvecRng::seed_from_u64(9));
        assert_eq!(a, b);
    }

    #[test]
    fn scaled_len_shrinks_flows() {
        let cfg = TrafficConfig::traffic_app(30).scaled_len(0.5);
        let mut rng = KvecRng::seed_from_u64(4);
        let pool = generate_traffic(&cfg, &mut rng);
        let stats = compute_stats(&pool, &cfg.schema());
        assert!(stats.avg_seq_len < 45.0);
    }

    #[test]
    fn mean_length_roughly_matches_table1() {
        let cfg = TrafficConfig::traffic_app(400);
        let mut rng = KvecRng::seed_from_u64(5);
        let stats = compute_stats(&generate_traffic(&cfg, &mut rng), &cfg.schema());
        assert!(
            (stats.avg_seq_len - 57.5).abs() < 15.0,
            "avg len {}",
            stats.avg_seq_len
        );
    }
}
