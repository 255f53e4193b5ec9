//! Bit pins of the three REINFORCE halting trajectories: KVEC's
//! [`Trainer`], [`Earliest`] and [`SrnEarliest`] each train a tiny seeded
//! pool for three epochs — one warm-up epoch (uniform forced halts, policy
//! untrained), then two with sampled halts and the policy losses — and
//! the run is hashed (FNV-1a): every epoch's loss bits, every
//! `(key, pred, n_k)` of the held-out evaluation, one RNG draw after
//! training and, for KVEC, every parameter's bits.
//!
//! A changed hash means a changed training trajectory: a reordered loss
//! sum, an extra or missing RNG draw, a parameter created in another
//! order. Kernel bits may differ per path (`dot_on`'s lane order, the
//! scalar tier's unfused transcendentals; see `kernel_bits.rs`), so each
//! path has its own constant: KVEC's scalar run differs from its SIMD
//! runs, the two baselines' runs agree on every path. Every path the host
//! can run is checked, scalar always. Run it against the release code
//! too: the transcendentals vectorise only there, and the constants hold
//! in both builds.

use kvec::eval::EvalReport;
use kvec::train::Trainer;
use kvec::{evaluate, KvecConfig, KvecModel};
use kvec_baselines::{BaselineConfig, Earliest, EarlyClassifier, SrnEarliest};
use kvec_data::synth::{generate_traffic, TrafficConfig};
use kvec_data::Dataset;
use kvec_tensor::{simd, with_simd, KernelPath, KvecRng, SimdMode};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
const EPOCHS: usize = 3;

fn fnv1a(hash: &mut u64, word: u64) {
    for byte in word.to_le_bytes() {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

fn dataset() -> Dataset {
    let mut rng = KvecRng::seed_from_u64(4242);
    let cfg = TrafficConfig {
        num_flows: 24,
        num_classes: 2,
        mean_len: 10,
        min_len: 8,
        max_len: 12,
        ..TrafficConfig::traffic_app(0)
    };
    let pool = generate_traffic(&cfg, &mut rng);
    Dataset::from_pool("fingerprint", cfg.schema(), 2, pool, 3, &mut rng)
}

fn hash_outcomes(hash: &mut u64, report: &EvalReport) {
    for o in &report.outcomes {
        fnv1a(hash, o.key.0);
        fnv1a(hash, o.pred as u64);
        fnv1a(hash, o.n_k as u64);
    }
}

fn kvec_fingerprint(ds: &Dataset) -> u64 {
    let mut rng = KvecRng::seed_from_u64(7);
    let cfg = KvecConfig::tiny(&ds.schema, ds.num_classes);
    assert_eq!(cfg.policy_warmup_epochs, 1);
    let mut model = KvecModel::new(&cfg, &mut rng);
    let mut trainer = Trainer::new(&cfg, &model);
    let mut hash = FNV_OFFSET;
    for _ in 0..EPOCHS {
        let stats = trainer
            .train_epoch(&mut model, &ds.train, &mut rng)
            .expect("training step");
        fnv1a(&mut hash, u64::from(stats.loss.to_bits()));
    }
    hash_outcomes(&mut hash, &evaluate(&model, &ds.test));
    fnv1a(&mut hash, rng.next_u64());
    for id in model.store.ids() {
        for v in model.store.value(id).data() {
            fnv1a(&mut hash, u64::from(v.to_bits()));
        }
    }
    hash
}

fn baseline_fingerprint<M: EarlyClassifier>(
    ds: &Dataset,
    build: fn(&BaselineConfig, &mut KvecRng) -> M,
) -> u64 {
    let mut rng = KvecRng::seed_from_u64(7);
    let cfg = BaselineConfig::tiny(&ds.schema, ds.num_classes);
    assert_eq!(cfg.warmup_epochs, 1);
    let mut model = build(&cfg, &mut rng);
    let mut hash = FNV_OFFSET;
    for _ in 0..EPOCHS {
        let loss = model.train_epoch(&ds.train, &mut rng);
        fnv1a(&mut hash, u64::from(loss.to_bits()));
    }
    hash_outcomes(&mut hash, &model.evaluate(&ds.test));
    fnv1a(&mut hash, rng.next_u64());
    hash
}

/// Runs `fingerprint` on every kernel path the host supports and checks
/// each against its golden hash.
fn check_every_path(name: &str, fingerprint: impl Fn(&Dataset) -> u64, golden: [u64; 3]) {
    let ds = dataset();
    let mut modes = vec![SimdMode::Scalar];
    if simd::avx2_supported() {
        modes.push(SimdMode::Avx2);
    }
    if simd::avx512_supported() {
        modes.push(SimdMode::Avx512);
    }
    for mode in modes {
        let (path, hash) = with_simd(mode, || (simd::active_path(), fingerprint(&ds)));
        let expected = match path {
            KernelPath::Scalar => golden[0],
            KernelPath::Avx2 => golden[1],
            KernelPath::Avx512 => golden[2],
        };
        assert_eq!(hash, expected, "{name} on {path:?}: {hash:#018x}");
    }
}

#[test]
fn kvec_trainer_keeps_its_golden_bits_per_path() {
    check_every_path(
        "KVEC",
        kvec_fingerprint,
        [
            0x929f_aa65_dddf_a0d9,
            0xc012_1420_ebab_494c,
            0xc012_1420_ebab_494c,
        ],
    );
}

#[test]
fn earliest_keeps_its_golden_bits_per_path() {
    check_every_path(
        "EARLIEST",
        |ds| baseline_fingerprint(ds, Earliest::new),
        [0x57a6_21b2_5710_6da0; 3],
    );
}

#[test]
fn srn_earliest_keeps_its_golden_bits_per_path() {
    check_every_path(
        "SRN-EARLIEST",
        |ds| baseline_fingerprint(ds, SrnEarliest::new),
        [0x943a_0f38_e114_b17a; 3],
    );
}
