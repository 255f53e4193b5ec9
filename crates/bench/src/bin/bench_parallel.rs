//! Regenerates `BENCH_parallel.json`: the serial-vs-parallel performance
//! trajectory of the compute backend — matmul GFLOP/s (naive reference vs
//! the blocked kernels, one sweep per kernel path: scalar and, where the
//! host supports them, AVX2+FMA and AVX-512), attention step latency, and epoch
//! wall-clock, each at the thread counts in 1/2/4/8 the host can actually
//! run in parallel. The host block records the detected CPU features and
//! the active kernel path.
//!
//! Timings are best-of-N (minimum over repetitions), the standard way to
//! suppress scheduler noise for short kernels. Run with `--release`:
//!
//! ```text
//! cargo run --release -p kvec-bench --bin bench_parallel
//! ```

use kvec::train::Trainer;
use kvec::{KvecConfig, KvecModel};
use kvec_bench::timing::{stats_direct, Stats};
use kvec_data::synth::{generate_traffic, TrafficConfig};
use kvec_data::Dataset;
use kvec_json::{Json, ToJson};
use kvec_nn::{causal_mask, AttentionBlock, ParamStore, Session};
use kvec_tensor::{parallel, simd, KvecRng, SimdMode, Tensor};
use std::hint::black_box;

/// The thread counts to sweep: powers of two up to the host's parallelism.
/// A row above it would time dispatch overhead, not scaling.
fn thread_counts() -> Vec<usize> {
    let host = parallel::hardware_threads();
    [1, 2, 4, 8].into_iter().filter(|&t| t <= host).collect()
}

fn gflops(m: usize, k: usize, n: usize, ms: f64) -> f64 {
    (2.0 * m as f64 * k as f64 * n as f64) / (ms * 1e-3) / 1e9
}

/// Full per-target statistics in milliseconds. Reports keep a top-level
/// `ms` (the minimum, the low-noise point estimate) and carry the spread
/// here.
fn stats_ms_json(s: &Stats) -> Json {
    Json::obj([
        ("min_ms", (s.min_ns / 1e6).to_json()),
        ("median_ms", (s.median_ns / 1e6).to_json()),
        ("mean_ms", (s.mean_ns / 1e6).to_json()),
        ("stddev_ms", (s.stddev_ns / 1e6).to_json()),
        ("p95_ms", (s.p95_ns / 1e6).to_json()),
        ("samples", s.samples.to_json()),
    ])
}

/// The kernel paths runnable on this host: scalar always, AVX2 and
/// AVX-512 when supported — each sweep row carries its path so the
/// scalar-vs-SIMD speedup is auditable from the checked-in report.
fn bench_modes() -> Vec<(SimdMode, &'static str)> {
    let mut modes = vec![(SimdMode::Scalar, "scalar")];
    if simd::avx2_supported() {
        modes.push((SimdMode::Avx2, "avx2"));
    }
    if simd::avx512_supported() {
        modes.push((SimdMode::Avx512, "avx512"));
    }
    modes
}

fn matmul_sweep() -> Json {
    let mut out = Vec::new();
    for n in [128usize, 256, 512] {
        let reps = if n >= 512 { 5 } else { 20 };
        let mut rng = KvecRng::seed_from_u64(1);
        let a = Tensor::rand_uniform(n, n, -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform(n, n, -1.0, 1.0, &mut rng);
        let ref_stats = stats_direct(reps, || {
            black_box(a.matmul_reference(&b).unwrap());
        });
        let ref_ms = ref_stats.min_ns / 1e6;
        let mut blocked = Vec::new();
        for (mode, path) in bench_modes() {
            for t in thread_counts() {
                let stats = simd::with_simd(mode, || {
                    stats_direct(reps, || {
                        parallel::with_threads(t, || black_box(a.matmul(&b)));
                    })
                });
                let ms = stats.min_ns / 1e6;
                blocked.push(Json::obj([
                    ("path", path.to_json()),
                    ("threads", t.to_json()),
                    ("ms", ms.to_json()),
                    ("stats", stats_ms_json(&stats)),
                    ("gflops", gflops(n, n, n, ms).to_json()),
                    ("speedup_vs_reference", (ref_ms / ms).to_json()),
                ]));
            }
        }
        eprintln!("matmul {n}^3: reference {ref_ms:.3} ms");
        out.push(Json::obj([
            ("shape", vec![n, n, n].to_json()),
            ("reference_ms", ref_ms.to_json()),
            ("reference_stats", stats_ms_json(&ref_stats)),
            ("reference_gflops", gflops(n, n, n, ref_ms).to_json()),
            ("blocked", Json::Arr(blocked)),
        ]));
    }
    Json::Arr(out)
}

fn attention_sweep() -> Json {
    let (t_len, d_model, heads) = (256usize, 64usize, 4usize);
    let mut store = ParamStore::new();
    let mut rng = KvecRng::seed_from_u64(2);
    let blk = AttentionBlock::with_heads(
        &mut store, "bench", d_model, d_model, 0.0, true, heads, &mut rng,
    );
    let x = Tensor::rand_uniform(t_len, d_model, -1.0, 1.0, &mut rng);
    let mask = causal_mask(t_len);
    let step = |threads: usize| {
        stats_direct(10, || {
            parallel::with_threads(threads, || {
                let sess = Session::new();
                let xv = sess.input(x.clone());
                black_box(blk.forward(&sess, &store, xv, &mask, None).0.value());
            });
        })
    };
    let serial_ms = step(1).min_ns / 1e6;
    eprintln!("attention step t={t_len}: serial {serial_ms:.3} ms");
    let sweep: Vec<Json> = thread_counts()
        .into_iter()
        .map(|t| {
            let stats = step(t);
            let ms = stats.min_ns / 1e6;
            Json::obj([
                ("threads", t.to_json()),
                ("ms", ms.to_json()),
                ("stats", stats_ms_json(&stats)),
                ("speedup_vs_serial", (serial_ms / ms).to_json()),
            ])
        })
        .collect();
    Json::obj([
        ("t", t_len.to_json()),
        ("d_model", d_model.to_json()),
        ("heads", heads.to_json()),
        ("serial_ms", serial_ms.to_json()),
        ("parallel", Json::Arr(sweep)),
    ])
}

fn epoch_sweep() -> Json {
    let mut rng = KvecRng::seed_from_u64(3);
    let dcfg = TrafficConfig {
        num_flows: 48,
        num_classes: 2,
        mean_len: 16,
        min_len: 12,
        max_len: 24,
        ..TrafficConfig::traffic_app(0)
    };
    let pool = generate_traffic(&dcfg, &mut rng);
    let ds = Dataset::from_pool("bench", dcfg.schema(), 2, pool, 4, &mut rng);
    let cfg = KvecConfig::tiny(&ds.schema, ds.num_classes);

    // One fresh model + trainer per worker count so every measurement does
    // the same amount of work from the same state.
    let epoch_stats = |workers: usize| {
        let mut rng = KvecRng::seed_from_u64(4);
        let mut model = KvecModel::new(&cfg, &mut rng);
        let mut trainer = Trainer::new(&cfg, &model);
        stats_direct(3, || {
            black_box(
                trainer
                    .train_epoch_parallel(&mut model, &ds.train, &mut rng, workers)
                    .unwrap(),
            );
        })
    };
    let serial_ms = epoch_stats(1).min_ns / 1e6;
    eprintln!(
        "epoch ({} scenarios): serial {serial_ms:.1} ms",
        ds.train.len()
    );
    let sweep: Vec<Json> = thread_counts()
        .into_iter()
        .map(|w| {
            let stats = epoch_stats(w);
            let ms = stats.min_ns / 1e6;
            Json::obj([
                ("workers", w.to_json()),
                ("ms", ms.to_json()),
                ("stats", stats_ms_json(&stats)),
                ("speedup_vs_serial", (serial_ms / ms).to_json()),
            ])
        })
        .collect();
    Json::obj([
        ("scenarios", ds.train.len().to_json()),
        ("serial_ms", serial_ms.to_json()),
        ("parallel", Json::Arr(sweep)),
    ])
}

fn main() {
    let features = simd::cpu_features();
    let report = Json::obj([
        (
            "generated_by",
            "cargo run --release -p kvec-bench --bin bench_parallel".to_json(),
        ),
        (
            "host",
            Json::obj([
                ("os", std::env::consts::OS.to_json()),
                ("arch", std::env::consts::ARCH.to_json()),
                (
                    "available_parallelism",
                    parallel::hardware_threads().to_json(),
                ),
                ("kvec_threads", parallel::num_threads().to_json()),
                ("kvec_simd", simd::simd_mode().name().to_json()),
                ("kernel_path", simd::active_path().name().to_json()),
                (
                    "cpu_features",
                    Json::obj([
                        ("avx2", features.avx2.to_json()),
                        ("fma", features.fma.to_json()),
                        ("avx512f", features.avx512f.to_json()),
                    ]),
                ),
            ]),
        ),
        ("matmul", matmul_sweep()),
        ("attention_step", attention_sweep()),
        ("epoch", epoch_sweep()),
    ]);
    let pretty = report.dump_pretty();
    std::fs::write("BENCH_parallel.json", &pretty).expect("write BENCH_parallel.json");
    println!("{pretty}");
    eprintln!("wrote BENCH_parallel.json");
}
