//! A product against pre-packed panels records into the same kernel
//! counters as the product that packs its own: one call and `2·m·k·n`
//! flops. Its own test binary, so no other test's products run while the
//! counters are read.

use kvec_obs::{self as obs, metrics, Config, Level, SinkConfig};
use kvec_tensor::{matmul_packed_into, KvecRng, Panels, Tensor};

#[test]
fn a_pre_packed_product_counts_one_call_and_its_flops() {
    obs::configure(Config {
        enabled: true,
        level: Level::Info,
        sink: SinkConfig::Null,
    });
    let mut rng = KvecRng::seed_from_u64(5);
    let (m, k, n) = (5, 33, 17);
    let a = Tensor::rand_uniform(m, k, -1.0, 1.0, &mut rng);
    let b = Tensor::rand_uniform(k, n, -1.0, 1.0, &mut rng);
    let bt = b.transpose();
    let mut out = vec![0.0; m * n];
    let nn = ["kernel.matmul_nn.calls", "kernel.matmul_nn.flops"];
    let nt = ["kernel.matmul_nt.calls", "kernel.matmul_nt.flops"];
    for (names, b, panels) in [(nn, &b, Panels::nn(&b)), (nt, &bt, Panels::nt(&bt))] {
        let read = || names.map(|name| metrics::counter(name).get());
        let before = read();
        matmul_packed_into(a.data(), b, &panels, &mut out);
        let after = read();
        let added = [0, 1].map(|i| after[i] - before[i]);
        assert_eq!(added, [1, 2 * (m * k * n) as u64], "{names:?}");
    }
}
