//! Finite-difference gradient checking.
//!
//! Every backward rule in this crate is validated by comparing the analytic
//! gradient against a central finite difference of the (re-run) forward
//! function. The check re-executes the full forward closure per perturbed
//! element, so it is only meant for small test tensors.

use crate::{Graph, Var};
use kvec_tensor::Tensor;

/// Result of a gradient check: largest absolute and relative deviation.
#[derive(Debug, Clone, Copy)]
pub struct GradCheckReport {
    /// Largest absolute difference between analytic and numeric gradients.
    pub max_abs_err: f32,
    /// Largest relative difference (normalized by gradient magnitude).
    pub max_rel_err: f32,
}

/// Checks the analytic gradient of `f` with respect to a single input.
///
/// `f` must build a scalar expression from the graph and leaf it receives.
/// Returns the worst-case deviation over all input elements.
pub fn check_scalar_fn(
    input: &Tensor,
    eps: f32,
    f: impl Fn(&Graph, Var<'_>) -> f32,
) -> GradCheckReport {
    // Analytic gradient.
    let g = Graph::new();
    let x = g.leaf(input.clone());
    let _ = run_forward(&g, x, &f);
    let analytic = g
        .grad(x)
        .unwrap_or_else(|| Tensor::zeros(input.rows(), input.cols()));

    let mut max_abs = 0.0f32;
    let mut max_rel = 0.0f32;
    for i in 0..input.len() {
        let mut plus = input.clone();
        plus.data_mut()[i] += eps;
        let mut minus = input.clone();
        minus.data_mut()[i] -= eps;

        let fp = eval(&plus, &f);
        let fm = eval(&minus, &f);
        let numeric = (fp - fm) / (2.0 * eps);
        let a = analytic.data()[i];
        let abs = (a - numeric).abs();
        let rel = abs / a.abs().max(numeric.abs()).max(1.0);
        max_abs = max_abs.max(abs);
        max_rel = max_rel.max(rel);
    }
    GradCheckReport {
        max_abs_err: max_abs,
        max_rel_err: max_rel,
    }
}

fn run_forward(g: &Graph, x: Var<'_>, f: impl Fn(&Graph, Var<'_>) -> f32) -> f32 {
    let before = g.len();
    let y = f(g, x);
    // The closure must have produced at least one node whose value is the
    // returned scalar; backward from the last node.
    assert!(g.len() > before, "forward closure recorded no ops");
    let out = g.var(crate::VarId(g.len() - 1));
    assert_eq!(out.shape(), (1, 1), "forward closure must end in a scalar");
    assert!(
        (out.value().item() - y).abs() <= 1e-5 * y.abs().max(1.0),
        "closure return value must be the last node's value"
    );
    g.backward(out);
    y
}

fn eval(input: &Tensor, f: impl Fn(&Graph, Var<'_>) -> f32) -> f32 {
    let g = Graph::new();
    let x = g.leaf(input.clone());
    f(&g, x)
}

/// Asserts that a gradient check passes within tolerance.
pub fn assert_grad_close(input: &Tensor, eps: f32, tol: f32, f: impl Fn(&Graph, Var<'_>) -> f32) {
    let report = check_scalar_fn(input, eps, f);
    assert!(
        report.max_rel_err <= tol,
        "gradient check failed: max_abs_err={}, max_rel_err={} (tol {tol})",
        report.max_abs_err,
        report.max_rel_err
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use kvec_tensor::KvecRng;

    fn rand_input(rows: usize, cols: usize, seed: u64) -> Tensor {
        let mut rng = KvecRng::seed_from_u64(seed);
        Tensor::rand_uniform(rows, cols, -1.0, 1.0, &mut rng)
    }

    #[test]
    fn grad_sum_of_squares() {
        assert_grad_close(&rand_input(3, 4, 1), 1e-3, 1e-2, |_g, x| {
            x.square().sum_all().value().item()
        });
    }

    #[test]
    fn grad_sigmoid_tanh_relu_chain() {
        assert_grad_close(&rand_input(2, 3, 2), 1e-3, 1e-2, |_g, x| {
            x.sigmoid().tanh().sum_all().value().item()
        });
        // ReLU checked away from the kink.
        let input = rand_input(2, 3, 3).add_scalar(2.0);
        assert_grad_close(&input, 1e-3, 1e-2, |_g, x| {
            x.relu().square().sum_all().value().item()
        });
    }

    #[test]
    fn grad_softplus_and_ln() {
        assert_grad_close(&rand_input(2, 2, 4), 1e-3, 1e-2, |_g, x| {
            x.softplus().sum_all().value().item()
        });
        let positive = rand_input(2, 2, 5).add_scalar(3.0);
        assert_grad_close(&positive, 1e-3, 1e-2, |_g, x| {
            x.ln().sum_all().value().item()
        });
    }

    #[test]
    fn grad_matmul_left_and_right() {
        let w = rand_input(4, 2, 6);
        assert_grad_close(&rand_input(3, 4, 7), 1e-3, 1e-2, move |g, x| {
            let wv = g.leaf(w.clone());
            x.matmul(wv).square().sum_all().value().item()
        });
        let a = rand_input(3, 4, 8);
        assert_grad_close(&rand_input(4, 2, 9), 1e-3, 1e-2, move |g, x| {
            let av = g.leaf(a.clone());
            av.matmul(x).square().sum_all().value().item()
        });
    }

    #[test]
    fn grad_matmul_nt_left_and_right() {
        let w = rand_input(2, 4, 32);
        assert_grad_close(&rand_input(3, 4, 33), 1e-3, 1e-2, move |g, x| {
            let wv = g.leaf(w.clone());
            x.matmul_nt(wv).square().sum_all().value().item()
        });
        let a = rand_input(3, 4, 34);
        assert_grad_close(&rand_input(2, 4, 35), 1e-3, 1e-2, move |g, x| {
            let av = g.leaf(a.clone());
            av.matmul_nt(x).square().sum_all().value().item()
        });
        // Both operands at once, one row on the left: the scores of a
        // one-item stream.
        assert_grad_close(&rand_input(1, 4, 36), 1e-3, 1e-2, |_g, x| {
            x.matmul_nt(x.scale(0.5)).sum_all().value().item()
        });
    }

    #[test]
    fn grad_transpose_and_concat() {
        assert_grad_close(&rand_input(2, 3, 10), 1e-3, 1e-2, |_g, x| {
            x.t().square().sum_all().value().item()
        });
        assert_grad_close(&rand_input(2, 3, 11), 1e-3, 1e-2, |_g, x| {
            x.concat_cols(x.square()).sum_all().value().item()
        });
        assert_grad_close(&rand_input(2, 3, 12), 1e-3, 1e-2, |_g, x| {
            x.concat_rows(x.scale(2.0))
                .square()
                .sum_all()
                .value()
                .item()
        });
    }

    #[test]
    fn grad_softmax_rows() {
        assert_grad_close(&rand_input(3, 4, 13), 1e-3, 1e-2, |_g, x| {
            x.softmax_rows().square().sum_all().value().item()
        });
    }

    #[test]
    fn grad_masked_softmax_rows() {
        let mask = Tensor::from_rows(&[
            vec![0.0, f32::NEG_INFINITY, 0.0, 0.0],
            vec![0.0, 0.0, f32::NEG_INFINITY, f32::NEG_INFINITY],
            vec![0.0, 0.0, 0.0, f32::NEG_INFINITY],
        ])
        .unwrap();
        assert_grad_close(&rand_input(3, 4, 14), 1e-3, 1e-2, move |_g, x| {
            x.masked_softmax_rows(&mask)
                .square()
                .sum_all()
                .value()
                .item()
        });
    }

    #[test]
    fn grad_log_softmax_rows() {
        assert_grad_close(&rand_input(3, 4, 15), 1e-3, 1e-2, |_g, x| {
            x.log_softmax_rows().pick(1, 2).neg().value().item()
        });
    }

    #[test]
    fn grad_gather_rows() {
        assert_grad_close(&rand_input(4, 3, 16), 1e-3, 1e-2, |_g, x| {
            x.gather_rows(&[0, 2, 2, 3])
                .square()
                .sum_all()
                .value()
                .item()
        });
    }

    #[test]
    fn grad_add_row_broadcast_both_sides() {
        let bias = rand_input(1, 3, 17);
        assert_grad_close(&rand_input(4, 3, 18), 1e-3, 1e-2, move |g, x| {
            let b = g.leaf(bias.clone());
            x.add_row_broadcast(b).square().sum_all().value().item()
        });
        let m = rand_input(4, 3, 19);
        assert_grad_close(&rand_input(1, 3, 20), 1e-3, 1e-2, move |g, x| {
            let mv = g.leaf(m.clone());
            mv.add_row_broadcast(x).square().sum_all().value().item()
        });
    }

    #[test]
    fn grad_mean_and_mul_const() {
        assert_grad_close(&rand_input(3, 3, 21), 1e-3, 1e-2, |_g, x| {
            x.square().mean_all().value().item()
        });
        let k = rand_input(3, 3, 22);
        assert_grad_close(&rand_input(3, 3, 23), 1e-3, 1e-2, move |_g, x| {
            x.mul_const(&k).sum_all().value().item()
        });
    }

    #[test]
    fn grad_slice_rows() {
        assert_grad_close(&rand_input(4, 3, 24), 1e-3, 1e-2, |_g, x| {
            x.slice_rows(1, 3).square().sum_all().value().item()
        });
    }

    #[test]
    fn grad_slice_cols() {
        assert_grad_close(&rand_input(3, 5, 40), 1e-3, 1e-2, |_g, x| {
            x.slice_cols(1, 4).square().sum_all().value().item()
        });
    }

    #[test]
    fn grad_mul_row_broadcast_both_sides() {
        let scale = rand_input(1, 4, 41);
        assert_grad_close(&rand_input(3, 4, 42), 1e-3, 1e-2, move |g, x| {
            let s = g.leaf(scale.clone());
            x.mul_row_broadcast(s).square().sum_all().value().item()
        });
        let m = rand_input(3, 4, 43);
        assert_grad_close(&rand_input(1, 4, 44), 1e-3, 1e-2, move |g, x| {
            let mv = g.leaf(m.clone());
            mv.mul_row_broadcast(x).square().sum_all().value().item()
        });
    }

    #[test]
    fn grad_layer_norm_rows() {
        assert_grad_close(&rand_input(3, 5, 45), 1e-3, 2e-2, |_g, x| {
            x.layer_norm_rows(1e-5)
                .hadamard(x.layer_norm_rows(1e-5).sigmoid())
                .sum_all()
                .value()
                .item()
        });
    }

    #[test]
    fn grad_full_layer_norm_layer_shape() {
        // norm -> gain -> bias, the exact LayerNorm composite.
        let gamma = rand_input(1, 4, 46).add_scalar(1.5);
        let beta = rand_input(1, 4, 47);
        assert_grad_close(&rand_input(3, 4, 48), 1e-3, 2e-2, move |g, x| {
            let ga = g.leaf(gamma.clone());
            let be = g.leaf(beta.clone());
            x.layer_norm_rows(1e-5)
                .mul_row_broadcast(ga)
                .add_row_broadcast(be)
                .square()
                .sum_all()
                .value()
                .item()
        });
    }

    #[test]
    fn grad_lstm_like_gate_expression() {
        // A miniature of the KVEC fusion cell: gates from a concat input.
        let d = 3;
        let w = rand_input(2 * d, d, 25);
        let s_prev = rand_input(1, d, 26);
        assert_grad_close(&rand_input(1, d, 27), 1e-3, 1e-2, move |g, x| {
            let wv = g.leaf(w.clone());
            let sp = g.leaf(s_prev.clone());
            let cat = sp.concat_cols(x);
            let f = cat.matmul(wv).sigmoid();
            let c = f.hadamard(cat.matmul(wv).tanh());
            c.square().sum_all().value().item()
        });
    }

    #[test]
    fn grad_attention_like_expression() {
        // softmax(Q K^T) V with shared input, mirroring KVRL's structure.
        let d = 3;
        let wq = rand_input(d, d, 28);
        let wk = rand_input(d, d, 29);
        let wv = rand_input(d, d, 30);
        let mask = Tensor::from_rows(&[
            vec![0.0, f32::NEG_INFINITY, f32::NEG_INFINITY],
            vec![0.0, 0.0, f32::NEG_INFINITY],
            vec![0.0, f32::NEG_INFINITY, 0.0],
        ])
        .unwrap();
        assert_grad_close(&rand_input(3, d, 31), 1e-3, 2e-2, move |g, x| {
            let q = x.matmul(g.leaf(wq.clone()));
            let k = x.matmul(g.leaf(wk.clone()));
            let v = x.matmul(g.leaf(wv.clone()));
            let scores = q.matmul_nt(k).scale(1.0 / (d as f32).sqrt());
            let attn = scores.masked_softmax_rows(&mask);
            attn.matmul(v).square().sum_all().value().item()
        });
    }
}
