//! Property-based gradient checks: every differentiable op, on random
//! inputs, must match central finite differences. (Ported from proptest to
//! the in-tree `kvec-check` harness.)

use kvec_autograd::gradcheck::check_scalar_fn;
use kvec_check::{check_n, Gen};
use kvec_tensor::Tensor;

fn gen_input(g: &mut Gen, rows: usize, cols: usize) -> Tensor {
    Tensor::from_vec(rows, cols, g.vec_f32(rows * cols, -2.0, 2.0)).unwrap()
}

const CASES: usize = 48;
const TOL: f32 = 2e-2;
const EPS: f32 = 1e-3;

#[test]
fn grad_elementwise_chain() {
    check_n("grad_elementwise_chain", CASES, |g| {
        let x = gen_input(g, 3, 3);
        let r = check_scalar_fn(&x, EPS, |_g, v| {
            v.sigmoid()
                .hadamard(v.tanh())
                .square()
                .sum_all()
                .value()
                .item()
        });
        assert!(r.max_rel_err < TOL, "rel err {}", r.max_rel_err);
    });
}

#[test]
fn grad_softmax_composition() {
    check_n("grad_softmax_composition", CASES, |g| {
        let x = gen_input(g, 3, 4);
        let r = check_scalar_fn(&x, EPS, |_g, v| {
            v.softmax_rows().square().sum_all().value().item()
        });
        assert!(r.max_rel_err < TOL, "rel err {}", r.max_rel_err);
    });
}

#[test]
fn grad_matmul_quadratic_form() {
    check_n("grad_matmul_quadratic_form", CASES, |g| {
        let x = gen_input(g, 3, 3);
        let r = check_scalar_fn(&x, EPS, |_g, v| v.matmul(v.t()).sum_all().value().item());
        assert!(r.max_rel_err < TOL, "rel err {}", r.max_rel_err);
    });
}

#[test]
fn grad_gather_and_concat() {
    check_n("grad_gather_and_concat", CASES, |g| {
        let x = gen_input(g, 4, 2);
        let r = check_scalar_fn(&x, EPS, |_g, v| {
            v.gather_rows(&[0, 0, 3])
                .concat_cols(v.gather_rows(&[1, 2, 3]))
                .square()
                .sum_all()
                .value()
                .item()
        });
        assert!(r.max_rel_err < TOL, "rel err {}", r.max_rel_err);
    });
}

#[test]
fn grad_softplus_policy_terms() {
    check_n("grad_softplus_policy_terms", CASES, |g| {
        let x = gen_input(g, 1, 4);
        // The exact expression shape of the halting losses.
        let r = check_scalar_fn(&x, EPS, |g, v| {
            let w = g.leaf(Tensor::from_vec(4, 1, vec![0.3, -0.2, 0.5, 0.1]).unwrap());
            let z = v.matmul(w);
            let log_halt = z.neg().softplus().neg();
            let log_wait = z.softplus().neg();
            log_halt.scale(-1.7).add(log_wait.scale(0.4)).value().item()
        });
        assert!(r.max_rel_err < TOL, "rel err {}", r.max_rel_err);
    });
}

#[test]
fn grad_scale_linearity() {
    check_n("grad_scale_linearity", CASES, |g| {
        let x = gen_input(g, 2, 3);
        let s = g.f32_in(-3.0, 3.0);
        let r = check_scalar_fn(&x, EPS, move |_g, v| v.scale(s).sum_all().value().item());
        // d/dx sum(s*x) = s exactly.
        assert!(r.max_abs_err < 1e-2, "abs err {}", r.max_abs_err);
    });
}

#[test]
fn grad_mean_is_uniform() {
    check_n("grad_mean_is_uniform", CASES, |g| {
        use kvec_autograd::Graph;
        let x = gen_input(g, 3, 3);
        let graph = Graph::new();
        let v = graph.leaf(x);
        let y = v.mean_all();
        graph.backward(y);
        let grad = graph.grad(v).unwrap();
        let expected = Tensor::full(3, 3, 1.0 / 9.0);
        assert!(grad.allclose(&expected, 1e-6));
    });
}

#[test]
fn detach_never_leaks_gradient() {
    check_n("detach_never_leaks_gradient", CASES, |g| {
        use kvec_autograd::Graph;
        let x = gen_input(g, 2, 2);
        let graph = Graph::new();
        let v = graph.leaf(x);
        let y = v.detach().square().sum_all();
        graph.backward(y);
        assert!(graph.grad(v).is_none());
    });
}

// --- In-place accumulation against allocate-then-`add_assign` -----------
//
// The reverse sweep adds slice/gather/pick gradients straight into the
// rows of the parent's accumulator and folds a one-row matmul's outer
// product in row by row. The reference is what the rules did before:
// materialize each contribution as a parent-shaped tensor, then
// `add_assign` it. On diamond graphs (one leaf, two branches) the two must
// agree bit for bit, whichever branch reaches the leaf first.

use kvec_autograd::{Graph, Var};
use kvec_check::ulp_distance;

type Branch<'a> = Box<dyn for<'g> Fn(&'g Graph, Var<'g>) -> Var<'g> + 'a>;

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// Gradient of a leaf holding `x` under the scalar `loss` builds from it.
fn leaf_grad(x: &Tensor, loss: impl for<'g> Fn(&'g Graph, Var<'g>) -> Var<'g>) -> Tensor {
    let graph = Graph::new();
    let leaf = graph.leaf(x.clone());
    graph.backward(loss(&graph, leaf));
    graph.grad(leaf).expect("every branch reaches the leaf")
}

/// `sum(v (.) k)`: hands `v` exactly `k` as its upstream gradient.
fn weighted<'g>(v: Var<'g>, k: &Tensor) -> Var<'g> {
    v.mul_const(k).sum_all()
}

#[test]
fn scatter_rules_match_allocate_then_add_on_diamonds() {
    check_n("scatter_rule_diamonds", CASES, |g| {
        let (rows, cols) = (5, 4);
        let x = gen_input(g, rows, cols);
        let w = gen_input(g, cols, 3);
        let k_mm = gen_input(g, rows, 3);
        let k_rows = gen_input(g, 2, cols);
        let k_cols = gen_input(g, rows, 2);
        let k_gather = gen_input(g, 4, cols);
        let k_pick = gen_input(g, 1, 1);
        let k_chain = gen_input(g, rows, cols);

        // (branch, its contribution allocated the old way)
        let mut slice_rows = Tensor::zeros(rows, cols);
        for r in 0..2 {
            for c in 0..cols {
                slice_rows[(1 + r, c)] += k_rows[(r, c)];
            }
        }
        let mut slice_cols = Tensor::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..2 {
                slice_cols[(r, 1 + c)] += k_cols[(r, c)];
            }
        }
        // Distinct indices: a gather that repeats one adds its rows to the
        // accumulator one by one, which associates differently from
        // summing them into a temporary first (same value, last bit free).
        let gathered = [0usize, 2, 4, 1];
        let mut gather = Tensor::zeros(rows, cols);
        for (out_row, &src_row) in gathered.iter().enumerate() {
            for c in 0..cols {
                gather[(src_row, c)] += k_gather[(out_row, c)];
            }
        }
        let mut pick = Tensor::zeros(rows, cols);
        pick[(3, 1)] = k_pick.item();
        let branches: Vec<(&str, Branch<'_>, Option<Tensor>)> = vec![
            (
                "matmul",
                Box::new(|g, x| weighted(x.matmul(g.leaf(w.clone())), &k_mm)),
                Some(k_mm.matmul_nt(&w).unwrap()),
            ),
            (
                "slice_rows",
                Box::new(|_, x| weighted(x.slice_rows(1, 3), &k_rows)),
                Some(slice_rows),
            ),
            (
                "slice_cols",
                Box::new(|_, x| weighted(x.slice_cols(1, 3), &k_cols)),
                Some(slice_cols),
            ),
            (
                "gather_rows",
                Box::new(|_, x| weighted(x.gather_rows(&gathered), &k_gather)),
                Some(gather),
            ),
            (
                "pick",
                Box::new(|_, x| weighted(x.pick(3, 1), &k_pick)),
                Some(pick),
            ),
            (
                // Rules that rewrite the gradient buffer they are handed
                // (no closed form here: checked through the diamonds only).
                "elementwise",
                Box::new(|g, x| {
                    // One path into `x`, so the branch delivers a single
                    // contribution; `y` is a diamond of its own.
                    let y = g.leaf(k_chain.clone()).tanh().sub(x.sigmoid()).scale(0.5);
                    weighted(y.softmax_rows().add(y.neg().log_softmax_rows()), &k_chain)
                }),
                None,
            ),
        ];

        let solo: Vec<Tensor> = branches
            .iter()
            .map(|(name, branch, reference)| {
                let got = leaf_grad(&x, branch);
                if let Some(want) = reference {
                    assert_eq!(bits(&got), bits(want), "{name} alone");
                }
                got
            })
            .collect();
        for (i, (first_name, first, _)) in branches.iter().enumerate() {
            for (j, (second_name, second, _)) in branches.iter().enumerate() {
                if i == j {
                    continue;
                }
                // `second` is recorded last, so the sweep reaches the leaf
                // through it first: its contribution opens the accumulator.
                let got = leaf_grad(&x, |g, x| first(g, x).add(second(g, x)));
                let mut want = solo[j].clone();
                want.add_assign(&solo[i]);
                assert_eq!(bits(&got), bits(&want), "{first_name} then {second_name}");
            }
        }

        // Rows a slice does not touch keep the bits another branch left.
        let got = leaf_grad(&x, |g, x| branches[1].1(g, x).add(branches[0].1(g, x)));
        for r in [0, 3, 4] {
            let kept: Vec<u32> = got.row(r).iter().map(|v| v.to_bits()).collect();
            let left: Vec<u32> = solo[0].row(r).iter().map(|v| v.to_bits()).collect();
            assert_eq!(kept, left, "row {r} outside the slice");
        }
    });
}

#[test]
fn one_row_matmul_rule_accumulates_the_outer_product_within_ulp() {
    check_n("one_row_matmul_diamonds", CASES, |g| {
        let (k, n) = (6, 5);
        let w = gen_input(g, k, n);
        let a = gen_input(g, 1, k);
        let a2 = gen_input(g, 1, k);
        let k_a = gen_input(g, 1, n);
        let k_a2 = gen_input(g, 1, n);
        let k_rows = gen_input(g, 2, n);
        let branches: Vec<(&str, Branch<'_>)> = vec![
            (
                "row",
                Box::new(|g, w| weighted(g.leaf(a.clone()).matmul(w), &k_a)),
            ),
            (
                "row2",
                Box::new(|g, w| weighted(g.leaf(a2.clone()).matmul(w), &k_a2)),
            ),
            (
                "slice_rows",
                Box::new(|_, w| weighted(w.slice_rows(2, 4), &k_rows)),
            ),
        ];
        let solo: Vec<Tensor> = branches.iter().map(|(_, b)| leaf_grad(&w, b)).collect();
        // Alone, the rule opens a zeroed accumulator: exactly a^T g.
        assert_eq!(
            bits(&solo[0]),
            bits(&a.matmul_tn(&k_a).unwrap()),
            "row alone"
        );

        for (i, (first_name, first)) in branches.iter().enumerate() {
            for (j, (second_name, second)) in branches.iter().enumerate() {
                if i == j {
                    continue;
                }
                let got = leaf_grad(&w, |g, w| first(g, w).add(second(g, w)));
                let mut want = solo[j].clone();
                want.add_assign(&solo[i]);
                // The rule may fuse its multiply-add into the accumulator
                // (one rounding where the reference has two).
                for (e, (&got, &want)) in got.data().iter().zip(want.data()).enumerate() {
                    let scale = solo[i].data()[e].abs() + solo[j].data()[e].abs();
                    assert!(
                        ulp_distance(got, want) <= 16
                            || (got - want).abs() <= 2.0 * f32::EPSILON * scale,
                        "{first_name} then {second_name}, element {e}: {got} vs {want}"
                    );
                }
            }
        }
    });
}
