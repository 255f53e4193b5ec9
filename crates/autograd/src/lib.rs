//! # kvec-autograd
//!
//! Reverse-mode automatic differentiation over [`kvec_tensor::Tensor`].
//!
//! The design is a classic *tape*: a [`Graph`] is an arena of nodes appended
//! in topological order as the forward pass runs; [`Graph::backward`] walks
//! the arena in reverse, dispatching on an op enum. The op set is exactly
//! what the KVEC model needs — attention over each row's visible list (and
//! the baselines' dense masked attention), feed-forward blocks,
//! LSTM-style gates, the REINFORCE surrogate and the classifier loss — and
//! every backward rule is validated against central finite differences (see
//! [`gradcheck`]).
//!
//! A fresh graph is built per training step and dropped afterwards, which
//! keeps lifetimes trivial and memory bounded by a single step.
//!
//! ```
//! use kvec_autograd::Graph;
//! use kvec_tensor::Tensor;
//!
//! let g = Graph::new();
//! let x = g.leaf(Tensor::row_vector(&[1.0, 2.0]));
//! let w = g.leaf(Tensor::from_rows(&[vec![0.5], vec![-0.5]]).unwrap());
//! let y = x.matmul(w).sum_all();
//! g.backward(y);
//! assert_eq!(g.grad(x).unwrap().data(), &[0.5, -0.5]);
//! ```

pub mod gradcheck;
mod graph;
mod lstm_keys;
mod var;

pub use graph::{Graph, VarId};
pub use var::Var;
