//! # kvec
//!
//! The KVEC model — *Key-Value sequence Early Co-classification* (Duan et
//! al., ICDE 2024) — classifying each key-value sequence inside a tangled
//! stream both **early** and **accurately**.
//!
//! Architecture (paper Section IV):
//!
//! 1. **KVRL** (key-value sequence representation learning): every arriving
//!    item is embedded as the sum of a value embedding, a (hashed)
//!    membership embedding, a relative-position embedding and an
//!    arrival-time embedding; a stack of self-attention blocks refines the
//!    embeddings under a **dynamic correlation mask** that only lets an
//!    item attend to earlier items related through *key correlation* (same
//!    sequence) or *value correlation* (same session signature across
//!    sequences); an LSTM-style gated **fusion** folds each sequence's item
//!    embeddings into its representation `s_k^(t)`.
//! 2. **ECTL** (early co-classification timing learning): a REINFORCE-with-
//!    baseline halting policy reads `s_k^(t)` and decides *Halt* (classify
//!    now) or *Wait* (observe more items).
//! 3. A linear-softmax **classifier** labels halted sequences.
//!
//! Training jointly minimizes `l1 + alpha*l2 + beta*l3` (cross-entropy,
//! policy surrogate, lateness penalty) plus an MSE regression for the value
//! baseline — Algorithm 1 of the paper, implemented in [`train`].
//!
//! Quick start:
//!
//! ```
//! use kvec::{KvecConfig, KvecModel, train::Trainer, eval::evaluate};
//! use kvec_data::{synth::{generate_traffic, TrafficConfig}, Dataset};
//! use kvec_tensor::KvecRng;
//!
//! let mut rng = KvecRng::seed_from_u64(1);
//! let cfg_data = TrafficConfig::traffic_app(40).scaled_len(0.3);
//! let pool = generate_traffic(&cfg_data, &mut rng);
//! let ds = Dataset::from_pool("demo", cfg_data.schema(), 10, pool, 4, &mut rng);
//!
//! let cfg = KvecConfig::tiny(&ds.schema, ds.num_classes);
//! let mut model = KvecModel::new(&cfg, &mut rng);
//! let mut trainer = Trainer::new(&cfg, &model);
//! for scenario in &ds.train {
//!     trainer.train_scenario(&mut model, scenario, &mut rng).unwrap();
//! }
//! let report = evaluate(&model, &ds.test);
//! assert!(report.accuracy >= 0.0 && report.earliness <= 1.0);
//! ```

pub mod cache;
pub mod checkpoint;
pub mod classifier;
pub mod config;
pub mod cv;
pub mod ectl;
pub mod embedding;
pub mod eval;
pub mod faults;
pub mod kvrl;
pub mod mask;
pub mod model;
pub mod streaming;
pub mod train;

pub use cache::CacheWindow;
pub use config::KvecConfig;
pub use eval::{evaluate, EvalReport};
pub use faults::{FaultInjector, ServeChaos};
pub use model::KvecModel;
pub use streaming::{StreamError, StreamingEngine};
pub use train::{BadStepReason, RecoveryEvent, TrainError};
