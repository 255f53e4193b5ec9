//! # kvec-bench
//!
//! The experiment harness regenerating every table and figure of the KVEC
//! paper's evaluation (Section V). Performance is measured by the
//! repository benchmark, `kvbench` (`src/bin/kvbench`).
//!
//! One binary per experiment (see `DESIGN.md` for the full index):
//!
//! | binary | paper artifact |
//! |---|---|
//! | `table1_stats` | Table I (dataset statistics) |
//! | `fig3_6_performance` | Figs. 3-6 (metrics vs earliness, 5 methods) |
//! | `fig7_hm` | Fig. 7 (harmonic mean vs earliness) |
//! | `fig8_sensitivity` | Fig. 8 (alpha / beta sensitivity) |
//! | `fig9_ablation` | Fig. 9 (component ablation) |
//! | `fig10_attention` | Fig. 10 (internal vs external attention) |
//! | `fig11_halting` | Fig. 11 (halting-position distributions) |
//! | `fig12_concurrency` | Fig. 12 (effect of concurrency K) |
//!
//! Every binary is seeded and prints its configuration; run with
//! `--release`. Set `KVEC_FAST=1` for a quick smoke pass (smaller data,
//! fewer epochs) — the shapes survive, the variance grows.

pub mod datasets;
pub mod harness;
