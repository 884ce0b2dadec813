//! # bench — the experiment harness of the NewsWire reproduction
//!
//! One module per experiment (E1–E21 and A1, see `DESIGN.md` §3 for the
//! index mapping each to the paper claim it reproduces). The `experiments`
//! binary runs them and prints the tables recorded in `EXPERIMENTS.md`:
//!
//! ```text
//! cargo run -p bench --release --bin experiments            # all
//! cargo run -p bench --release --bin experiments -- e3 e5   # a subset
//! cargo run -p bench --release --bin experiments -- --quick # smaller sizes
//! cargo run -p bench --release --bin experiments -- --quick --ledger # + one line per cell
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
mod table;

pub use table::{print_ledger, print_ledger_line, Table};

/// Experiment ids in run order.
pub const ALL: [&str; 21] = [
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13", "e14", "e16",
    "e17", "e18", "e19", "e20", "e21", "a1",
];

/// Runs one experiment by id (`"e1"`…`"e21"`, `"a1"`); `quick` shrinks problem
/// sizes for smoke runs. Returns `false` for an unknown id.
pub fn run(id: &str, quick: bool) -> bool {
    match id {
        "e1" => experiments::e01_latency::run(quick),
        "e2" => experiments::e02_publisher_load::run(quick),
        "e3" => experiments::e03_redundancy::run(quick),
        "e4" => experiments::e04_overload::run(quick),
        "e5" => experiments::e05_bloom::run(quick),
        "e6" => experiments::e06_convergence::run(quick),
        "e7" => experiments::e07_robustness::run(quick),
        "e8" => experiments::e08_bimodal::run(quick),
        "e9" => experiments::e09_scoped::run(quick),
        "e10" => experiments::e10_queues::run(quick),
        "e11" => experiments::e11_repair::run(quick),
        "e12" => experiments::e12_gossip_cost::run(quick),
        "e13" => experiments::e13_chaos::run(quick),
        "e14" => experiments::e14_partition::run(quick),
        "e16" => experiments::e16_recovery::run(quick),
        "e17" => experiments::e17_adversary::run(quick),
        "e18" => experiments::e18_byzantine::run(quick),
        "e19" => experiments::e19_scale::run(quick),
        "e20" => experiments::e20_wire::run(quick),
        "e21" => experiments::e21_trust_rotation::run(quick),
        "a1" => experiments::a01_models::run(quick),
        _ => return false,
    }
    true
}
