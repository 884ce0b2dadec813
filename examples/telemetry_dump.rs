//! Telemetry dump: run a small deployment, drain the observability layer,
//! and print the deterministic JSON snapshot plus the trace-event CSV.
//!
//! The output is byte-for-byte reproducible for a given seed — CI diffs two
//! runs of this example to enforce telemetry determinism.
//!
//! Run with: `cargo run --release --example telemetry_dump [seed]`

use newsml::{Category, NewsItem, PublisherId};
use newswire::tech_news_deployment;
use obs::ctr;
use simnet::SimTime;

fn main() {
    let seed: u64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(42);
    let mut deployment = tech_news_deployment(120, seed);
    deployment.settle(60);

    for seq in 0..3u64 {
        let item = NewsItem::builder(PublisherId(0), seq)
            .headline("telemetry sample")
            .category(Category::Technology)
            .build();
        deployment.publish(SimTime::from_secs(60 + 2 * seq), item);
    }
    deployment.settle(25);

    // Where the run's recovery items went, what reconcile withheld, and how
    // often loss recovery stirred, read before the drain resets it.
    let hub = deployment.sim.telemetry();
    let total = |id| hub.borrow().counter_total(id);
    let repaired = total(ctr::NW_REPAIR_ITEMS_SENT) + total(ctr::NW_RECONCILE_ITEMS_SENT);
    let summary = format!(
        "--- summary: {repaired} recovery items sent, {} already held, \
         {} outside the receiver's subscription, {} withheld as stubs, \
         {} requested seqs unvouched; {} ack retries, {} gap pulls answered with {} items, \
         {} unanswered ---",
        total(ctr::NW_RECOVERY_HELD),
        total(ctr::NW_RECOVERY_UNWANTED),
        total(ctr::NW_RECONCILE_WITHHELD),
        total(ctr::NW_RECONCILE_UNVOUCHED),
        total(ctr::NW_ACK_RETRIES),
        total(ctr::NW_GAP_PULLS),
        total(ctr::NW_GAP_PULL_ITEMS),
        total(ctr::NW_GAP_PULL_UNANSWERED),
    );
    let telemetry = deployment.sim.drain_telemetry();
    println!("{}", telemetry.to_json());
    eprintln!("{summary}");
    eprintln!("--- trace events (CSV, stderr) ---");
    eprint!("{}", telemetry.events_csv());
}
