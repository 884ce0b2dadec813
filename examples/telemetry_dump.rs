//! Telemetry dump: run a small deployment, drain the observability layer,
//! and print the deterministic JSON snapshot plus the trace-event CSV.
//!
//! The output is byte-for-byte reproducible for a given seed — CI diffs two
//! runs of this example to enforce telemetry determinism. With the `obs`
//! feature disabled (`--no-default-features`) the dump is empty but still
//! well-formed.
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

    // Where the run's recovery items went and how often loss recovery
    // stirred, read before the drain resets it.
    let (repaired, held, unwanted, ack_retries, gap_pulls, gap_pull_items) = {
        let hub = deployment.sim.telemetry();
        let hub = hub.borrow();
        let sent = hub.counter_total(ctr::NW_REPAIR_ITEMS_SENT)
            + hub.counter_total(ctr::NW_RECONCILE_ITEMS_SENT);
        (
            sent,
            hub.counter_total(ctr::NW_RECOVERY_HELD),
            hub.counter_total(ctr::NW_RECOVERY_UNWANTED),
            hub.counter_total(ctr::NW_ACK_RETRIES),
            hub.counter_total(ctr::NW_GAP_PULLS),
            hub.counter_total(ctr::NW_GAP_PULL_ITEMS),
        )
    };
    let telemetry = deployment.sim.drain_telemetry();
    println!("{}", telemetry.to_json());
    eprintln!(
        "--- summary: {repaired} recovery items sent, {held} already held, \
         {unwanted} outside the receiver's subscription; {ack_retries} ack retries, \
         {gap_pulls} gap pulls answered with {gap_pull_items} items ---"
    );
    eprintln!("--- trace events (CSV, stderr) ---");
    eprint!("{}", telemetry.events_csv());
}
