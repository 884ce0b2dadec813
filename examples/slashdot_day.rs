//! A day of technical news (the paper's first target configuration, §10):
//! a Slashdot-like site and a boutique outlet publish a generated daily
//! trace into a NewsWire deployment, while the same trace drives the
//! centralized pull model for comparison — reproducing the §1 redundancy
//! argument end to end.
//!
//! Run with: `cargo run --release --example slashdot_day`

use baselines::simulate_polling;
use newsml::{PublisherId, PublisherProfile, TraceGenerator};
use newswire::tech_news_deployment;
use simnet::{fork, SimDuration, SimTime};

const DAY_US: u64 = 86_400_000_000;

fn main() {
    // --- the push side: NewsWire -----------------------------------------
    let mut deployment = tech_news_deployment(150, 7);
    deployment.settle(90);

    let generator = TraceGenerator::new(vec![
        PublisherProfile::slashdot(PublisherId(0)),
        PublisherProfile::boutique(PublisherId(1), "the-register", newsml::Category::Technology),
    ]);
    let mut rng = fork(7, 1);
    // One simulated hour of the daily trace keeps the example snappy; rates
    // are per-day so the trace is representative.
    let horizon_us = DAY_US / 24;
    let events = generator.generate(&mut rng, horizon_us);
    println!("trace: {} items in one simulated hour", events.len());

    let t0 = deployment.sim.now();
    for ev in &events {
        deployment.publish(t0 + SimDuration::from_micros(ev.at_us), ev.item.clone());
    }
    deployment.settle(horizon_us / 1_000_000 + 60);

    let delivered = deployment.counter(obs::ctr::NW_DELIVERED);
    let bloom_fp = deployment.counter(obs::ctr::NW_BLOOM_FP);
    let mut lat = deployment.delivery_latency_summary();
    println!("NewsWire deliveries: {delivered}");
    if !lat.is_empty() {
        println!(
            "  latency p50 {:.2}s  p99 {:.2}s  max {:.2}s",
            lat.quantile(0.5),
            lat.quantile(0.99),
            lat.max()
        );
    }
    println!(
        "  bloom false-positive deliveries: {} ({:.3}% of deliveries)",
        bloom_fp,
        100.0 * bloom_fp as f64 / delivered.max(1) as f64
    );
    println!("  duplicates suppressed: {}", deployment.counter(obs::ctr::NW_DUPLICATES));

    // Per-subscriber bytes: only items they wanted.
    let subs = deployment.sim.len() as u64 - 2;
    let mut sub_bytes = 0u64;
    for (id, _) in deployment.sim.iter() {
        if id.0 >= 2 {
            sub_bytes += deployment.sim.counters(id).bytes_recv;
        }
    }
    println!("  mean bytes/subscriber (incl. gossip): {}", sub_bytes / subs);

    // --- the pull side: §1's redundancy arithmetic ------------------------
    // A full week of the Slashdot-like trace against the rolling front page.
    println!("\ncentralized pull of the same site (front page of 20):");
    let mut rng2 = fork(7, 2);
    let week = TraceGenerator::new(vec![PublisherProfile::slashdot(PublisherId(0))])
        .generate(&mut rng2, 7 * DAY_US);
    let story_times: Vec<u64> = week.iter().map(|e| e.at_us).collect();
    println!("  polls/day   redundant data");
    for polls_per_day in [1u64, 2, 4, 8, 24, 48] {
        let r = simulate_polling(&story_times, DAY_US / polls_per_day, 7 * DAY_US, 20, 300);
        println!("  {:>9}   {:>6.1}%", polls_per_day, 100.0 * r.redundant_fraction());
    }
    println!("(the paper's §1: ~70% redundant at 4 polls/day — and worse for eager readers)");

    let _ = SimTime::ZERO;
}
