//! Bootstrapping NewsWire from existing RSS feeds (paper §10): "we have
//! already developed some agents that are capable of transforming the
//! current RSS/HTML information from some publishers into message streams
//! for the system to bootstrap it."
//!
//! An [`RssIngestAgent`] polls a rolling RSS channel, deduplicates entries
//! across polls, and feeds the fresh ones into the deployment as publish
//! requests.
//!
//! Run with: `cargo run --release --example rss_bootstrap`

use newsml::{Category, PublisherId};
use newswire::{tech_news_deployment, RssChannel, RssEntry, RssIngestAgent};
use simnet::SimTime;

/// Fakes the site's RSS endpoint at poll number `poll`: a rolling window of
/// ten entries that advances by three stories per poll.
fn fetch_channel(poll: u64) -> RssChannel {
    let newest = poll * 3 + 10;
    RssChannel {
        title: "Slashdot".into(),
        entries: (newest - 10..newest)
            .rev()
            .map(|g| RssEntry {
                title: format!("Headline {g}"),
                link: format!("https://news.example/{g}"),
                guid: format!("guid-{g}"),
                category: Some("technology".into()),
            })
            .collect(),
    }
}

fn main() {
    let mut deployment = tech_news_deployment(100, 99);
    deployment.settle(60);

    let mut agent = RssIngestAgent::new(PublisherId(0), Category::Technology);
    let mut published = 0u64;
    for poll in 0..6u64 {
        let channel = fetch_channel(poll);
        // Round-trip through the XML layer, as a real agent would.
        let parsed = RssChannel::from_xml(&channel.to_xml()).expect("well-formed feed");
        let fresh = agent.ingest(&parsed);
        println!(
            "poll {poll}: {} entries on the page, {} fresh",
            parsed.entries.len(),
            fresh.len()
        );
        let at = SimTime::from_secs(60 + poll * 30);
        for item in fresh {
            deployment.publish(at, item);
            published += 1;
        }
    }
    deployment.settle(6 * 30 + 30);

    println!("\ningested {} distinct stories, published {published}", agent.ingested());
    println!("NewsWire deliveries: {}", deployment.counter(obs::ctr::NW_DELIVERED));
    let mut lat = deployment.delivery_latency_summary();
    if !lat.is_empty() {
        println!("latency p50 {:.2}s  max {:.2}s", lat.quantile(0.5), lat.max());
    }
    assert_eq!(agent.ingested() as u64, published, "every distinct entry published once");
    println!("ok");
}
