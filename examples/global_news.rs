//! The general-news configuration (paper §10's second target: Reuters, AP,
//! The New York Times): a WAN-structured deployment demonstrating scoped
//! regional publishing (§8: "disseminate localized news items in Asia") and
//! SQL subscription predicates (§8).
//!
//! Run with: `cargo run --release --example global_news [seed]`

use newsml::{Category, NewsItem, PublisherId, PublisherProfile};
use newswire::{DeploymentBuilder, NewsWireConfig, PublisherSpec};
use simnet::SimTime;

fn main() {
    let seed: u64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(11);
    let mut config = NewsWireConfig::global_news();
    // Premium tier: a SUM(premium) aggregation lets publishers target
    // paying subscribers only (the §8 extension).
    config
        .astrolabe
        .aggregations
        .push(astrolabe::AggSpec::new("premium", "SELECT SUM(premium) AS premium"));
    let mut deployment = DeploymentBuilder::new(200, seed)
        .branching(8)
        .config(config)
        .wan(0.01) // regioned latencies + 1% loss
        .publisher(PublisherSpec::global(PublisherProfile::reuters(PublisherId(0))))
        .publisher(PublisherSpec::global({
            let mut ap = PublisherProfile::reuters(PublisherId(1));
            ap.name = "ap".into();
            ap
        }))
        .cats_per_subscriber(3)
        .build();

    println!("global news: 200 subscribers, seed {seed:#x}");
    println!("settling 90 simulated seconds on a lossy WAN…");
    deployment.settle(90);

    // --- a world-news flash, globally scoped ------------------------------
    let flash = NewsItem::builder(PublisherId(0), 0)
        .headline("Global flash")
        .category(Category::World)
        .urgency(newsml::Urgency::FLASH)
        .build();
    deployment.publish(SimTime::from_secs(90), flash.clone());
    deployment.settle(45); // includes time for cache repair to patch WAN loss
    println!(
        "global flash: {} interested, {} delivered",
        deployment.interested_nodes(&flash).len(),
        deployment.delivered_nodes(&flash).len()
    );

    // --- a regional item, scoped to one top-level zone ("Asia") -----------
    // Pick the top-level zone of some subscriber and publish only there.
    let region = deployment.layout.leaf_zone(120).ancestor_at(1);
    let inside = deployment.layout.agents_under(&region);
    let regional = NewsItem::builder(PublisherId(0), 1)
        .headline("Asia-only market update")
        .category(Category::Business)
        .build();
    let now = deployment.sim.now();
    deployment.publish_scoped(now, regional.clone(), region.clone());
    deployment.settle(25);
    let delivered = deployment.delivered_nodes(&regional);
    let leaked = delivered.iter().filter(|n| !inside.contains(&n.0)).count();
    println!(
        "regional item into zone {region}: {} delivered inside its {} nodes, {} leaked outside",
        delivered.len(),
        inside.len(),
        leaked
    );
    assert_eq!(leaked, 0, "scoped publish must stay inside the zone");

    // --- SQL predicate: urgent items only ---------------------------------
    let urgent_only = deployment
        .interested_nodes(&flash)
        .first()
        .copied()
        .expect("someone subscribes to world news");
    deployment
        .sim
        .node_mut(urgent_only)
        .subscription
        .set_predicate("urgency <= 2")
        .expect("valid SQL");
    let routine = NewsItem::builder(PublisherId(0), 2)
        .headline("Routine world roundup")
        .category(Category::World)
        .urgency(newsml::Urgency::new(6))
        .build();
    let now = deployment.sim.now();
    deployment.publish(now, routine.clone());
    deployment.settle(25);
    let node = deployment.sim.node(urgent_only);
    println!(
        "predicate subscriber {urgent_only}: delivered flash = {}, delivered routine = {} (predicate filtered {})",
        node.has_item(flash.id),
        node.has_item(routine.id),
        deployment
            .sim
            .telemetry()
            .borrow()
            .node_counter(urgent_only.index(), obs::ctr::NW_PREDICATE_FILTERED)
    );
    assert!(!node.has_item(routine.id), "urgency predicate must filter routine items");

    // --- publisher predicate: premium subscribers only ---------------------
    let premium_nodes: Vec<simnet::NodeId> =
        (2..202).filter(|i| i % 4 == 0).map(simnet::NodeId).collect();
    for &p in &premium_nodes {
        deployment.sim.node_mut(p).agent.set_local_attr("premium", 1i64);
    }
    deployment.settle(30); // let the premium aggregation climb the tree
    let exclusive = NewsItem::builder(PublisherId(0), 3)
        .headline("Premium-only analysis")
        .category(Category::Business)
        .build();
    let now = deployment.sim.now();
    deployment.publish_with_predicate(now, exclusive.clone(), "premium > 0");
    deployment.settle(25);
    let got = deployment.delivered_nodes(&exclusive);
    let leaked = got.iter().filter(|n| !premium_nodes.contains(n)).count();
    println!("premium-only item: {} deliveries, {} to non-premium subscribers", got.len(), leaked);
    assert_eq!(leaked, 0, "publisher predicate must confine premium content");
    println!("ok");
}
