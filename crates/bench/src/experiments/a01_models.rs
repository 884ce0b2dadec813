//! A1 (ablation) — subscription-summary models.
//!
//! DESIGN.md calls for ablations on the design choices; the central one is
//! the subscription summary. Paper §7 on the category-mask prototype: "This
//! prototype has limited scalability in the selection of publishers and is
//! not flexible in terms of the expressiveness of subscriptions" — the
//! Bloom array (§6) replaced it precisely to widen the subscription space.
//!
//! The workload makes that concrete. Every subscriber wants exactly *one
//! narrow topic* inside the Technology category. Under the Bloom model the
//! subscription is the topic itself; under the mask model the best a user
//! can express is the whole category (over-subscription); the flood model
//! does not filter at all. We publish topic-tagged items and count network
//! work, wanted deliveries, and unwanted item arrivals at the leaves.

use newsml::{Category, PublisherId, PublisherProfile, Subject};
use newswire::{DeploymentBuilder, NewsWireConfig, PublisherSpec, Subscription, SubscriptionModel};
use simnet::{fork, NodeId, SimDuration};

use crate::Table;

const TOPICS: u16 = 40;
const ITEMS: u64 = 10;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Model {
    Bloom,
    Masks,
    Flood,
}

struct Outcome {
    publish_msgs: u64,
    wanted: u64,
    unwanted: u64,
}

fn topic_subject(topic: u16) -> Subject {
    Subject::new(vec![u16::from(Category::Technology.bit()) + 1, topic + 1])
}

fn run_model(n: u32, model: Model, seed: u64) -> Outcome {
    let mut config = NewsWireConfig::tech_news();
    // Log reconciliation backfills whole publisher logs regardless of topic
    // interest, which would charge unwanted arrivals to every model alike —
    // keep it out so the summaries' expressiveness is the only variable.
    config.anti_entropy = false;
    if model == Model::Masks {
        config.model = SubscriptionModel::CategoryMask;
    }
    // The §11 self-audit re-derives a node's advertised `subs` bits from
    // its real subscription every few rounds, which would quietly turn the
    // flood arm's saturated bits back into the Bloom arm's. Run it with the
    // defenses off, as E17's ablation does.
    if model == Model::Flood {
        config.defenses = false;
    }
    let mut d = DeploymentBuilder::new(n, seed)
        .branching(8)
        .config(config)
        .publisher(PublisherSpec::global(PublisherProfile::slashdot(PublisherId(0))))
        .build();

    // Each subscriber wants exactly one narrow topic. What the node's
    // summary advertises depends on the model's expressiveness.
    let mut rng = fork(seed, 0xA1);
    let zipf = newsml::Zipf::new(TOPICS as usize, 1.0);
    let mut desired: Vec<u16> = vec![0; n as usize + 1];
    for i in 1..=n {
        let topic = zipf.sample(&mut rng) as u16;
        desired[i as usize] = topic;
        let mut sub = Subscription::new();
        match model {
            Model::Bloom => {
                sub.subscribe_subject(topic_subject(topic));
            }
            Model::Masks => {
                // The §7 prototype cannot express topics: over-subscribe to
                // the whole category (the user still only *wants* `topic`).
                sub.subscribe_category(PublisherId(0), Category::Technology);
            }
            Model::Flood => {
                // No summary at all: saturate the Bloom bits so every zone
                // always appears interested.
                sub.subscribe_subject(topic_subject(topic));
            }
        }
        d.sim.node_mut(NodeId(i)).set_subscription(sub);
        if model == Model::Flood {
            let bits = filters::BitArray::from_bytes(1024, &[0xFF; 128]);
            d.sim
                .node_mut(NodeId(i))
                .agent
                .set_local_attr("subs", astrolabe::AttrValue::Bits(bits));
        }
    }

    d.settle(75);
    let b0 = d.sim.total_counters().msgs_sent;
    d.sim.run_for(SimDuration::from_secs(20));
    let gossip_baseline = d.sim.total_counters().msgs_sent - b0;
    let before = d.sim.total_counters().msgs_sent;
    let t0 = d.sim.now();
    for seq in 0..ITEMS {
        let topic = (seq as u16 * 7) % TOPICS; // deterministic topic mix
        let item = newsml::NewsItem::builder(PublisherId(0), seq)
            .headline(format!("topic {topic}"))
            .category(Category::Technology)
            .subject(topic_subject(topic))
            .build();
        d.publish(t0 + SimDuration::from_secs(seq * 2), item);
    }
    d.sim.run_for(SimDuration::from_secs(ITEMS * 2));
    let publish_msgs = (d.sim.total_counters().msgs_sent - before).saturating_sub(gossip_baseline);

    // Wanted = arrivals whose topic the user asked for; unwanted = items
    // that reached the node's cache/application without being wanted.
    let mut wanted = 0u64;
    let mut unwanted = 0u64;
    for i in 1..=n {
        let node = d.sim.node(NodeId(i));
        for seq in 0..ITEMS {
            let topic = (seq as u16 * 7) % TOPICS;
            let id = newsml::ItemId::new(PublisherId(0), seq);
            let arrived = node.has_item(id) || node.cache.contains(id);
            if !arrived {
                continue;
            }
            if desired[i as usize] == topic {
                wanted += 1;
            } else {
                unwanted += 1;
            }
        }
    }
    Outcome { publish_msgs, wanted, unwanted }
}

pub(crate) fn run(quick: bool) {
    let n: u32 = if quick { 200 } else { 600 };
    let mut table = Table::new(
        "A1 (ablation) — subscription-summary expressiveness (topic-level interest, 10 items)",
        &["model", "publish msgs", "wanted arrivals", "unwanted arrivals"],
    );
    for (name, model) in [
        ("bloom 1024/3 (§6): topic subscriptions", Model::Bloom),
        ("category masks (§7): category only", Model::Masks),
        ("flood (no summary)", Model::Flood),
    ] {
        let o = run_model(n, model, 0xA1);
        table.row(&[
            name.to_string(),
            o.publish_msgs.to_string(),
            o.wanted.to_string(),
            o.unwanted.to_string(),
        ]);
    }
    table.caption(format!(
        "{n} subscribers each wanting one of {TOPICS} topics; the §7 masks cannot express \
         topics, so every category subscriber receives every category item (unwanted \
         arrivals ~ N x items), while the §6 Bloom summary prunes the tree down to the \
         actual topic audiences — the expressiveness the paper adopted Bloom filters for"
    ));
    table.print();
}
