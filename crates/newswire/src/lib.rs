//! # newswire — collaborative peer-to-peer news delivery
//!
//! The paper's primary contribution: a push-based publish/subscribe system
//! for real-time news, built entirely out of cooperating end nodes on top
//! of the Astrolabe hierarchy — no dedicated servers, robust to publisher
//! overload, delivering to very large subscriber populations "within tens
//! of seconds of the moment of publishing".
//!
//! Pieces, bottom-up:
//!
//! * [`Subscription`] — per-publisher categories, subject subtrees, and the
//!   §8 SQL predicate over item metadata; renders itself into Bloom bits or
//!   category masks for the tree summaries.
//! * [`MessageCache`] — the §9 end-system cache: revision fusion, GC,
//!   repair, state transfer to joiners.
//! * [`PublisherCredential`] / [`issue_publisher`] / [`verify_item`] — the
//!   §8 publisher authentication flows.
//! * [`TokenBucket`] — publisher flow control.
//! * [`NewsWireNode`] — the composed end-system node.
//! * [`DeploymentBuilder`] / [`Deployment`] — whole-network assembly.
//! * [`RssChannel`] / [`RssIngestAgent`] — the §10 RSS bootstrap agents;
//!   [`mod@xmlrpc`] — the §10 XML-RPC integration gateway.
//!
//! # Quickstart
//!
//! ```
//! use newsml::{NewsItem, PublisherId, Category};
//! use newswire::tech_news_deployment;
//! use simnet::SimTime;
//!
//! let mut deployment = tech_news_deployment(60, 42);
//! deployment.settle(60); // let gossip converge
//!
//! let item = NewsItem::builder(PublisherId(0), 0)
//!     .headline("Astrolabe powers NewsWire")
//!     .category(Category::Technology)
//!     .build();
//! deployment.publish(SimTime::from_secs(60), item.clone());
//! deployment.settle(20);
//!
//! let interested = deployment.interested_nodes(&item);
//! let delivered = deployment.delivered_nodes(&item);
//! assert!(!interested.is_empty());
//! assert_eq!(interested, delivered);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod agents;
mod auth;
mod cache;
mod config;
mod deploy;
mod flow;
mod node;
mod oracle;
mod persist;
mod subscription;
mod wire;
pub mod xmlrpc;

pub use agents::{RssChannel, RssEntry, RssIngestAgent};
pub use auth::{
    issue_publisher, verify_bare_item, verify_epoch_attest, verify_item, EpochAttest,
    PublisherCredential,
};
pub use cache::{CacheOutcome, CachePolicy, MessageCache};
pub use config::{NewsWireConfig, SubscriptionModel};
pub use deploy::{tech_news_deployment, Deployment, DeploymentBuilder, NodeStats, PublisherSpec};
pub use flow::TokenBucket;
pub use node::{DeliveryRecord, LogEntry, NewsWireNode, PublisherState, AE_ATTR_PREFIX};
pub use oracle::{
    check_invariants, collusion_breaking_point, self_stabilized, OracleReport, StabilizationReport,
    Violation,
};
pub use subscription::{item_position_groups, ItemRow, Subscription};
pub use wire::{msg_id_of, Envelope, NewsWireMsg, SignedItem, Stub};

#[cfg(test)]
mod proptests {
    use super::*;
    use newsml::{Category, NewsItem, PublisherId, Subject};
    use proptest::prelude::*;

    fn arb_item() -> impl Strategy<Value = NewsItem> {
        (
            0u16..4,
            0u64..100,
            proptest::collection::vec(0u8..12, 1..3),
            proptest::collection::vec((1u16..13, 1u16..40), 0..2),
        )
            .prop_map(|(p, seq, cats, subs)| {
                let mut b = NewsItem::builder(PublisherId(p), seq).headline("h");
                for c in cats {
                    b = b.category(Category::from_bit(c).unwrap());
                }
                for (top, topic) in subs {
                    b = b.subject(Subject::new(vec![top, topic]));
                }
                b.build()
            })
    }

    fn arb_subscription() -> impl Strategy<Value = Subscription> {
        (
            proptest::collection::vec((0u16..4, 0u8..12), 0..4),
            proptest::collection::vec(1u16..13, 0..3),
        )
            .prop_map(|(cats, subs)| {
                let mut s = Subscription::new();
                for (p, c) in cats {
                    s.subscribe_category(PublisherId(p), Category::from_bit(c).unwrap());
                }
                for top in subs {
                    s.subscribe_subject(Subject::new(vec![top]));
                }
                s
            })
    }

    proptest! {
        /// Soundness of the Bloom summary: whenever the exact subscription
        /// matches an item, the subscriber's Bloom bits admit at least one
        /// of the item's position groups (no false negatives anywhere in
        /// the tree, since parents hold supersets of these bits).
        #[test]
        fn bloom_summary_has_no_false_negatives(
            item in arb_item(),
            sub in arb_subscription(),
        ) {
            if sub.interested_in(&item) {
                let bits = sub.to_bloom(1024, 3);
                let groups = item_position_groups(&item, 1024, 3);
                prop_assert!(
                    groups.iter().any(|g| g.iter().all(|&p| bits.get(p))),
                    "matching item pruned by Bloom summary"
                );
            }
        }

        /// Same soundness for the category-mask prototype.
        #[test]
        fn mask_summary_has_no_false_negatives(
            item in arb_item(),
            sub in arb_subscription(),
        ) {
            let cat_hit = sub.publishers.iter().any(|(p, cats)| {
                *p == item.id.publisher && item.categories.iter().any(|c| cats.contains(c))
            });
            if cat_hit {
                let mask = sub.mask_for(item.id.publisher);
                let item_mask: u64 =
                    item.categories.iter().fold(0, |m, c| m | 1 << c.bit());
                prop_assert!(mask.0 & item_mask != 0);
            }
        }

        /// msg ids collide for equal item ids only (within tested space).
        #[test]
        fn msg_ids_injective_on_small_space(
            a_pub in 0u16..50, a_seq in 0u64..1000,
            b_pub in 0u16..50, b_seq in 0u64..1000,
        ) {
            let a = msg_id_of(newsml::ItemId::new(PublisherId(a_pub), a_seq));
            let b = msg_id_of(newsml::ItemId::new(PublisherId(b_pub), b_seq));
            if (a_pub, a_seq) != (b_pub, b_seq) {
                prop_assert_ne!(a, b);
            } else {
                prop_assert_eq!(a, b);
            }
        }

        /// Cache fusion never retains two revisions of the same story.
        #[test]
        fn cache_single_revision_per_story(revs in proptest::collection::vec((0u64..30, 0u32..5), 1..40)) {
            let mut cache = MessageCache::default();
            for (i, (seq_base, rev)) in revs.iter().enumerate() {
                let item = NewsItem::builder(PublisherId(0), seq_base * 10 + u64::from(*rev))
                    .headline("story")
                    .slug(format!("slug-{}", seq_base % 5))
                    .revision(*rev, None)
                    .build();
                cache.insert(item, simnet::SimTime::from_secs(i as u64));
            }
            let mut slugs: Vec<&str> = cache.iter().map(|i| i.slug.as_str()).collect();
            let total = slugs.len();
            slugs.sort_unstable();
            slugs.dedup();
            prop_assert_eq!(slugs.len(), total, "duplicate story retained");
        }
    }
}
