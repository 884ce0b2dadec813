//! # newswire-repro — the integration facade
//!
//! This crate re-exports the whole NewsWire reproduction behind one
//! dependency, hosts the cross-crate integration tests (`tests/`), the
//! runnable examples (`examples/`), and the `newswire-sim` CLI.
//!
//! For a guided tour start at [`newswire`] (the paper's contribution) and
//! [`newswire::tech_news_deployment`]; the substrates are [`astrolabe`]
//! (gossip hierarchy), [`amcast`] (SendToZone multicast), [`filters`]
//! (subscription summaries), [`newsml`] (news formats and workloads),
//! [`simnet`] (the deterministic simulator) and [`baselines`] (the
//! centralized comparators).
//!
//! ```
//! use newswire_repro::prelude::*;
//!
//! let mut d = tech_news_deployment(40, 7);
//! d.settle(60);
//! let item = NewsItem::builder(PublisherId(0), 0)
//!     .headline("facade works")
//!     .category(Category::Technology)
//!     .build();
//! d.publish(SimTime::from_secs(60), item.clone());
//! d.settle(20);
//! assert_eq!(d.interested_nodes(&item), d.delivered_nodes(&item));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod census;

pub use amcast;
pub use astrolabe;
pub use baselines;
pub use filters;
pub use newsml;
pub use newswire;
pub use simnet;

/// The names most programs need, in one import.
pub mod prelude {
    pub use amcast::{FilterSpec, Strategy};
    pub use astrolabe::{Agent, AttrValue, Config as AstrolabeConfig, ZoneId, ZoneLayout};
    pub use filters::{BitArray, BloomFilter, CategoryMask};
    pub use newsml::{
        Category, ItemId, NewsItem, PublisherId, PublisherProfile, Subject, TraceGenerator,
    };
    pub use newswire::{
        tech_news_deployment, Deployment, DeploymentBuilder, NewsWireConfig, NewsWireNode,
        PublisherSpec, Subscription,
    };
    pub use simnet::{NetworkModel, NodeId, SimDuration, SimTime, Simulation};
}
