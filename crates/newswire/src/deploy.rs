//! Deployment assembly: builds whole simulated NewsWire networks.
//!
//! This is the entry point examples, tests and the benchmark harness use:
//! it wires up the trust registry, publisher credentials, per-node agents,
//! sampled subscriptions and the network model, and exposes convenience
//! queries over the running simulation.

use std::sync::Arc;

use astrolabe::{RotationRecord, TrustRegistry, ZoneId, ZoneLayout};
use newsml::{Category, NewsItem, PublisherId, PublisherProfile, Zipf};
use obs::CtrId;
use rand::rngs::SmallRng;
use rand::Rng;
use simnet::{fork, LatencyModel, NetworkModel, NodeId, SimDuration, SimTime, Simulation, Summary};

use crate::auth::{issue_publisher, PublisherCredential};
use crate::config::NewsWireConfig;
use crate::node::NewsWireNode;
use crate::subscription::Subscription;
use crate::wire::NewsWireMsg;

/// A publisher to install in the deployment.
#[derive(Debug, Clone)]
pub struct PublisherSpec {
    /// Editorial profile (rate, categories, body sizes).
    pub profile: PublisherProfile,
    /// Allowed publish scope (root = global).
    pub scope: ZoneId,
    /// Flow-control rate (items/minute).
    pub rate_per_min: u32,
    /// Flow-control burst.
    pub burst: u32,
}

impl PublisherSpec {
    /// A spec with global scope and generous flow control.
    pub fn global(profile: PublisherProfile) -> Self {
        PublisherSpec { profile, scope: ZoneId::root(), rate_per_min: 6000, burst: 200 }
    }
}

/// Builder for a simulated NewsWire deployment.
#[derive(Debug)]
pub struct DeploymentBuilder {
    subscribers: u32,
    branching: u16,
    seed: u64,
    config: NewsWireConfig,
    publishers: Vec<PublisherSpec>,
    cats_per_subscriber: usize,
    subject_prob: f64,
    wan: bool,
    drop_prob: f64,
}

impl DeploymentBuilder {
    /// Starts a deployment of `subscribers` subscriber nodes.
    pub fn new(subscribers: u32, seed: u64) -> Self {
        DeploymentBuilder {
            subscribers,
            branching: 16,
            seed,
            config: NewsWireConfig::tech_news(),
            publishers: Vec::new(),
            cats_per_subscriber: 2,
            subject_prob: 0.5,
            wan: false,
            drop_prob: 0.0,
        }
    }

    /// Sets the zone branching factor.
    #[must_use]
    pub fn branching(mut self, b: u16) -> Self {
        self.branching = b;
        self
    }

    /// Replaces the NewsWire configuration.
    #[must_use]
    pub fn config(mut self, config: NewsWireConfig) -> Self {
        self.config = config;
        self
    }

    /// Adds a publisher.
    #[must_use]
    pub fn publisher(mut self, spec: PublisherSpec) -> Self {
        self.publishers.push(spec);
        self
    }

    /// Categories subscribed per subscriber (default 2).
    #[must_use]
    pub fn cats_per_subscriber(mut self, n: usize) -> Self {
        self.cats_per_subscriber = n;
        self
    }

    /// Uses the region-structured WAN latency model, with regions aligned
    /// to top-level zones, plus the given message-drop probability.
    #[must_use]
    pub fn wan(mut self, drop_prob: f64) -> Self {
        self.wan = true;
        self.drop_prob = drop_prob;
        self
    }

    /// Assembles the deployment.
    ///
    /// Publisher nodes take ids `0..P`; subscribers follow. Every node is a
    /// leaf of the same Astrolabe tree (publishers are "just another
    /// Astrolabe leaf node", §8).
    ///
    /// The configuration's `deltas` switch selects the delta wire, and the
    /// simulation's delta accounting follows it.
    ///
    /// # Panics
    ///
    /// Panics if no publishers were added.
    pub fn build(self) -> Deployment {
        assert!(!self.publishers.is_empty(), "deployment needs at least one publisher");
        let n = self.subscribers + self.publishers.len() as u32;
        let layout = ZoneLayout::new(n, self.branching);

        let mut registry = TrustRegistry::new(self.seed);
        let mut creds = Vec::new();
        for spec in &self.publishers {
            creds.push(issue_publisher(
                &mut registry,
                spec.profile.id,
                &spec.profile.name,
                &spec.scope,
                spec.rate_per_min,
            ));
        }
        // Trust-root rotation (DESIGN §15): while the registry is still
        // mutable, pre-issue one signed rotation record per publisher —
        // revoking the launch key and endorsing a successor whose claims
        // mirror the original credential's. The records sit inert in the
        // deployment until `schedule_rotation` injects one; deployments
        // that never rotate behave exactly as before (issuance touches
        // only the registry's own counter, not the simulation's seed
        // streams).
        let mut rotations = Vec::new();
        for (spec, cred) in self.publishers.iter().zip(&creds) {
            let claims = vec![
                ("publisher".to_owned(), spec.profile.id.0.to_string()),
                ("scope".to_owned(), spec.scope.to_string()),
                ("rate".to_owned(), spec.rate_per_min.to_string()),
            ];
            let (record, key) = registry.issue_rotation(
                cred.certificate.subject.clone(),
                cred.certificate.key,
                0,
                1,
                claims,
            );
            let successor = PublisherCredential::from_parts(record.successor.clone(), key);
            rotations.push((spec.profile.id, record, successor));
        }
        let registry = Arc::new(registry);
        // Signed epoch authority (DESIGN §12): every node ships with the
        // publishers' certificates and epoch-0 attestations pre-installed,
        // the way a real deployment bakes trust anchors into the binary.
        // Later epochs propagate via signed attestations on envelopes and
        // reconcile replies.
        let authority: Vec<_> =
            creds.iter().map(|c| (c.certificate.clone(), c.attest_epoch(0))).collect();

        let publisher_ids: Vec<PublisherId> =
            self.publishers.iter().map(|s| s.profile.id).collect();
        let astro_cfg = {
            let mut c = self.config.astrolabe_config(&publisher_ids);
            c.branching = self.branching;
            c
        };

        let net = if self.wan {
            let region_of: Vec<u32> = (0..n)
                .map(|i| u32::from(layout.leaf_zone(i).path().first().copied().unwrap_or(0)))
                .collect();
            NetworkModel {
                latency: LatencyModel::wan_defaults(region_of),
                drop_prob: self.drop_prob,
                ..NetworkModel::default()
            }
        } else {
            NetworkModel { drop_prob: self.drop_prob, ..NetworkModel::default() }
        };

        let mut contact_rng = fork(self.seed, 0xC0);
        let mut interest_rng = fork(self.seed, 0x1A);
        let mut sim = Simulation::new(net, self.seed);
        sim.set_delta_accounting(self.config.deltas);
        let mut publishers = Vec::new();

        for i in 0..n {
            let contacts: Vec<u32> =
                (0..astro_cfg.contact_fanout).map(|_| contact_rng.gen_range(0..n)).collect();
            let agent = astrolabe::Agent::new(i, &layout, astro_cfg.clone(), contacts);
            let mut node = NewsWireNode::new(agent, self.config.clone(), Arc::clone(&registry));
            for (cert, attest) in &authority {
                node.install_publisher_authority(cert.clone(), *attest);
            }
            if (i as usize) < self.publishers.len() {
                let spec_idx = i as usize;
                let spec = &self.publishers[spec_idx];
                node = node.with_publisher(
                    creds[spec_idx].clone(),
                    spec.scope.clone(),
                    spec.rate_per_min,
                    spec.burst,
                );
                // Publishers still publish an (empty) summary row, and
                // advertise high load so they are not elected forwarders.
                node.set_subscription(Subscription::new());
                node.load_bias = 1_000.0;
                publishers.push((spec.profile.id, NodeId(i)));
            } else {
                let sub = sample_subscription(
                    &mut interest_rng,
                    &self.publishers,
                    self.cats_per_subscriber,
                    self.subject_prob,
                );
                node.set_subscription(sub);
            }
            sim.add_node(node);
        }

        Deployment {
            sim,
            layout,
            publishers,
            config: self.config,
            specs: self.publishers,
            rotations,
            revocation_at: None,
        }
    }
}

/// Samples one subscriber's interests across the installed publishers.
fn sample_subscription(
    rng: &mut SmallRng,
    specs: &[PublisherSpec],
    n_cats: usize,
    subject_prob: f64,
) -> Subscription {
    let mut sub = Subscription::new();
    let pub_zipf = Zipf::new(specs.len(), 0.7);
    for _ in 0..n_cats {
        let spec = &specs[pub_zipf.sample(rng)];
        let cat_zipf = Zipf::new(spec.profile.categories.len(), 1.0);
        let cat = spec.profile.categories[cat_zipf.sample(rng)];
        sub.subscribe_category(spec.profile.id, cat);
        if rng.gen::<f64>() < subject_prob {
            // Subject subtree matching the generator's `CAT.topic` scheme.
            let subject = if rng.gen::<f64>() < 0.5 {
                newsml::Subject::new(vec![u16::from(cat.bit()) + 1])
            } else {
                let topics = spec.profile.topics_per_category.max(1);
                let topic_zipf = Zipf::new(topics as usize, 1.1);
                newsml::Subject::new(vec![
                    u16::from(cat.bit()) + 1,
                    topic_zipf.sample(rng) as u16 + 1,
                ])
            };
            sub.subscribe_subject(subject);
        }
    }
    sub
}

/// A running simulated deployment.
#[derive(Debug)]
pub struct Deployment {
    /// The simulation (publishers first, then subscribers).
    pub sim: Simulation<NewsWireNode>,
    /// The zone layout.
    pub layout: ZoneLayout,
    /// `(publisher, node)` pairs.
    pub publishers: Vec<(PublisherId, NodeId)>,
    /// The configuration the deployment was built with.
    pub config: NewsWireConfig,
    specs: Vec<PublisherSpec>,
    /// Pre-issued rotation records and successor credentials, one per
    /// publisher, injectable via [`Deployment::schedule_rotation`].
    rotations: Vec<(PublisherId, RotationRecord, PublisherCredential)>,
    /// When a rotation was injected (the revocation instant), if any. The
    /// invariant oracle reads this to split forged deliveries into
    /// pre-revocation exposure and post-revocation violations.
    pub revocation_at: Option<SimTime>,
}

impl Deployment {
    /// The node hosting `publisher`.
    ///
    /// # Panics
    ///
    /// Panics if the publisher is not part of this deployment.
    pub fn publisher_node(&self, publisher: PublisherId) -> NodeId {
        self.publishers
            .iter()
            .find(|(p, _)| *p == publisher)
            .map(|(_, n)| *n)
            .expect("unknown publisher")
    }

    /// The installed publisher specs.
    pub fn specs(&self) -> &[PublisherSpec] {
        &self.specs
    }

    /// Runs the simulation until membership and subscription summaries have
    /// had `secs` seconds to converge.
    pub fn settle(&mut self, secs: u64) {
        let deadline = self.sim.now() + SimDuration::from_secs(secs);
        self.sim.run_until(deadline);
    }

    /// Schedules a publish request at `at`.
    pub fn publish(&mut self, at: SimTime, item: NewsItem) {
        let node = self.publisher_node(item.id.publisher);
        self.sim.schedule_external(
            at,
            node,
            NewsWireMsg::PublishRequest { item, scope: None, predicate: None },
        );
    }

    /// Schedules a publish request with an explicit scope.
    pub fn publish_scoped(&mut self, at: SimTime, item: NewsItem, scope: ZoneId) {
        let node = self.publisher_node(item.id.publisher);
        self.sim.schedule_external(
            at,
            node,
            NewsWireMsg::PublishRequest { item, scope: Some(scope), predicate: None },
        );
    }

    /// Schedules a publish request with a §8 dissemination predicate over
    /// child-zone summary rows (e.g. `"premium > 0"`).
    pub fn publish_with_predicate(&mut self, at: SimTime, item: NewsItem, predicate: &str) {
        let node = self.publisher_node(item.id.publisher);
        self.sim.schedule_external(
            at,
            node,
            NewsWireMsg::PublishRequest {
                item,
                scope: None,
                predicate: Some(predicate.to_owned()),
            },
        );
    }

    /// Injects `publisher`'s pre-issued rotation record at `at`: the
    /// successor credential goes to the publisher node (which re-keys and
    /// re-attests its current epoch), and bare records go to `seeds`
    /// evenly-spaced subscriber nodes, from which the revocation spreads
    /// epidemically (gossip rider plus `sys$rot:` row attributes). Records
    /// [`Deployment::revocation_at`] for the oracle.
    ///
    /// # Panics
    ///
    /// Panics if the publisher is not part of this deployment.
    pub fn schedule_rotation(&mut self, at: SimTime, publisher: PublisherId, seeds: u32) {
        let (_, record, successor) = self
            .rotations
            .iter()
            .find(|(p, _, _)| *p == publisher)
            .expect("unknown publisher")
            .clone();
        let publisher_node = self.publisher_node(publisher);
        self.sim.schedule_external(
            at,
            publisher_node,
            NewsWireMsg::Rotate { record: record.clone(), credential: Some(successor) },
        );
        let n = self.sim.len() as u32;
        let first_sub = self.publishers.len() as u32;
        let subs = n.saturating_sub(first_sub);
        for k in 0..seeds.min(subs) {
            let node = NodeId(first_sub + k * subs / seeds.max(1));
            self.sim.schedule_external(
                at,
                node,
                NewsWireMsg::Rotate { record: record.clone(), credential: None },
            );
        }
        self.revocation_at = Some(at);
    }

    /// How long the trust root stayed exposed after the revocation was
    /// injected: the time from [`Deployment::revocation_at`] to the last
    /// node's adoption of a rotation record — the epidemic propagation lag
    /// during which not-yet-reached nodes still honor the stolen key.
    /// `None` before any rotation was scheduled.
    pub fn compromise_exposure_window(&self) -> Option<SimDuration> {
        let at = self.revocation_at?;
        let last = self.sim.iter().filter_map(|(_, n)| n.rotation_adopted_at).max().unwrap_or(at);
        Some(last.saturating_since(at))
    }

    /// Nodes whose subscription matches `item` (ground truth, exact).
    pub fn interested_nodes(&self, item: &NewsItem) -> Vec<NodeId> {
        self.sim.iter().filter(|(_, n)| n.subscription.matches(item)).map(|(id, _)| id).collect()
    }

    /// Nodes that delivered `item` to their application.
    pub fn delivered_nodes(&self, item: &NewsItem) -> Vec<NodeId> {
        self.sim.iter().filter(|(_, n)| n.has_item(item.id)).map(|(id, _)| id).collect()
    }

    /// Publish→delivery latencies (seconds) across all deliveries of all
    /// items.
    pub fn delivery_latency_summary(&self) -> Summary {
        let mut s = Summary::new();
        for (_, node) in self.sim.iter() {
            for d in &node.deliveries {
                s.record(d.delivered.saturating_since(d.published).as_secs_f64());
            }
        }
        s
    }

    /// One counter summed over every node, read from the telemetry
    /// registry (the only place a counter lives).
    ///
    /// The sum lives as long as the registry does:
    /// [`Simulation::snapshot_telemetry`] leaves it unchanged and
    /// [`Simulation::drain_telemetry`] zeroes it, so read a run's totals
    /// before draining its telemetry. Every experiment does: E13, E14, E16,
    /// E18 and E21 read their counters before `dump_telemetry`, and E20
    /// drains after its warm-up on purpose, so its counters cover the
    /// measured phase only.
    pub fn counter(&self, id: CtrId) -> u64 {
        self.sim.telemetry().borrow().counter_total(id)
    }
}

/// A ready-made two-publisher technical-news deployment (the paper's first
/// target configuration), used by examples and tests.
pub fn tech_news_deployment(subscribers: u32, seed: u64) -> Deployment {
    DeploymentBuilder::new(subscribers, seed)
        .branching(8)
        .config(NewsWireConfig::tech_news())
        .publisher(PublisherSpec::global(PublisherProfile::slashdot(PublisherId(0))))
        .publisher(PublisherSpec::global(PublisherProfile::boutique(
            PublisherId(1),
            "the-register",
            Category::Technology,
        )))
        .build()
}
