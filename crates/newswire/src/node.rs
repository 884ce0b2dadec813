//! The NewsWire end-system node — "a single application that people can
//! download and use to insert themselves into the Collaborative Content
//! Delivery Network" (paper §8).
//!
//! One node composes: an Astrolabe [`Agent`] (membership, aggregation,
//! representative election), the forwarding component of §9 (queues,
//! duplicate suppression, redundancy), the end-system [`MessageCache`]
//! (revision fusion, repair, state transfer), subscription matching with
//! the §6 exact final test, and — when equipped with a
//! [`PublisherCredential`] — the restricted publisher application of §8
//! (authentication, flow control, scoped publishing).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use amcast::{
    route, zone_reps, Action, BaselineHint, CoverageWindow, FilterSpec, ForwardingQueues,
    RangeSummary, SeqLog, FORWARD_STRATEGY, SERVICE_INTERVAL,
};
use astrolabe::{
    Agent, AttrValue, GossipMsg, KeyId, Mib, RotationRecord, Signature, TrustRegistry, ZoneId,
};
use newsml::{ItemId, NewsItem, PublisherId};
use obs::{ctr, gauge, kind, series, Layer};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::Rng;
use simnet::{
    Context, CorruptionOp, LiarAction, LiarMode, Node, NodeId, RestartMode, SimDuration, SimTime,
    TimerId,
};

use crate::auth::{EpochAttest, PublisherCredential};
use crate::cache::{CacheOutcome, MessageCache};
use crate::config::{NewsWireConfig, SubscriptionModel};
use crate::deliveries::{DeliveryLog, DeliveryRecord};
use crate::flow::TokenBucket;
use crate::persist;
use crate::subscription::{item_position_groups, Subscription};
use crate::wire::{
    msg_id_of, trace_key, Cover, DeltaBasis, Envelope, NewsWireMsg, SignedItem, Stub,
};

mod acks;
mod admit;
mod adversary;
mod footprint;
mod reconcile;

pub use footprint::Footprint;
pub use reconcile::LogEntry;

use acks::{Ack, Acks};
use admit::{Admitted, Source, Trust};
use reconcile::{Ask, Reconcile, RECONCILE_REPLY_TIMEOUT};

/// Publisher-side state (present only on publisher nodes).
#[derive(Debug)]
pub struct PublisherState {
    /// The CA-issued credential.
    pub credential: PublisherCredential,
    bucket: TokenBucket,
    default_scope: ZoneId,
    /// Items refused by flow control.
    pub rate_limited: u64,
}

/// Metadata key carrying the publisher's §8 dissemination predicate.
pub const DISSEMINATION_PREDICATE: &str = "ds$predicate";

/// Metadata key carrying the §8 zone scope of a scoped publish (the
/// [`ZoneId`] display form, e.g. `"/3"`). The envelope's scope confines
/// tree routing, but cache repair and anti-entropy reconciliation ship bare
/// items from caches — an out-of-zone node sees the scoped item's sequence
/// number as a log hole and pulls it. Stamping the scope under the
/// signature lets every delivery path re-check confinement.
pub const DISSEMINATION_SCOPE: &str = "ds$scope";

const GOSSIP_TIMER: u64 = 1;
const DRAIN_TIMER: u64 = 2;
// Tags 3 and 4 were the margin probe's; they stay unused so 5 keeps its
// meaning for consumers that classify timers by tag.
const RECONCILE_WAIT_TIMER: u64 = 5;
/// The acknowledgement table's sweep timer tag, the one tag of the amcast
/// path.
const ACK_TAG_BASE: u64 = 1 << 32;

/// Prefix of the gossip-row attributes carrying adopted trust-root
/// rotation records (`sys$rot:<publisher>` → [`RotationRecord::encode`]
/// output). Revocation propagates on the rows Astrolabe already gossips,
/// doubled by a rider on every outgoing gossip message (DESIGN §15).
pub const ROT_ATTR_PREFIX: &str = "sys$rot:";

/// Row attribute carrying a node's registry-endorsed join ticket — the CA
/// signature over its identity, hex-encoded. Consulted by Sybil admission
/// control when `admission` is on.
pub const JOIN_TICKET_ATTR: &str = "sys$jt";

/// Identity base used by the Sybil-flood adversary for fabricated member
/// rows; experiment verdicts scan honest tables for ids at or above this.
pub const SYBIL_ID_BASE: u32 = 0x5B11_0000;

/// Bound on the probation set tracking refused unendorsed identities.
const PROBATION_CAP: usize = 256;

/// Leaf-zone identities admitted when `admission` is on; beyond this,
/// previously unseen member rows are refused.
const ZONE_QUOTA: usize = 64;

/// Misbehavior score at which a peer is quarantined (DESIGN §12): invalid
/// signatures score 2, refused epoch-fence replies and digest
/// contradictions score 1 each, and a peer at or past this threshold is
/// treated as suspect for repair, reconciliation, and hand-off failover
/// until it restarts under a fresh incarnation. Only with `defenses` on.
const QUARANTINE_THRESHOLD: u32 = 3;

/// Retries against the *same* representative before a hand-off fails over,
/// and re-sends of an unacknowledged `Deliver` before reconcile owns it.
const ACK_RETRIES: u32 = 1;

/// Untried representatives an acknowledged hand-off fails over to once the
/// first stops answering; beyond this the hand-off is abandoned to
/// anti-entropy repair.
const MAX_FAILOVERS: u32 = 2;

/// Multiplier applied to a `Deliver`'s wait per re-send already burned on
/// it. A hand-off's retry is backed off once, by its peer's round-trip
/// bound.
const BACKOFF: u64 = 2;

/// Disk record keys (see `persist` for the formats). `incar` and `sub` are
/// written once and fsynced immediately; `state` is written write-behind on
/// gossip ticks and fsynced every [`STATE_FSYNC_TICKS`]th tick, so a crash
/// can lose the newest unsynced snapshots (the honest price of write-behind
/// durability — anti-entropy repairs the difference).
const DISK_KEY_INCAR: &str = "incar";
const DISK_KEY_SUB: &str = "sub";
const DISK_KEY_STATE: &str = "state";

/// Gossip ticks between fsyncs of the `state` record.
const STATE_FSYNC_TICKS: u64 = 4;

/// Gossip ticks between self-audit sweeps when defenses are on: scrub
/// structurally corrupt zone rows, re-derive the own subscription
/// advertisement from ground truth, and fence article logs back to the
/// neighbour-consensus epoch. Every few rounds rather than every round —
/// the audit is a full-table sweep plus a Bloom re-render.
const SELF_AUDIT_TICKS: u64 = 5;

/// Misbehavior weight of an unverifiable signature (envelope or bare item)
/// from a peer — the strongest evidence of lying, since honest relays never
/// alter signed bytes.
const MISBEHAVIOR_FORGED: u32 = 2;
/// Misbehavior weight of a reply claiming an epoch beyond the publisher's
/// signed attestation.
const MISBEHAVIOR_FENCE: u32 = 1;
/// Misbehavior weight of a digest contradiction: a peer whose gossiped
/// digest advertised coverage for our holes replies with an empty log.
const MISBEHAVIOR_CONTRADICTION: u32 = 1;

/// Most baseline hints a reconcile request carries (16 bytes each):
/// enough to cover every live story line in the target configurations
/// without letting the request itself outgrow the reply it is optimizing.
const MAX_BASELINES: usize = 256;

/// Gossip exchanges answered in a row after which a node takes its links as
/// clean again (see [`NewsWireNode::source_copies`]). At 5 % loss one
/// exchange in ten goes unanswered, so a run of 256 does not occur.
const CLEAN_EXCHANGES: u32 = 256;

/// A copy waiting in the forwarding queues. The message is built when the
/// copy is sent: a queued `NewsWireMsg` would be as large as its largest
/// variant, `PublishRequest`.
#[derive(Debug)]
enum Hop {
    /// A hand-off to a representative of `zone`, covering it as the
    /// [`Hand`] queued beside it says.
    Forward { env: Arc<Envelope>, zone: ZoneId },
    /// A delivery to a member. An announce names the node that handed the
    /// duty in; `None` sends the payload.
    Deliver { env: Arc<Envelope>, announce: Option<u32> },
}

/// A hand-off's [`Cover`], packed in four bytes to sit beside its
/// destination in a queued copy, where the hop's alignment leaves them
/// free: `u32::MAX` is `Shared`, `u32::MAX - 1` `Announce`, and any other
/// value `Alone` naming that co-representative. A `Deliver` is queued with
/// `Shared`.
#[derive(Debug, Clone, Copy)]
struct Hand(u32);

impl Hand {
    const SHARED: u32 = u32::MAX;
    const ANNOUNCE: u32 = u32::MAX - 1;

    fn new(cover: Cover) -> Self {
        Hand(match cover {
            Cover::Shared => Hand::SHARED,
            Cover::Announce => Hand::ANNOUNCE,
            Cover::Alone { co_rep } => co_rep.min(Hand::ANNOUNCE - 1),
        })
    }

    fn cover(self) -> Cover {
        match self.0 {
            Hand::SHARED => Cover::Shared,
            Hand::ANNOUNCE => Cover::Announce,
            co_rep => Cover::Alone { co_rep },
        }
    }
}

/// What the forwarding queues hold: a copy, its destination and its cover.
type QueuedCopy = (NodeId, Hand, Hop);

/// A full NewsWire node.
#[derive(Debug)]
pub struct NewsWireNode {
    /// The embedded Astrolabe agent.
    pub agent: Agent,
    cfg: NewsWireConfig,
    registry: Arc<TrustRegistry>,
    /// This node's subscription.
    pub subscription: Subscription,
    publisher: Option<PublisherState>,
    /// The end-system message cache.
    pub cache: MessageCache,
    coverage: CoverageWindow,
    /// Copies waiting for the wire, each with its destination and, for a
    /// hand-off, its cover.
    queues: ForwardingQueues<QueuedCopy>,
    /// The one drain timer that sends the next queued copy, while any wait.
    /// A drain timer armed before a freeze may fire after the recovery armed
    /// its successor; it is not this one and does nothing.
    drain_timer: Option<TimerId>,
    /// Application deliveries in order.
    pub deliveries: DeliveryLog,
    /// Constant added to the advertised forwarding load. Publisher nodes
    /// set this high so representative election routes around them —
    /// the paper's publishers input items but should not also carry the
    /// system's forwarding burden.
    pub load_bias: f64,
    /// Hand-offs and `Deliver`s on the wire awaiting their ack, and the
    /// announces held until their article arrives.
    acks: Acks,
    /// The `Digest`s of the latest gossip tick still awaiting their
    /// `DigestReply`: `(peer, sent)`. Each reply times one round trip; at
    /// most one entry per table level plus two.
    digest_probes: Vec<(u32, SimTime)>,
    /// Probes answered in a row since one was still open at the next tick.
    /// Starts at [`CLEAN_EXCHANGES`]: links are clean until one loses.
    answered_probes: u32,
    /// Anti-entropy reconcile: the article logs and their stubs, the
    /// digest riders, and the pull in flight.
    reconcile: Reconcile,
    /// When a cold restart began, while its recovery is still in progress.
    recovering_since: Option<SimTime>,
    /// Items backfilled during the current recovery (for the done trace).
    backfill_this_recovery: u64,
    /// Gossip ticks since start/restart (drives the `state` fsync cadence).
    gossip_ticks: u64,
    /// Fingerprint of the last `state` snapshot written to disk; snapshots
    /// are skipped while the durable state has not moved.
    persisted_fingerprint: u64,
    /// Last observed simulated time (updated on every message and timer);
    /// what state-corruption strikes — which carry no clock — use to stamp
    /// fabricated cache inserts.
    clock: SimTime,
    /// Which publisher keys this node trusts: certificates, revocations and
    /// signed epoch authority, consulted by the admission funnel.
    trust: Trust,
    /// Per-peer misbehavior score (invalid signatures, refused-fence
    /// replies, digest contradictions). Crossing
    /// [`QUARANTINE_THRESHOLD`] quarantines the peer from selection.
    misbehavior: BTreeMap<u32, u32>,
    /// Unendorsed identities refused by Sybil admission control, bounded
    /// by [`PROBATION_CAP`]. Refused rows never enter the tables, so
    /// probationers cannot influence epoch consensus, representative
    /// election, or repair/reconcile peer selection.
    probation: BTreeSet<u32>,
    /// When this node last adopted a rotation record (simulated time).
    /// The oracle uses it to split forged deliveries into sanctioned
    /// exposure (before the revocation reached this node) and true
    /// violations (the fence was armed and failed anyway).
    pub rotation_adopted_at: Option<SimTime>,
}

impl NewsWireNode {
    /// Creates a subscriber node.
    pub fn new(mut agent: Agent, cfg: NewsWireConfig, registry: Arc<TrustRegistry>) -> Self {
        let cache = MessageCache::new(cfg.cache);
        agent.set_ingest_validation(cfg.defenses);
        let acks = Acks::new(agent.id(), agent.layout());
        let reconcile = Reconcile::new(stub_group(cfg.model));
        let mut node = NewsWireNode {
            agent,
            cfg,
            registry,
            subscription: Subscription::new(),
            publisher: None,
            cache,
            coverage: CoverageWindow::new(8192),
            queues: ForwardingQueues::new(FORWARD_STRATEGY),
            drain_timer: None,
            deliveries: DeliveryLog::default(),
            load_bias: 0.0,
            acks,
            digest_probes: Vec::new(),
            answered_probes: CLEAN_EXCHANGES,
            reconcile,
            recovering_since: None,
            backfill_this_recovery: 0,
            gossip_ticks: 0,
            persisted_fingerprint: 0,
            clock: SimTime::ZERO,
            trust: Trust::default(),
            misbehavior: BTreeMap::new(),
            probation: BTreeSet::new(),
            rotation_adopted_at: None,
        };
        node.publish_join_ticket();
        node
    }

    /// Publishes this node's registry-endorsed join ticket (`sys$jt`) into
    /// its own MIB row — the credential Sybil admission control demands of
    /// every leaf-zone member. The registry stands in for the CA: a real
    /// node obtained its endorsement at join time; fabricated identities
    /// have no ticket to show. No-op with admission off, keeping legacy
    /// rows (and wire bytes) unchanged.
    fn publish_join_ticket(&mut self) {
        if !self.cfg.admission {
            return;
        }
        let ticket = self.registry.endorse_join(self.agent.id());
        self.agent.set_local_attr(JOIN_TICKET_ATTR, format!("{:016x}", ticket.0));
    }

    /// Equips the node as a publisher (the §8 producer application).
    /// `rate_per_min`/`burst` configure flow control; `default_scope` is
    /// used when a publish request names no scope.
    #[must_use]
    pub fn with_publisher(
        mut self,
        credential: PublisherCredential,
        default_scope: ZoneId,
        rate_per_min: u32,
        burst: u32,
    ) -> Self {
        // A publisher trusts itself: its own certificate and a fresh
        // epoch-0 attestation anchor the signed-authority maps.
        self.install_publisher_authority(
            credential.certificate.clone(),
            credential.attest_epoch(0),
        );
        self.publisher = Some(PublisherState {
            credential,
            bucket: TokenBucket::new(rate_per_min, burst),
            default_scope,
            rate_limited: 0,
        });
        self
    }

    /// Scans an incoming gossip exchange for `sys$rot:` row attributes and
    /// adopts any record that verifies — epidemic revocation propagation
    /// on the rows Astrolabe already gossips, at no extra message cost.
    fn scan_rotations(&mut self, g: &GossipMsg) {
        if !self.cfg.defenses {
            return;
        }
        let batches = match g {
            GossipMsg::DigestReply { rows, .. } | GossipMsg::Rows { rows } => rows,
            GossipMsg::Digest { .. } => return,
        };
        let mut found: Vec<RotationRecord> = Vec::new();
        for batch in batches {
            for (_, _, row) in &batch.rows {
                for (name, value) in row.attrs() {
                    if name.starts_with(ROT_ATTR_PREFIX) {
                        if let Some(rec) = value.as_str().and_then(RotationRecord::decode) {
                            found.push(rec);
                        }
                    }
                }
            }
        }
        for rec in found {
            self.adopt_rotation(&rec);
        }
    }

    /// Wraps an outgoing Astrolabe exchange with the rotation rider and,
    /// to a leaf mate, the digest rider.
    fn gossip_msg(&self, to: u32, g: GossipMsg) -> NewsWireMsg {
        let digests = self.reconcile.rider_to(&self.agent, to);
        NewsWireMsg::Gossip { g, rot: self.trust.rider(), digests }
    }

    /// Hands a gossip exchange from `from` to the embedded agent, then
    /// settles what its merge revealed: a restarted peer's back-off, its
    /// rider and — for an endorsed identity — its misbehavior score go
    /// with its old incarnation within the same gossip round, not a tick
    /// later, and riders of mates whose row versions started over go.
    /// Returns the agent's replies.
    fn merge_gossip(
        &mut self,
        now: SimTime,
        from: u32,
        g: GossipMsg,
        rng: &mut SmallRng,
    ) -> Vec<(u32, GossipMsg)> {
        let out = self.agent.on_message(now, from, g, rng);
        self.absorb_incarnation_bumps();
        self.reconcile.retire_stale_riders(&self.agent);
        out
    }

    /// Sybil admission control (DESIGN §15), applied to incoming gossip
    /// *before* the embedded agent merges it: leaf-zone member rows must
    /// carry a registry-endorsed join ticket, and previously unseen
    /// identities are refused outright once the zone is at quota. Only
    /// this node's own leaf zone is filtered — higher-level rows are
    /// aggregates, not identities — and the single choke point protects
    /// everything downstream that reads the leaf table: epoch consensus,
    /// representative election, and repair/reconcile peer selection.
    fn filter_sybil_rows(&mut self, g: &mut GossipMsg) {
        if !self.cfg.admission {
            return;
        }
        let batches = match g {
            GossipMsg::DigestReply { rows, .. } | GossipMsg::Rows { rows } => rows,
            GossipMsg::Digest { .. } => return,
        };
        let leaf = self.agent.zone(0).clone();
        let own_id = self.agent.id();
        let known: BTreeSet<u32> =
            self.agent.table(0).iter().filter_map(|(_, row)| row_id(row)).collect();
        let mut members = known.len();
        let mut refused: Vec<u32> = Vec::new();
        let registry = &self.registry;
        for batch in batches.iter_mut() {
            if batch.zone != leaf {
                continue;
            }
            batch.rows.retain(|(_, _, row)| {
                let Some(id) = row_id(row) else {
                    // Structurally invalid rows are the ingest validator's
                    // problem, not admission control's.
                    return true;
                };
                if id == own_id {
                    return true;
                }
                let endorsed = row
                    .get(JOIN_TICKET_ATTR)
                    .and_then(|v| v.as_str())
                    .and_then(|s| u64::from_str_radix(s, 16).ok())
                    .is_some_and(|sig| registry.verify_join(id, Signature(sig)));
                if !endorsed {
                    refused.push(id);
                    return false;
                }
                if !known.contains(&id) {
                    if members >= ZONE_QUOTA {
                        refused.push(id);
                        return false;
                    }
                    members += 1;
                }
                true
            });
        }
        for id in refused {
            obs::metric_add!(self.agent.id(), ctr::SYBIL_JOINS_REFUSED, 1);
            if self.probation.len() < PROBATION_CAP && self.probation.insert(id) {
                obs::metric_add!(self.agent.id(), ctr::NW_PROBATION_HOLDS, 1);
                obs::trace_event!(
                    self.agent.id(),
                    Layer::News,
                    kind::PROBATION_HOLD,
                    u64::from(id),
                    self.probation.len() as u64
                );
            }
        }
    }

    /// True when `peer` currently holds a leaf-table row carrying a valid
    /// registry-endorsed join ticket. Vacuously true with admission off.
    fn peer_endorsed(&self, peer: u32) -> bool {
        if !self.cfg.admission {
            return true;
        }
        self.agent.table(0).iter().any(|(_, row)| {
            row_id(row) == Some(peer)
                && row
                    .get(JOIN_TICKET_ATTR)
                    .and_then(|v| v.as_str())
                    .and_then(|s| u64::from_str_radix(s, 16).ok())
                    .is_some_and(|sig| self.registry.verify_join(peer, Signature(sig)))
        })
    }

    /// Publisher-side state, when this node is a publisher.
    pub fn publisher(&self) -> Option<&PublisherState> {
        self.publisher.as_ref()
    }

    /// Installs the subscription and publishes the matching summary
    /// attributes into the node's MIB row (`subs` Bloom bits, or one
    /// `cats$p` mask per subscribed publisher).
    pub fn set_subscription(&mut self, sub: Subscription) {
        match self.cfg.model {
            SubscriptionModel::Bloom { bits, hashes } => {
                self.agent.set_local_attr("subs", sub.to_bloom(bits, hashes));
            }
            SubscriptionModel::CategoryMask => {
                for (publisher, _) in &sub.publishers {
                    let attr = self.cfg.model.attr_for(*publisher);
                    self.agent.set_local_attr(&attr, sub.mask_for(*publisher).0 as i64);
                }
            }
        }
        // The summary attrs just installed propagate upward through gossip
        // from the next round on.
        obs::trace_event!(self.agent.id(), Layer::News, kind::SUB_PROPAGATE);
        self.subscription = sub;
        let (model, sub) = (self.cfg.model, &self.subscription);
        self.reconcile.forget_admitted_stubs(|publisher| sub.interest(model, publisher));
    }

    /// Hand-offs and `Deliver`s on the wire still awaiting their ack.
    pub fn unacknowledged(&self) -> usize {
        self.acks.len()
    }

    /// True while a sweep timer over the acknowledgement table is set and
    /// has not gone off.
    pub fn ack_sweep_armed(&self) -> bool {
        self.acks.sweep_armed()
    }

    /// Announces held until their article arrives (at most 256).
    pub fn held_announces(&self) -> usize {
        self.acks.held_announces()
    }

    /// True when the item with `id` has been delivered to the application.
    pub fn has_item(&self, id: ItemId) -> bool {
        self.deliveries.iter().any(|d| d.item == id)
    }

    /// Snapshot of the servable article state: every cached item paired
    /// with the key and signature vouching for it, sorted by id. Two nodes
    /// with equal snapshots serve byte-identical content onward — the
    /// comparison surface for the post-revocation equivalence test
    /// (`tests/revocation.rs`): after a retroactive purge, nothing signed
    /// by the revoked key may remain servable, compromised run or not.
    pub fn served_articles(&self) -> Vec<(ItemId, u64, u64)> {
        self.cache.iter_signed().map(|(item, (key, sig))| (item.id, key.0, sig.0)).collect()
    }

    /// The per-publisher article log, when anything from `publisher` has
    /// been seen.
    pub fn article_log(&self, publisher: PublisherId) -> Option<&SeqLog<LogEntry>> {
        self.reconcile.log(publisher)
    }

    /// Publishers with a non-empty article log, in id order.
    pub fn logged_publishers(&self) -> impl Iterator<Item = PublisherId> + '_ {
        self.reconcile.logged_publishers()
    }

    /// True when the acknowledgement table has backed `peer` off
    /// ([`Acks::suspect`]) or the misbehavior score has quarantined it.
    /// Folding quarantine in here covers every selection path at once
    /// (cross-zone peers, ack failovers, reconcile sources). The node keeps
    /// no detector of its own: a silent leaf mate is Astrolabe's to judge,
    /// whose detectors evict its row, and every candidate list is read from
    /// rows the tables still hold. A peer never handed anything is not
    /// suspect.
    fn peer_suspect(&self, peer: u32) -> bool {
        self.quarantined(peer) || self.acks.suspect(peer)
    }

    /// True when `peer`'s misbehavior score has crossed the quarantine
    /// threshold (defenses on only).
    fn quarantined(&self, peer: u32) -> bool {
        in_quarantine(&self.misbehavior, self.cfg.defenses, peer)
    }

    /// Records a misbehavior strike against `peer`, tracing the quarantine
    /// transition when the score crosses the threshold. Unlike a back-off
    /// — which is about *silence* and clears as soon as the peer answers
    /// again — misbehavior is about *lying* and only clears when the peer
    /// restarts into a new incarnation.
    fn note_misbehavior(&mut self, peer: NodeId, weight: u32) {
        if peer == NodeId::EXTERNAL || !self.cfg.defenses {
            return;
        }
        let score = self.misbehavior.entry(peer.0).or_insert(0);
        let before = *score;
        *score = score.saturating_add(weight);
        if before < QUARANTINE_THRESHOLD && *score >= QUARANTINE_THRESHOLD {
            let after = u64::from(*score);
            obs::metric_add!(self.agent.id(), ctr::NW_QUARANTINES, 1);
            obs::trace_event!(
                self.agent.id(),
                Layer::News,
                kind::PEER_QUARANTINE,
                u64::from(peer.0),
                after
            );
        }
    }

    /// The per-hop filter for an item under this deployment's model, built
    /// from the item's stub: a summary row admits it exactly when
    /// [`Stub::admitted_by`] the row's set positions does.
    fn filter_for(&self, item: &NewsItem) -> FilterSpec {
        let stub = self.stub_of(item);
        match self.cfg.model {
            SubscriptionModel::Bloom { .. } => FilterSpec::BloomAny {
                attr: "subs".to_owned(),
                groups: stub
                    .0
                    .chunks(stub_group(self.cfg.model))
                    .map(|g| g.iter().map(|&p| usize::from(p)).collect())
                    .collect(),
            },
            SubscriptionModel::CategoryMask => FilterSpec::MaskBits {
                attr: self.cfg.model.attr_for(item.id.publisher),
                mask: stub.0.iter().fold(0u64, |m, &b| m | 1 << b),
            },
        }
    }

    /// The positions an item's per-hop filter tests: its Bloom groups,
    /// flattened, or its category bits.
    fn stub_of(&self, item: &NewsItem) -> Stub {
        let positions: Vec<u16> = match self.cfg.model {
            SubscriptionModel::Bloom { bits, hashes } => item_position_groups(item, bits, hashes)
                .into_iter()
                .flatten()
                .map(|p| u16::try_from(p).expect("Bloom arrays are narrower than 2^16 bits"))
                .collect(),
            SubscriptionModel::CategoryMask => {
                let mask = item.categories.iter().fold(0u64, |m, c| m | 1 << c.bit());
                (0..64).filter(|&b| mask >> b & 1 == 1).collect()
            }
        };
        Stub(positions.into_boxed_slice())
    }

    /// Evaluates the item's embedded dissemination controls — the §8 zone
    /// scope and predicate, if any — against this node's own position and
    /// attributes. Fail-closed.
    fn dissemination_admits(&self, item: &NewsItem) -> bool {
        if let Some(src) = item.field(DISSEMINATION_SCOPE) {
            let in_scope =
                ZoneId::parse(&src).is_some_and(|scope| scope.is_ancestor_of(self.agent.zone(0)));
            if !in_scope {
                return false;
            }
        }
        let Some(src) = item.field(DISSEMINATION_PREDICATE) else { return true };
        struct LocalAttrs<'a>(&'a Agent);
        impl astrolabe::RowSource for LocalAttrs<'_> {
            fn col(&self, name: &str) -> Option<std::borrow::Cow<'_, astrolabe::AttrValue>> {
                self.0.local_attr(name).map(std::borrow::Cow::Borrowed)
            }
        }
        match astrolabe::parse_predicate(&src) {
            Ok(expr) => astrolabe::eval_predicate(&expr, &LocalAttrs(&self.agent)).unwrap_or(false),
            Err(_) => false,
        }
    }

    /// Logs an admitted tree copy or recovered copy as seen, and caches it
    /// when this node may hold it. Returns the cache's outcome, or `None`
    /// when the article's dissemination controls keep it out (it is then
    /// logged as not for this node). Every arrival is *seen*: the log
    /// tracks knowledge, not acceptance, and a seen seq is never a hole to
    /// reconcile.
    fn keep(&mut self, admitted: Admitted, now: SimTime) -> Option<CacheOutcome> {
        let item = admitted.item();
        if !self.dissemination_admits(item) {
            self.reconcile.log_seen(item.id, Some(self.stub_of(item)), self.clock);
            return None;
        }
        self.reconcile.log_seen(item.id, None, self.clock);
        Some(self.cache_insert(admitted, now))
    }

    fn handle_delivery(&mut self, now: SimTime, admitted: Admitted, via_repair: bool) {
        let item = admitted.item();
        let id = item.id;
        let published = SimTime::from_micros(item.issued_us);
        let interested = self.subscription.interested_in(item);
        let matches = self.subscription.matches(item);
        match self.keep(admitted, now) {
            None => {
                // Not addressed to this node (e.g. premium-only content on
                // a free node); neither delivered nor cached.
                obs::metric_add!(self.agent.id(), ctr::NW_PREDICATE_FILTERED, 1);
                return;
            }
            Some(CacheOutcome::Duplicate) => {
                obs::metric_add!(self.agent.id(), ctr::NW_DUPLICATES, 1);
                return;
            }
            Some(CacheOutcome::Obsolete) => return,
            Some(CacheOutcome::Stored | CacheOutcome::Fused) => {}
        }
        if via_repair && self.recovering_since.is_some() {
            self.backfill_this_recovery += 1;
            obs::metric_add!(self.agent.id(), ctr::NW_BACKFILL_ITEMS, 1);
        }
        if matches {
            let latency_us = now.as_micros().saturating_sub(published.as_micros());
            obs::metric_add!(self.agent.id(), ctr::NW_DELIVERED, 1);
            if via_repair {
                obs::metric_add!(self.agent.id(), ctr::NW_DELIVERED_REPAIR, 1);
            }
            let key = trace_key(id);
            obs::trace_event!(self.agent.id(), Layer::News, kind::NW_DELIVER, key, latency_us);
            self.deliveries.push(DeliveryRecord {
                item: id,
                published,
                delivered: now,
                via_repair,
            });
        } else if !interested {
            if !via_repair {
                // Reached this leaf only because of Bloom aliasing; the
                // exact final test of §6 rejects it.
                obs::metric_add!(self.agent.id(), ctr::NW_BLOOM_FP, 1);
            }
        } else {
            obs::metric_add!(self.agent.id(), ctr::NW_PREDICATE_FILTERED, 1);
        }
    }

    /// Queues `hop` for `dst`, a hand-off covering its zone as `cover`
    /// says.
    fn enqueue(&mut self, ctx: &mut Context<'_, NewsWireMsg>, dst: NodeId, cover: Cover, hop: Hop) {
        let (child, env) = match &hop {
            Hop::Forward { env, zone } => (zone.label().unwrap_or(0), env),
            Hop::Deliver { env, .. } => ((dst.0 % 64) as u16, env),
        };
        let priority = env.item.urgency.level();
        self.queues.push(child, ctx.now().as_micros(), priority, (dst, Hand::new(cover), hop));
        obs::gauge_max!(self.agent.id(), gauge::NW_PEAK_QUEUE, self.queues.len());
        if self.drain_timer.is_none() {
            self.arm_drain(ctx);
        }
    }

    /// Sends the next queued copy one [`SERVICE_INTERVAL`] from now.
    fn arm_drain(&mut self, ctx: &mut Context<'_, NewsWireMsg>) {
        self.drain_timer = Some(ctx.set_timer(SERVICE_INTERVAL, DRAIN_TIMER));
    }

    /// True when this node sends `member` an announce in place of the
    /// payload (DESIGN §6): the final hop is measured clean, this node is
    /// one of at least two representatives of its leaf zone, and either
    /// `member` is one too — it was handed the article — or a stable hash
    /// of `member` over the sorted set names another representative as the
    /// one that sends it the payload. A table that cannot await one more
    /// ack gets the payload instead, when the copy leaves the queue.
    fn announces_to(&self, member: u32) -> bool {
        if !self.cfg.acks || !self.acks.split_on() {
            return false;
        }
        let Some(reps) = zone_reps_at(&self.agent, 1) else { return false };
        let me = u64::from(self.agent.id());
        if reps.len() < 2 || !reps.contains(&me) {
            return false;
        }
        if reps.contains(&u64::from(member)) {
            return true;
        }
        let pick = filters::fnv1a(&member.to_le_bytes()) % reps.len() as u64;
        reps.iter().nth(pick as usize) != Some(&me)
    }

    /// The holder of a leaf zone's one payload, when this node hands `child`
    /// one (DESIGN §6): its hand-off record is clean, and so are its gossip
    /// exchanges — a lost copy of a shared hand-off goes unseen by the
    /// record, its twin's ack settling both — `child` is a leaf zone below
    /// the zone this node covers at `level` (a relay, off its path, has no
    /// level), and none of `child`'s representatives also represents that
    /// zone: one that does covers the leaf zone itself, beside whatever
    /// this node hands it. A stable hash of the message id over the zone's
    /// sorted representatives names the holder, so every sender names the
    /// same one. Returns it with them.
    fn single_holder(
        &self,
        msg_id: u64,
        child: &ZoneId,
        level: Option<usize>,
    ) -> Option<(u32, Vec<u32>)> {
        let level = level?;
        if !self.cfg.acks
            || !self.acks.handoff_clean()
            || self.answered_probes < CLEAN_EXCHANGES
            || child.depth() != self.agent.zone(0).depth()
        {
            return None;
        }
        let reps = zone_reps(&self.agent, child);
        let duty = zone_reps_at(&self.agent, level + 1);
        let me = u64::from(self.agent.id());
        let covers =
            |r: &u32| duty.is_some_and(|d| d.iter().any(|&c| c != me && c == u64::from(*r)));
        if reps.is_empty() || reps.iter().any(covers) {
            return None;
        }
        let holder = reps[(filters::mix(msg_id) % reps.len() as u64) as usize];
        Some((holder, reps))
    }

    /// Queues the hand-off of `child` to the representatives route chose,
    /// the `Forward` actions `chosen`: the payload to each, or — with a
    /// single holder — the payload to the holder and an announce to each
    /// other one.
    fn hand_off(
        &mut self,
        ctx: &mut Context<'_, NewsWireMsg>,
        env: &Arc<Envelope>,
        child: ZoneId,
        chosen: &[Action],
        level: Option<usize>,
    ) {
        let mut chosen_reps = chosen.iter().filter_map(|a| match a {
            Action::Forward { rep, .. } => Some(*rep),
            _ => None,
        });
        let Some((holder, reps)) = self.single_holder(env.msg_id, &child, level) else {
            for rep in chosen_reps {
                let fwd = Hop::Forward { env: Arc::clone(env), zone: child.clone() };
                self.enqueue(ctx, NodeId(rep), Cover::Shared, fwd);
            }
            return;
        };
        // The holder's copy names the co-representative announced to, so a
        // holder that reads another set still sends it the article.
        let mut announced: Vec<u32> = Vec::new();
        for rep in chosen_reps.by_ref().chain(reps) {
            if announced.len() + 1 < chosen.len() && rep != holder && !announced.contains(&rep) {
                announced.push(rep);
            }
        }
        let co_rep = announced.first().copied().unwrap_or(holder);
        let fwd = Hop::Forward { env: Arc::clone(env), zone: child.clone() };
        self.enqueue(ctx, NodeId(holder), Cover::Alone { co_rep }, fwd);
        for rep in announced {
            let fwd = Hop::Forward { env: Arc::clone(env), zone: child.clone() };
            self.enqueue(ctx, NodeId(rep), Cover::Announce, fwd);
        }
    }

    /// Covers `zone` with `env`, a duty handed in by `upstream`'s `Forward`
    /// as `cover` says or, with none, this publisher's own.
    fn process_duty(
        &mut self,
        ctx: &mut Context<'_, NewsWireMsg>,
        env: Arc<Envelope>,
        zone: ZoneId,
        admitted: Admitted,
        upstream: Option<u32>,
        cover: Cover,
    ) {
        let actions = route(&self.agent, &env.filter, &zone, self.cfg.redundancy, ctx.rng());
        let now = ctx.now();
        let level = self.agent.level_of(&zone);
        if actions.is_empty() && level.is_none() {
            // Not on our path and no relay representative known yet.
            obs::metric_add!(self.agent.id(), ctr::NW_ROUTE_FAILURES, 1);
            return;
        }
        let alone = matches!(cover, Cover::Alone { .. });
        let mut handed_on = false;
        let mut delivered: Vec<u32> = Vec::new();
        let mut at = 0;
        while at < actions.len() {
            match &actions[at] {
                Action::DeliverLocal => {
                    self.delta_makeup(&env.item, env.basis.as_ref());
                    self.handle_delivery(now, admitted.clone(), false);
                    at += 1;
                }
                &Action::Deliver { member } => {
                    handed_on = true;
                    let announce = upstream.filter(|_| !alone && self.announces_to(member));
                    let deliver = Hop::Deliver { env: Arc::clone(&env), announce };
                    self.enqueue(ctx, NodeId(member), Cover::Shared, deliver);
                    if alone {
                        delivered.push(member);
                    }
                    at += 1;
                }
                Action::Forward { zone: child, .. } => {
                    // Route lists a zone's chosen representatives back to back.
                    let same =
                        |a: &Action| matches!(a, Action::Forward { zone, .. } if zone == child);
                    let run = actions[at..].iter().take_while(|a| same(a)).count();
                    let child = child.clone();
                    self.hand_off(ctx, &env, child, &actions[at..at + run], level);
                    at += run;
                }
            }
        }
        // The holder of a leaf zone's one payload sends it each
        // co-representative too — those it reads and the one announced to —
        // whatever its row says: an announce upstream waits for it to hold
        // the article.
        match cover {
            Cover::Alone { co_rep } if zone == *self.agent.zone(0) => {
                let me = self.agent.id();
                let reps = zone_reps_at(&self.agent, 1).into_iter().flatten();
                let mut co_reps: Vec<u32> = reps.filter_map(|&r| u32::try_from(r).ok()).collect();
                if !co_reps.contains(&co_rep) {
                    co_reps.push(co_rep);
                }
                co_reps.retain(|&r| r != me && !delivered.contains(&r));
                for rep in co_reps {
                    handed_on = true;
                    let deliver = Hop::Deliver { env: Arc::clone(&env), announce: None };
                    self.enqueue(ctx, NodeId(rep), Cover::Shared, deliver);
                }
            }
            _ => {}
        }
        // Whoever handed the item to a member keeps it, so a reconcile that
        // asks this node for it is answered. Only after the loop: a copy kept
        // first would read as a duplicate to `DeliverLocal` and drop this
        // node's own application delivery. For the same reason a node that
        // wants the item although its own row did not admit it (an
        // advertisement the self-audit has yet to restore) takes it as a
        // delivery: the cache is the dedup barrier.
        if handed_on && !self.cache.contains(env.item.id) {
            if self.subscription.matches(&env.item) {
                self.handle_delivery(now, admitted, false);
            } else {
                self.keep(admitted, now);
            }
        }
    }

    fn handle_publish(
        &mut self,
        ctx: &mut Context<'_, NewsWireMsg>,
        mut item: NewsItem,
        scope: Option<ZoneId>,
        predicate: Option<String>,
    ) {
        let now = ctx.now();
        // Parse the §8 dissemination predicate up front; a malformed one
        // rejects the publish rather than flooding the tree unfiltered.
        let predicate_filter = match predicate.as_deref().map(astrolabe::parse_predicate) {
            None => None,
            Some(Ok(expr)) => Some(FilterSpec::Predicate { expr }),
            Some(Err(_)) => {
                obs::metric_add!(self.agent.id(), ctr::NW_PUBLISH_DENIED, 1);
                return;
            }
        };
        // The publisher's current log epoch, attested under its key on
        // every envelope it emits (DESIGN §12).
        let attest_epoch = self.reconcile.epoch(item.id.publisher);
        let Some(publisher) = &mut self.publisher else {
            obs::metric_add!(self.agent.id(), ctr::NW_PUBLISH_DENIED, 1);
            return;
        };
        if publisher.credential.publisher() != item.id.publisher {
            obs::metric_add!(self.agent.id(), ctr::NW_PUBLISH_DENIED, 1);
            return;
        }
        if !publisher.bucket.admit(now) {
            publisher.rate_limited += 1;
            return;
        }
        item.issued_us = now.as_micros();
        if let Some(src) = &predicate {
            // The predicate travels as item metadata (§8: "adding a
            // predicate to the metadata"), so leaves — and the repair path —
            // can re-check it against their own attributes.
            item.meta.push((DISSEMINATION_PREDICATE.to_owned(), src.clone()));
        }
        let scope = scope.unwrap_or_else(|| publisher.default_scope.clone());
        if !scope.is_root() {
            // The scope travels the same way, so the repair/reconcile paths
            // (which ship bare items, not envelopes) stay zone-confined.
            item.meta.push((DISSEMINATION_SCOPE.to_owned(), scope.to_string()));
        }
        // The article is final: this is its one allocation. Everything
        // downstream — envelope, queues, caches, replies — holds a handle.
        let item = Arc::new(item);
        let signature = publisher.credential.sign(&item);
        let key = publisher.credential.key_id();
        let certificate = publisher.credential.certificate.clone();
        let attest = publisher.credential.attest_epoch(attest_epoch);
        let mut filter = self.filter_for(&item);
        if let Some(p) = predicate_filter {
            filter = filter.and(p);
        }
        // Delta-encode a revised story against the revision this publisher
        // disseminated before (still in its own cache — inserted below,
        // *after* this lookup): every subscriber that received the earlier
        // telling decodes from what it holds.
        let basis = if self.cfg.deltas && item.revision > 0 {
            self.cache
                .latest_for_slug(item.id.publisher, &item.slug)
                .map(|prev| (prev.revision, prev.body_len))
                .and_then(|(rev, len)| self.price_basis(&item, rev, len))
        } else {
            None
        };
        let env = Arc::new(Envelope {
            msg_id: msg_id_of(item.id),
            filter,
            item,
            scope: scope.clone(),
            certificate,
            key,
            signature,
            attest,
            basis,
        });
        obs::metric_add!(self.agent.id(), ctr::NW_PUBLISHED, 1);
        obs::trace_event!(self.agent.id(), Layer::News, kind::NW_PUBLISH, trace_key(env.item.id));
        self.coverage.admit(env.msg_id, scope.depth());
        // The publisher caches and logs its own output (direct insert — this
        // is not a delivery, so no delivery/FP accounting): after a
        // partition, side A's publishers are authoritative reconcile sources
        // for everything the other side missed.
        self.reconcile.log_seen(env.item.id, None, self.clock);
        self.absorb_attest(&attest);
        let admitted = Admitted::published(Arc::clone(&env.item), (key, signature));
        self.cache_insert(admitted.clone(), now);
        self.process_duty(ctx, env, scope, admitted, None, Cover::Shared);
    }

    /// The prelude every tree copy passes, `Forward` and `Deliver` alike:
    /// admit the article, learn from its envelope, then acknowledge it —
    /// fresh duty or duplicate, the sender must stop re-sending. Only real
    /// (simulated) senders are acked, a hand-off naming the `zone` it
    /// covers and a `Deliver` this node's leaf zone.
    fn admit_envelope(
        &mut self,
        ctx: &mut Context<'_, NewsWireMsg>,
        from: NodeId,
        env: &Envelope,
        zone: Option<&ZoneId>,
    ) -> Option<Admitted> {
        let source = Source::Tree { env, from };
        let admitted = self.admit(Arc::clone(&env.item), env.key, env.signature, source)?;
        self.learn_from_envelope(env);
        if self.cfg.acks && from != NodeId::EXTERNAL {
            let zone = zone.unwrap_or_else(|| self.agent.zone(0)).clone();
            ctx.send(from, NewsWireMsg::ForwardAck { msg_id: env.msg_id, zone });
        }
        let (msg_id, zone) = (env.msg_id, self.agent.zone(0));
        self.acks.release_announces(msg_id, |announcer| {
            ctx.send(NodeId(announcer), NewsWireMsg::ForwardAck { msg_id, zone: zone.clone() });
        });
        Some(admitted)
    }

    /// An announce of `id` from `from`, naming `zone`: a `Deliver` one — the
    /// leaf zone's other representative is sending this member the article
    /// — or a hand-off one — the payload holder of this node's leaf zone is.
    /// Nothing but the id is read — nothing is admitted, cached, logged,
    /// delivered or covered. An article already held or logged is
    /// acknowledged now; otherwise the announce waits for a tree copy (see
    /// [`NewsWireNode::hold_announce`]), and the ack names this node's leaf
    /// zone then. One from outside the membership has nobody to acknowledge
    /// and is dropped.
    fn take_announce(
        &mut self,
        ctx: &mut Context<'_, NewsWireMsg>,
        from: NodeId,
        id: ItemId,
        zone: ZoneId,
    ) {
        if !self.cfg.acks || from == NodeId::EXTERNAL || self.hold_announce(from.0, id) {
            return;
        }
        ctx.send(from, NewsWireMsg::ForwardAck { msg_id: msg_id_of(id), zone });
    }

    /// Holds `from`'s announce of `id` ([`Acks::hold_announce`]) and returns
    /// true — unless the article is already held or logged, when the
    /// announce is answered now and this returns false.
    fn hold_announce(&mut self, from: u32, id: ItemId) -> bool {
        if self.reconcile.logged(id) || self.cache.contains(id) {
            return false;
        }
        self.acks.hold_announce(msg_id_of(id), from);
        true
    }

    /// Admits and delivers the articles of a reconcile reply from `from`.
    fn absorb_recovered(&mut self, now: SimTime, from: NodeId, items: Vec<SignedItem>) {
        for SignedItem { item, key, signature, basis } in items {
            self.delta_makeup(&item, basis.as_ref());
            let source = Source::Reconcile { from };
            let Some(admitted) = self.admit(item, key, signature, source) else { continue };
            // Where a recovery item goes: a copy the cache already holds,
            // an article this node never subscribed to, or (neither) a
            // useful one.
            let item = admitted.item();
            if self.cache.contains(item.id) {
                obs::metric_add!(self.agent.id(), ctr::NW_RECOVERY_HELD, 1);
            } else if !self.subscription.matches(item) {
                obs::metric_add!(self.agent.id(), ctr::NW_RECOVERY_UNWANTED, 1);
            }
            self.handle_delivery(now, admitted, true);
        }
    }

    /// Restores cached items from a decoded stable-storage snapshot through
    /// the admission funnel: a tampered disk (or a forged item that slipped
    /// in before defenses were on) must not resurrect into the cache.
    /// Returns the number of items restored.
    fn restore_items(
        &mut self,
        items: Vec<(Arc<NewsItem>, KeyId, Signature)>,
        now: SimTime,
    ) -> u64 {
        let mut restored = 0u64;
        for (item, key, sig) in items {
            let Some(admitted) = self.admit(item, key, sig, Source::Disk) else { continue };
            self.reconcile.log_seen(admitted.item().id, None, self.clock);
            self.cache_insert(admitted, now);
            restored += 1;
        }
        restored
    }

    /// Delta-annotates each reply item whose story the requester declared
    /// an earlier revision of (`baselines`).
    fn price_reply(&self, items: &mut [SignedItem], baselines: &[BaselineHint]) {
        if !self.cfg.deltas || baselines.is_empty() {
            return;
        }
        let held: BTreeMap<u64, &BaselineHint> = baselines.iter().map(|b| (b.key, b)).collect();
        for signed in items {
            let item = &signed.item;
            signed.basis = held
                .get(&newsml::cdc::slug_key(item.id.publisher, &item.slug))
                .and_then(|b| self.price_basis(item, b.revision, b.body_len));
        }
    }

    /// Prices `item` against a candidate baseline and returns the basis
    /// annotation when a delta actually wins — the sender falls back to the
    /// full body (and counts the deferral) when the revisions share too
    /// little.
    fn price_basis(&self, item: &NewsItem, base_rev: u32, base_len: u32) -> Option<DeltaBasis> {
        let cost = newsml::cdc::delta_cost_memo(
            item.id.publisher,
            &item.slug,
            base_rev,
            base_len,
            item.revision,
            item.body_len,
        );
        if cost.saved() <= DeltaBasis::WIRE_SIZE {
            obs::metric_add!(self.agent.id(), ctr::DELTA_DEFERRED, 1);
            return None;
        }
        obs::metric_add!(self.agent.id(), ctr::DELTA_ITEMS_SENT, 1);
        obs::metric_add!(self.agent.id(), ctr::DELTA_ITEM_BYTES_SAVED, cost.saved() as u64);
        Some(DeltaBasis { revision: base_rev, body_len: base_len })
    }

    /// The baseline hints a reconcile request declares: what this cache
    /// holds of `publisher`, so the responder can delta-encode. Empty with
    /// deltas off — the request is then byte-identical to the pre-delta wire.
    fn request_baselines(&self, publisher: PublisherId) -> Vec<BaselineHint> {
        if !self.cfg.deltas {
            return Vec::new();
        }
        self.cache.baselines(publisher, MAX_BASELINES)
    }

    /// Receiver-side honesty for the `bytes_wire` model: an item that
    /// arrived delta-encoded against a basis this node cannot reconstruct
    /// from (it holds neither the baseline revision nor the content
    /// itself) would have to fetch the missing chunks — charge the full
    /// minus delta difference back so the compressed accounting never
    /// under-counts.
    fn delta_makeup(&self, item: &NewsItem, basis: Option<&DeltaBasis>) {
        let Some(b) = basis else { return };
        if !self.cfg.deltas {
            return;
        }
        let decodable = self
            .cache
            .latest_for_slug(item.id.publisher, &item.slug)
            .is_some_and(|held| held.revision == b.revision || held.revision >= item.revision);
        if decodable {
            return;
        }
        let cost = newsml::cdc::delta_cost_memo(
            item.id.publisher,
            &item.slug,
            b.revision,
            b.body_len,
            item.revision,
            item.body_len,
        );
        obs::metric_add!(self.agent.id(), ctr::DELTA_FALLBACK_FULL, 1);
        obs::metric_add!(self.agent.id(), ctr::BYTES_WIRE, cost.saved() as u64);
    }

    /// A tree hop becomes *acknowledged* the moment it hits the wire: it
    /// enters the acknowledgement table, whose sweep drives retry, back-off
    /// and failover. Returns the copy to send — the payload in place of an
    /// announce the table cannot await, which would leave the member none.
    fn arm_ack(&mut self, ctx: &mut Context<'_, NewsWireMsg>, ack: Ack) -> NewsWireMsg {
        let id = self.agent.id();
        if ack.zone.is_some() {
            let key = trace_key(ack.env.item.id);
            obs::trace_event!(id, Layer::News, kind::HANDOFF_ARM, key, ack.peer);
        }
        let (msg, announce) = (ack.message(), ack.announce.is_some());
        let handoff_announce = ack.cover == Cover::Announce;
        if !self.acks.arm(ctx.now(), ack) {
            return match msg {
                NewsWireMsg::Deliver { env, .. } => NewsWireMsg::Deliver { env, announce: false },
                msg => msg,
            };
        }
        if announce {
            obs::metric_add!(id, ctr::NW_ANNOUNCES, 1);
        }
        if handoff_announce {
            obs::metric_add!(id, ctr::NW_HANDOFF_ANNOUNCES, 1);
        }
        self.arm_sweep(ctx);
        msg
    }

    /// Sets a sweep timer for the earliest deadline, unless one goes off by
    /// then already.
    fn arm_sweep(&mut self, ctx: &mut Context<'_, NewsWireMsg>) {
        if let Some(due) = self.acks.schedule_sweep() {
            ctx.set_timer(due.saturating_since(ctx.now()), ACK_TAG_BASE);
        }
    }

    /// A sweep timer went off: every entry due is retried, in the order
    /// armed, and the sweep re-armed for the next deadline. A retried entry
    /// is due again a round-trip bound later, never now.
    fn sweep_acks(&mut self, ctx: &mut Context<'_, NewsWireMsg>) {
        let now = ctx.now();
        while let Some(ack) = self.acks.pop_due(now) {
            self.retry_ack(ctx, ack);
        }
        self.arm_sweep(ctx);
    }

    /// `ack` went unacknowledged for its wait. A hand-off announce's
    /// co-representative never got the holder's copy: the payload goes to
    /// it, to cover the zone alone, and its silence says nothing of it.
    /// Otherwise the copy goes to the same peer again, up to [`ACK_RETRIES`]
    /// times, unless a hand-off's representative is already suspect — a
    /// `Deliver` announce's re-send is the payload. Then a hand-off fails
    /// over to an untried representative of its zone, up to
    /// [`MAX_FAILOVERS`] times, and is abandoned after that; a `Deliver` is
    /// forgotten. Reconcile owns either loss. What goes again is re-entered.
    fn retry_ack(&mut self, ctx: &mut Context<'_, NewsWireMsg>, mut ack: Ack) {
        let id = self.agent.id();
        let key = trace_key(ack.env.item.id);
        if ack.zone.is_some() {
            self.acks.note_handoff_timeout();
        }
        if ack.cover == Cover::Announce {
            (ack.cover, ack.attempt) = (Cover::Alone { co_rep: ack.peer }, ack.attempt + 1);
            obs::metric_add!(id, ctr::NW_HANDOFF_ANNOUNCE_PAYLOADS, 1);
            obs::trace_event!(id, Layer::News, kind::ANNOUNCE_PAYLOAD, key, ack.peer);
            obs::metric_add!(id, ctr::NW_FORWARDS, 1);
            ctx.send(NodeId(ack.peer), ack.message());
            self.acks.arm(ctx.now(), ack);
            return;
        }
        let mut suspect = false;
        if ack.zone.is_some() {
            self.acks.note_timeout(ack.peer);
            // Suspect shortcut: when hand-offs to the representative keep
            // going unacknowledged, burning the remaining same-rep retries
            // is wasted time — fail over immediately.
            suspect = self.peer_suspect(ack.peer);
            if suspect && ack.attempt < ACK_RETRIES {
                obs::metric_add!(id, ctr::NW_SUSPECT_FAILOVERS, 1);
                obs::trace_event!(id, Layer::News, kind::PHI_SUSPECT, ack.peer);
            }
        }
        if !suspect && ack.attempt < ACK_RETRIES {
            ack.attempt += 1;
            if ack.zone.is_some() {
                obs::metric_add!(id, ctr::NW_ACK_RETRIES, 1);
                obs::trace_event!(id, Layer::News, kind::HANDOFF_RETRY, key, ack.peer);
            } else {
                self.acks.note_resend();
                obs::metric_add!(id, ctr::NW_DELIVER_RESENDS, 1);
                if ack.announce.take().is_some() {
                    obs::metric_add!(id, ctr::NW_ANNOUNCE_PAYLOADS, 1);
                    obs::trace_event!(id, Layer::News, kind::ANNOUNCE_PAYLOAD, key, ack.peer);
                } else {
                    obs::trace_event!(id, Layer::News, kind::DELIVER_RESEND, key, ack.peer);
                }
            }
        } else {
            let Some(zone) = &ack.zone else { return };
            let next = if ack.tried.len() < MAX_FAILOVERS as usize {
                let mut candidates = zone_reps(&self.agent, zone);
                candidates.retain(|r| !ack.tried.contains(r) && *r != ack.peer);
                // Prefer representatives that still answer.
                prefer_unsuspected(&mut candidates, &|peer| self.peer_suspect(peer));
                candidates.as_slice().choose(ctx.rng()).copied()
            } else {
                None
            };
            let Some(rep) = next else {
                obs::metric_add!(id, ctr::NW_HANDOFFS_ABANDONED, 1);
                obs::trace_event!(id, Layer::News, kind::HANDOFF_ABANDON, key, ack.peer);
                return;
            };
            ack.tried.push(ack.peer);
            ack.peer = rep;
            ack.attempt = 0;
            obs::metric_add!(id, ctr::NW_ACK_FAILOVERS, 1);
            obs::trace_event!(id, Layer::News, kind::HANDOFF_FAILOVER, key, rep);
        }
        obs::metric_add!(id, ctr::NW_FORWARDS, 1);
        ctx.send(NodeId(ack.peer), ack.message());
        self.acks.arm(ctx.now(), ack);
    }

    /// How many times a queued copy goes on the wire. A zone below the
    /// source is handed an article by each of its parent zone's
    /// `redundancy` representatives; one the source hands it to has one
    /// sender. So while this node's gossip exchanges lose messages, the
    /// source sends each of its hand-offs `redundancy` times, under one
    /// acknowledgement entry; a retry is one copy (DESIGN §6).
    fn source_copies(&self, msg: &NewsWireMsg) -> u64 {
        match (msg, &self.publisher) {
            (
                NewsWireMsg::Forward { env, cover: Cover::Shared | Cover::Alone { .. }, .. },
                Some(p),
            ) if p.credential.publisher() == env.item.id.publisher
                && self.answered_probes < CLEAN_EXCHANGES =>
            {
                self.cfg.redundancy.max(1) as u64
            }
            _ => 1,
        }
    }

    /// One reconcile step per gossip round ([`Reconcile::next_ask`]).
    fn maybe_reconcile(&mut self, ctx: &mut Context<'_, NewsWireMsg>) {
        if !self.cfg.anti_entropy {
            return;
        }
        let recovering = self.recovering_since.is_some();
        let subscribed = self.subscription.publishers.iter().map(|(p, _)| *p);
        // `peer_suspect`, over the fields it reads: the component is
        // borrowed mutably beside them.
        let (acks, misbehavior, defenses) = (&self.acks, &self.misbehavior, self.cfg.defenses);
        let suspect = |peer| in_quarantine(misbehavior, defenses, peer) || acks.suspect(peer);
        let now = ctx.now();
        let ask =
            self.reconcile.next_ask(&self.agent, subscribed, recovering, now, &suspect, ctx.rng());
        if let Some(ask) = ask {
            self.send_reconcile_request(ctx, ask);
        }
    }

    /// Sends `ask`'s `ReconcileRequest`, declaring this node's interest, and
    /// arms its reply timeout.
    fn send_reconcile_request(&mut self, ctx: &mut Context<'_, NewsWireMsg>, ask: Ask) {
        let (peer, publisher) = (ask.peer, ask.publisher);
        obs::metric_add!(self.agent.id(), ctr::NW_RECONCILE_REQUESTS, 1);
        obs::trace_event!(self.agent.id(), Layer::News, kind::AE_REQUEST, peer.0, publisher.0);
        let timer = ctx.set_timer(RECONCILE_REPLY_TIMEOUT, RECONCILE_WAIT_TIMER);
        let interest = self.subscription.interest(self.cfg.model, publisher);
        let baselines = self.request_baselines(publisher);
        ctx.send(peer, self.reconcile.ask(ask, timer, baselines, interest));
    }

    /// Serves a `ReconcileRequest` ([`Reconcile::serve`]) and counts what
    /// the reply carries. The requester's baseline hints let the reply
    /// delta-encode revised stories.
    #[allow(clippy::too_many_arguments)]
    fn serve_reconcile(
        &mut self,
        ctx: &mut Context<'_, NewsWireMsg>,
        from: NodeId,
        publisher: PublisherId,
        epoch: u32,
        ranges: &[(u64, u64)],
        tail_from: u64,
        baselines: &[BaselineHint],
        interest: &[u16],
    ) {
        let stub_of = |item: &NewsItem| self.stub_of(item);
        let (summary, mut items, withheld) = self.reconcile.serve(
            &self.cache,
            stub_of,
            publisher,
            epoch,
            ranges,
            tail_from,
            interest,
        );
        if !withheld.is_empty() {
            obs::metric_add!(self.agent.id(), ctr::NW_RECONCILE_WITHHELD, withheld.len());
        }
        if !items.is_empty() {
            obs::metric_add!(self.agent.id(), ctr::NW_RECONCILES_SERVED, 1);
            obs::metric_add!(self.agent.id(), ctr::NW_RECONCILE_ITEMS_SENT, items.len());
            obs::metric_add!(
                self.agent.id(),
                ctr::NW_RECONCILE_BYTES_SENT,
                items.iter().map(|i| i.item.wire_size() as u64).sum::<u64>()
            );
            obs::trace_event!(self.agent.id(), Layer::News, kind::AE_REPLY, from.0, items.len());
        }
        // Reply even when empty: the reply itself proves liveness. The
        // stored attestation rides along so signed epoch authority spreads
        // to nodes the publisher's own envelopes have not reached.
        let attest = self.trust.authority(publisher);
        self.price_reply(&mut items, baselines);
        ctx.send(from, NewsWireMsg::ReconcileReply { publisher, summary, attest, items, withheld });
    }

    /// Absorbs a `ReconcileReply`: deliver the recovered items, then settle
    /// exactly what the reply vouches for ([`Reconcile::settle`]). A
    /// requested seq the responder could not vouch for stays a hole, and
    /// is asked of the next peer at once.
    #[allow(clippy::too_many_arguments)]
    fn absorb_reconcile_reply(
        &mut self,
        ctx: &mut Context<'_, NewsWireMsg>,
        from: NodeId,
        publisher: PublisherId,
        summary: RangeSummary,
        attest: Option<EpochAttest>,
        items: Vec<SignedItem>,
        withheld: Vec<(u64, Stub)>,
    ) {
        // Absorb the rider attestation first: a genuine publisher epoch
        // bump raises our signed authority *before* the fence judges the
        // reply's claimed epoch.
        if let Some(a) = &attest {
            if a.publisher == publisher {
                self.absorb_attest(a);
            }
        }
        let pending = self.reconcile.take_reply(from, publisher);
        let now = ctx.now();
        obs::metric_add!(self.agent.id(), ctr::NW_RECONCILE_ITEMS_RECV, items.len());
        // Digest contradiction: this peer was selected because its gossiped
        // digest vouched coverage for our holes, yet it replies with an
        // empty log and no items.
        if pending.as_ref().is_some_and(|p| p.belied_by(&summary, &items, &withheld)) {
            self.note_misbehavior(from, MISBEHAVIOR_CONTRADICTION);
        }
        // Epoch fence (DESIGN §12): adopting a newer epoch wipes this log,
        // and a reply summary is a single peer's unverified claim — the
        // contagion vector for fabricated epochs. With defenses on, the
        // publisher-signed attestation is the reference wherever one is
        // held: a colluding leaf-zone majority can capture the unsigned
        // neighbour consensus, but it cannot sign as the publisher. The
        // consensus mode remains the fallback for publishers no attestation
        // has reached yet (majority-honest assumption, DESIGN §11).
        let cur_epoch = self.reconcile.epoch(publisher);
        let authority = self.trust.authority_epoch(publisher);
        let fenced = summary.epoch > cur_epoch
            && self.cfg.defenses
            && match authority {
                Some(ae) => summary.epoch > ae,
                None => matches!(
                    self.reconcile.consensus_epoch(&self.agent, publisher),
                    Some(ce) if summary.epoch > ce
                ),
            };
        if fenced {
            obs::metric_add!(self.agent.id(), ctr::CORRUPT_ROWS_REJECTED, 1);
            if authority.is_some() {
                obs::metric_add!(self.agent.id(), ctr::NW_SIGNED_EPOCH_REFUSALS, 1);
                obs::trace_event!(
                    self.agent.id(),
                    Layer::News,
                    kind::SIGNED_EPOCH_REFUSAL,
                    u64::from(summary.epoch),
                    u64::from(publisher.0)
                );
            }
            self.note_misbehavior(from, MISBEHAVIOR_FENCE);
        }
        if summary.epoch > cur_epoch && !fenced {
            self.reconcile.adopt_epoch(publisher, summary.epoch);
        }
        let next_before = self.reconcile.next_seq(publisher);
        let spoken_for = reconcile::last_spoken_for(&items, &withheld);
        self.absorb_recovered(now, from, items);
        let Some(pending) = pending else { return };
        let own = self.subscription.interest(self.cfg.model, publisher);
        let settled =
            self.reconcile.settle(&pending, &summary, withheld, spoken_for, &own, next_before, now);
        if settled.contradicted {
            self.note_misbehavior(from, MISBEHAVIOR_CONTRADICTION);
        }
        if !settled.unvouched.is_empty() {
            let seqs: u64 = settled.unvouched.iter().map(|(lo, hi)| hi - lo + 1).sum();
            obs::metric_add!(self.agent.id(), ctr::NW_RECONCILE_UNVOUCHED, seqs);
        }
        // The responder is still ahead (the reply was cut). A recovering
        // node may have no digest to lead it back there — its whole leaf
        // zone can be as cold as it is — so it asks again now, for as long
        // as each reply moves its own mark.
        let next = if settled.behind && self.recovering_since.is_some() {
            Some(pending.again(self.reconcile.missing(publisher, &summary)))
        } else if !settled.unvouched.is_empty() {
            let suspect = |peer| self.peer_suspect(peer);
            pending.follow_up(settled.unvouched, &self.agent, &suspect, ctx.rng())
        } else {
            None
        };
        if let Some(ask) = next {
            self.send_reconcile_request(ctx, ask);
        }
    }

    /// Drains incarnation bumps observed by the embedded agent and forgets
    /// each bumped peer's back-off: the unanswered hand-offs belonged to the
    /// peer's previous life, and a freshly restarted peer must be
    /// immediately eligible again as an ack-failover / reconcile target.
    fn absorb_incarnation_bumps(&mut self) {
        for peer in self.agent.take_incarnation_bumps() {
            self.acks.forget_timeouts(peer);
            // Misbehavior belonged to the previous life too: a reinstalled
            // node is not the liar its predecessor was. But only an
            // identity the registry still endorses earns the clean slate —
            // before this check, any quarantined node could self-clear by
            // restarting under a fresh incarnation (the §15 loophole).
            if self.peer_endorsed(peer) {
                self.misbehavior.remove(&peer);
            }
            // So was its digest rider.
            self.reconcile.forget_rider(peer);
        }
    }

    /// The subscription summary attributes this node *should* advertise,
    /// re-derived from the [`Subscription`] ground truth — the self-audit
    /// compares these against what is actually installed in the MIB row.
    fn derived_sub_attrs(&self) -> Vec<(String, AttrValue)> {
        match self.cfg.model {
            SubscriptionModel::Bloom { bits, hashes } => {
                vec![("subs".to_owned(), AttrValue::from(self.subscription.to_bloom(bits, hashes)))]
            }
            SubscriptionModel::CategoryMask => self
                .subscription
                .publishers
                .iter()
                .map(|(p, _)| {
                    let mask = self.subscription.mask_for(*p).0 as i64;
                    (self.cfg.model.attr_for(*p), AttrValue::Int(mask))
                })
                .collect(),
        }
    }

    /// Periodic self-audit, the repair half of the corruption defenses
    /// (the ingest validator is the rejection half). Three sweeps, each
    /// against ground truth the adversary cannot reach: scrub held zone
    /// rows that cannot be structurally honest, re-install the subscription
    /// advertisement when it diverged from the `subscription` object, and
    /// rebuild any article log claiming an epoch beyond what this node's
    /// neighbours agree on (rebuilt from cached items at the consensus
    /// epoch; honest holes refill through ordinary reconciliation). A
    /// healthy node audits to zero — the sweep itself never perturbs
    /// converged state, which is what keeps defenses-on runs bit-identical
    /// across same-seed replays.
    fn self_audit(&mut self, now: SimTime) {
        self.agent.scrub(now);
        let mut repairs = 0u64;
        for (attr, want) in self.derived_sub_attrs() {
            if self.agent.local_attr(&attr) != Some(&want) {
                self.agent.set_local_attr(&attr, want);
                repairs += 1;
                obs::trace_event!(self.agent.id(), Layer::Astro, kind::SELF_AUDIT_REPAIR, 2, 1);
            }
        }
        let publishers: Vec<PublisherId> = self.reconcile.logged_publishers().collect();
        for publisher in publishers {
            // The fence reference: the publisher's signed attestation when
            // held (collusion-proof), neighbour consensus otherwise.
            let Some(ce) = self
                .trust
                .authority_epoch(publisher)
                .or_else(|| self.reconcile.consensus_epoch(&self.agent, publisher))
            else {
                continue;
            };
            if self.reconcile.epoch(publisher) <= ce {
                continue;
            }
            let held = self.cache.iter().filter(|i| i.id.publisher == publisher);
            self.reconcile.rebuild_log(publisher, ce, held.map(|item| item.id.seq));
            repairs += 1;
            obs::trace_event!(self.agent.id(), Layer::Astro, kind::SELF_AUDIT_REPAIR, 3, 1);
        }
        if repairs > 0 {
            obs::metric_add!(self.agent.id(), ctr::SELF_AUDIT_REPAIRS, repairs);
        }
    }

    /// The durable protocol state for the `state` disk record: article-log
    /// coverage (with the present sequence ranges), cached items, and the
    /// application delivery log. Cache and deliveries persist *together* —
    /// the cache is the dedup barrier and the delivery log is the
    /// completeness substrate, and restoring one without the other would
    /// either re-deliver everything or forget what was delivered. Only held
    /// seqs persist as present ([`Reconcile::log_states`]).
    fn durable_state(&self) -> persist::NodeState {
        persist::NodeState {
            logs: self.reconcile.log_states(),
            // Each item persists with its detached signature, so a durable
            // restore can re-verify: a disk snapshot is just another
            // admission source (see `restore_items`).
            items: self
                .cache
                .iter_signed()
                .map(|(item, (key, sig))| (Arc::clone(item), key, sig))
                .collect(),
            deliveries: self.deliveries.clone(),
            rotations: self.trust.rotations().map(|(_, r)| r.encode()).collect(),
        }
    }

    /// Re-installs a decoded `state` snapshot after a cold wipe: rotations
    /// first, then cached items through admission, the delivery log, and
    /// the article logs' coverage. Returns how many items were restored.
    fn restore_state(&mut self, state: persist::NodeState, now: SimTime) -> u64 {
        // Re-arm the revocation fence *before* re-admitting items: restore
        // is admission path 4, and a rotation adopted from disk must fence
        // the very blob it rode in on.
        for enc in &state.rotations {
            if let Some(rec) = RotationRecord::decode(enc) {
                self.adopt_rotation(&rec);
            }
        }
        let restored = self.restore_items(state.items, now);
        self.deliveries = state.deliveries;
        for ls in state.logs {
            self.reconcile.restore_log(ls);
        }
        restored
    }

    /// Cheap change detector over the durable state: structure and counts,
    /// not content. Skipping unchanged snapshots keeps steady-state disk
    /// traffic near zero without diffing item payloads.
    fn state_fingerprint(&self) -> u64 {
        fn mix(h: u64, v: u64) -> u64 {
            (h ^ v).wrapping_mul(0x0000_0100_0000_01b3)
        }
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        h = mix(h, self.cache.len() as u64);
        h = mix(h, self.deliveries.len() as u64);
        for (p, log) in self.reconcile.logs() {
            h = mix(h, u64::from(p.0));
            h = mix(h, u64::from(log.epoch()));
            h = mix(h, log.floor());
            h = mix(h, log.next_seq());
            h = mix(h, log.len() as u64);
        }
        for (p, rec) in self.trust.rotations() {
            h = mix(h, u64::from(p.0));
            h = mix(h, u64::from(rec.serial));
        }
        h
    }

    /// Write-behind persistence, called once per gossip tick when
    /// `durable_state` is configured: snapshot the `state` record when the
    /// fingerprint moved, fsync every [`STATE_FSYNC_TICKS`]th tick. The
    /// window between write and fsync is exactly what a crash destroys:
    /// the engine loses every unsynced write.
    fn persist_state(&mut self, ctx: &mut Context<'_, NewsWireMsg>) {
        let fp = self.state_fingerprint();
        if fp != self.persisted_fingerprint {
            let blob = persist::encode_state(&self.durable_state());
            ctx.disk().write(DISK_KEY_STATE, blob);
            self.persisted_fingerprint = fp;
        }
        if self.gossip_ticks.is_multiple_of(STATE_FSYNC_TICKS) {
            ctx.disk().fsync();
        }
    }

    /// Wipes the protocol state every restart mode loses, a freeze included:
    /// membership view, cache (signatures with it), deliveries, the
    /// acknowledgement table, article logs, the digest riders that
    /// described them and the ones leaf mates sent, and misbehavior scores.
    fn reset_protocol_state(&mut self) {
        self.agent.reset();
        self.cache = MessageCache::new(self.cfg.cache);
        self.deliveries.clear();
        self.drain_timer = None;
        self.acks.clear();
        self.digest_probes.clear();
        self.answered_probes = CLEAN_EXCHANGES;
        self.reconcile.clear();
        self.misbehavior.clear();
        self.backfill_this_recovery = 0;
    }

    /// Checks whether an in-progress cold-restart recovery has caught up:
    /// no pull in flight, every article log hole-free, and — for every
    /// publisher this node subscribes to — the log's high-water mark at or
    /// past the highest mark any leaf neighbour advertises in its digest
    /// rider. The last clause is what makes the criterion meaningful for an
    /// amnesiac rejoin, whose freshly empty logs would otherwise be
    /// vacuously hole-free.
    fn check_recovery_done(&mut self, now: SimTime) {
        let Some(started) = self.recovering_since else { return };
        // A freshly reset membership view is vacuously consistent — an
        // amnesiac node that has not yet heard from anyone would sail
        // through the digest comparison below. Refuse to declare victory
        // until the node has dwelt at least two gossip rounds and holds at
        // least one leaf-neighbour row learned since the restart.
        let dwell = 2 * self.cfg.astrolabe.gossip_interval.as_micros();
        if now.as_micros() < started.as_micros().saturating_add(dwell) {
            return;
        }
        let own = self.agent.own_label(0);
        if !self.agent.table(0).iter().any(|(label, _)| label != own) {
            return;
        }
        let subscribed = self.subscription.publishers.iter().map(|(p, _)| *p);
        if !self.reconcile.caught_up(&self.agent, subscribed) {
            return;
        }
        let duration = now.as_micros().saturating_sub(started.as_micros());
        self.recovering_since = None;
        obs::metric_add!(self.agent.id(), ctr::NW_RECOVERIES, 1);
        obs::series_record!(self.agent.id(), series::RECOVERY_DURATION_US, duration);
        obs::trace_event!(
            self.agent.id(),
            Layer::News,
            kind::NW_RECOVERY_DONE,
            duration,
            self.backfill_this_recovery
        );
    }
}

impl Node for NewsWireNode {
    type Msg = NewsWireMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, NewsWireMsg>) {
        let interval = self.agent.config().gossip_interval;
        let first = SimDuration::from_micros(ctx.rng().gen_range(0..interval.as_micros().max(1)));
        ctx.set_timer(first, GOSSIP_TIMER);
        if self.cfg.durable_state {
            // The subscription is configuration, not protocol state: write
            // it once, synced, so a durable restart re-derives the exact
            // interests (predicate included) from disk.
            let blob = persist::encode_subscription(&self.subscription);
            ctx.disk().write(DISK_KEY_SUB, blob);
            ctx.disk().fsync();
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, NewsWireMsg>, from: NodeId, msg: NewsWireMsg) {
        self.clock = ctx.now();
        match msg {
            NewsWireMsg::Gossip { g, rot, digests } => {
                let now = ctx.now();
                // A `DigestReply` closes the exchange this node's `Digest`
                // opened: one timed round trip to `from`.
                if let GossipMsg::DigestReply { .. } = &g {
                    if let Some(at) = self.digest_probes.iter().position(|&(p, _)| p == from.0) {
                        let (_, sent) = self.digest_probes.swap_remove(at);
                        self.answered_probes = self.answered_probes.saturating_add(1);
                        self.acks.note_rtt(from.0, now.saturating_since(sent));
                    }
                }
                // Rider first, then row attributes: a revocation arriving
                // with this very exchange fences its rows' attestations in
                // the same round.
                if let Some(rider) = rot {
                    self.adopt_rotation(&rider.record);
                }
                self.scan_rotations(&g);
                let mut g = g;
                self.filter_sybil_rows(&mut g);
                let digest = matches!(g, GossipMsg::Digest { .. });
                let mut out = self.merge_gossip(now, from.0, g, ctx.rng());
                if digest && out.is_empty() {
                    // Replicas in sync owe each other nothing, but the reply
                    // is how the digest's sender times its round trip to
                    // this node — the bound its hand-off timeouts and
                    // reorder windows are drawn from — so it is always sent.
                    out.push((from.0, GossipMsg::empty_reply()));
                }
                for (to, g) in out {
                    let msg = self.gossip_msg(to, g);
                    ctx.send(NodeId(to), msg);
                }
                // The digest rider last, against the rows this exchange
                // merged: the sender's row version it is taken at is the
                // sender's current life.
                self.reconcile.take_digest_rider(&self.agent, from.0, digests);
            }
            NewsWireMsg::Rotate { record, credential } => {
                // Ablation: with defenses off the rotation is a dead
                // letter — the publisher keeps its compromised key and
                // forged items verify for the full window.
                if !self.cfg.defenses {
                    return;
                }
                self.adopt_rotation(&record);
                if let Some(cred) = credential {
                    let matches_self = self
                        .publisher
                        .as_ref()
                        .is_some_and(|p| p.credential.publisher() == cred.publisher());
                    if matches_self {
                        // The publisher itself re-keys: successor
                        // certificate and a fresh attestation at the
                        // current log epoch anchor the new authority, and
                        // every item published from here signs with the
                        // successor key.
                        let publisher = cred.publisher();
                        let epoch = self.reconcile.epoch(publisher);
                        self.install_publisher_authority(
                            cred.certificate.clone(),
                            cred.attest_epoch(epoch),
                        );
                        self.publisher.as_mut().expect("publisher matched above").credential = cred;
                    }
                }
            }
            NewsWireMsg::PublishRequest { item, scope, predicate } => {
                self.handle_publish(ctx, item, scope, predicate)
            }
            NewsWireMsg::Forward { env, zone, cover: Cover::Announce } => {
                self.take_announce(ctx, from, env.item.id, zone)
            }
            NewsWireMsg::Forward { env, zone, cover } => {
                let Some(admitted) = self.admit_envelope(ctx, from, &env, Some(&zone)) else {
                    return;
                };
                if self.coverage.admit(env.msg_id, zone.depth()) {
                    let upstream = (from != NodeId::EXTERNAL).then_some(from.0);
                    self.process_duty(ctx, env, zone, admitted, upstream, cover);
                } else {
                    obs::metric_add!(self.agent.id(), ctr::NW_DUPLICATES, 1);
                }
            }
            NewsWireMsg::ForwardAck { msg_id, zone } => {
                // A member's receipt for a `Deliver`, or a representative's
                // for a hand-off.
                let (handoff, deliver) = self.acks.settle(msg_id, &zone, from.0, ctx.now());
                if deliver {
                    obs::metric_add!(self.agent.id(), ctr::NW_DELIVER_ACKS, 1);
                }
                if let Some(item) = handoff {
                    obs::metric_add!(self.agent.id(), ctr::NW_ACKS_RECEIVED, 1);
                    let key = trace_key(item);
                    obs::trace_event!(self.agent.id(), Layer::News, kind::HANDOFF_ACK, key, from.0);
                }
            }
            NewsWireMsg::Deliver { env, announce: true } => {
                let zone = self.agent.zone(0).clone();
                self.take_announce(ctx, from, env.item.id, zone)
            }
            NewsWireMsg::Deliver { env, announce: false } => {
                let Some(admitted) = self.admit_envelope(ctx, from, &env, None) else { return };
                self.delta_makeup(&env.item, env.basis.as_ref());
                self.handle_delivery(ctx.now(), admitted, false);
            }
            // The named pull is retired: no node asks one, and an
            // unsolicited reply is attack surface with no protocol use.
            NewsWireMsg::RepairRequest { .. } | NewsWireMsg::RepairReply { .. } => {}
            NewsWireMsg::ReconcileRequest {
                publisher,
                epoch,
                ranges,
                tail_from,
                baselines,
                interest,
            } => {
                self.serve_reconcile(
                    ctx, from, publisher, epoch, &ranges, tail_from, &baselines, &interest,
                );
            }
            NewsWireMsg::ReconcileReply { publisher, summary, attest, items, withheld } => {
                self.absorb_reconcile_reply(ctx, from, publisher, summary, attest, items, withheld);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, NewsWireMsg>, t: TimerId, tag: u64) {
        self.clock = ctx.now();
        match tag {
            GOSSIP_TIMER => {
                // Publish forwarding load so representative election steers
                // around busy nodes (paper §5).
                let load = self.load_bias + self.queues.len() as f64;
                self.agent.set_local_attr("load", load);
                let now = ctx.now();
                self.gossip_ticks += 1;
                // Audit before digests and the agent tick, so repaired
                // state is what this round advertises and gossips.
                if self.cfg.defenses && self.gossip_ticks.is_multiple_of(SELF_AUDIT_TICKS) {
                    self.self_audit(now);
                }
                self.reconcile.publish_ae_digests(self.cfg.anti_entropy);
                let out = self.agent.on_tick(now, ctx.rng());
                if !self.digest_probes.is_empty() {
                    self.answered_probes = 0;
                }
                self.digest_probes.clear();
                for (to, g) in out {
                    if matches!(g, GossipMsg::Digest { .. }) {
                        self.digest_probes.push((to, now));
                    }
                    let msg = self.gossip_msg(to, g);
                    ctx.send(NodeId(to), msg);
                }
                self.cache.gc(now);
                self.absorb_incarnation_bumps();
                // What the last round's pull achieved, before the next one
                // is in flight (a pull in flight is not a finished recovery).
                self.check_recovery_done(now);
                self.maybe_reconcile(ctx);
                if self.cfg.durable_state {
                    self.persist_state(ctx);
                }
                ctx.set_timer(self.agent.config().gossip_interval, GOSSIP_TIMER);
            }
            DRAIN_TIMER => {
                let Some(_) = self.drain_timer.take_if(|armed| *armed == t) else { return };
                if let Some(q) = self.queues.pop() {
                    let (dst, hand, hop) = q.item;
                    let ack = Ack::new(hop, hand.cover(), dst.0, ctx.now());
                    let msg = if self.cfg.acks { self.arm_ack(ctx, ack) } else { ack.message() };
                    let copies = self.source_copies(&msg);
                    for _ in 1..copies {
                        ctx.send(dst, msg.clone());
                    }
                    ctx.send(dst, msg);
                    obs::metric_add!(self.agent.id(), ctr::NW_FORWARDS, copies);
                }
                if !self.queues.is_empty() {
                    self.arm_drain(ctx);
                }
            }
            RECONCILE_WAIT_TIMER => {
                // The reconcile peer never answered: it vouched for nothing,
                // and the pass asks the next peer as after any reply that
                // left holes. A timer outlives a request a subscription
                // change forgot; it is not the deadline of the request sent
                // since.
                let Some(p) = self.reconcile.take_timed_out(t) else { return };
                let suspect = |peer| self.peer_suspect(peer);
                let Some(ask) = p.unanswered(&self.agent, &suspect, ctx.rng()) else { return };
                obs::metric_add!(self.agent.id(), ctr::NW_RECONCILE_RETARGETS, 1);
                self.send_reconcile_request(ctx, ask);
            }
            ACK_TAG_BASE => self.sweep_acks(ctx),
            _ => {}
        }
    }

    fn on_recover(&mut self, ctx: &mut Context<'_, NewsWireMsg>) {
        // The legacy `Freeze` recovery: protocol state is wiped as if the
        // process restarted, but ambient memory survives — the subscription
        // attributes stay in the local MIB builder (standing in for the
        // user's configuration file), queues and the duty dedup window keep
        // their contents, and no incarnation is burned. Reconcile reads
        // the absent logs as empty, refills the cache and re-delivers what
        // the subscription matches. Cold restarts go through `on_restart`.
        self.reset_protocol_state();
        // A drain timer that went off while the node was down is lost, and
        // one still pending is no longer `drain_timer`: what the queues kept
        // gets a new one.
        if !self.queues.is_empty() {
            self.arm_drain(ctx);
        }
        self.recovering_since = Some(ctx.now());
        ctx.set_timer(self.agent.config().gossip_interval, GOSSIP_TIMER);
    }

    fn on_restart(&mut self, ctx: &mut Context<'_, NewsWireMsg>, mode: RestartMode) {
        if mode == RestartMode::Freeze {
            self.on_recover(ctx);
            return;
        }
        let now = ctx.now();
        // The process is dead: everything volatile goes, including what a
        // freeze keeps (forwarding queues, the duty dedup window, tick and
        // fingerprint state, adopted rotations, probation). Counters and
        // trace records live in the telemetry hub, not in the process, and
        // survive in every mode.
        self.reset_protocol_state();
        self.coverage = CoverageWindow::new(8192);
        self.queues = ForwardingQueues::new(FORWARD_STRATEGY);
        self.reconcile.rewind();
        self.gossip_ticks = 0;
        self.persisted_fingerprint = 0;
        self.trust.forget_rotations();
        self.probation.clear();
        self.rotation_adopted_at = None;
        // Retract the rotation records too; what the disk gives back is
        // re-advertised below.
        self.agent.remove_local_attrs(ROT_ATTR_PREFIX);

        // Incarnation: read-modify-write against stable storage, floored
        // by simulated time so even an amnesiac restart (blank disk) moves
        // strictly forward. Synced immediately — losing the bump would let
        // pre-crash gossip about this node outrank its new life.
        let stored = ctx.disk().read(DISK_KEY_INCAR).and_then(persist::decode_incarnation);
        let incarnation = match (mode, stored) {
            (RestartMode::ColdDurable, Some(s)) => s.saturating_add(1).max(now.as_micros()),
            _ => now.as_micros(),
        }
        .max(1);
        self.agent.set_incarnation(incarnation);
        ctx.disk().write(DISK_KEY_INCAR, persist::encode_incarnation(incarnation));
        ctx.disk().fsync();

        // Re-derive the subscription: from disk under a durable restart,
        // from the user's re-entered configuration (the retained field)
        // under amnesia or when the disk record is missing or torn.
        let from_disk = match mode {
            RestartMode::ColdDurable => {
                ctx.disk().read(DISK_KEY_SUB).and_then(persist::decode_subscription)
            }
            _ => None,
        };
        let sub = from_disk.unwrap_or_else(|| self.subscription.clone());
        self.set_subscription(sub);
        // The join endorsement is identity-bound, not process-bound: the
        // reborn process re-presents it or admission control refuses it.
        self.publish_join_ticket();
        ctx.disk().write(DISK_KEY_SUB, persist::encode_subscription(&self.subscription));

        // Durable restart: restore the last synced `state` snapshot. Writes
        // lost between the last fsync and the crash surface as honest log
        // gaps, which the recovery pulls (and PR-2 anti-entropy) backfill.
        let mut restored = 0u64;
        if mode == RestartMode::ColdDurable {
            if let Some(state) = ctx.disk().read(DISK_KEY_STATE).and_then(persist::decode_state) {
                restored = self.restore_state(state, now);
            }
        }
        // Re-advertise coverage from what actually came back.
        self.reconcile.publish_ae_digests(self.cfg.anti_entropy);
        ctx.disk().fsync();

        self.recovering_since = Some(now);
        obs::trace_event!(
            self.agent.id(),
            Layer::News,
            kind::NW_RECOVERY_START,
            mode.discriminant(),
            restored
        );
        // Same re-arm cadence as a freeze; the randomized first tick is an
        // on_start-only affordance, so the cold path stays deterministic
        // relative to the legacy one.
        ctx.set_timer(self.agent.config().gossip_interval, GOSSIP_TIMER);
    }

    fn apply_corruption(&mut self, op: &CorruptionOp, rng: &mut SmallRng) -> u64 {
        self.corrupt(op, rng)
    }

    fn tamper_outbound(
        &mut self,
        to: NodeId,
        msg: &mut NewsWireMsg,
        mode: LiarMode,
        _rng: &mut SmallRng,
    ) -> LiarAction {
        adversary::tamper_outbound(&self.agent, to, msg, mode)
    }
}

/// The node id a leaf-table row names in its `id` attribute.
fn row_id(row: &Mib) -> Option<u32> {
    row.get("id").and_then(|v| v.as_i64()).and_then(|v| u32::try_from(v).ok())
}

/// True when, with defenses on, `peer`'s score in `misbehavior` has crossed
/// the quarantine threshold.
fn in_quarantine(misbehavior: &BTreeMap<u32, u32>, defenses: bool, peer: u32) -> bool {
    defenses && misbehavior.get(&peer).is_some_and(|&s| s >= QUARANTINE_THRESHOLD)
}

/// Drops the entries `suspect` names from a candidate list — unless that
/// would empty it (a suspect peer beats no peer at all).
fn prefer_unsuspected(candidates: &mut Vec<u32>, suspect: &dyn Fn(u32) -> bool) {
    if candidates.iter().any(|&c| !suspect(c)) {
        candidates.retain(|&c| !suspect(c));
    }
}

/// How many stub positions one filter group spans under `model`: a Bloom
/// key's hash count, or one category bit.
fn stub_group(model: SubscriptionModel) -> usize {
    match model {
        SubscriptionModel::Bloom { hashes, .. } => hashes.max(1) as usize,
        SubscriptionModel::CategoryMask => 1,
    }
}

/// The representatives of `agent`'s own zone whose row sits in its level
/// `level` table: its leaf zone's at level 1. `None` past the root, or
/// before the row is known.
fn zone_reps_at(agent: &Agent, level: usize) -> Option<&BTreeSet<u64>> {
    if level == 0 || level >= agent.levels() {
        return None;
    }
    match agent.table(level).get(agent.own_label(level))?.get("reps") {
        Some(AttrValue::Set(reps)) => Some(reps),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::acks::SUSPECT_TIMEOUTS;
    use super::*;
    use crate::auth::verify_bare_item;
    use crate::config::SubscriptionModel;
    use crate::subscription::Subscription;
    use crate::wire::LogDigests;
    use astrolabe::{Config, Mib, MibBuilder, Stamp, TrustRegistry, ZoneLayout};
    use newsml::{Category, PublisherId};
    use std::cell::RefCell;
    use std::rc::Rc;
    use std::sync::Arc;

    /// A telemetry hub installed for a test that drives a node's handlers
    /// outside a `Simulation`, so the counters they bump can be read. The
    /// collector drops counts for node ids the hub does not know.
    pub(super) struct Counts {
        hub: Rc<RefCell<obs::TelemetryHub>>,
        _guard: obs::collector::HubGuard,
    }

    impl Counts {
        /// Installs a fresh hub that knows node ids up to `node`'s.
        pub(super) fn install(node: &NewsWireNode) -> Self {
            let hub = Rc::new(RefCell::new(obs::TelemetryHub::new(0)));
            hub.borrow_mut().ensure_nodes(node.agent.id() as usize + 1);
            Counts { _guard: obs::collector::install(Rc::clone(&hub)), hub }
        }

        /// `node`'s count in slot `id`.
        pub(super) fn of(&self, node: &NewsWireNode, id: obs::CtrId) -> u64 {
            self.hub.borrow().node_counter(node.agent.id() as usize, id)
        }
    }

    fn node_with(cfg: NewsWireConfig) -> NewsWireNode {
        let layout = ZoneLayout::new(4, 4);
        let agent = Agent::new(0, &layout, Config::standard(), vec![]);
        NewsWireNode::new(agent, cfg, Arc::new(TrustRegistry::new(1)))
    }

    pub(super) fn tech_sub() -> Subscription {
        let mut s = Subscription::new();
        s.subscribe_category(PublisherId(0), Category::Technology);
        s
    }

    pub(super) fn tech_item(seq: u64) -> NewsItem {
        NewsItem::builder(PublisherId(0), seq)
            .headline(format!("t{seq}")) // distinct slugs: avoid revision fusion
            .category(Category::Technology)
            .build()
    }

    #[test]
    fn filter_for_follows_model() {
        let mut bloom = node_with(NewsWireConfig::tech_news());
        bloom.set_subscription(tech_sub());
        match bloom.filter_for(&tech_item(0)) {
            FilterSpec::BloomAny { attr, groups } => {
                assert_eq!(attr, "subs");
                assert!(!groups.is_empty());
            }
            other => panic!("expected BloomAny, got {other:?}"),
        }
        let mut masks = node_with(NewsWireConfig::prototype_masks());
        masks.set_subscription(tech_sub());
        match masks.filter_for(&tech_item(0)) {
            FilterSpec::MaskBits { attr, mask } => {
                assert_eq!(attr, "cats$0");
                assert_eq!(mask, 1 << Category::Technology.bit());
            }
            other => panic!("expected MaskBits, got {other:?}"),
        }
    }

    /// Under both summary models, a stub tested against a node's interest
    /// is admitted exactly where the item's per-hop filter admits the
    /// node's summary row — the leaf hop's own test — and the gone stub
    /// nowhere.
    #[test]
    fn a_stub_is_admitted_exactly_where_its_filter_is() {
        let item = |seq: u64, cats: &[Category], subject: &str| {
            let mut b = NewsItem::builder(PublisherId(0), seq).headline(format!("h{seq}"));
            for &c in cats {
                b = b.category(c);
            }
            b.subject(subject.parse().unwrap()).build()
        };
        let items = [
            item(0, &[Category::Technology], "04.003"),
            item(1, &[Category::Science], "07"),
            item(2, &[Category::Sports, Category::Science], "15.001.002"),
            item(3, &[Category::Law], "04.003.009"),
        ];
        let mut science = Subscription::new();
        science.subscribe_category(PublisherId(0), Category::Science);
        let mut subject = Subscription::new();
        subject.subscribe_subject("04.003".parse().unwrap());
        let (mut admitted, mut rejected) = (0, 0);
        for cfg in [NewsWireConfig::tech_news(), NewsWireConfig::prototype_masks()] {
            for sub in [tech_sub(), science.clone(), subject.clone(), Subscription::new()] {
                let mut n = node_with(cfg.clone());
                n.set_subscription(sub);
                let mut row = MibBuilder::new();
                for (attr, value) in n.derived_sub_attrs() {
                    row = row.attr(attr, value);
                }
                let row = row.build(Stamp::default());
                let interest = n.subscription.interest(n.cfg.model, PublisherId(0));
                for item in &items {
                    let by_stub = n.reconcile.admits(&interest, &n.stub_of(item));
                    assert_eq!(
                        by_stub,
                        n.filter_for(item).admits(&row),
                        "{:?}: {}",
                        n.cfg.model,
                        item.id
                    );
                    if by_stub {
                        admitted += 1;
                    } else {
                        rejected += 1;
                    }
                }
                assert!(
                    !n.reconcile.admits(&interest, &Stub::default()),
                    "a gone article is admitted nowhere"
                );
            }
        }
        assert!(admitted > 0 && rejected > 0, "{admitted} admitted, {rejected} rejected");
    }

    #[test]
    fn set_subscription_publishes_summary_attrs() {
        let mut n = node_with(NewsWireConfig::tech_news());
        n.set_subscription(tech_sub());
        assert!(matches!(n.agent.local_attr("subs"), Some(astrolabe::AttrValue::Bits(_))));
        let mut m = node_with(NewsWireConfig::prototype_masks());
        m.set_subscription(tech_sub());
        assert!(matches!(m.agent.local_attr("cats$0"), Some(astrolabe::AttrValue::Int(_))));
    }

    #[test]
    fn dissemination_predicate_checks_local_attrs() {
        let mut n = node_with(NewsWireConfig::tech_news());
        n.set_subscription(tech_sub());
        let mut item = tech_item(0);
        item.meta.push((DISSEMINATION_PREDICATE.to_owned(), "premium > 0".to_owned()));
        assert!(!n.dissemination_admits(&item), "no premium attr: fail closed");
        n.agent.set_local_attr("premium", 1i64);
        assert!(n.dissemination_admits(&item));
        // Malformed predicate fails closed too.
        let mut bad = tech_item(1);
        bad.meta.push((DISSEMINATION_PREDICATE.to_owned(), "((".to_owned()));
        assert!(!n.dissemination_admits(&bad));
        // No predicate: admitted.
        assert!(n.dissemination_admits(&tech_item(2)));
    }

    #[test]
    fn dissemination_scope_confines_every_delivery_path() {
        // 16 agents, branching 4: agent 0's leaf zone is /0.
        let layout = ZoneLayout::new(16, 4);
        let agent = Agent::new(0, &layout, Config::standard(), vec![]);
        let mut n =
            NewsWireNode::new(agent, NewsWireConfig::tech_news(), Arc::new(TrustRegistry::new(1)));
        n.set_subscription(tech_sub());
        let counts = Counts::install(&n);
        let mut in_zone = tech_item(0);
        in_zone.meta.push((DISSEMINATION_SCOPE.to_owned(), "/0".to_owned()));
        assert!(n.dissemination_admits(&in_zone));
        let mut out_of_zone = tech_item(1);
        out_of_zone.meta.push((DISSEMINATION_SCOPE.to_owned(), "/1".to_owned()));
        assert!(!n.dissemination_admits(&out_of_zone));
        // A garbage scope fails closed, like a malformed predicate.
        let mut bad = tech_item(2);
        bad.meta.push((DISSEMINATION_SCOPE.to_owned(), "asia".to_owned()));
        assert!(!n.dissemination_admits(&bad));
        // handle_delivery with via_repair=true models the reconcile/repair
        // paths, which ship bare items: the scope must still confine them.
        let now = SimTime::from_secs(1);
        n.handle_delivery(now, Admitted::unverified(out_of_zone.clone()), true);
        assert!(!n.has_item(out_of_zone.id), "repair must not leak scoped items");
        assert_eq!(counts.of(&n, ctr::NW_PREDICATE_FILTERED), 1);
        // …but the seq was still *seen*, so reconcile won't re-request it.
        assert!(n.article_log(PublisherId(0)).is_some_and(|l| l.contains(1)));
        n.handle_delivery(now, Admitted::unverified(in_zone.clone()), true);
        assert!(n.has_item(in_zone.id), "in-zone repair still delivers");
    }

    #[test]
    fn replies_delta_encode_against_declared_baselines() {
        let mut cfg = NewsWireConfig::tech_news();
        cfg.deltas = true;
        let mut n = node_with(cfg);
        let now = SimTime::from_secs(1);
        let rev3 = Arc::new(
            NewsItem::builder(PublisherId(0), 5)
                .slug("merger")
                .revision(3, None)
                .body_len(6000)
                .build(),
        );
        n.cache_insert(Admitted::unverified(rev3.clone()), now);
        let reply = |n: &NewsWireNode, baselines: &[BaselineHint]| {
            let (item, (key, signature)) = n.cache.get_signed(rev3.id).expect("cached");
            let mut items = [SignedItem { item: Arc::clone(item), key, signature, basis: None }];
            n.price_reply(&mut items, baselines);
            let [signed] = items;
            signed
        };

        // A requester declaring revision 2 gets a delta-annotated reply…
        let hint = BaselineHint {
            key: newsml::cdc::slug_key(PublisherId(0), "merger"),
            revision: 2,
            body_len: 6000,
        };
        let signed = reply(&n, &[hint]);
        assert_eq!(signed.basis, Some(DeltaBasis { revision: 2, body_len: 6000 }));
        assert!(signed.compressed_wire_size() < signed.wire_size() / 2);

        // …a copy that races a requester already on revision 3 prices as
        // pure chunk references.
        let even = BaselineHint { revision: 3, ..hint };
        let dup = reply(&n, &[even]);
        assert_eq!(dup.basis, Some(DeltaBasis { revision: 3, body_len: 6000 }));
        assert!(dup.compressed_wire_size() < signed.compressed_wire_size());
        // …and a requester that declared nothing gets the full body.
        assert_eq!(reply(&n, &[]).basis, None);

        // The node's own requests declare its cache as baselines, sorted;
        // with deltas off they stay empty so the wire is byte-identical.
        let hints = n.request_baselines(PublisherId(0));
        assert_eq!(hints.len(), 1);
        assert_eq!(hints[0].revision, 3);
        n.cfg.deltas = false;
        assert!(n.request_baselines(PublisherId(0)).is_empty());
        assert_eq!(reply(&n, &[hint]).basis, None, "deltas off: never annotate");
    }

    #[test]
    fn handle_delivery_classifies_outcomes() {
        let mut n = node_with(NewsWireConfig::tech_news());
        n.set_subscription(tech_sub());
        let counts = Counts::install(&n);
        let now = SimTime::from_secs(1);
        // Matching item: delivered + cached.
        n.handle_delivery(now, Admitted::unverified(tech_item(0)), false);
        assert_eq!(counts.of(&n, ctr::NW_DELIVERED), 1);
        assert_eq!(n.deliveries.len(), 1);
        // Same item again: duplicate.
        n.handle_delivery(now, Admitted::unverified(tech_item(0)), false);
        assert_eq!(counts.of(&n, ctr::NW_DUPLICATES), 1);
        // Structurally uninteresting item: Bloom false positive.
        let sports =
            NewsItem::builder(PublisherId(0), 5).headline("s").category(Category::Sports).build();
        n.handle_delivery(now, Admitted::unverified(sports), false);
        assert_eq!(counts.of(&n, ctr::NW_BLOOM_FP), 1);
        assert_eq!(counts.of(&n, ctr::NW_DELIVERED), 1, "not delivered to the app");
        // Matching but predicate-rejected: filtered, still cached.
        n.subscription.set_predicate("urgency = 1").unwrap();
        n.handle_delivery(now, Admitted::unverified(tech_item(7)), false);
        assert_eq!(counts.of(&n, ctr::NW_PREDICATE_FILTERED), 1);
        assert!(n.cache.contains(newsml::ItemId::new(PublisherId(0), 7)));
    }

    #[test]
    fn repair_delivery_is_flagged() {
        let mut n = node_with(NewsWireConfig::tech_news());
        n.set_subscription(tech_sub());
        n.handle_delivery(SimTime::from_secs(2), Admitted::unverified(tech_item(3)), true);
        assert!(n.deliveries.iter().next().is_some_and(|d| d.via_repair));
    }

    #[test]
    fn publisher_accessor_and_model_attrs() {
        let n = node_with(NewsWireConfig::tech_news());
        assert!(n.publisher().is_none());
        assert_eq!(SubscriptionModel::CategoryMask.attr_for(PublisherId(3)), "cats$3");
    }

    #[test]
    fn article_log_tracks_every_arrival() {
        let mut n = node_with(NewsWireConfig::tech_news());
        n.set_subscription(tech_sub());
        let now = SimTime::from_secs(1);
        for seq in [0, 1, 4] {
            n.handle_delivery(now, Admitted::unverified(tech_item(seq)), false);
        }
        // A duplicate is still a single log entry…
        n.handle_delivery(now, Admitted::unverified(tech_item(1)), false);
        // …and an uninteresting (Bloom FP) arrival is seen too.
        let sports =
            NewsItem::builder(PublisherId(0), 5).headline("s").category(Category::Sports).build();
        n.handle_delivery(now, Admitted::unverified(sports), false);
        let log = n.article_log(PublisherId(0)).expect("log exists");
        assert_eq!(log.len(), 4, "seqs 0, 1, 4, 5 — the duplicate logs once");
        assert_eq!(log.gaps(), vec![(2, 3)], "the unseen seqs are the holes");
        assert_eq!(n.logged_publishers().collect::<Vec<_>>(), vec![PublisherId(0)]);
        assert!(n.article_log(PublisherId(9)).is_none());
    }

    /// One publisher-0 rider claiming the contiguous log `0..next` under
    /// `epoch`.
    pub(super) fn rider_of(epoch: u32, next: u64) -> LogDigests {
        Arc::from([(PublisherId(0), RangeSummary { epoch, floor: 0, next, present: next })])
    }

    /// A peer is suspect once two hand-offs to it in a row went
    /// unacknowledged, not after one; a Karn-timed ack clears it, and
    /// quarantine shows through. A peer never handed anything is not
    /// suspect, and a suspect peer is kept when it is the only candidate.
    #[test]
    fn two_unacknowledged_hand_offs_make_a_peer_suspect_until_it_answers() {
        let mut n = node_with(NewsWireConfig::tech_news());
        assert!(!n.peer_suspect(9), "a peer never handed anything is not suspect");
        n.acks.note_timeout(8);
        assert!(!n.peer_suspect(8), "one lost hand-off is a lost message");
        n.acks.note_timeout(8);
        assert!(n.peer_suspect(8), "two in a row is a peer that stopped answering");
        // Candidate filtering drops the suspect while alternatives exist…
        let mut candidates = vec![7, 8];
        prefer_unsuspected(&mut candidates, &|p| n.peer_suspect(p));
        assert_eq!(candidates, vec![7]);
        // …but keeps it when it is the only option.
        let mut only = vec![8];
        prefer_unsuspected(&mut only, &|p| n.peer_suspect(p));
        assert_eq!(only, vec![8]);
        // A round trip timed under Karn's rule ends the back-off.
        n.acks.note_rtt(8, SimDuration::from_millis(60));
        assert!(!n.peer_suspect(8), "an answered hand-off clears the suspicion");
        n.acks.note_timeout(8);
        assert!(!n.peer_suspect(8), "and the count starts over");
        // Quarantine shows through with no back-off at all.
        n.note_misbehavior(NodeId(7), QUARANTINE_THRESHOLD);
        assert!(n.peer_suspect(7));
    }

    #[test]
    fn incarnation_bump_makes_recovered_peer_a_failover_target_again() {
        use astrolabe::{GossipMsg, MibBuilder, Stamp, TableRows};
        use rand::SeedableRng;
        let mut n = node_with(NewsWireConfig::tech_news());
        n.set_subscription(tech_sub());
        // Hand-offs to peer 2 (a leaf-zone neighbour) go unacknowledged
        // until the ack table has backed it off.
        for _ in 0..SUSPECT_TIMEOUTS {
            n.acks.note_timeout(2);
        }
        assert!(n.peer_suspect(2), "unanswered hand-offs made the peer suspect");
        let mut candidates = vec![1, 2];
        prefer_unsuspected(&mut candidates, &|p| n.peer_suspect(p));
        assert_eq!(candidates, vec![1], "suspect peer dropped from failover candidates");
        // The peer cold-restarts; the very next gossip round carries its
        // row under a new incarnation. The suspicion belonged to its
        // previous life and must clear within that same round.
        let now = SimTime::from_secs(60);
        let row = MibBuilder::new().attr("id", 2i64).attr("incar", 5i64).build(Stamp {
            issued_us: now.as_micros(),
            version: 1,
            origin: 2,
        });
        let msg = GossipMsg::Rows {
            rows: vec![TableRows {
                zone: n.agent.zone(0).clone(),
                rows: vec![(2, row.stamp, Arc::new(row))],
            }],
        };
        let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
        n.merge_gossip(now, 2, msg, &mut rng);
        assert!(!n.peer_suspect(2), "new incarnation cleared the stale suspicion");
        assert!(n.acks.backed_off().is_empty(), "and its back-off");
        let mut candidates = vec![1, 2];
        prefer_unsuspected(&mut candidates, &|p| n.peer_suspect(p));
        assert_eq!(candidates, vec![1, 2], "recovered peer selectable as failover target");
    }

    /// A snapshot from the layout that kept one `DeliveryRecord` struct per
    /// delivery, taken after these same four deliveries (one by repair):
    /// the node writes it byte for byte, and it decodes and re-encodes
    /// unchanged.
    #[test]
    fn a_snapshot_keeps_the_bytes_the_record_per_delivery_layout_wrote() {
        let written = concat!(
            "8:nwstate21:11:07:0:0:5:47:0-1,3-41:41:01:01:01:-2:t02:t01:21:01:51:01:0",
            "1:01:01:01:01:11:01:-2:t12:t11:21:01:51:01:01:01:01:01:01:31:01:-2:t32:t",
            "31:21:01:51:01:01:01:01:01:01:41:01:-2:t42:t41:21:01:51:01:01:01:01:01:4",
            "1:01:019:76254471673761586051:07:10000001:01:01:119:53931317604085691961",
            ":07:10012341:01:01:420:171429296132153525851:07:10049361:11:01:319:98577",
            "625743437480141:07:10037021:0",
        );
        let mut n = node_with(NewsWireConfig::tech_news());
        n.set_subscription(tech_sub());
        for (seq, repair) in [(0, false), (1, false), (4, true), (3, false)] {
            let now = SimTime::from_micros(1_000_000 + 1_234 * seq);
            n.handle_delivery(now, Admitted::unverified(tech_item(seq)), repair);
        }
        let bytes = crate::persist::encode_state(&n.durable_state());
        assert_eq!(std::str::from_utf8(&bytes), Ok(written));
        let decoded = crate::persist::decode_state(written.as_bytes()).expect("decodes");
        assert_eq!(crate::persist::encode_state(&decoded), written.as_bytes());
    }

    #[test]
    fn durable_state_snapshot_roundtrips_through_the_codec() {
        let mut n = node_with(NewsWireConfig::tech_news());
        n.set_subscription(tech_sub());
        let now = SimTime::from_secs(1);
        for seq in [0, 1, 4] {
            n.handle_delivery(now, Admitted::unverified(tech_item(seq)), false);
        }
        let fp = n.state_fingerprint();
        let state = n.durable_state();
        assert_eq!(state.items.len(), 3);
        assert_eq!(state.deliveries.len(), 3);
        assert_eq!(state.logs.len(), 1);
        assert_eq!(state.logs[0].present, vec![(0, 1), (4, 4)]);
        let decoded = crate::persist::decode_state(&crate::persist::encode_state(&state)).unwrap();
        assert_eq!(decoded, state);
        // The fingerprint is stable while nothing changes and moves when
        // the durable state does.
        assert_eq!(n.state_fingerprint(), fp);
        n.handle_delivery(now, Admitted::unverified(tech_item(5)), false);
        assert_ne!(n.state_fingerprint(), fp);
    }

    /// A disk snapshot whose coverage token lost one bit (`0:0:1:1` →
    /// `0:1:1:1`, a floor equal to its highwater) restores, and the
    /// restored node persists again: its durable state asks the log for
    /// the empty range `1..=0`.
    #[test]
    fn a_restored_floor_at_the_highwater_persists_again() {
        let mut n = node_with(NewsWireConfig::tech_news());
        n.set_subscription(tech_sub());
        let now = SimTime::from_secs(1);
        n.handle_delivery(now, Admitted::unverified(tech_item(0)), false);
        let mut blob = persist::encode_state(&n.durable_state());
        let at = blob.windows(9).position(|w| w == b"7:0:0:1:1").expect("coverage token");
        blob[at + 4] ^= 1;
        let state = persist::decode_state(&blob).expect("length-preserving flip still decodes");
        assert_eq!(state.logs[0].coverage, "0:1:1:1");
        n.reset_protocol_state();
        n.restore_state(state, now);
        let log = n.article_log(PublisherId(0)).expect("the log came back");
        assert_eq!((log.floor(), log.next_seq(), log.len()), (1, 1, 0));
        let again = n.durable_state();
        assert_eq!(again.logs[0].present, vec![]);
        assert!(persist::decode_state(&persist::encode_state(&again)).is_some());
    }

    /// A malformed gossip batch — out-of-range label, future-dated stamp,
    /// leaf row with no `id` — must neither panic nor silently merge when
    /// defenses are on (the config default), and the same batch is what a
    /// defenses-off node happily admits (the E17 ablation in miniature).
    #[test]
    fn defenses_reject_malformed_gossip_rows_at_ingest() {
        use astrolabe::{GossipMsg, MibBuilder, Stamp, TableRows};
        use rand::SeedableRng;
        let stamp = |t: u64, o: u32| Stamp { issued_us: t, version: 1, origin: o };
        let row = |label: u16, b: MibBuilder, s: Stamp| (label, s, Arc::new(b.build(s)));
        let malformed = |zone: astrolabe::ZoneId| GossipMsg::Rows {
            rows: vec![TableRows {
                zone,
                rows: vec![
                    row(200, MibBuilder::new().attr("id", 2i64), stamp(1_000_000, 2)),
                    row(2, MibBuilder::new().attr("id", 2i64), stamp(999_000_000, 2)),
                    row(3, MibBuilder::new().attr("load", 0.5f64), stamp(1_000_000, 3)),
                ],
            }],
        };
        let now = SimTime::from_secs(1);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(3);

        let mut n = node_with(NewsWireConfig::tech_news());
        assert!(n.cfg.defenses, "defenses are the default");
        let held = n.agent.table(0).len();
        n.agent.on_message(now, 2, malformed(n.agent.zone(0).clone()), &mut rng);
        assert_eq!(n.agent.table(0).len(), held, "malformed rows must not merge");

        let mut cfg = NewsWireConfig::tech_news();
        cfg.defenses = false;
        let mut open = node_with(cfg);
        open.agent.on_message(now, 2, malformed(open.agent.zone(0).clone()), &mut rng);
        assert!(open.agent.table(0).len() > held, "defenses off admits the poison");
    }

    /// The self-audit's epoch fence: an article log poisoned with a
    /// fabricated newer epoch (plus phantom coverage) is rebuilt at the
    /// epoch this node's leaf neighbours agree on, re-seeded from the
    /// item cache — and a healthy log is left untouched.
    #[test]
    fn self_audit_rebuilds_log_poisoned_beyond_consensus_epoch() {
        use astrolabe::{GossipMsg, MibBuilder, Stamp, TableRows};
        use rand::SeedableRng;
        use simnet::CorruptionOp;
        let mut n = node_with(NewsWireConfig::tech_news());
        n.set_subscription(tech_sub());
        let now = SimTime::from_secs(5);
        for seq in 0..3u64 {
            n.handle_delivery(now, Admitted::unverified(tech_item(seq)), false);
        }
        // Two leaf neighbours advertise epoch-0 digests: the consensus.
        let rows: Vec<(u16, Stamp, Arc<Mib>)> = [2u16, 3]
            .iter()
            .map(|&l| {
                let row = MibBuilder::new().attr("id", i64::from(l)).build(Stamp {
                    issued_us: now.as_micros(),
                    version: 1,
                    origin: u32::from(l),
                });
                (l, row.stamp, Arc::new(row))
            })
            .collect();
        let mut rng = rand::rngs::SmallRng::seed_from_u64(11);
        let msg = GossipMsg::Rows { rows: vec![TableRows { zone: n.agent.zone(0).clone(), rows }] };
        n.agent.on_message(now, 2, msg, &mut rng);
        for mate in [2, 3] {
            let rider = Arc::from([(PublisherId(0), RangeSummary::default())]);
            n.reconcile.take_digest_rider(&n.agent, mate, Some(rider));
        }

        // A healthy audit is a no-op: same epoch, same coverage.
        n.self_audit(now);
        assert_eq!(n.article_log(PublisherId(0)).unwrap().epoch(), 0);
        assert!(n.article_log(PublisherId(0)).unwrap().contains(2));

        // The adversary fabricates a newer epoch plus phantom coverage…
        let hit = simnet::Node::apply_corruption(
            &mut n,
            &CorruptionOp::LogEpoch { entries: 4 },
            &mut rng,
        );
        assert!(hit > 0, "corruption must land");
        assert_eq!(n.article_log(PublisherId(0)).unwrap().epoch(), 1);

        // …and the audit fences it back to the neighbours' consensus,
        // rebuilt from the cache: the three delivered items are present,
        // the phantom fourth is gone.
        n.self_audit(now);
        let log = n.article_log(PublisherId(0)).unwrap();
        assert_eq!(log.epoch(), 0, "fenced back to the consensus epoch");
        for seq in 0..3u64 {
            assert!(log.contains(seq), "cached item {seq} re-seeded");
        }
        assert!(!log.contains(3), "phantom coverage dropped by the rebuild");
    }

    /// A node whose trust registry issued publisher 0's credential, with the
    /// certificate and epoch-0 attestation pre-installed the way
    /// `DeploymentBuilder::build` does it.
    pub(super) fn node_with_authority(
        cfg: NewsWireConfig,
    ) -> (NewsWireNode, crate::auth::PublisherCredential) {
        let mut registry = TrustRegistry::new(1);
        let cred = crate::auth::issue_publisher(
            &mut registry,
            PublisherId(0),
            "slashdot",
            &astrolabe::ZoneId::root(),
            6000,
        );
        let layout = ZoneLayout::new(4, 4);
        let agent = Agent::new(0, &layout, Config::standard(), vec![]);
        let mut n = NewsWireNode::new(agent, cfg, Arc::new(registry));
        n.install_publisher_authority(cred.certificate.clone(), cred.attest_epoch(0));
        (n, cred)
    }

    /// Aliasing safety: caches share one allocation per article, so a
    /// strike on one node — state corruption, forgery under the very same
    /// `ItemId`, a tampered disk restore — must build its own articles and
    /// never show through another node's handle.
    #[test]
    fn striking_one_cache_leaves_every_other_handle_intact() {
        use rand::SeedableRng;
        let mut registry = TrustRegistry::new(1);
        let root = astrolabe::ZoneId::root();
        let cred =
            crate::auth::issue_publisher(&mut registry, PublisherId(0), "slashdot", &root, 6000);
        let registry = Arc::new(registry);
        let layout = ZoneLayout::new(4, 4);
        let node = |id: u32| {
            let agent = Agent::new(id, &layout, Config::standard(), vec![]);
            let mut n = NewsWireNode::new(agent, NewsWireConfig::tech_news(), registry.clone());
            n.install_publisher_authority(cred.certificate.clone(), cred.attest_epoch(0));
            n
        };
        let (mut a, mut b) = (node(0), node(1));
        let now = SimTime::from_secs(1);
        let published: Vec<Arc<NewsItem>> = (0..2).map(|seq| Arc::new(tech_item(seq))).collect();
        let sigs: Vec<Signature> = published.iter().map(|i| cred.sign(i)).collect();
        let pristine: Vec<NewsItem> = published.iter().map(|i| (**i).clone()).collect();
        // B holds both articles; A only the first, so its log head is seq 1.
        let signed = |n: usize| {
            let (item, key) = (Arc::clone(&published[n]), cred.key_id());
            SignedItem { item, key, signature: sigs[n], basis: None }
        };
        b.absorb_recovered(now, NodeId(9), vec![signed(0), signed(1)]);
        a.absorb_recovered(now, NodeId(9), vec![signed(0)]);
        assert!(Arc::ptr_eq(a.cache.get(published[0].id).unwrap(), &published[0]));

        // Every state-corruption strike, the forgery landing on the very
        // `ItemId` (publisher 0, seq 1) B holds the genuine article for.
        let mut rng = SmallRng::seed_from_u64(3);
        for op in [
            CorruptionOp::ZoneRows { rows: 4 },
            CorruptionOp::ForgeItems { items: 1, publisher: 0 },
            CorruptionOp::StolenKey { publisher: 0, items: 2, attest_bump: 1 },
            CorruptionOp::VoteEpoch { publisher: 0, epoch: 7 },
            CorruptionOp::LogEpoch { entries: 4 },
            CorruptionOp::SybilFlood { identities: 2, epoch: 9 },
        ] {
            a.apply_corruption(&op, &mut rng);
        }
        let forged = a.cache.get(published[1].id).expect("forged under the shared id");
        assert!(!Arc::ptr_eq(forged, &published[1]), "a fabrication is a new article");
        assert_ne!(**forged, pristine[1]);

        // A's disk snapshot with a bit flipped inside the first article's
        // headline ("t0" → "u0"), restored after a cold wipe: the decode
        // allocates anew, and the tampered copy is refused.
        let mut blob = persist::encode_state(&a.durable_state());
        let at = blob.windows(4).position(|w| w == b"2:t0").expect("headline token");
        blob[at + 2] ^= 1;
        let state = persist::decode_state(&blob).expect("length-preserving tamper still decodes");
        assert!(state.items.iter().all(|(i, ..)| !published.iter().any(|p| Arc::ptr_eq(i, p))));
        a.cache = MessageCache::new(a.cfg.cache);
        let counts = Counts::install(&a);
        a.restore_items(state.items, now);
        assert!(counts.of(&a, ctr::NW_FORGED_REJECTS) > 0, "the tampered article does not restore");

        for ((item, &sig), pristine) in published.iter().zip(&sigs).zip(&pristine) {
            let held = b.cache.get(item.id).expect("B still caches it");
            assert!(Arc::ptr_eq(held, item), "B's handle is still the published allocation");
            assert_eq!(**held, *pristine, "…with the published content");
            let verifies =
                verify_bare_item(&b.registry, &cred.certificate, held, cred.key_id(), sig);
            assert!(verifies, "…that still verifies");
        }
    }

    /// A node plus a pre-issued rotation for publisher 0: the original
    /// credential, the signed revocation record, and the successor
    /// credential — the unit-scale mirror of `DeploymentBuilder::build`.
    pub(super) fn node_with_rotation(
        cfg: NewsWireConfig,
    ) -> (
        NewsWireNode,
        crate::auth::PublisherCredential,
        RotationRecord,
        crate::auth::PublisherCredential,
    ) {
        let mut registry = TrustRegistry::new(1);
        let cred = crate::auth::issue_publisher(
            &mut registry,
            PublisherId(0),
            "slashdot",
            &astrolabe::ZoneId::root(),
            6000,
        );
        let claims = vec![
            ("publisher".to_owned(), "0".to_owned()),
            ("scope".to_owned(), astrolabe::ZoneId::root().to_string()),
            ("rate".to_owned(), "6000".to_owned()),
        ];
        let (record, key) = registry.issue_rotation(
            cred.certificate.subject.clone(),
            cred.certificate.key,
            0,
            1,
            claims,
        );
        let successor = crate::auth::PublisherCredential::from_parts(record.successor.clone(), key);
        let layout = ZoneLayout::new(4, 4);
        let agent = Agent::new(0, &layout, Config::standard(), vec![]);
        let mut n = NewsWireNode::new(agent, cfg, Arc::new(registry));
        n.install_publisher_authority(cred.certificate.clone(), cred.attest_epoch(0));
        (n, cred, record, successor)
    }

    /// The §15 quarantine loophole, closed: with admission control on, an
    /// incarnation bump clears a back-off but launders the misbehavior
    /// score only when the restarted identity still holds a valid
    /// registry-endorsed join ticket. A quarantined peer restarting
    /// without one stays quarantined.
    #[test]
    fn unendorsed_restart_cannot_launder_quarantine() {
        use astrolabe::{GossipMsg, MibBuilder, Stamp, TableRows};
        use rand::SeedableRng;
        let mut cfg = NewsWireConfig::tech_news();
        cfg.admission = true;
        let (mut n, _cred, _rec, _succ) = node_with_rotation(cfg);
        n.set_subscription(tech_sub());
        let now = SimTime::from_secs(60);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(5);

        n.note_misbehavior(NodeId(2), MISBEHAVIOR_FORGED);
        n.note_misbehavior(NodeId(2), MISBEHAVIOR_FENCE);
        assert!(n.quarantined(2));

        // Restart under a fresh incarnation, no join ticket in the row.
        let bare = MibBuilder::new().attr("id", 2i64).attr("incar", 5i64).build(Stamp {
            issued_us: now.as_micros(),
            version: 1,
            origin: 2,
        });
        let leaf = n.agent.zone(0).clone();
        let msg = GossipMsg::Rows {
            rows: vec![TableRows {
                zone: leaf.clone(),
                rows: vec![(2, bare.stamp, Arc::new(bare))],
            }],
        };
        n.agent.on_message(now, 2, msg, &mut rng);
        n.absorb_incarnation_bumps();
        assert!(n.quarantined(2), "an unendorsed restart keeps its quarantine");

        // The same restart carrying a valid ticket earns the clean slate.
        let ticket = n.registry.endorse_join(2);
        let endorsed = MibBuilder::new()
            .attr("id", 2i64)
            .attr("incar", 6i64)
            .attr(JOIN_TICKET_ATTR, format!("{:016x}", ticket.0))
            .build(Stamp { issued_us: now.as_micros() + 1, version: 2, origin: 2 });
        let msg = GossipMsg::Rows {
            rows: vec![TableRows {
                zone: leaf,
                rows: vec![(2, endorsed.stamp, Arc::new(endorsed))],
            }],
        };
        n.agent.on_message(now, 2, msg, &mut rng);
        n.absorb_incarnation_bumps();
        assert!(!n.quarantined(2), "an endorsed restart clears the previous life's score");
    }

    /// Sybil admission control: leaf-zone rows without a valid
    /// registry-endorsed join ticket are stripped from incoming gossip and
    /// their ids held in the bounded probation set; endorsed rows pass
    /// until the per-zone quota fills.
    #[test]
    fn sybil_rows_refused_and_held_in_probation() {
        use astrolabe::{GossipMsg, MibBuilder, Stamp, TableRows};
        let mut cfg = NewsWireConfig::tech_news();
        cfg.admission = true;
        let (mut n, _cred, _rec, _succ) = node_with_rotation(cfg);
        let counts = Counts::install(&n);
        let now = SimTime::from_secs(1);
        let leaf = n.agent.zone(0).clone();
        let row = |id: u32, label: u16, ticket: Option<String>| {
            let mut b = MibBuilder::new().attr("id", i64::from(id));
            if let Some(t) = ticket {
                b = b.attr(JOIN_TICKET_ATTR, t);
            }
            let stamp = Stamp { issued_us: now.as_micros(), version: 1, origin: id };
            (label, stamp, Arc::new(b.build(stamp)))
        };
        let good = n.registry.endorse_join(31);
        let mut g = GossipMsg::Rows {
            rows: vec![TableRows {
                zone: leaf.clone(),
                rows: vec![
                    row(30, 1, None),
                    row(31, 2, Some(format!("{:016x}", good.0))),
                    row(32, 3, Some("junk".to_owned())),
                ],
            }],
        };
        n.filter_sybil_rows(&mut g);
        let GossipMsg::Rows { rows } = &g else { unreachable!() };
        let kept: Vec<u32> = rows[0]
            .rows
            .iter()
            .filter_map(|(_, _, r)| r.get("id").and_then(|v| v.as_i64()))
            .map(|v| v as u32)
            .collect();
        assert_eq!(kept, vec![31], "only the endorsed row survives");
        assert!(n.probation.contains(&30) && n.probation.contains(&32));
        assert_eq!(counts.of(&n, ctr::NW_PROBATION_HOLDS), 2);

        // Quota: even an endorsed identity is refused once the zone is
        // full — a registry leak cannot flood a zone past its cap.
        let mut cfg = NewsWireConfig::tech_news();
        cfg.admission = true;
        let (mut tight, _c, _r, _s) = node_with_rotation(cfg);
        let counts = Counts::install(&tight);
        let room = ZONE_QUOTA - tight.agent.table(0).len();
        let joiners: Vec<u32> = (100..).take(room + 1).collect();
        let rows = joiners
            .iter()
            .zip(1u16..)
            .map(|(&id, label)| {
                let ticket = tight.registry.endorse_join(id);
                row(id, label, Some(format!("{:016x}", ticket.0)))
            })
            .collect();
        let mut g =
            GossipMsg::Rows { rows: vec![TableRows { zone: tight.agent.zone(0).clone(), rows }] };
        tight.filter_sybil_rows(&mut g);
        let GossipMsg::Rows { rows } = &g else { unreachable!() };
        let kept: Vec<u32> = rows[0]
            .rows
            .iter()
            .filter_map(|(_, _, r)| r.get("id").and_then(|v| v.as_i64()))
            .map(|v| v as u32)
            .collect();
        assert_eq!(kept, joiners[..room], "endorsed joiners fill the zone to its quota");
        assert_eq!(tight.probation.iter().copied().collect::<Vec<_>>(), vec![joiners[room]]);
        assert_eq!(counts.of(&tight, ctr::SYBIL_JOINS_REFUSED), 1, "the one past the quota");
        assert_eq!(counts.of(&tight, ctr::NW_PROBATION_HOLDS), 1);
    }

    /// The misbehavior score: strikes accumulate, the quarantine transition
    /// fires exactly once at the threshold, a quarantined peer is suspect
    /// without any back-off, and external inputs / defenses-off nodes
    /// never quarantine.
    #[test]
    fn misbehavior_quarantine_crosses_threshold_once() {
        let mut n = node_with(NewsWireConfig::tech_news());
        let counts = Counts::install(&n);
        assert_eq!(QUARANTINE_THRESHOLD, 3);
        n.note_misbehavior(NodeId(7), MISBEHAVIOR_FORGED);
        assert!(!n.quarantined(7), "one forged strike (weight 2) is below threshold");
        n.note_misbehavior(NodeId(7), MISBEHAVIOR_FENCE);
        assert!(n.quarantined(7));
        assert!(n.peer_suspect(7), "quarantine shows through peer_suspect without a back-off");
        assert_eq!(counts.of(&n, ctr::NW_QUARANTINES), 1);
        n.note_misbehavior(NodeId(7), MISBEHAVIOR_CONTRADICTION);
        assert_eq!(counts.of(&n, ctr::NW_QUARANTINES), 1, "crossing the threshold counts once");
        // Selection drops the quarantined peer while alternatives exist.
        let mut candidates = vec![5, 7];
        prefer_unsuspected(&mut candidates, &|p| n.peer_suspect(p));
        assert_eq!(candidates, vec![5]);
        // External inputs never take strikes.
        n.note_misbehavior(NodeId::EXTERNAL, 10);
        assert!(!n.misbehavior.contains_key(&NodeId::EXTERNAL.0));
        // Defenses off: scores accrue nowhere and nothing quarantines.
        let mut cfg = NewsWireConfig::tech_news();
        cfg.defenses = false;
        let mut open = node_with(cfg);
        open.note_misbehavior(NodeId(7), 10);
        assert!(!open.quarantined(7));
    }

    /// Signed epoch authority: fabricated attestations (wrong signature, or
    /// a publisher this node holds no certificate for) are never absorbed,
    /// genuine bumps are, and authority never moves backwards.
    #[test]
    fn signed_authority_ignores_unsigned_epoch_claims() {
        let (mut n, cred) = node_with_authority(NewsWireConfig::tech_news());
        assert_eq!(n.trust.authority_epoch(PublisherId(0)), Some(0));
        // Claiming epoch 100 without the publisher's key goes nowhere.
        n.absorb_attest(&EpochAttest {
            publisher: PublisherId(0),
            epoch: 100,
            key: cred.key_id(),
            signature: Signature(0xBAD),
        });
        assert_eq!(n.trust.authority_epoch(PublisherId(0)), Some(0));
        // A genuine re-signed bump is adopted…
        n.absorb_attest(&cred.attest_epoch(2));
        assert_eq!(n.trust.authority_epoch(PublisherId(0)), Some(2));
        // …and a stale genuine attestation never lowers it.
        n.absorb_attest(&cred.attest_epoch(1));
        assert_eq!(n.trust.authority_epoch(PublisherId(0)), Some(2));
        // No certificate held for the claimed publisher: fail closed.
        n.absorb_attest(&EpochAttest {
            publisher: PublisherId(7),
            epoch: 1,
            key: cred.key_id(),
            signature: Signature(1),
        });
        assert_eq!(n.trust.authority_epoch(PublisherId(7)), None);
    }

    /// With a publisher-signed attestation installed, the self-audit fences
    /// a jointly-voted fabricated epoch back WITHOUT any neighbour rows —
    /// the collusion scenario where the unsigned leaf-zone consensus is
    /// exactly what the adversary captured.
    #[test]
    fn self_audit_fences_captured_epoch_with_signed_authority_alone() {
        use rand::SeedableRng;
        use simnet::CorruptionOp;
        let (mut n, _cred) = node_with_authority(NewsWireConfig::tech_news());
        n.set_subscription(tech_sub());
        let now = SimTime::from_secs(5);
        for seq in 0..3u64 {
            n.handle_delivery(now, Admitted::unverified(tech_item(seq)), false);
        }
        let mut rng = rand::rngs::SmallRng::seed_from_u64(3);
        let hit = simnet::Node::apply_corruption(
            &mut n,
            &CorruptionOp::VoteEpoch { publisher: 0, epoch: 60 },
            &mut rng,
        );
        assert!(hit > 0, "the vote must land");
        assert_eq!(n.article_log(PublisherId(0)).unwrap().epoch(), 60);
        // No gossip rows were ever absorbed: the unsigned consensus is
        // unavailable (or capturable). The signed authority still fences.
        n.self_audit(now);
        let log = n.article_log(PublisherId(0)).unwrap();
        assert_eq!(log.epoch(), 0, "fenced back to the signed authority epoch");
        for seq in 0..3u64 {
            assert!(log.contains(seq), "cached item {seq} re-seeded");
        }
    }

    /// `ForgeItems` corruption plants fabricated items in the victim's own
    /// cache — and a defended peer refuses every one of them when the
    /// victim's repair traffic offers them onward.
    #[test]
    fn forged_items_never_cross_to_a_defended_peer() {
        use rand::SeedableRng;
        use simnet::CorruptionOp;
        let (mut forger, _) = node_with_authority(NewsWireConfig::tech_news());
        let mut rng = rand::rngs::SmallRng::seed_from_u64(9);
        let injected = simnet::Node::apply_corruption(
            &mut forger,
            &CorruptionOp::ForgeItems { items: 3, publisher: 0 },
            &mut rng,
        );
        assert_eq!(injected, 3);
        assert_eq!(forger.cache.len(), 3, "the forger's cache holds the fabrications");

        let (mut honest, _) = node_with_authority(NewsWireConfig::tech_news());
        honest.set_subscription(tech_sub());
        let counts = Counts::install(&honest);
        let now = SimTime::from_secs(1);
        // The forger serves its cache the way a reconcile reply would:
        // items wrapped with whatever signatures it recorded (bogus ones).
        let served = forger.cache.iter_signed().map(|(item, (key, signature))| SignedItem {
            item: Arc::clone(item),
            key,
            signature,
            basis: None,
        });
        honest.absorb_recovered(now, NodeId(1), served.collect());
        assert_eq!(counts.of(&honest, ctr::NW_FORGED_REJECTS), 3, "every fabrication refused");
        assert!(honest.deliveries.is_empty());
        assert!(honest.quarantined(1), "three forged strikes quarantine the forger");
    }

    /// A mis-summarizing liar ships a row its reply would only have
    /// restamped whole, summaries zeroed under the refresh record's stamp;
    /// a record for a row with no summary to zero stays a record.
    #[test]
    fn mis_summarizing_liar_ships_refreshed_rows_whole_and_zeroed() {
        use astrolabe::{GossipMsg, MibBuilder, RowDigest, Stamp, TableRows};
        use rand::SeedableRng;
        use simnet::{LiarAction, LiarMode};
        let mut n = node_with(NewsWireConfig::tech_news());
        let zone = n.agent.zone(0).clone();
        let stamp = |origin: u32| Stamp { issued_us: 1_000_000, version: 1, origin };
        let subscribed = MibBuilder::new().attr("id", 2i64).attr("cats$0", 6i64).build(stamp(2));
        let bare = MibBuilder::new().attr("id", 3i64).build(stamp(3));
        let record = |label: u16, row: &astrolabe::Mib| RowDigest {
            label,
            stamp: Stamp { issued_us: 2_000_000, ..row.stamp },
            chash: row.content_hash(),
        };
        let refresh = vec![(zone.clone(), vec![record(2, &subscribed), record(3, &bare)])];
        let rows =
            vec![(2, subscribed.stamp, Arc::new(subscribed)), (3, bare.stamp, Arc::new(bare))];
        let msg = GossipMsg::Rows { rows: vec![TableRows { zone: zone.clone(), rows }] };
        let mut rng = rand::rngs::SmallRng::seed_from_u64(4);
        n.agent.on_message(SimTime::from_secs(1), 2, msg, &mut rng);

        let mut reply = NewsWireMsg::Gossip {
            g: GossipMsg::DigestReply { rows: Vec::new(), want: Vec::new(), refresh },
            rot: None,
            digests: None,
        };
        let act = simnet::Node::tamper_outbound(
            &mut n,
            NodeId(1),
            &mut reply,
            LiarMode::MisSummarize,
            &mut rng,
        );
        assert!(matches!(act, LiarAction::Tampered));
        let NewsWireMsg::Gossip { g: GossipMsg::DigestReply { rows, refresh, .. }, .. } = reply
        else {
            unreachable!()
        };
        let [TableRows { rows: shipped, .. }] = rows.as_slice() else { panic!("{rows:?}") };
        let [(2, at, fake)] = shipped.as_slice() else { panic!("{shipped:?}") };
        assert_eq!({ at.issued_us }, 2_000_000, "under the record's stamp");
        assert_eq!(fake.get("cats$0").and_then(|v| v.as_i64()), Some(0), "the summary zeroed");
        let [(_, kept)] = refresh.as_slice() else { panic!("{refresh:?}") };
        assert_eq!(kept.iter().map(|r| r.label).collect::<Vec<_>>(), vec![3]);
    }

    /// Split-brain lying is destination-dependent: odd-numbered peers get
    /// an emptied digest rider, even-numbered peers the truth — no single
    /// receiver can observe the inconsistency.
    #[test]
    fn split_brain_liar_tells_destinations_different_stories() {
        use astrolabe::{GossipMsg, MibBuilder, Stamp, TableRows};
        use rand::SeedableRng;
        use simnet::{LiarAction, LiarMode};
        let mut n = node_with(NewsWireConfig::tech_news());
        let leaf_zone = n.agent.zone(0).clone();
        let make = || {
            let row = MibBuilder::new().attr("id", 2i64).build(Stamp {
                issued_us: 1_000_000,
                version: 1,
                origin: 2,
            });
            NewsWireMsg::Gossip {
                g: GossipMsg::Rows {
                    rows: vec![TableRows {
                        zone: leaf_zone.clone(),
                        rows: vec![(2, row.stamp, Arc::new(row))],
                    }],
                },
                rot: None,
                digests: Some(rider_of(0, 3)),
            }
        };
        let rider = |msg: &NewsWireMsg| match msg {
            NewsWireMsg::Gossip { digests, .. } => digests.clone().expect("the rider stays"),
            _ => unreachable!(),
        };
        let mut rng = rand::rngs::SmallRng::seed_from_u64(4);
        let mut to_odd = make();
        let act = simnet::Node::tamper_outbound(
            &mut n,
            NodeId(1),
            &mut to_odd,
            LiarMode::SplitBrain,
            &mut rng,
        );
        assert!(matches!(act, LiarAction::Tampered), "odd destinations get the stale story");
        assert_eq!(&*rider(&to_odd), &[(PublisherId(0), RangeSummary::default())]);
        let mut to_even = make();
        let act = simnet::Node::tamper_outbound(
            &mut n,
            NodeId(2),
            &mut to_even,
            LiarMode::SplitBrain,
            &mut rng,
        );
        assert!(matches!(act, LiarAction::Pass), "even destinations get the truth");
        assert_eq!(rider(&to_even), rider_of(0, 3));
    }
}

#[cfg(test)]
mod loss_recovery_tests;
