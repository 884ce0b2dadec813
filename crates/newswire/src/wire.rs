//! Wire messages of the NewsWire protocol.

use std::sync::Arc;

use amcast::{BaselineHint, FilterSpec, RangeSummary};
use astrolabe::{Certificate, GossipMsg, KeyId, RotationRecord, Signature, ZoneId};
use filters::fnv1a;
use newsml::cdc;
use newsml::{ItemId, NewsItem, PublisherId};
use simnet::Payload;

use crate::auth::{EpochAttest, PublisherCredential};

/// Delta-encoding annotation on an item-bearing message: "this body is
/// encoded as a CDC delta against revision `revision` (length `body_len`)
/// of the same story". The sender only attaches one when it believes the
/// receiver holds that baseline (its own prior publication on the tree
/// path, or a [`BaselineHint`] the requester declared); a receiver that
/// does not is charged the chunk-miss makeup (see `bytes_wire`). `None`
/// everywhere when deltas are off, keeping the wire byte-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaBasis {
    /// Baseline revision the delta references.
    pub revision: u32,
    /// Baseline body length (needed to re-derive the synthetic body).
    pub body_len: u32,
}

impl DeltaBasis {
    /// Serialized size of the annotation (revision + baseline length).
    pub const WIRE_SIZE: usize = 8;
}

/// Effective encoded size of `item`'s body given an optional delta basis:
/// the full body when unannotated, the priced CDC delta when annotated
/// (never larger than full — senders fall back).
fn body_cost(item: &NewsItem, basis: Option<&DeltaBasis>) -> usize {
    match basis {
        None => item.body_len as usize,
        Some(b) => cdc::delta_cost_memo(
            item.id.publisher,
            &item.slug,
            b.revision,
            b.body_len,
            item.revision,
            item.body_len,
        )
        .effective(),
    }
}

/// A signed, routable news item. Built once by the publisher and immutable
/// from there: every forward, queue slot and pending hand-off holds the same
/// `Arc<Envelope>`, and every cache holds the same `Arc<NewsItem>`.
#[derive(Debug, Clone)]
pub struct Envelope {
    /// The item itself (metadata + body size).
    pub item: Arc<NewsItem>,
    /// Dissemination id (derived from the item id; drives dedup).
    pub msg_id: u64,
    /// Per-hop interest filter, precomputed by the publisher.
    pub filter: FilterSpec,
    /// The zone the publisher addressed (for scope verification).
    pub scope: ZoneId,
    /// Publisher certificate (so any forwarder can verify).
    pub certificate: Certificate,
    /// Signing key id.
    pub key: KeyId,
    /// Signature over the item.
    pub signature: Signature,
    /// The publisher's signed epoch attestation at publish time (DESIGN
    /// §12): every envelope refreshes the receivers' signed epoch
    /// authority, starving fabricated-epoch collusion of oxygen.
    pub attest: EpochAttest,
    /// Delta-encoding basis: the publisher's previously disseminated
    /// revision of the same story, which tree receivers hold.
    pub basis: Option<DeltaBasis>,
}

impl Envelope {
    /// Approximate serialized size (full body — the `bytes_sent` model).
    pub fn wire_size(&self) -> usize {
        self.item.wire_size()
            + 8
            + self.filter.wire_size()
            + 2 * self.scope.depth()
            + 96
            + self.attest.wire_size()
            + self.basis.map_or(0, |_| DeltaBasis::WIRE_SIZE)
        // certificate + signature + key id
    }

    /// Serialized size with the body delta-encoded against the basis
    /// (the `bytes_wire` model; equals [`Envelope::wire_size`] when
    /// unannotated).
    pub fn compressed_wire_size(&self) -> usize {
        self.wire_size() - self.item.body_len as usize + body_cost(&self.item, self.basis.as_ref())
    }
}

/// A bare item traveling outside an envelope — repair replies, reconcile
/// replies, joiner state transfer — with the publisher's detached signature
/// attached, so every admission path can verify before caching (DESIGN
/// §12). Before this, bare-item paths were an unsigned side door.
#[derive(Debug, Clone)]
pub struct SignedItem {
    /// The item (a handle to the responder's cached copy).
    pub item: Arc<NewsItem>,
    /// Signing key id.
    pub key: KeyId,
    /// The publisher's signature over the item bytes.
    pub signature: Signature,
    /// Delta-encoding basis: the baseline the requester declared holding
    /// (via [`BaselineHint`]) that this item was encoded against.
    pub basis: Option<DeltaBasis>,
}

impl SignedItem {
    /// Approximate serialized size: item + key id + signature (full body —
    /// the `bytes_sent` model).
    pub fn wire_size(&self) -> usize {
        self.item.wire_size() + 16 + self.basis.map_or(0, |_| DeltaBasis::WIRE_SIZE)
    }

    /// Serialized size with the body delta-encoded against the basis
    /// (the `bytes_wire` model).
    pub fn compressed_wire_size(&self) -> usize {
        self.wire_size() - self.item.body_len as usize + body_cost(&self.item, self.basis.as_ref())
    }
}

/// What a reconcile reply sends in place of an article the requester's
/// summary rejects (DESIGN §7): the positions the article's per-hop filter
/// tests — the bits of each subscription key's Bloom group, `hashes` per
/// group, or the article's category bits — and nothing else. A summary
/// admits the stub exactly when it admits the article. The empty stub is
/// an article that is gone, fused into a newer telling or evicted, which
/// no summary admits.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct Stub(pub Box<[u16]>);

impl Stub {
    /// Serialized size: a count byte + two bytes per position.
    pub fn wire_size(&self) -> usize {
        1 + 2 * self.0.len()
    }

    /// True when a summary whose set positions are `interest` admits the
    /// article: some group of `group` consecutive positions (the Bloom
    /// hash count, or 1 for category bits) is set in it throughout — the
    /// test the per-hop filter runs on a summary row.
    pub fn admitted_by(&self, interest: &[u16], group: usize) -> bool {
        self.0.chunks(group.max(1)).any(|g| g.iter().all(|p| interest.contains(p)))
    }
}

/// Serialized size of one [`ItemId`] named on the wire (a `Deliver`'s `prev`
/// chain, a named pull's `ids`): publisher id + sequence number.
const ITEM_ID_WIRE_SIZE: usize = 2 + 8;

/// The globally unique dissemination id of an item.
pub fn msg_id_of(id: ItemId) -> u64 {
    let mut bytes = [0u8; 10];
    bytes[..2].copy_from_slice(&id.publisher.0.to_le_bytes());
    bytes[2..].copy_from_slice(&id.seq.to_le_bytes());
    fnv1a(&bytes)
}

/// NewsWire protocol messages.
#[derive(Debug, Clone)]
pub enum NewsWireMsg {
    /// Astrolabe gossip, optionally carrying the sender's most recently
    /// adopted trust-root rotation record as a rider (DESIGN §15). `None`
    /// in runs with no rotations — the wire stays byte-identical to builds
    /// that predate trust-root rotation.
    Gossip {
        /// The embedded Astrolabe exchange.
        g: GossipMsg,
        /// Rotation rider: the newest revocation/rotation record this node
        /// has adopted, re-announced on every gossip exchange so revocation
        /// reaches even nodes whose zone rows never carry the `sys$rot:`
        /// attribute.
        rot: Option<Arc<RotationRecord>>,
    },
    /// Trust-root rotation: a registry-endorsed record revoking a
    /// publisher's key epoch and endorsing its successor certificate.
    /// Injected externally at the publisher (with the replacement
    /// credential) and at a few seed subscribers (record only); from there
    /// the record propagates epidemically via gossip riders and `sys$rot:`
    /// row attributes.
    Rotate {
        /// The signed revocation/rotation record.
        record: RotationRecord,
        /// The successor signing credential — only for the publisher node
        /// itself, which must re-key before its next publish.
        credential: Option<PublisherCredential>,
    },
    /// External input to a publisher node: publish this item.
    PublishRequest {
        /// The item (the publisher stamps issue time and signs it).
        item: NewsItem,
        /// Optional scope override (defaults to the certificate scope).
        scope: Option<ZoneId>,
        /// Optional dissemination predicate over child-zone summary rows
        /// (the §8 extension, e.g. `premium > 0`). Invalid SQL rejects the
        /// publish request.
        predicate: Option<String>,
    },
    /// Cover `zone` with the enveloped item.
    Forward {
        /// The signed item.
        env: Arc<Envelope>,
        /// The zone the receiver must cover.
        zone: ZoneId,
    },
    /// Final hop to a leaf-zone member.
    Deliver {
        /// The signed item.
        env: Arc<Envelope>,
        /// The per-link delivery chain: the items this representative handed
        /// this member immediately before `env` (at most three, oldest
        /// first). An id the member has never seen is a `Deliver` it
        /// missed, which it pulls by name (DESIGN §7). Untrusted: a
        /// receiver reads at most three ids and only ever asks for them.
        prev: Vec<ItemId>,
    },
    /// A representative's receipt for a `Forward`: it has taken coverage
    /// duty for `zone` (or already held it). Any representative's ack
    /// settles every pending hand-off of `(msg_id, zone)` at the sender —
    /// with redundancy `k`, one success covers the zone.
    ForwardAck {
        /// Dissemination id of the acknowledged item.
        msg_id: u64,
        /// The zone whose coverage is acknowledged.
        zone: ZoneId,
    },
    /// The named pull: "send me exactly these" (DESIGN §7).
    RepairRequest {
        /// Items a `Deliver`'s `prev` chain revealed as missed. The
        /// responder serves the first few it still caches and ignores the
        /// rest.
        ids: Vec<ItemId>,
    },
    /// The named items the responder still caches, each with its publisher
    /// signature so the requester can verify before caching. Never empty: a
    /// pull that finds nothing is not answered.
    RepairReply {
        /// The pulled items.
        items: Vec<SignedItem>,
    },
    /// Log anti-entropy pull: "ship me these sequence ranges of
    /// `publisher`'s articles". Sent when a gossiped `sys$ae:` digest (or
    /// the node's own log) reveals holes.
    ReconcileRequest {
        /// The publisher whose log is being reconciled.
        publisher: PublisherId,
        /// The requester's history epoch (responders on older epochs have
        /// nothing useful).
        epoch: u32,
        /// Inclusive `(lo, hi)` sequence ranges wanted.
        ranges: Vec<(u64, u64)>,
        /// Also ship anything at or past this mark — tail catch-up for
        /// items the requester does not yet know exist.
        tail_from: u64,
        /// Revisions of this publisher's stories the requester already
        /// holds: the responder delta-encodes any item whose story the
        /// requester has an earlier telling of, instead of re-shipping the
        /// full body a digest already proved mostly redundant. Empty with
        /// deltas off.
        baselines: Vec<BaselineHint>,
        /// The requester's interest: its own summary value for this
        /// publisher as the tree tests it — the set positions of `subs`
        /// (Bloom model) or of `cats$<publisher>` (mask model). The
        /// responder ships only what this admits.
        interest: Vec<u16>,
    },
    /// The responder's answer, in sequence order: the requested articles
    /// the requester's interest admits, a stub for each it rejects or that
    /// is gone, and the responder's own digest. A seq the reply names in
    /// neither list is one the responder cannot vouch for.
    ReconcileReply {
        /// The publisher reconciled.
        publisher: PublisherId,
        /// The responder's digest at reply time.
        summary: RangeSummary,
        /// The responder's stored publisher-signed epoch attestation, when
        /// it holds one — how signed epoch authority propagates to nodes
        /// the publisher's own envelopes have not reached.
        attest: Option<EpochAttest>,
        /// The recovered items, signed.
        items: Vec<SignedItem>,
        /// The requested seqs withheld, each with its article's stub.
        withheld: Vec<(u64, Stub)>,
    },
}

/// Serialized size of a reconcile reply's withheld entries: seq + stub.
fn withheld_wire_size(withheld: &[(u64, Stub)]) -> usize {
    withheld.iter().map(|(_, stub)| 8 + stub.wire_size()).sum()
}

/// Serialized size of a `Deliver`'s `prev` chain: a count byte + the ids.
fn prev_wire_size(prev: &[ItemId]) -> usize {
    1 + prev.len() * ITEM_ID_WIRE_SIZE
}

impl Payload for NewsWireMsg {
    fn wire_size(&self) -> usize {
        4 + match self {
            NewsWireMsg::Gossip { g, rot } => {
                g.wire_size() + rot.as_ref().map_or(0, |r| r.encode().len())
            }
            NewsWireMsg::Rotate { record, credential } => {
                record.encode().len() + credential.as_ref().map_or(0, |_| 96)
            }
            NewsWireMsg::PublishRequest { item, .. } => item.wire_size(),
            NewsWireMsg::Forward { env, zone } => env.wire_size() + 2 * zone.depth(),
            NewsWireMsg::Deliver { env, prev } => env.wire_size() + prev_wire_size(prev),
            NewsWireMsg::ForwardAck { zone, .. } => 8 + 2 * zone.depth(),
            NewsWireMsg::RepairRequest { ids } => 1 + ids.len() * ITEM_ID_WIRE_SIZE,
            NewsWireMsg::RepairReply { items } => {
                items.iter().map(|i| i.wire_size()).sum::<usize>()
            }
            NewsWireMsg::ReconcileRequest { ranges, baselines, interest, .. } => {
                2 + 4
                    + 8
                    + ranges.len() * 16
                    + baselines.len() * BaselineHint::WIRE_SIZE
                    + 1
                    + 2 * interest.len()
            }
            NewsWireMsg::ReconcileReply { items, attest, withheld, .. } => {
                2 + 16
                    + attest.map_or(0, |a| a.wire_size())
                    + items.iter().map(|i| i.wire_size()).sum::<usize>()
                    + withheld_wire_size(withheld)
            }
        }
    }

    fn compressed_wire_size(&self) -> usize {
        // Only item-bearing messages shrink under delta encoding; every
        // other variant (and every unannotated item) prices identically to
        // `wire_size`, so `bytes_wire == bytes_sent` wherever no delta
        // applies.
        match self {
            NewsWireMsg::Forward { env, zone } => 4 + env.compressed_wire_size() + 2 * zone.depth(),
            NewsWireMsg::Deliver { env, prev } => {
                4 + env.compressed_wire_size() + prev_wire_size(prev)
            }
            NewsWireMsg::RepairReply { items } => {
                4 + items.iter().map(|i| i.compressed_wire_size()).sum::<usize>()
            }
            NewsWireMsg::ReconcileReply { items, attest, withheld, .. } => {
                4 + 2
                    + 16
                    + attest.map_or(0, |a| a.wire_size())
                    + items.iter().map(|i| i.compressed_wire_size()).sum::<usize>()
                    + withheld_wire_size(withheld)
            }
            other => other.wire_size(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn msg_ids_unique_across_publishers_and_seqs() {
        let a = msg_id_of(ItemId::new(PublisherId(1), 7));
        let b = msg_id_of(ItemId::new(PublisherId(2), 7));
        let c = msg_id_of(ItemId::new(PublisherId(1), 8));
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, msg_id_of(ItemId::new(PublisherId(1), 7)), "deterministic");
    }

    /// The event slab and the forwarding queues move `NewsWireMsg` by
    /// value, so no article-bearing variant may set its size: envelopes and
    /// reply items travel as handles and fit in what `Gossip` needs. The
    /// enum itself is only as large as `PublishRequest` — external input,
    /// whose owned `NewsItem` is part of the public construction API.
    #[test]
    fn article_bearing_variants_are_handle_sized() {
        use std::mem::size_of;
        let gossip = size_of::<(GossipMsg, Option<Arc<RotationRecord>>)>();
        assert!(size_of::<(Arc<Envelope>, ZoneId)>() <= gossip, "Forward");
        assert!(size_of::<(Arc<Envelope>, Vec<ItemId>)>() <= gossip, "Deliver");
        assert!(size_of::<Vec<SignedItem>>() <= gossip, "RepairReply");
        assert!(
            size_of::<(PublisherId, RangeSummary, Option<EpochAttest>, Vec<SignedItem>)>()
                <= gossip,
            "ReconcileReply"
        );
        let publish_request = size_of::<(NewsItem, Option<ZoneId>, Option<String>)>();
        assert!(size_of::<NewsWireMsg>() <= publish_request.max(gossip));
    }

    #[test]
    fn wire_sizes_scale_with_item() {
        let small = NewsWireMsg::RepairRequest { ids: vec![] };
        let naming = NewsWireMsg::RepairRequest {
            ids: vec![ItemId::new(PublisherId(0), 7), ItemId::new(PublisherId(1), 9)],
        };
        assert_eq!(naming.wire_size(), small.wire_size() + 2 * ITEM_ID_WIRE_SIZE);
        let big = NewsWireMsg::RepairReply {
            items: vec![SignedItem {
                item: Arc::new(NewsItem::builder(PublisherId(0), 0).body_len(5000).build()),
                key: KeyId(1),
                signature: Signature(2),
                basis: None,
            }],
        };
        assert!(small.wire_size() < 16);
        assert!(big.wire_size() > 5000);
        assert_eq!(small.compressed_wire_size(), small.wire_size());
        assert_eq!(big.compressed_wire_size(), big.wire_size(), "no basis, no delta");
    }

    #[test]
    fn delta_basis_shrinks_compressed_size_only() {
        let item = Arc::new(
            NewsItem::builder(PublisherId(2), 9)
                .slug("merger")
                .revision(3, None)
                .body_len(6000)
                .build(),
        );
        let full = SignedItem {
            item: Arc::clone(&item),
            key: KeyId(1),
            signature: Signature(2),
            basis: None,
        };
        let delta = SignedItem {
            item,
            key: KeyId(1),
            signature: Signature(2),
            basis: Some(DeltaBasis { revision: 2, body_len: 6000 }),
        };
        // `bytes_sent` prices the full body either way (plus the tiny
        // annotation); `bytes_wire` collapses to the changed chunks.
        assert_eq!(delta.wire_size(), full.wire_size() + DeltaBasis::WIRE_SIZE);
        assert_eq!(full.compressed_wire_size(), full.wire_size());
        assert!(
            delta.compressed_wire_size() < full.wire_size() / 2,
            "adjacent-revision delta: {} vs {}",
            delta.compressed_wire_size(),
            full.wire_size()
        );
        let msg = NewsWireMsg::RepairReply { items: vec![delta] };
        assert!(msg.compressed_wire_size() < msg.wire_size());
    }
}
