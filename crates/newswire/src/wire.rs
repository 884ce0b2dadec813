//! Wire messages of the NewsWire protocol.

use std::sync::Arc;

use amcast::{BaselineHint, FilterSpec, RangeSummary};
use astrolabe::{Certificate, GossipMsg, KeyId, RotationRecord, Signature, ZoneId};
use filters::fnv1a;
use newsml::cdc;
use newsml::{ItemId, NewsItem, PublisherId};
use obs::{ctr, CtrId};
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

/// Serialized size of one [`ItemId`] named on the wire (a `RepairRequest`'s
/// `ids`, an announce's article): publisher id + sequence number.
const ITEM_ID_WIRE_SIZE: usize = 2 + 8;

/// Bits of [`trace_key`] that hold the publisher id's bit length.
const TRACE_KEY_WIDTH_BITS: u32 = 5;

/// The item id as the trace operand of every record that names an article
/// (`NW_PUBLISH`, `NW_DELIVER`, the `HANDOFF_*` kinds): the low 5 bits hold
/// the publisher id's bit length `w`, the next `w` bits the publisher id,
/// and the bits above them the seq. A small id stays a small number, so the
/// record fits the trace ring's 10-byte form (20-bit operands): publisher
/// 0's first 32,768 items and publisher 1's first 16,384 do. Distinct ids
/// get distinct keys while the seq stays below 2^43.
pub fn trace_key(id: ItemId) -> u64 {
    let publisher = u64::from(id.publisher.0);
    let width = u64::BITS - publisher.leading_zeros();
    id.seq << (TRACE_KEY_WIDTH_BITS + width) | publisher << TRACE_KEY_WIDTH_BITS | u64::from(width)
}

/// The globally unique dissemination id of an item.
pub fn msg_id_of(id: ItemId) -> u64 {
    let mut bytes = [0u8; 10];
    bytes[..2].copy_from_slice(&id.publisher.0.to_le_bytes());
    bytes[2..].copy_from_slice(&id.seq.to_le_bytes());
    fnv1a(&bytes)
}

/// A node's article-log digests, one [`RangeSummary`] per publisher it
/// logs, in publisher order: the rider its gossip carries to leaf mates
/// (DESIGN §7). Built once per gossip tick and shared by every message
/// that carries it.
pub type LogDigests = Arc<[(PublisherId, RangeSummary)]>;

/// A trust-root rotation record riding gossip (DESIGN §15), with the
/// length of its encoding taken once, when the record was adopted: every
/// gossip message carrying it is priced by that length.
#[derive(Debug)]
pub struct RotationRider {
    /// The record, shared with the adopter's own list of rotations.
    pub record: Arc<RotationRecord>,
    /// Bytes of [`RotationRecord::encode`]'s output.
    wire_len: usize,
}

impl RotationRider {
    /// The rider of `record`, whose encoding is `encoded`.
    pub fn new(record: Arc<RotationRecord>, encoded: &str) -> Self {
        RotationRider { record, wire_len: encoded.len() }
    }
}

/// What a hand-off asks of the representative it reaches (DESIGN §6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cover {
    /// The payload, to cover the zone beside its other representatives,
    /// each handed the payload too (paper §9).
    Shared,
    /// The payload, to cover a leaf zone alone: the receiver is the zone's
    /// payload holder and sends every matching member and each
    /// co-representative the payload, announcing nothing.
    Alone {
        /// The co-representative the sender announced the item to, which
        /// the holder sends the payload whether or not it reads it as one
        /// (the holder itself when there is none).
        co_rep: u32,
    },
    /// Only the item's id: the zone's payload holder sends this
    /// co-representative the article, and it acknowledges the announce once
    /// it holds it. The sender sends the payload if no ack comes.
    Announce,
}

/// Serialized size of one [`LogDigests`] entry: publisher id + the summary
/// (priced as a reconcile reply prices its summary).
const LOG_DIGEST_WIRE_SIZE: usize = 2 + 16;

/// NewsWire protocol messages.
#[derive(Debug, Clone)]
pub enum NewsWireMsg {
    /// Astrolabe gossip, optionally carrying two riders: the sender's most
    /// recently adopted trust-root rotation record (DESIGN §15), and, to a
    /// leaf mate, the sender's article-log digests (DESIGN §7). Both are
    /// `None` in runs that use neither — the wire stays byte-identical to
    /// builds that predate them.
    Gossip {
        /// The embedded Astrolabe exchange.
        g: GossipMsg,
        /// Rotation rider: the newest revocation/rotation record this node
        /// has adopted, re-announced on every gossip exchange so revocation
        /// reaches even nodes whose zone rows never carry the `sys$rot:`
        /// attribute.
        rot: Option<Arc<RotationRider>>,
        /// Article-log rider: the sender's digests, on gossip to a member
        /// of its own leaf zone. `None` with anti-entropy off, before the
        /// sender has logged anything, and on gossip leaving the leaf zone.
        digests: Option<LogDigests>,
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
        /// How: beside the zone's other representatives, alone, or — an
        /// announce — not at all, the item's id alone going on the wire.
        cover: Cover,
    },
    /// Final hop to a leaf-zone member, which acknowledges it with a
    /// `ForwardAck` for its leaf zone (DESIGN §6).
    Deliver {
        /// The signed item.
        env: Arc<Envelope>,
        /// An announce: only the item's id goes on the wire, and the
        /// member acknowledges it once it holds the article, which the leaf
        /// zone's other representative is sending it. The announcer sends
        /// the payload if no ack comes.
        announce: bool,
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
    /// The retired named pull: "send me exactly these". No node sends one
    /// since the final hop is acknowledged, and every node drops one
    /// (DESIGN §7). The variant stays for consumers that match on every
    /// message kind.
    RepairRequest {
        /// The items asked for.
        ids: Vec<ItemId>,
    },
    /// The retired named pull's reply: signed items, unasked for. Every
    /// node drops one unread.
    RepairReply {
        /// The pulled items.
        items: Vec<SignedItem>,
    },
    /// Log anti-entropy pull: "ship me these sequence ranges of
    /// `publisher`'s articles". Sent when a leaf mate's digest rider (or
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

impl Payload for NewsWireMsg {
    fn wire_size(&self) -> usize {
        4 + match self {
            NewsWireMsg::Gossip { g, rot, digests } => {
                g.wire_size()
                    + rot.as_ref().map_or(0, |r| r.wire_len)
                    + digests.as_ref().map_or(0, |d| 1 + d.len() * LOG_DIGEST_WIRE_SIZE)
            }
            NewsWireMsg::Rotate { record, credential } => {
                record.encode().len() + credential.as_ref().map_or(0, |_| 96)
            }
            NewsWireMsg::PublishRequest { item, .. } => item.wire_size(),
            NewsWireMsg::Forward { zone, cover: Cover::Announce, .. } => {
                ITEM_ID_WIRE_SIZE + 1 + 2 * zone.depth()
            }
            NewsWireMsg::Forward { env, zone, cover: Cover::Shared } => {
                env.wire_size() + 2 * zone.depth()
            }
            NewsWireMsg::Forward { env, zone, cover: Cover::Alone { .. } } => {
                env.wire_size() + 2 * zone.depth() + 4
            }
            NewsWireMsg::Deliver { announce: true, .. } => ITEM_ID_WIRE_SIZE + 1,
            NewsWireMsg::Deliver { env, .. } => env.wire_size(),
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
            NewsWireMsg::Forward { env, zone, cover: Cover::Shared } => {
                4 + env.compressed_wire_size() + 2 * zone.depth()
            }
            NewsWireMsg::Forward { env, zone, cover: Cover::Alone { .. } } => {
                4 + env.compressed_wire_size() + 2 * zone.depth() + 4
            }
            NewsWireMsg::Deliver { env, announce: false } => 4 + env.compressed_wire_size(),
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

    fn byte_cause(&self) -> Option<CtrId> {
        Some(match self {
            NewsWireMsg::Forward { cover: Cover::Announce, .. } => ctr::BYTES_HANDOFF_ANNOUNCE,
            NewsWireMsg::Forward { .. } => ctr::BYTES_HANDOFF,
            NewsWireMsg::Deliver { announce: true, .. } => ctr::BYTES_DELIVER_ANNOUNCE,
            NewsWireMsg::Deliver { .. } => ctr::BYTES_DELIVER,
            NewsWireMsg::ForwardAck { .. } => ctr::BYTES_ACK,
            NewsWireMsg::Gossip { .. } => ctr::BYTES_GOSSIP,
            NewsWireMsg::ReconcileRequest { .. } | NewsWireMsg::ReconcileReply { .. } => {
                ctr::BYTES_RECONCILE
            }
            NewsWireMsg::Rotate { .. }
            | NewsWireMsg::PublishRequest { .. }
            | NewsWireMsg::RepairRequest { .. }
            | NewsWireMsg::RepairReply { .. } => ctr::BYTES_OTHER,
        })
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

    #[test]
    fn trace_keys_are_small_for_small_ids_and_distinct() {
        let key = |p: u16, seq: u64| trace_key(ItemId::new(PublisherId(p), seq));
        assert!(key(0, (1 << 15) - 1) < 1 << 20);
        assert!(key(1, (1 << 14) - 1) < 1 << 20);
        assert!(key(0, 1 << 15) >= 1 << 20);
        let publishers = [0, 1, 2, 3, 4, 7, 8, 255, 256, 4_096, u16::MAX];
        let seqs = [0, 1, 2, 3, 100, 1 << 14, (1 << 43) - 1];
        let mut keys: Vec<u64> =
            publishers.iter().flat_map(|&p| seqs.iter().map(move |&s| key(p, s))).collect();
        let all = keys.len();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), all, "one key per id");
        // The key unpacks to its id.
        for (p, s) in [(0u16, 9u64), (5, 1_000), (u16::MAX, (1 << 43) - 1)] {
            let k = key(p, s);
            let width = (k & 31) as u32;
            assert_eq!((k >> 5) & ((1 << width) - 1), u64::from(p));
            assert_eq!(k >> (5 + width), s);
        }
    }

    /// The event slab and the forwarding queues move `NewsWireMsg` by
    /// value, so no article-bearing variant may set its size: envelopes and
    /// reply items travel as handles and fit in what `Gossip` needs. The
    /// enum itself is only as large as `PublishRequest` — external input,
    /// whose owned `NewsItem` is part of the public construction API.
    #[test]
    fn article_bearing_variants_are_handle_sized() {
        use std::mem::size_of;
        let gossip = size_of::<(GossipMsg, Option<Arc<RotationRider>>, Option<LogDigests>)>();
        assert!(size_of::<(Arc<Envelope>, ZoneId, Cover)>() <= gossip, "Forward");
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

    /// An announce prices the header, the item id and its flag — whatever
    /// the article weighs — on both byte lanes; the payload `Deliver` keeps
    /// the envelope's price. Each is split out of `bytes_sent` by its cause.
    #[test]
    fn an_announce_prices_the_id_and_its_flag() {
        let item = Arc::new(NewsItem::builder(PublisherId(0), 3).body_len(5000).build());
        let mut registry = astrolabe::TrustRegistry::new(1);
        let cred =
            crate::auth::issue_publisher(&mut registry, PublisherId(0), "p", &ZoneId::root(), 60);
        let env = Arc::new(Envelope {
            msg_id: msg_id_of(item.id),
            filter: FilterSpec::All,
            scope: ZoneId::root(),
            certificate: cred.certificate.clone(),
            key: cred.key_id(),
            signature: cred.sign(&item),
            attest: cred.attest_epoch(0),
            basis: None,
            item,
        });
        let announce = NewsWireMsg::Deliver { env: Arc::clone(&env), announce: true };
        assert_eq!(announce.wire_size(), 4 + ITEM_ID_WIRE_SIZE + 1);
        assert_eq!(announce.compressed_wire_size(), announce.wire_size());
        let payload = NewsWireMsg::Deliver { env: Arc::clone(&env), announce: false };
        assert_eq!(payload.wire_size(), 4 + env.wire_size());
        // A hand-off announce prices the same plus the zone it names; the
        // holder's payload the co-representative it names on top.
        let zone = ZoneId::root().child(3).child(1);
        let hand_off =
            |cover| NewsWireMsg::Forward { env: Arc::clone(&env), zone: zone.clone(), cover };
        let announce = hand_off(Cover::Announce);
        assert_eq!(announce.wire_size(), 4 + ITEM_ID_WIRE_SIZE + 1 + 2 * 2);
        assert_eq!(announce.compressed_wire_size(), announce.wire_size());
        let shared = hand_off(Cover::Shared);
        assert_eq!(shared.wire_size(), 4 + env.wire_size() + 2 * 2);
        assert_eq!(hand_off(Cover::Alone { co_rep: 9 }).wire_size(), shared.wire_size() + 4);
        let causes = [announce, shared, payload].map(|m| m.byte_cause());
        let want = [ctr::BYTES_HANDOFF_ANNOUNCE, ctr::BYTES_HANDOFF, ctr::BYTES_DELIVER];
        assert_eq!(causes, want.map(Some));
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
