//! Compact sim-time trace records and the bounded ring that stores them.

/// Which layer of the stack emitted a record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Layer {
    /// The discrete-event engine itself (delivery, loss, faults).
    Sim = 0,
    /// The Astrolabe gossip/aggregation agent.
    Astro = 1,
    /// The zone-tree multicast layer.
    Amcast = 2,
    /// The NewsWire application layer.
    News = 3,
}

impl Layer {
    /// Stable lowercase name (used in exports).
    pub fn name(self) -> &'static str {
        match self {
            Layer::Sim => "sim",
            Layer::Astro => "astro",
            Layer::Amcast => "amcast",
            Layer::News => "news",
        }
    }

    /// Inverse of the `repr(u8)` discriminant (for decoding).
    pub fn from_u8(v: u8) -> Option<Layer> {
        match v {
            0 => Some(Layer::Sim),
            1 => Some(Layer::Astro),
            2 => Some(Layer::Amcast),
            3 => Some(Layer::News),
            _ => None,
        }
    }
}

/// Trace record kinds. Grouped by layer in blocks of 16 so new kinds can be
/// added without renumbering; the numbers are part of the binary encoding
/// and must stay stable.
pub mod kind {
    /// A message reached its destination node (`a` = sender, `b` = bytes).
    pub const MSG_DELIVER: u8 = 1;
    /// A message was dropped in flight (`a` = destination, `b` = cause code).
    pub const MSG_DROP: u8 = 2;
    /// The node crashed.
    pub const NODE_CRASH: u8 = 3;
    /// The node recovered.
    pub const NODE_RECOVER: u8 = 4;
    /// A network partition was installed (`a` = partition groups).
    pub const PARTITION_START: u8 = 5;
    /// The network partition healed.
    pub const PARTITION_HEAL: u8 = 6;
    /// The node restarted cold (`a` = restart mode discriminant: 1 =
    /// durable, 2 = amnesia; `b` = total unsynced disk writes this node has
    /// lost to crashes so far). Emitted *in addition to* [`NODE_RECOVER`],
    /// which fires for every recovery regardless of mode.
    pub const NODE_RESTART: u8 = 7;
    /// A state-corruption strike hit the node (`a` = corruption op
    /// discriminant, `b` = units corrupted — rows, entries, or bit flips).
    pub const STATE_CORRUPT: u8 = 8;
    /// An outbound message was intercepted by a liar behavior
    /// (`a` = destination, `b` = 1 if tampered, 2 if dropped).
    pub const LIAR_INTERCEPT: u8 = 9;
    /// A collusion-script strike executed on a colluding member
    /// (`a` = corruption op discriminant, `b` = units affected).
    pub const COLLUSION_STRIKE: u8 = 10;
    /// A stolen-key strike executed on a compromised member
    /// (`a` = publisher whose key is held, `b` = items signed).
    pub const KEY_COMPROMISE_STRIKE: u8 = 11;
    /// A Sybil-flood strike executed on an adversary member
    /// (`a` = fabricated identities injected, `b` = claimed epoch).
    pub const SYBIL_STRIKE: u8 = 12;

    /// One gossip round executed (`a` = rows held, `b` = digests sent).
    pub const GOSSIP_ROUND: u8 = 16;
    /// A digest was sent (`a` = peer, `b` = wire bytes).
    pub const GOSSIP_DIGEST: u8 = 17;
    /// A diff (rows) was sent in reply (`a` = peer, `b` = rows).
    pub const GOSSIP_DIFF: u8 = 18;
    /// Rows were merged into the local tables (`a` = peer, `b` = rows).
    pub const GOSSIP_MERGE: u8 = 19;
    /// φ-accrual declared a peer suspect (`a` = peer or row label hash).
    pub const PHI_SUSPECT: u8 = 20;
    /// A newer incarnation of a peer was observed in gossip (`a` = peer id,
    /// `b` = the incarnation number). Stale-incarnation fencing and φ reset
    /// key off this observation.
    pub const INCARNATION_BUMP: u8 = 21;
    /// Defensive ingest validation rejected a gossip row (`a` = zone level,
    /// `b` = row label).
    pub const CORRUPT_ROW_REJECT: u8 = 22;
    /// The periodic self-audit repaired diverged local state (`a` = repair
    /// site code, `b` = units repaired).
    pub const SELF_AUDIT_REPAIR: u8 = 23;

    // 32 and 33 were amcast's second forwarding node's hop and local
    // delivery; NewsWire's node traces its own (`NW_DELIVER` and up).

    /// An item was published (`a` = item key).
    pub const NW_PUBLISH: u8 = 48;
    /// An item was delivered to the application (`a` = item key,
    /// `b` = publish→deliver latency in µs).
    pub const NW_DELIVER: u8 = 49;
    /// A tree hand-off was armed, awaiting ack (`a` = representative,
    /// `b` = message id).
    pub const HANDOFF_ARM: u8 = 50;
    /// A hand-off ack arrived (`a` = representative, `b` = message id).
    pub const HANDOFF_ACK: u8 = 51;
    /// A hand-off retried the same representative (`a` = representative,
    /// `b` = attempt).
    pub const HANDOFF_RETRY: u8 = 52;
    /// A hand-off failed over to the next representative (`a` = new rep).
    pub const HANDOFF_FAILOVER: u8 = 53;
    /// A hand-off was abandoned (`a` = message id).
    pub const HANDOFF_ABANDON: u8 = 54;
    // 55 was the margin probe's request, 56 the named pull's reply.
    /// An anti-entropy reconcile request was sent (`a` = peer,
    /// `b` = publisher).
    pub const AE_REQUEST: u8 = 57;
    /// An anti-entropy reconcile reply was served (`a` = peer, `b` = items).
    pub const AE_REPLY: u8 = 58;
    /// A subscription digest was (re)published into gossip (`a` = bytes).
    pub const SUB_PROPAGATE: u8 = 59;
    /// A cold restart began its recovery protocol (`a` = restart mode
    /// discriminant, `b` = items restored from stable storage).
    pub const NW_RECOVERY_START: u8 = 60;
    /// The recovery protocol finished — every tracked article log is
    /// hole-free again (`a` = recovery duration in µs, `b` = items
    /// backfilled from peers since the restart).
    pub const NW_RECOVERY_DONE: u8 = 61;
    /// The oracle ruled on self-stabilization (`a` = rounds used,
    /// `b` = 1 if every invariant was restored within the budget).
    pub const SELF_STABILIZED: u8 = 62;
    /// An item failed signature verification at an admission path
    /// (`a` = path discriminant: 1 = envelope, 2 = repair reply,
    /// 3 = reconcile reply, 4 = stable-storage restore; `b` = publisher).
    pub const FORGED_REJECT: u8 = 63;
    /// A peer crossed the misbehavior threshold and was quarantined out of
    /// peer selection (`a` = peer, `b` = accumulated score).
    pub const PEER_QUARANTINE: u8 = 64;
    /// An epoch claim above the publisher's signed authority was refused
    /// (`a` = claimed epoch, `b` = publisher).
    pub const SIGNED_EPOCH_REFUSAL: u8 = 65;
    /// A rotation/revocation record was verified and adopted
    /// (`a` = publisher, `b` = rotation serial).
    pub const CERT_REVOKED: u8 = 66;
    /// An admission was refused because its signing key-epoch is revoked
    /// (`a` = path discriminant: 1 = envelope, 2 = repair reply,
    /// 3 = reconcile reply, 4 = stable-storage restore, 5 = epoch
    /// attestation; `b` = publisher).
    pub const REVOKED_KEY_REJECT: u8 = 67;
    /// Cached items admitted under a key were retroactively purged after
    /// its revocation (`a` = publisher, `b` = items purged).
    pub const RETRO_PURGE: u8 = 68;
    /// An unendorsed identity was first held in the bounded probation set
    /// (`a` = identity, `b` = probation set size after the hold).
    pub const PROBATION_HOLD: u8 = 69;
    // 70 was the delivery chain's named pull.
    /// A `Deliver` went unacknowledged for a round-trip bound and was sent
    /// again (`a` = message id, `b` = the member).
    pub const DELIVER_RESEND: u8 = 71;
    /// An announce went unacknowledged for its wait and the payload was
    /// sent in its place (`a` = message id, `b` = the member).
    pub const ANNOUNCE_PAYLOAD: u8 = 72;

    /// Stable lowercase name of a kind (used in exports).
    pub fn name(k: u8) -> &'static str {
        match k {
            MSG_DELIVER => "msg_deliver",
            MSG_DROP => "msg_drop",
            NODE_CRASH => "node_crash",
            NODE_RECOVER => "node_recover",
            PARTITION_START => "partition_start",
            PARTITION_HEAL => "partition_heal",
            NODE_RESTART => "node_restart",
            STATE_CORRUPT => "state_corrupt",
            LIAR_INTERCEPT => "liar_intercept",
            COLLUSION_STRIKE => "collusion_strike",
            KEY_COMPROMISE_STRIKE => "key_compromise_strike",
            SYBIL_STRIKE => "sybil_strike",
            GOSSIP_ROUND => "gossip_round",
            GOSSIP_DIGEST => "gossip_digest",
            GOSSIP_DIFF => "gossip_diff",
            GOSSIP_MERGE => "gossip_merge",
            PHI_SUSPECT => "phi_suspect",
            INCARNATION_BUMP => "incarnation_bump",
            CORRUPT_ROW_REJECT => "corrupt_row_reject",
            SELF_AUDIT_REPAIR => "self_audit_repair",
            NW_PUBLISH => "nw_publish",
            NW_DELIVER => "nw_deliver",
            HANDOFF_ARM => "handoff_arm",
            HANDOFF_ACK => "handoff_ack",
            HANDOFF_RETRY => "handoff_retry",
            HANDOFF_FAILOVER => "handoff_failover",
            HANDOFF_ABANDON => "handoff_abandon",
            AE_REQUEST => "ae_request",
            AE_REPLY => "ae_reply",
            SUB_PROPAGATE => "sub_propagate",
            NW_RECOVERY_START => "nw_recovery_start",
            NW_RECOVERY_DONE => "nw_recovery_done",
            SELF_STABILIZED => "self_stabilized",
            FORGED_REJECT => "forged_reject",
            PEER_QUARANTINE => "peer_quarantine",
            SIGNED_EPOCH_REFUSAL => "signed_epoch_refusal",
            CERT_REVOKED => "cert_revoked",
            REVOKED_KEY_REJECT => "revoked_key_reject",
            RETRO_PURGE => "retro_purge",
            PROBATION_HOLD => "probation_hold",
            DELIVER_RESEND => "deliver_resend",
            ANNOUNCE_PAYLOAD => "announce_payload",
            _ => "unknown",
        }
    }
}

/// One trace record: 32 bytes, fixed layout, no heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated timestamp, µs since simulation start.
    pub t_us: u64,
    /// First operand (meaning depends on [`kind`]).
    pub a: u64,
    /// Second operand.
    pub b: u64,
    /// Emitting node (`u32::MAX` for engine-global records).
    pub node: u32,
    /// Emitting layer.
    pub layer: Layer,
    /// Record kind (one of the [`kind`] constants).
    pub kind: u8,
}

impl TraceEvent {
    /// Sentinel node id for records not attributable to one node.
    pub const GLOBAL: u32 = u32::MAX;

    /// Encodes the record into its 32-byte little-endian wire form.
    pub fn encode(&self) -> [u8; 32] {
        let mut out = [0u8; 32];
        out[0..8].copy_from_slice(&self.t_us.to_le_bytes());
        out[8..16].copy_from_slice(&self.a.to_le_bytes());
        out[16..24].copy_from_slice(&self.b.to_le_bytes());
        out[24..28].copy_from_slice(&self.node.to_le_bytes());
        out[28] = self.layer as u8;
        out[29] = self.kind;
        out
    }

    /// Decodes a record from its 32-byte wire form. Returns `None` for an
    /// unknown layer byte.
    pub fn decode(buf: &[u8; 32]) -> Option<TraceEvent> {
        Some(TraceEvent {
            t_us: u64::from_le_bytes(buf[0..8].try_into().unwrap()),
            a: u64::from_le_bytes(buf[8..16].try_into().unwrap()),
            b: u64::from_le_bytes(buf[16..24].try_into().unwrap()),
            node: u32::from_le_bytes(buf[24..28].try_into().unwrap()),
            layer: Layer::from_u8(buf[28])?,
            kind: buf[29],
        })
    }
}

/// A bounded ring of trace records with a **drop-oldest** overflow policy.
///
/// Long runs emit far more records than anyone wants to keep; the ring keeps
/// the most recent `capacity` and counts what it discarded, so exports can
/// report exactly how much history was shed.
#[derive(Debug, Clone)]
pub struct TraceRing {
    buf: Vec<TraceEvent>,
    capacity: usize,
    /// Index of the oldest record once the ring has wrapped.
    head: usize,
    dropped: u64,
}

/// Default ring capacity (records), chosen so a full chaos-day run keeps its
/// recent history while the ring stays ~2 MiB.
pub const DEFAULT_RING_CAPACITY: usize = 65_536;

impl Default for TraceRing {
    fn default() -> Self {
        TraceRing::new(DEFAULT_RING_CAPACITY)
    }
}

impl TraceRing {
    /// A ring holding at most `capacity` records (min 1).
    pub fn new(capacity: usize) -> Self {
        TraceRing { buf: Vec::new(), capacity: capacity.max(1), head: 0, dropped: 0 }
    }

    /// Maximum records retained.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when no records are held.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Records discarded by the drop-oldest policy so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Pushes a record, evicting the oldest when full.
    #[inline]
    pub fn push(&mut self, ev: TraceEvent) {
        if self.buf.len() < self.capacity {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
            self.head += 1;
            if self.head == self.capacity {
                self.head = 0;
            }
            self.dropped += 1;
        }
    }

    /// The retained records, oldest first.
    pub fn ordered(&self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }

    /// Empties the ring (drop counter included) and returns the records that
    /// were held, oldest first.
    pub fn drain(&mut self) -> Vec<TraceEvent> {
        let out = self.ordered();
        self.buf.clear();
        self.head = 0;
        self.dropped = 0;
        out
    }

    /// Changes the capacity. Existing records beyond the new capacity are
    /// discarded oldest-first (counted as dropped).
    pub fn set_capacity(&mut self, capacity: usize) {
        let capacity = capacity.max(1);
        let mut ordered = self.ordered();
        if ordered.len() > capacity {
            let shed = ordered.len() - capacity;
            ordered.drain(..shed);
            self.dropped += shed as u64;
        }
        self.buf = ordered;
        self.head = 0;
        self.capacity = capacity;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: u64) -> TraceEvent {
        TraceEvent { t_us: t, a: t * 2, b: t * 3, node: t as u32, layer: Layer::Sim, kind: 1 }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let e = TraceEvent {
            t_us: 123_456,
            a: u64::MAX,
            b: 7,
            node: 42,
            layer: Layer::News,
            kind: kind::NW_DELIVER,
        };
        assert_eq!(TraceEvent::decode(&e.encode()), Some(e));
        assert_eq!(std::mem::size_of::<TraceEvent>(), 32);
    }

    #[test]
    fn ring_overflow_drops_oldest() {
        let mut r = TraceRing::new(4);
        for t in 0..7 {
            r.push(ev(t));
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.dropped(), 3, "three oldest records shed");
        let kept: Vec<u64> = r.ordered().iter().map(|e| e.t_us).collect();
        assert_eq!(kept, vec![3, 4, 5, 6], "survivors are the newest, oldest first");
    }

    #[test]
    fn ring_drain_resets() {
        let mut r = TraceRing::new(2);
        r.push(ev(0));
        r.push(ev(1));
        r.push(ev(2));
        let drained = r.drain();
        assert_eq!(drained.len(), 2);
        assert!(r.is_empty());
        assert_eq!(r.dropped(), 0, "drain clears the drop counter");
    }

    #[test]
    fn ring_shrink_keeps_newest() {
        let mut r = TraceRing::new(8);
        for t in 0..6 {
            r.push(ev(t));
        }
        r.set_capacity(3);
        let kept: Vec<u64> = r.ordered().iter().map(|e| e.t_us).collect();
        assert_eq!(kept, vec![3, 4, 5]);
        assert_eq!(r.dropped(), 3);
        r.push(ev(6));
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn kind_names_are_stable() {
        assert_eq!(kind::name(kind::MSG_DELIVER), "msg_deliver");
        assert_eq!(kind::name(kind::AE_REPLY), "ae_reply");
        assert_eq!(kind::name(kind::NODE_RESTART), "node_restart");
        assert_eq!(kind::name(kind::INCARNATION_BUMP), "incarnation_bump");
        assert_eq!(kind::name(kind::NW_RECOVERY_DONE), "nw_recovery_done");
        assert_eq!(kind::name(kind::COLLUSION_STRIKE), "collusion_strike");
        assert_eq!(kind::name(kind::FORGED_REJECT), "forged_reject");
        assert_eq!(kind::name(kind::PEER_QUARANTINE), "peer_quarantine");
        assert_eq!(kind::name(kind::SIGNED_EPOCH_REFUSAL), "signed_epoch_refusal");
        assert_eq!(kind::name(kind::KEY_COMPROMISE_STRIKE), "key_compromise_strike");
        assert_eq!(kind::name(kind::SYBIL_STRIKE), "sybil_strike");
        assert_eq!(kind::name(kind::CERT_REVOKED), "cert_revoked");
        assert_eq!(kind::name(kind::REVOKED_KEY_REJECT), "revoked_key_reject");
        assert_eq!(kind::name(kind::RETRO_PURGE), "retro_purge");
        assert_eq!(kind::name(kind::PROBATION_HOLD), "probation_hold");
        assert_eq!(kind::name(kind::DELIVER_RESEND), "deliver_resend");
        assert_eq!(kind::name(kind::ANNOUNCE_PAYLOAD), "announce_payload");
        assert_eq!(kind::ANNOUNCE_PAYLOAD, 72);
        assert_eq!(kind::name(250), "unknown");
        // Retired kinds stay unnamed, so an old trace cannot be misread.
        for retired in [32, 33, 55, 56, 70] {
            assert_eq!(kind::name(retired), "unknown", "kind {retired}");
        }
        assert_eq!(Layer::from_u8(2), Some(Layer::Amcast));
        assert_eq!(Layer::from_u8(9), None);
    }
}
