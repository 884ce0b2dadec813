//! Sim-time trace records and the bounded ring that stores them.

use std::collections::VecDeque;
use std::fmt;

#[cfg(test)]
pub(crate) mod model;

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
}

/// Trace record kinds. Grouped by layer in blocks of 16 so new kinds can be
/// added without renumbering; a retired number is never reused, so an old
/// trace cannot be misread.
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
    /// A hand-off failed over without its remaining retries because its
    /// representative was suspect — backed off by the acknowledgement
    /// table or quarantined (`a` = the representative). The name is kept
    /// from when a per-peer φ detector made the call.
    pub const PHI_SUSPECT: u8 = 20;
    /// A newer incarnation of a peer was observed in gossip (`a` = peer id,
    /// `b` = the incarnation number). Stale-incarnation fencing, the φ
    /// reset and the host's back-off reset key off this observation.
    pub const INCARNATION_BUMP: u8 = 21;
    /// Defensive ingest validation rejected a gossip row (`a` = zone level,
    /// `b` = row label).
    pub const CORRUPT_ROW_REJECT: u8 = 22;
    /// The periodic self-audit repaired diverged local state (`a` = repair
    /// site code, `b` = units repaired).
    pub const SELF_AUDIT_REPAIR: u8 = 23;

    // 32 and 33 were amcast's second forwarding node's hop and local
    // delivery; NewsWire's node traces its own (`NW_DELIVER` and up).

    /// An item was published (`a` = the item's trace key,
    /// `newswire::trace_key`: its publisher id and seq packed so that small
    /// ones keep the record short).
    pub const NW_PUBLISH: u8 = 48;
    /// An item was delivered to the application (`a` = its trace key,
    /// `b` = publish→deliver latency in µs).
    pub const NW_DELIVER: u8 = 49;
    /// A tree hand-off was armed, awaiting ack (`a` = the item's trace key,
    /// `b` = the representative).
    pub const HANDOFF_ARM: u8 = 50;
    /// A hand-off ack arrived (`a` = the item's trace key, `b` = the
    /// representative that acked).
    pub const HANDOFF_ACK: u8 = 51;
    /// A hand-off retried the same representative (`a` = the item's trace
    /// key, `b` = the representative).
    pub const HANDOFF_RETRY: u8 = 52;
    /// A hand-off failed over to the next representative (`a` = the item's
    /// trace key, `b` = the new representative).
    pub const HANDOFF_FAILOVER: u8 = 53;
    /// A hand-off was abandoned to anti-entropy (`a` = the item's trace key,
    /// `b` = the last representative tried).
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
    /// again (`a` = the item's trace key, `b` = the member).
    pub const DELIVER_RESEND: u8 = 71;
    /// An announce went unacknowledged for its wait and the payload was
    /// sent in its place (`a` = the item's trace key, `b` = the member).
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

/// One trace record: a plain in-memory struct (32 bytes, no heap), exported
/// by name through [`Telemetry`](crate::Telemetry)'s JSON and CSV. The ring
/// keeps it packed and rebuilds it on the way out ([`TraceRing`]).
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
}

/// Bytes in one block of packed records.
const BLOCK: usize = 4096;
/// Bytes of a short record: one 80-bit little-endian word holding, from
/// the least significant bit, a 0 (the form), the layer (2 bits), the kind
/// (8), the node (`NODE_BITS`), the time since the block's previous record
/// (`DT_BITS`), `a` (`A_BITS`) and `b` (`B_BITS`).
const SHORT: usize = 10;
/// Bytes of a long record: a byte holding a 1 (the form) and the layer,
/// the kind, then the node (4 bytes), the absolute time, `a` and `b`
/// (8 bytes each), all little-endian. Any record fits it.
const LONG: usize = 30;
const NODE_BITS: u32 = 16;
const DT_BITS: u32 = 13;
const A_BITS: u32 = 20;
const B_BITS: u32 = 20;
const NODE_AT: u32 = 11;
const DT_AT: u32 = NODE_AT + NODE_BITS;
const A_AT: u32 = DT_AT + DT_BITS;
const B_AT: u32 = A_AT + A_BITS;
const _: () = assert!(B_AT < 64 && B_AT + B_BITS == 8 * SHORT as u32);

impl Layer {
    fn from_bits(bits: u8) -> Layer {
        match bits & 3 {
            0 => Layer::Sim,
            1 => Layer::Astro,
            2 => Layer::Amcast,
            _ => Layer::News,
        }
    }
}

/// Writes `ev`, `dt` µs after the block's previous record (modulo 2^64),
/// at the start of `out`; returns the bytes written. A backward step is a
/// difference far past `DT_BITS`, so it takes the long form.
#[inline]
fn encode(out: &mut [u8; LONG], ev: &TraceEvent, dt: u64) -> usize {
    let small =
        (u64::from(ev.node) >> NODE_BITS) | (dt >> DT_BITS) | (ev.a >> A_BITS) | (ev.b >> B_BITS);
    if small == 0 {
        // The word's low 64 bits, then its top 16 (the top of `b`).
        let low = (ev.layer as u64) << 1
            | u64::from(ev.kind) << 3
            | u64::from(ev.node) << NODE_AT
            | dt << DT_AT
            | ev.a << A_AT
            | ev.b << B_AT;
        out[..8].copy_from_slice(&low.to_le_bytes());
        out[8..SHORT].copy_from_slice(&((ev.b >> (64 - B_AT)) as u16).to_le_bytes());
        SHORT
    } else {
        out[0] = 1 | (ev.layer as u8) << 1;
        out[1] = ev.kind;
        out[2..6].copy_from_slice(&ev.node.to_le_bytes());
        out[6..14].copy_from_slice(&ev.t_us.to_le_bytes());
        out[14..22].copy_from_slice(&ev.a.to_le_bytes());
        out[22..30].copy_from_slice(&ev.b.to_le_bytes());
        LONG
    }
}

/// Reads the record at the start of `bytes`, whose predecessor in the block
/// was stamped `*t`; advances `*t` to its time and returns it with the
/// bytes it took.
fn decode(bytes: &[u8], t: &mut u64) -> (TraceEvent, usize) {
    let u64_at = |i: usize| u64::from_le_bytes(bytes[i..i + 8].try_into().expect("8 bytes"));
    if bytes[0] & 1 == 0 {
        let mut word = [0; 16];
        word[..SHORT].copy_from_slice(&bytes[..SHORT]);
        let word = u128::from_le_bytes(word);
        let field = |at: u32, bits: u32| (word >> at) as u64 & ((1 << bits) - 1);
        *t = t.wrapping_add(field(DT_AT, DT_BITS));
        let ev = TraceEvent {
            t_us: *t,
            a: field(A_AT, A_BITS),
            b: field(B_AT, B_BITS),
            node: field(NODE_AT, NODE_BITS) as u32,
            layer: Layer::from_bits(field(1, 2) as u8),
            kind: field(3, 8) as u8,
        };
        (ev, SHORT)
    } else {
        *t = u64_at(6);
        let ev = TraceEvent {
            t_us: *t,
            a: u64_at(14),
            b: u64_at(22),
            node: u32::from_le_bytes(bytes[2..6].try_into().expect("4 bytes")),
            layer: Layer::from_bits(bytes[0] >> 1),
            kind: bytes[1],
        };
        (ev, LONG)
    }
}

/// A block of packed records, oldest first.
#[derive(Clone)]
struct Block {
    /// `BLOCK` bytes, or none before the ring's first record.
    bytes: Box<[u8]>,
    /// Bytes written.
    used: usize,
    /// Records written.
    count: usize,
    /// Time of the first record, the base of the block's first delta.
    t0: u64,
}

impl Block {
    /// A tail with no buffer, so no room: the first push opens a block.
    fn empty() -> Block {
        Block { bytes: Box::default(), used: 0, count: 0, t0: 0 }
    }
}

/// A bounded ring of trace records with a **drop-oldest** overflow policy.
///
/// Long runs emit far more records than anyone wants to keep; the ring keeps
/// the most recent `capacity` and counts what it discarded, so exports can
/// report exactly how much history was shed.
///
/// Records are stored packed in 4 KiB blocks: 10 bytes when the node fits
/// 16 bits, `a` and `b` 20 bits each and the time is less than 8.192 ms
/// after the block's previous record, and 30 bytes otherwise (any `u64`
/// operand, [`TraceEvent::GLOBAL`], a backward timestamp). Each time the
/// block being written fills, the oldest blocks whose records were all
/// shed are freed, so a push never decodes and never frees, and a ring
/// that keeps shedding reuses one buffer.
#[derive(Clone)]
pub struct TraceRing {
    /// Blocks written full, oldest first.
    full: VecDeque<Block>,
    /// The block being written, after every full one.
    tail: Block,
    /// The last freed block's buffer, for the next block to open: a ring
    /// allocates nothing once it is full.
    spare: Option<Box<[u8]>>,
    /// Records already shed at the front of the blocks (the full ones,
    /// then the tail). Blocks are freed only as the tail fills, so this
    /// may span more than one.
    skip: usize,
    /// Time of the newest record, the base of the next delta.
    last_t: u64,
    len: usize,
    capacity: usize,
    dropped: u64,
}

/// Default ring capacity (records), chosen so a full chaos-day run keeps its
/// recent history. Packed, a full ring of engine records holds about
/// 0.68 MB (10.3 B a record), and one of long records 1.99 MB, against the
/// 2 MiB of 32-byte records an unpacked ring held.
pub const DEFAULT_RING_CAPACITY: usize = 65_536;

impl Default for TraceRing {
    fn default() -> Self {
        TraceRing::new(DEFAULT_RING_CAPACITY)
    }
}

impl fmt::Debug for TraceRing {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceRing")
            .field("len", &self.len)
            .field("capacity", &self.capacity)
            .field("dropped", &self.dropped)
            .field("full_blocks", &self.full.len())
            .finish_non_exhaustive()
    }
}

impl TraceRing {
    /// A ring holding at most `capacity` records (min 1).
    pub fn new(capacity: usize) -> Self {
        TraceRing {
            full: VecDeque::new(),
            tail: Block::empty(),
            spare: None,
            skip: 0,
            last_t: 0,
            len: 0,
            capacity: capacity.max(1),
            dropped: 0,
        }
    }

    /// Maximum records retained.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records currently held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no records are held.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Records discarded by the drop-oldest policy so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The heap bytes the ring holds: its blocks, the spare one and the
    /// block table.
    pub fn heap_bytes(&self) -> usize {
        let spare = self.spare.as_ref().map_or(0, |b| b.len());
        self.full.len() * BLOCK
            + self.tail.bytes.len()
            + spare
            + self.full.capacity() * std::mem::size_of::<Block>()
    }

    /// Pushes a record, evicting the oldest when full.
    #[inline]
    pub fn push(&mut self, ev: TraceEvent) {
        if self.tail.bytes.len() - self.tail.used < LONG {
            self.roll(ev.t_us);
        }
        let dt = ev.t_us.wrapping_sub(self.last_t);
        self.last_t = ev.t_us;
        let tail = &mut self.tail;
        let out = (&mut tail.bytes[tail.used..tail.used + LONG]).try_into().expect("LONG bytes");
        tail.used += encode(out, &ev, dt);
        tail.count += 1;
        if self.len < self.capacity {
            self.len += 1;
        } else {
            self.dropped += 1;
            self.skip += 1;
        }
    }

    /// Files the tail with the full blocks, frees the ones that hold only
    /// shed records, and opens a new tail at `t0`.
    #[cold]
    fn roll(&mut self, t0: u64) {
        let done = std::mem::replace(&mut self.tail, Block::empty());
        if done.count > 0 {
            self.full.push_back(done);
        }
        self.shed_blocks();
        let bytes = self.spare.take().unwrap_or_else(|| vec![0; BLOCK].into_boxed_slice());
        self.tail = Block { bytes, used: 0, count: 0, t0 };
        self.last_t = t0;
    }

    /// Frees the oldest full blocks while every record in them was shed,
    /// keeping the last buffer freed as the spare. The newest record is
    /// never shed, so the tail never is either.
    fn shed_blocks(&mut self) {
        while self.full.front().is_some_and(|b| b.count <= self.skip) {
            let block = self.full.pop_front().expect("a front block");
            self.skip -= block.count;
            self.spare = Some(block.bytes);
        }
    }

    /// The retained records, oldest first.
    pub fn ordered(&self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.len);
        let mut skip = self.skip;
        for block in self.full.iter().chain([&self.tail]) {
            let (mut at, mut t) = (0, block.t0);
            while at < block.used {
                let (ev, n) = decode(&block.bytes[at..], &mut t);
                at += n;
                if skip > 0 {
                    skip -= 1;
                } else {
                    out.push(ev);
                }
            }
        }
        debug_assert_eq!(out.len(), self.len);
        out
    }

    /// Empties the ring (drop counter included) and returns the records that
    /// were held, oldest first.
    pub fn drain(&mut self) -> Vec<TraceEvent> {
        let out = self.ordered();
        self.full.clear();
        self.tail = Block::empty();
        self.skip = 0;
        self.len = 0;
        self.dropped = 0;
        out
    }

    /// Changes the capacity. Existing records beyond the new capacity are
    /// discarded oldest-first (counted as dropped).
    pub fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity.max(1);
        if self.len > self.capacity {
            let shed = self.len - self.capacity;
            self.len = self.capacity;
            self.dropped += shed as u64;
            self.skip += shed;
            self.shed_blocks();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::model::VecRing;
    use super::*;

    fn ev(t: u64) -> TraceEvent {
        TraceEvent { t_us: t, a: t * 2, b: t * 3, node: t as u32, layer: Layer::Sim, kind: 1 }
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
        assert_eq!(
            std::mem::size_of::<TraceEvent>(),
            32,
            "a record is 32 bytes unpacked; the ring stores it in 10 or 30"
        );
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

    /// A seeded splitmix64 stream.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// A value of a field `bits` wide in the short form: mostly small, and
    /// otherwise at either side of the field's edge or anywhere in `u64`.
    fn operand(rng: &mut Rng, bits: u32) -> u64 {
        match rng.below(16) {
            0 => rng.next(),
            1 => u64::MAX,
            2 => (1 << bits) - 1,
            3 => 1 << bits,
            _ => rng.below(1 << 12),
        }
    }

    /// The next record of a random stream whose clock stands at `t`: any
    /// node (`GLOBAL` included), layer and kind, operands across `u64`,
    /// and a clock that mostly steps forward a little but also jumps,
    /// stands still and goes backward.
    fn random_event(rng: &mut Rng, t: &mut u64) -> TraceEvent {
        *t = match rng.below(16) {
            0 => t.saturating_sub(rng.below(1 << 14)),
            1 => rng.next(),
            2 => t.saturating_add(operand(rng, DT_BITS)),
            3..=7 => *t,
            _ => t.saturating_add(rng.below(1 << 10)),
        };
        let node = match rng.below(8) {
            0 => TraceEvent::GLOBAL,
            1 => rng.next() as u32,
            2 => operand(rng, NODE_BITS) as u32,
            _ => rng.below(512) as u32,
        };
        TraceEvent {
            t_us: *t,
            a: operand(rng, A_BITS),
            b: operand(rng, B_BITS),
            node,
            layer: Layer::from_bits(rng.next() as u8),
            kind: rng.next() as u8,
        }
    }

    fn assert_same(ring: &TraceRing, model: &VecRing, step: usize) {
        assert_eq!(ring.len(), model.len(), "len at step {step}");
        assert_eq!(ring.dropped(), model.dropped(), "dropped at step {step}");
        assert_eq!(ring.capacity(), model.capacity(), "capacity at step {step}");
        assert_eq!(ring.ordered(), model.ordered(), "records at step {step}");
    }

    /// Drives the packed ring and the unpacked model through one seeded
    /// stream of pushes, resizes, drains and clones, comparing them after
    /// every step.
    fn lockstep(seed: u64, capacity: usize, steps: usize) {
        let mut rng = Rng(seed);
        let (mut ring, mut model) = (TraceRing::new(capacity), VecRing::new(capacity));
        let mut t = 0;
        for step in 0..steps {
            match rng.below(1_000) {
                0..=3 => {
                    let to = 1 + rng.below(3 * capacity as u64) as usize;
                    ring.set_capacity(to);
                    model.set_capacity(to);
                }
                4 => assert_eq!(ring.drain(), model.drain(), "drained at step {step}"),
                5 => (ring, model) = (ring.clone(), model.clone()),
                _ => {
                    let ev = random_event(&mut rng, &mut t);
                    ring.push(ev);
                    model.push(ev);
                }
            }
            assert_same(&ring, &model, step);
        }
    }

    #[test]
    fn packed_ring_matches_the_unpacked_model() {
        // One record, a few, one block of short records either side of its
        // edge (a block takes 407 of them), and several blocks.
        for (seed, capacity) in [(1, 1), (2, 2), (3, 5), (4, 406), (5, 407), (6, 408), (7, 1_300)] {
            lockstep(seed, capacity, 4_000);
        }
    }

    #[test]
    fn both_forms_round_trip_at_their_edges() {
        let edge = |bits: u32| [0, (1 << bits) - 1, 1 << bits, u64::MAX];
        let mut ring = TraceRing::new(1 << 12);
        let mut model = VecRing::new(1 << 12);
        let mut t: u64 = 5;
        for dt in edge(DT_BITS) {
            t = t.saturating_add(dt);
            for node in edge(NODE_BITS).map(|n| n as u32).into_iter().chain([TraceEvent::GLOBAL]) {
                for (a, b) in edge(A_BITS).into_iter().zip(edge(B_BITS).into_iter().rev()) {
                    for layer in [Layer::Sim, Layer::Astro, Layer::Amcast, Layer::News] {
                        let ev = TraceEvent { t_us: t, a, b, node, layer, kind: (a ^ t) as u8 };
                        ring.push(ev);
                        model.push(ev);
                    }
                }
            }
        }
        for kind in 0..=255 {
            // Every kind, on a clock that steps back 1 µs a record.
            let ev = TraceEvent {
                t_us: 255 - u64::from(kind),
                a: 1,
                b: 2,
                node: 3,
                layer: Layer::News,
                kind,
            };
            ring.push(ev);
            model.push(ev);
        }
        assert_eq!(model.dropped(), 0);
        assert_same(&ring, &model, 0);
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
    }
}
