//! Node identity and the application callback interface.

use std::fmt;

use rand::rngs::SmallRng;

use crate::disk::{Disk, RestartMode};
use crate::time::{SimDuration, SimTime};

/// Dense identifier of a simulated node (index into the node table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u32);

impl NodeId {
    /// A pseudo-sender for messages injected from outside the simulation
    /// (experiment harnesses, attack generators).
    pub const EXTERNAL: NodeId = NodeId(u32::MAX);

    /// The node-table index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == NodeId::EXTERNAL {
            write!(f, "n(ext)")
        } else {
            write!(f, "n{}", self.0)
        }
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

/// Handle of a pending timer, returned by [`Context::set_timer`] and
/// accepted by [`Context::cancel_timer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimerId(pub(crate) u64);

/// One flavor of adversarial state corruption the fault engine can inflict
/// on a node (see `CorruptionSpec`). The engine handles [`CorruptionOp::DiskBytes`]
/// itself (it owns the disks); the in-memory flavors are dispatched to the
/// protocol through [`Node::apply_corruption`], so the engine stays generic
/// over what a node's state looks like.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptionOp {
    /// Scramble live membership/aggregation state: subscription summary
    /// attributes in the node's own MIB row plus up to `rows` held zone-table
    /// rows (stamps preserved, so gossip's stamp-diff repair is blind to it).
    ZoneRows {
        /// Held rows to scramble.
        rows: u32,
    },
    /// Corrupt a sequenced log: bump its epoch past the legitimate one and
    /// insert `entries` phantom entries (state the node never actually saw).
    LogEpoch {
        /// Phantom entries to insert.
        entries: u32,
    },
    /// Flip `flips` random bits across the node's fsynced disk records
    /// (torn state — complements the crash model's *lost* state).
    DiskBytes {
        /// Bits to flip.
        flips: u32,
    },
    /// Fabricate `items` forged payload items (bogus content under invented
    /// or tampered signatures) directly into the node's own state, where
    /// anti-entropy and repair traffic will offer them to honest peers.
    /// `publisher` is the raw id of the authority being impersonated.
    ForgeItems {
        /// Forged items to fabricate per strike.
        items: u32,
        /// Raw id of the publisher being impersonated.
        publisher: u16,
    },
    /// Assert a jointly-fabricated log epoch for `publisher` and advertise
    /// it: the collusion script's vote. Every colluding member asserts the
    /// *same* `epoch`, so an unsigned neighborhood mode can be captured by
    /// a majority while signed authority cannot.
    VoteEpoch {
        /// Raw id of the publisher whose history is being rewritten.
        publisher: u16,
        /// The fabricated epoch the group jointly claims.
        epoch: u32,
    },
    /// Sign forgeries with a *stolen real key*: the adversary holds
    /// `publisher`'s current signing key (exfiltrated from the trust
    /// registry) and fabricates `items` items plus a bogus epoch
    /// attestation bumped `attest_bump` above the signed authority — all
    /// of which verify correctly until the key-epoch is revoked.
    StolenKey {
        /// Raw id of the publisher whose key the adversary holds.
        publisher: u16,
        /// Forged (validly signed) items fabricated per strike.
        items: u32,
        /// How far above the current authority the bogus attestation
        /// claims.
        attest_bump: u32,
    },
    /// Inject `identities` fabricated member identities into the node's own
    /// leaf-zone table, where gossip will spread them: the Sybil burst.
    /// Each fake row votes the fabricated `epoch` for `publisher`.
    SybilFlood {
        /// Fabricated identities injected per strike.
        identities: u32,
        /// Raw id of the publisher whose epoch the Sybils vote.
        publisher: u16,
        /// The fabricated epoch the Sybils jointly claim.
        epoch: u32,
    },
}

impl CorruptionOp {
    /// Stable discriminant for traces.
    pub fn discriminant(self) -> u64 {
        match self {
            CorruptionOp::ZoneRows { .. } => 1,
            CorruptionOp::LogEpoch { .. } => 2,
            CorruptionOp::DiskBytes { .. } => 3,
            CorruptionOp::ForgeItems { .. } => 4,
            CorruptionOp::VoteEpoch { .. } => 5,
            CorruptionOp::StolenKey { .. } => 6,
            CorruptionOp::SybilFlood { .. } => 7,
        }
    }

    /// Stable lowercase name, for reports.
    pub fn name(self) -> &'static str {
        match self {
            CorruptionOp::ZoneRows { .. } => "zone_rows",
            CorruptionOp::LogEpoch { .. } => "log_epoch",
            CorruptionOp::DiskBytes { .. } => "disk_bytes",
            CorruptionOp::ForgeItems { .. } => "forge_items",
            CorruptionOp::VoteEpoch { .. } => "vote_epoch",
            CorruptionOp::StolenKey { .. } => "stolen_key",
            CorruptionOp::SybilFlood { .. } => "sybil_flood",
        }
    }
}

/// What a lying node does to its own outbound traffic (see `LiarSpec`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LiarMode {
    /// Mis-aggregate: rewrite subscription summaries (Bloom bits, category
    /// masks) in outbound gossip rows to wrong values.
    MisSummarize,
    /// Selectively drop outbound payload messages by subject.
    SelectiveDrop,
    /// Re-advertise stale anti-entropy digests (claim to know nothing).
    StaleDigest,
    /// Split-brain lying: tell *different* stories to different peers —
    /// inflated anti-entropy digests to one half of the destination space,
    /// stale ones to the other — so no single observer sees a
    /// contradiction, only the neighborhood in aggregate does.
    SplitBrain,
}

impl LiarMode {
    /// Stable lowercase name, for reports.
    pub fn name(self) -> &'static str {
        match self {
            LiarMode::MisSummarize => "mis_summarize",
            LiarMode::SelectiveDrop => "selective_drop",
            LiarMode::StaleDigest => "stale_digest",
            LiarMode::SplitBrain => "split_brain",
        }
    }
}

/// A liar assignment: the mode plus the per-message probability that an
/// outbound message is intercepted while the behavior is installed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LiarBehavior {
    /// What the lie does.
    pub mode: LiarMode,
    /// Probability an outbound message is run through the interceptor.
    pub prob: f64,
}

/// Outcome of a liar intercept, reported by [`Node::tamper_outbound`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LiarAction {
    /// The message was not touched (the lie does not apply to it).
    Pass,
    /// The message was modified in place and should still be routed.
    Tampered,
    /// The message must be silently dropped.
    Dropped,
}

/// Messages must report their wire size so the engine can account bandwidth.
///
/// Implementations should return the approximate serialized size; the engine
/// never serializes messages (they move by ownership), but experiments E2 and
/// E12 report byte loads from these figures.
pub trait Payload {
    /// Approximate serialized size of this message, in bytes.
    fn wire_size(&self) -> usize;

    /// Size after the delta/compression accounting model, in bytes.
    ///
    /// Defaults to [`Payload::wire_size`]; message types that can ship a
    /// payload as a delta against receiver-held state (see the newswire
    /// delta protocol) override this to report the smaller figure. The
    /// engine tallies it into the `bytes_wire` counter only when
    /// [`Simulation::set_delta_accounting`](crate::Simulation::set_delta_accounting)
    /// is on, so deltas-off telemetry carries no such counter.
    fn compressed_wire_size(&self) -> usize {
        self.wire_size()
    }
}

impl Payload for () {
    fn wire_size(&self) -> usize {
        0
    }
}

impl Payload for Vec<u8> {
    fn wire_size(&self) -> usize {
        self.len()
    }
}

/// The callback interface a simulated protocol implements.
///
/// One value of the implementing type exists per node; the engine invokes the
/// callbacks with a [`Context`] through which the node reads the clock, sends
/// messages, and manages timers. All callbacks run on simulated time — they
/// must not block or use wall-clock time.
pub trait Node {
    /// The message type exchanged between nodes of this protocol. `Clone`
    /// lets the network duplicate messages in flight (chaos injection).
    type Msg: Payload + Clone;

    /// Invoked once when the simulation starts (or the node is spawned).
    fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg>);

    /// Invoked when a message addressed to this node arrives.
    fn on_message(&mut self, ctx: &mut Context<'_, Self::Msg>, from: NodeId, msg: Self::Msg);

    /// Invoked when a timer set via [`Context::set_timer`] fires.
    fn on_timer(&mut self, ctx: &mut Context<'_, Self::Msg>, timer: TimerId, tag: u64);

    /// Invoked when the engine crashes this node. Default: do nothing.
    ///
    /// While down the node receives no messages or timers; timers that
    /// expire during the outage are lost. What the node gets back at
    /// recovery is decided by the [`RestartMode`] of the recovery event, not
    /// here: the in-memory value always survives in the engine's node table,
    /// but under a cold restart [`Node::on_restart`] is responsible for
    /// discarding it. The engine applies the disk failure model (losing the
    /// newest unsynced writes) immediately after this hook returns.
    fn on_crash(&mut self) {}

    /// Invoked when the engine recovers this node under the legacy
    /// "process freeze" model ([`RestartMode::Freeze`]): all volatile state
    /// survived the outage. Default: do nothing.
    ///
    /// Protocols that support cold restarts should override
    /// [`Node::on_restart`] instead, which receives the restart mode and can
    /// reach stable storage through [`Context::disk`]; its default delegates
    /// `Freeze` recoveries here.
    fn on_recover(&mut self, _ctx: &mut Context<'_, Self::Msg>) {}

    /// Invoked when the engine recovers this node, with the restart mode the
    /// recovery was scheduled under (see
    /// [`Simulation::schedule_restart`](crate::Simulation::schedule_restart)
    /// and `ChurnSpec::restart`).
    ///
    /// The contract per mode:
    ///
    /// - [`RestartMode::Freeze`] — volatile state survived; resume.
    /// - [`RestartMode::ColdDurable`] — the process died: the node must
    ///   discard all volatile state and rebuild from [`Context::disk`],
    ///   which holds everything fsynced before the crash (minus the
    ///   configured number of lost unsynced writes).
    /// - [`RestartMode::ColdAmnesia`] — the machine died: the engine has
    ///   already wiped the disk; the node must discard everything and
    ///   rejoin as if newly installed.
    ///
    /// The default delegates to [`Node::on_recover`] for *every* mode, which
    /// preserves the legacy freeze semantics for nodes that predate cold
    /// restarts; override this to honor the cold modes.
    fn on_restart(&mut self, ctx: &mut Context<'_, Self::Msg>, mode: RestartMode) {
        let _ = mode;
        self.on_recover(ctx);
    }

    /// Invoked when a scheduled in-memory corruption strike hits this node
    /// (see `CorruptionSpec`). The implementation scrambles its own live
    /// state as `op` directs, drawing any randomness it needs from `rng`
    /// (a stream private to the strike — never the node's protocol RNG).
    /// Returns how many units (rows, entries) were actually corrupted.
    ///
    /// The default ignores the strike: protocols that predate the
    /// adversarial fault layer are simply immune.
    fn apply_corruption(&mut self, op: &CorruptionOp, rng: &mut SmallRng) -> u64 {
        let _ = (op, rng);
        0
    }

    /// Invoked for each outbound message selected for interception while a
    /// liar behavior is installed on this node (see `LiarSpec`). The
    /// implementation may rewrite `msg` in place ([`LiarAction::Tampered`]),
    /// ask for it to be silently dropped ([`LiarAction::Dropped`]), or leave
    /// it alone ([`LiarAction::Pass`]). `rng` is the engine's dedicated liar
    /// stream.
    ///
    /// The default never lies.
    fn tamper_outbound(
        &mut self,
        to: NodeId,
        msg: &mut Self::Msg,
        mode: LiarMode,
        rng: &mut SmallRng,
    ) -> LiarAction {
        let _ = (to, msg, mode, rng);
        LiarAction::Pass
    }
}

/// One message or timer the node asked the engine to schedule.
#[derive(Debug)]
pub(crate) enum Effect<M> {
    Send { to: NodeId, msg: M },
    SetTimer { id: TimerId, delay: SimDuration, tag: u64 },
    CancelTimer { id: TimerId },
}

/// The node's window onto the engine during a callback.
///
/// Collects requested effects; the engine applies them (sampling latencies,
/// scheduling events) after the callback returns, which keeps the borrow
/// structure simple and the event order deterministic.
pub struct Context<'a, M> {
    pub(crate) id: NodeId,
    pub(crate) now: SimTime,
    pub(crate) rng: &'a mut SmallRng,
    pub(crate) effects: &'a mut Vec<Effect<M>>,
    pub(crate) next_timer: &'a mut u64,
    pub(crate) disk: &'a mut Disk,
}

impl<M> fmt::Debug for Context<'_, M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Context").field("id", &self.id).field("now", &self.now).finish()
    }
}

impl<M> Context<'_, M> {
    /// This node's identity.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// This node's private deterministic random generator.
    pub fn rng(&mut self) -> &mut SmallRng {
        self.rng
    }

    /// This node's simulated stable storage. Writes are volatile until
    /// [`Disk::fsync`]; a crash loses the newest unsynced writes (see
    /// [`Simulation::set_crash_unsynced_loss`](crate::Simulation::set_crash_unsynced_loss)).
    pub fn disk(&mut self) -> &mut Disk {
        self.disk
    }

    /// Sends `msg` to `to`. Delivery latency, loss and partitions are applied
    /// by the engine's [`NetworkModel`](crate::NetworkModel).
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.effects.push(Effect::Send { to, msg });
    }

    /// Schedules a timer to fire after `delay`, carrying an opaque `tag` the
    /// node uses to tell its timers apart. A zero delay fires one microsecond
    /// later: nothing a callback schedules lands at the instant being
    /// handled, so one queue and many sharded ones process in the same order.
    pub fn set_timer(&mut self, delay: SimDuration, tag: u64) -> TimerId {
        *self.next_timer += 1;
        let id = TimerId(*self.next_timer);
        self.effects.push(Effect::SetTimer { id, delay, tag });
        id
    }

    /// Cancels a pending timer. Cancelling an already-fired or unknown timer
    /// is a silent no-op.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.effects.push(Effect::CancelTimer { id });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_display() {
        assert_eq!(NodeId(3).to_string(), "n3");
        assert_eq!(NodeId::EXTERNAL.to_string(), "n(ext)");
    }

    #[test]
    fn node_id_index_roundtrip() {
        assert_eq!(NodeId::from(9u32).index(), 9);
    }

    #[test]
    fn payload_impls() {
        assert_eq!(().wire_size(), 0);
        assert_eq!(vec![0u8; 17].wire_size(), 17);
    }
}
