//! The discrete-event engine.
//!
//! [`Simulation`] owns the nodes, the event queues, the network model and all
//! randomness. Events are totally ordered by a `(time, a, b)` key, so a run
//! is a pure function of the master seed and the schedule of external
//! inputs — the determinism every experiment in this reproduction relies on.
//!
//! # One ordering, any number of shards
//!
//! No key or random stream mentions how the run is executed. A node-emitted
//! event is keyed `(arrival, destination‖source, per-source sequence)`, an
//! externally scheduled one `(time, destination‖EXT, schedule order)`, a
//! network-wide control event `(time, MAX, schedule order)`; every draw —
//! protocol, network, liar — comes from a stream of its own node. A timer
//! never fires at the instant it was set and, wherever shards are possible,
//! every latency is positive, so whatever a callback schedules sorts after
//! the event that caused it.
//!
//! The nodes are split into contiguous id ranges, one **shard** each, with
//! its own calendar-queue scheduler (see [`crate::sched`]), network-model
//! copy and streams. One shard (the default) drains its queue straight to
//! the deadline. With `k > 1` ([`Simulation::set_shards`]) the shards advance
//! in conservative windows bounded by the network's minimum latency (the
//! lookahead): a message sent in `[W, W+L)` cannot arrive before `W+L`, so no
//! shard sees another's events early. Cross-shard sends wait in outboxes for
//! the window barrier; each shard's trace records are merged into the master
//! ring in `(time, key)` order — the order one queue pops them in — and its
//! metric sets into the master's at the end of every run call. So the
//! telemetry is the same bytes for every shard count.
//! [`Simulation::run_until_parallel`] executes the same window plan with one
//! thread per shard and is byte-identical to the sequential path by
//! construction.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::rc::Rc;

use obs::{ctr, kind, Layer, Telemetry, TelemetryHub, TraceEvent};
use rand::rngs::SmallRng;

use crate::disk::{Disk, RestartMode};
use crate::node::{
    Context, CorruptionOp, Effect, LiarAction, LiarBehavior, Node, NodeId, Payload, TimerId,
};
use crate::rng::fork;
use crate::sched::EventQueue;
use crate::stats::{FaultCounters, TrafficCounters};
use crate::time::{SimDuration, SimTime};
use crate::topology::{DropCause, GrayProfile, NetworkModel, Partition, RouteOutcome};

/// Trace operand code for a [`DropCause`] (stable across runs; part of the
/// telemetry encoding).
fn drop_cause_code(cause: DropCause) -> u64 {
    match cause {
        DropCause::Partition => 0,
        DropCause::LinkCut => 1,
        DropCause::Loss => 2,
        DropCause::GraySend => 3,
        DropCause::GrayRecv => 4,
    }
}

/// Base of the per-sender network RNG streams (stream tag = base + sender
/// id), disjoint from the per-node protocol streams (small integers).
const NET_STREAM_BASE: u64 = 0x4E45_5452_0000_0000;

/// Base of the per-node liar RNG streams: interception draws never touch
/// the protocol or network streams, so an inert liar layer changes nothing.
const LIAR_STREAM_BASE: u64 = 0x11A2_0000_0000_0000;

/// `a`-key of network-global control events: sorts after every node event
/// at the same instant, in every shard's queue.
const KEY_CONTROL: u64 = u64::MAX;

/// Lane marker distinguishing externally injected events from node-emitted
/// ones in the `a`-key (no real node id equals it).
const EXT_LANE: u64 = 0xFFFF_FFFF;

/// `a`-key of a node-emitted event: destination-major so all of one node's
/// inbound traffic shares a lane, sub-ordered by source.
fn key_local(dest: u32, src: u32) -> u64 {
    (u64::from(dest) << 32) | u64::from(src)
}

/// `a`-key of an externally injected per-node event.
fn key_external(dest: u32) -> u64 {
    (u64::from(dest) << 32) | EXT_LANE
}

#[derive(Clone)]
enum EventKind<M> {
    Deliver { from: NodeId, to: NodeId, msg: M, size: usize },
    Timer { node: NodeId, id: TimerId, tag: u64 },
    Crash(NodeId),
    Recover(NodeId, RestartMode),
    SetPartition(Option<Partition>),
    SetDropProb(f64),
    SetGray(NodeId, Option<GrayProfile>),
    SetLink { from: NodeId, to: NodeId, cut: bool },
    SetDupProb(f64),
    SetReorder { prob: f64, jitter: SimDuration },
    Corrupt { node: NodeId, op: CorruptionOp, seed: u64 },
    SetLiar(NodeId, Option<LiarBehavior>),
    SetColluder(NodeId, bool),
}

/// The shard that must process an event: `Some(node)` for per-node events
/// (owner shard), `None` for network-global control events (broadcast — every
/// shard applies them to its network-model copy).
fn event_target<M>(kind: &EventKind<M>) -> Option<NodeId> {
    match kind {
        EventKind::Deliver { to, .. } => Some(*to),
        EventKind::Timer { node, .. } => Some(*node),
        EventKind::Crash(n) => Some(*n),
        EventKind::Recover(n, _) => Some(*n),
        EventKind::Corrupt { node, .. } => Some(*node),
        EventKind::SetLiar(n, _) => Some(*n),
        EventKind::SetColluder(n, _) => Some(*n),
        EventKind::SetPartition(_)
        | EventKind::SetDropProb(_)
        | EventKind::SetGray(..)
        | EventKind::SetLink { .. }
        | EventKind::SetDupProb(_)
        | EventKind::SetReorder { .. } => None,
    }
}

enum Callback<M> {
    Start,
    Message { from: NodeId, msg: M },
    Timer { timer: TimerId, tag: u64 },
    Recover(RestartMode),
}

/// The registry slot a [`DropCause`] tallies into (on the global set).
fn drop_cause_slot(cause: DropCause) -> obs::CtrId {
    match cause {
        DropCause::Partition => ctr::DROPS_PARTITION,
        DropCause::LinkCut => ctr::DROPS_LINK_CUT,
        DropCause::Loss => ctr::DROPS_LOSS,
        DropCause::GraySend => ctr::DROPS_GRAY_SEND,
        DropCause::GrayRecv => ctr::DROPS_GRAY_RECV,
    }
}

/// The master hub, shared with the thread-local collector.
type Hub = Rc<RefCell<TelemetryHub>>;

/// The engine's own state for one node, kept in one record so an event
/// touches one place.
struct Slot {
    /// Protocol stream, lent to callbacks.
    rng: SmallRng,
    /// Network stream: the latency and loss draws of this node's sends.
    route_rng: SmallRng,
    /// `b`-key counter of the events this node emits.
    seq: u64,
    /// Timer-id allocator, pre-seeded to a range no other node uses.
    next_timer: u64,
    down: bool,
    disk: Disk,
}

impl Slot {
    fn new(seed: u64, id: u64) -> Self {
        Slot {
            rng: fork(seed, id),
            route_rng: fork(seed, NET_STREAM_BASE + id),
            seq: 0,
            next_timer: (id + 1) << 32,
            down: false,
            disk: Disk::new(),
        }
    }
}

/// One execution shard: a contiguous range of nodes, their queue, and every
/// piece of state their events touch.
struct Shard<N: Node> {
    index: usize,
    base: u32,
    nodes: Vec<N>,
    /// Engine state of each node (indexed by local id).
    slots: Vec<Slot>,
    crash_unsynced_loss: usize,
    /// Whether `BYTES_WIRE` (the compressed-wire accounting lane) is
    /// tallied alongside `BYTES_SENT`.
    delta_accounting: bool,
    /// This shard's copy of the network model (control events are broadcast,
    /// so every copy applies the same mutations in the same key order).
    net: NetworkModel,
    /// Per-node liar streams, created on a liar's first draw.
    liar_rngs: HashMap<u32, SmallRng>,
    queue: EventQueue<EventKind<N::Msg>>,
    now: SimTime,
    /// Fire times of timers still queued, so a cancellation can be bounded
    /// to the timer's lifetime (entries leave when the timer event pops).
    pending_timers: HashMap<TimerId, SimTime>,
    /// Cancelled-but-not-yet-popped timers, keyed to their fire time so
    /// stale entries can be purged once that time has passed.
    cancelled: HashMap<TimerId, SimTime>,
    liars: HashMap<u32, LiarBehavior>,
    colluders: HashSet<u32>,
    events_processed: u64,
    peak_queue: usize,
    seed: u64,
    per: u32,
    nshards: usize,
    /// A multi-shard run's scratch telemetry hub (owned, so the shard is
    /// `Send`), drained into the master hub at window boundaries. `None`
    /// when the run has one shard, which writes straight into the master.
    scratch: Option<TelemetryHub>,
    /// Cross-shard sends parked until the window barrier, one box per
    /// destination shard.
    outboxes: Vec<Outbox<N::Msg>>,
    /// The effects buffer `dispatch_callback` lends each callback; empty
    /// between callbacks, its capacity kept.
    effects: Vec<Effect<N::Msg>>,
}

/// A parked cross-shard event: `(arrival µs, a, b, event)`.
type Outbox<M> = Vec<(u64, u64, u64, EventKind<M>)>;

impl<N: Node> Shard<N> {
    fn shard_of(&self, id: NodeId) -> usize {
        ((id.0 / self.per) as usize).min(self.nshards - 1)
    }

    /// Whether trace records must carry their event's key: only a
    /// multi-shard run merges rings.
    fn keyed(&self) -> bool {
        self.nshards > 1
    }

    fn push_keyed(&mut self, at: SimTime, a: u64, b: u64, kind: EventKind<N::Msg>) {
        self.queue.push(at.as_micros(), a, b, kind);
        self.peak_queue = self.peak_queue.max(self.queue.len());
    }

    /// Allocates the ordering key for an event emitted by `src` toward
    /// `dest` (timers use `dest == src`).
    fn key_for_emit(&mut self, src: NodeId, dest: NodeId) -> (u64, u64) {
        let slot = &mut self.slots[(src.0 - self.base) as usize];
        slot.seq += 1;
        (key_local(dest.0, src.0), slot.seq)
    }

    /// Queues a delivery locally or parks it in the outbox of the owner
    /// shard (cross-shard arrivals are always at or beyond the window
    /// barrier, because every latency is at least the lookahead).
    fn emit_deliver(&mut self, from: NodeId, to: NodeId, msg: N::Msg, size: usize, at: SimTime) {
        let (a, b) = self.key_for_emit(from, to);
        let dst = self.shard_of(to);
        let kind = EventKind::Deliver { from, to, msg, size };
        if dst == self.index {
            self.push_keyed(at, a, b, kind);
        } else {
            self.outboxes[dst].push((at.as_micros(), a, b, kind));
        }
    }

    /// Runs the node callback and then applies the effects it requested.
    fn dispatch_callback(&mut self, hub: &Hub, id: NodeId, cb: Callback<N::Msg>) {
        let li = (id.0 - self.base) as usize;
        // One buffer per shard, drained below and handed back: a callback
        // that requests nothing costs the engine no allocation.
        let mut effects = std::mem::take(&mut self.effects);
        {
            // Expose the hub to protocol code for the span of the callback
            // (callbacks are instantaneous in sim time, so stamping the
            // clock once here is exact).
            hub.borrow_mut().set_now_us(self.now.as_micros());
            // Usually a no-op pointer check: the run loops install the hub
            // once per window (see `run_window`).
            let _obs_guard = obs::collector::install_if_needed(hub);
            let node = &mut self.nodes[li];
            let slot = &mut self.slots[li];
            let mut ctx = Context {
                id,
                now: self.now,
                rng: &mut slot.rng,
                effects: &mut effects,
                next_timer: &mut slot.next_timer,
                disk: &mut slot.disk,
            };
            match cb {
                Callback::Start => node.on_start(&mut ctx),
                Callback::Message { from, msg } => node.on_message(&mut ctx, from, msg),
                Callback::Timer { timer, tag } => node.on_timer(&mut ctx, timer, tag),
                Callback::Recover(mode) => node.on_restart(&mut ctx, mode),
            }
        }
        for eff in effects.drain(..) {
            match eff {
                Effect::Send { to, mut msg } => {
                    // Liar interception sits at the node boundary: the
                    // protocol built an honest message; an installed liar
                    // behavior may rewrite or swallow it on the way out.
                    if let Some(b) = self.liars.get(&id.0).copied() {
                        use rand::Rng;
                        let seed = self.seed;
                        let r = self
                            .liar_rngs
                            .entry(id.0)
                            .or_insert_with(|| fork(seed, LIAR_STREAM_BASE + u64::from(id.0)));
                        if r.gen::<f64>() < b.prob {
                            let action = self.nodes[li].tamper_outbound(to, &mut msg, b.mode, r);
                            if action != LiarAction::Pass {
                                let mut hub = hub.borrow_mut();
                                // A coordinated lie is attributed to the
                                // collusion group, not the solo-liar tally.
                                let slot = if self.colluders.contains(&id.0) {
                                    ctr::COLLUSION_INTERCEPTS
                                } else {
                                    ctr::LIAR_MESSAGES_INTERCEPTED
                                };
                                hub.global_mut().ctr_add(slot, 1);
                                let what = if action == LiarAction::Tampered { 1 } else { 2 };
                                hub.trace_at(
                                    self.now.as_micros(),
                                    id.0,
                                    Layer::Sim,
                                    kind::LIAR_INTERCEPT,
                                    u64::from(to.0),
                                    what,
                                );
                            }
                            if action == LiarAction::Dropped {
                                continue;
                            }
                        }
                    }
                    let size = msg.wire_size();
                    {
                        let mut hub = hub.borrow_mut();
                        if let Some(c) = hub.node_mut(id.index()) {
                            c.ctr_add(ctr::MSGS_SENT, 1);
                            c.ctr_add(ctr::BYTES_SENT, size as u64);
                            // `bytes_sent` always prices full payloads;
                            // `bytes_wire` is what the delta accounting
                            // model says actually crossed the wire. Only
                            // tallied with delta accounting on, so a
                            // deltas-off run carries no such counter (zero
                            // counters are skipped by every exporter).
                            if self.delta_accounting {
                                c.ctr_add(ctr::BYTES_WIRE, msg.compressed_wire_size() as u64);
                            }
                        }
                    }
                    match self.net.route(id, to, &mut self.slots[li].route_rng) {
                        RouteOutcome::Deliver { delay, duplicate, jittered } => {
                            if jittered || duplicate.is_some() {
                                let mut hub = hub.borrow_mut();
                                let g = hub.global_mut();
                                if jittered {
                                    g.ctr_add(ctr::MSGS_JITTERED, 1);
                                }
                                g.ctr_add(ctr::MSGS_DUPLICATED, u64::from(duplicate.is_some()));
                            }
                            if let Some(lat) = duplicate {
                                let at = self.now + lat;
                                let copy = msg.clone();
                                self.emit_deliver(id, to, copy, size, at);
                            }
                            let at = self.now + delay;
                            self.emit_deliver(id, to, msg, size, at);
                        }
                        RouteOutcome::Drop(cause) => {
                            let mut hub = hub.borrow_mut();
                            hub.global_mut().ctr_add(drop_cause_slot(cause), 1);
                            if let Some(c) = hub.node_mut(to.index()) {
                                c.ctr_add(ctr::MSGS_LOST, 1);
                            }
                            hub.trace_at(
                                self.now.as_micros(),
                                id.0,
                                Layer::Sim,
                                kind::MSG_DROP,
                                u64::from(to.0),
                                drop_cause_code(cause),
                            );
                        }
                    }
                }
                Effect::SetTimer { id: tid, delay, tag } => {
                    // Never at the current instant (see the module docs).
                    let at = self.now + delay.max(SimDuration::from_micros(1));
                    self.pending_timers.insert(tid, at);
                    let (a, b) = self.key_for_emit(id, id);
                    self.push_keyed(at, a, b, EventKind::Timer { node: id, id: tid, tag });
                }
                Effect::CancelTimer { id: tid } => {
                    // Cancelling an already-fired (or never-set) timer must
                    // not grow the set forever: only timers still queued are
                    // recorded, keyed to the time their entry self-expires.
                    if let Some(&fire) = self.pending_timers.get(&tid) {
                        self.cancelled.insert(tid, fire);
                    }
                }
            }
        }
        self.effects = effects;
    }

    /// Applies one popped event to this shard's state.
    fn process_event(&mut self, hub: &Hub, t: SimTime, kind_ev: EventKind<N::Msg>) {
        debug_assert!(t >= self.now, "event queue went backwards");
        self.now = t;
        // Network-global control events are broadcast to every shard's
        // queue; tally the logical event once (on shard 0) so
        // `events_processed` stays shard-count-invariant.
        if self.index == 0 || event_target(&kind_ev).is_some() {
            self.events_processed += 1;
        }
        match kind_ev {
            EventKind::Deliver { from, to, msg, size } => {
                let li = (to.0 as usize).wrapping_sub(self.base as usize);
                if self.slots.get(li).is_none_or(|s| s.down) {
                    let mut hub = hub.borrow_mut();
                    if let Some(c) = hub.node_mut(to.index()) {
                        c.ctr_add(ctr::MSGS_LOST, 1);
                    }
                    return;
                }
                {
                    let mut hub = hub.borrow_mut();
                    if let Some(c) = hub.node_mut(to.index()) {
                        c.ctr_add(ctr::MSGS_RECV, 1);
                        c.ctr_add(ctr::BYTES_RECV, size as u64);
                    }
                    hub.trace_at(
                        self.now.as_micros(),
                        to.0,
                        Layer::Sim,
                        kind::MSG_DELIVER,
                        u64::from(from.0),
                        size as u64,
                    );
                }
                self.dispatch_callback(hub, to, Callback::Message { from, msg });
            }
            EventKind::Timer { node, id, tag } => {
                self.pending_timers.remove(&id);
                if self.cancelled.remove(&id).is_some() {
                    return;
                }
                let li = (node.0 - self.base) as usize;
                if self.slots[li].down {
                    return; // timers expiring while down are lost
                }
                if let Some(c) = hub.borrow_mut().node_mut(node.index()) {
                    c.ctr_add(ctr::TIMERS_FIRED, 1);
                }
                self.dispatch_callback(hub, node, Callback::Timer { timer: id, tag });
            }
            EventKind::Crash(node) => {
                let li = (node.0 - self.base) as usize;
                if !self.slots[li].down {
                    self.slots[li].down = true;
                    {
                        let mut hub = hub.borrow_mut();
                        hub.global_mut().ctr_add(ctr::CRASHES, 1);
                        hub.trace_at(
                            self.now.as_micros(),
                            node.0,
                            Layer::Sim,
                            kind::NODE_CRASH,
                            0,
                            0,
                        );
                    }
                    self.nodes[li].on_crash();
                    // The crash failure model for stable storage: the newest
                    // unsynced writes are destroyed, anything older is
                    // considered to have reached the platter in time.
                    let lost = self.slots[li].disk.crash(self.crash_unsynced_loss);
                    if lost > 0 {
                        let mut hub = hub.borrow_mut();
                        if let Some(c) = hub.node_mut(node.index()) {
                            c.ctr_add(ctr::DISK_WRITES_LOST, lost as u64);
                        }
                    }
                }
            }
            EventKind::Recover(node, mode) => {
                let li = (node.0 - self.base) as usize;
                if self.slots[li].down {
                    self.slots[li].down = false;
                    {
                        let mut hub = hub.borrow_mut();
                        hub.global_mut().ctr_add(ctr::RECOVERIES, 1);
                        hub.trace_at(
                            self.now.as_micros(),
                            node.0,
                            Layer::Sim,
                            kind::NODE_RECOVER,
                            0,
                            0,
                        );
                        if mode != RestartMode::Freeze {
                            let slot = if mode == RestartMode::ColdDurable {
                                ctr::COLD_RESTARTS_DURABLE
                            } else {
                                ctr::COLD_RESTARTS_AMNESIA
                            };
                            hub.global_mut().ctr_add(slot, 1);
                            hub.trace_at(
                                self.now.as_micros(),
                                node.0,
                                Layer::Sim,
                                kind::NODE_RESTART,
                                mode.discriminant(),
                                self.slots[li].disk.total_lost(),
                            );
                        }
                    }
                    if mode == RestartMode::ColdAmnesia {
                        self.slots[li].disk.wipe();
                    }
                    self.dispatch_callback(hub, node, Callback::Recover(mode));
                }
            }
            EventKind::SetPartition(p) => {
                let healed = p.is_none() && self.net.partition.is_some();
                // Control events are broadcast to every shard; only shard 0
                // tallies, so the merged telemetry counts each change once.
                if self.index == 0 && (p.is_some() || healed) {
                    let mut hub = hub.borrow_mut();
                    let (slot, k) = if p.is_some() {
                        (ctr::PARTITIONS_STARTED, kind::PARTITION_START)
                    } else {
                        (ctr::PARTITIONS_HEALED, kind::PARTITION_HEAL)
                    };
                    hub.global_mut().ctr_add(slot, 1);
                    hub.trace_at(
                        self.now.as_micros(),
                        obs::TraceEvent::GLOBAL,
                        Layer::Sim,
                        k,
                        0,
                        0,
                    );
                }
                self.net.partition = p;
            }
            EventKind::SetDropProb(p) => self.net.drop_prob = p,
            EventKind::SetGray(node, profile) => match profile {
                Some(g) => {
                    self.net.gray.insert(node, g);
                }
                None => {
                    self.net.gray.remove(&node);
                }
            },
            EventKind::SetLink { from, to, cut } => {
                if cut {
                    self.net.cut_links.insert((from, to));
                } else {
                    self.net.cut_links.remove(&(from, to));
                }
            }
            EventKind::SetDupProb(p) => self.net.dup_prob = p,
            EventKind::SetReorder { prob, jitter } => {
                self.net.reorder_prob = prob;
                self.net.reorder_jitter = jitter;
            }
            EventKind::Corrupt { node, op, seed } => {
                let li = (node.0 - self.base) as usize;
                if !self.slots[li].down {
                    // Anything the node traces while corrupted is
                    // stamped with this instant, not its last callback.
                    hub.borrow_mut().set_now_us(self.now.as_micros());
                    // Each strike carries its own seed: the RNG handed to
                    // the node (or disk) is private to this event, so the
                    // strike schedule and the damage it does replay
                    // bit-for-bit regardless of what else the run contains.
                    let mut rng = fork(seed, u64::from(node.0));
                    let units = match op {
                        CorruptionOp::DiskBytes { flips } => {
                            self.slots[li].disk.corrupt(&mut rng, flips)
                        }
                        _ => self.nodes[li].apply_corruption(&op, &mut rng),
                    };
                    let mut hub = hub.borrow_mut();
                    hub.global_mut().ctr_add(ctr::STATE_CORRUPTIONS, 1);
                    if matches!(op, CorruptionOp::ForgeItems { .. }) {
                        hub.global_mut().ctr_add(ctr::FORGED_ITEMS_INJECTED, units);
                    }
                    if let CorruptionOp::StolenKey { publisher, .. } = op {
                        hub.global_mut().ctr_add(ctr::KEY_COMPROMISE_STRIKES, 1);
                        hub.trace_at(
                            self.now.as_micros(),
                            node.0,
                            Layer::Sim,
                            kind::KEY_COMPROMISE_STRIKE,
                            u64::from(publisher),
                            units,
                        );
                    }
                    if let CorruptionOp::SybilFlood { epoch, .. } = op {
                        hub.global_mut().ctr_add(ctr::SYBIL_JOINS_ATTEMPTED, units);
                        hub.trace_at(
                            self.now.as_micros(),
                            node.0,
                            Layer::Sim,
                            kind::SYBIL_STRIKE,
                            units,
                            u64::from(epoch),
                        );
                    }
                    hub.trace_at(
                        self.now.as_micros(),
                        node.0,
                        Layer::Sim,
                        kind::STATE_CORRUPT,
                        op.discriminant(),
                        units,
                    );
                    if self.colluders.contains(&node.0) {
                        hub.global_mut().ctr_add(ctr::COLLUSION_STRIKES, 1);
                        hub.trace_at(
                            self.now.as_micros(),
                            node.0,
                            Layer::Sim,
                            kind::COLLUSION_STRIKE,
                            op.discriminant(),
                            units,
                        );
                    }
                }
            }
            EventKind::SetLiar(node, behavior) => match behavior {
                Some(b) => {
                    self.liars.insert(node.0, b);
                }
                None => {
                    self.liars.remove(&node.0);
                }
            },
            EventKind::SetColluder(node, on) => {
                if on {
                    self.colluders.insert(node.0);
                } else {
                    self.colluders.remove(&node.0);
                }
            }
        }
    }

    /// Pops and processes the earliest queued event; `false` when the queue
    /// is empty.
    fn process_next(&mut self, hub: &Hub) -> bool {
        let Some((t, a, b, kind_ev)) = self.queue.pop() else { return false };
        if self.keyed() {
            hub.borrow_mut().set_event_key(a, b);
        }
        self.process_event(hub, SimTime::from_micros(t), kind_ev);
        true
    }

    /// Pops and processes every queued event with `t < bound_us`.
    fn drain_window(&mut self, hub: &Hub, bound_us: u64) {
        while self.queue.peek_time().is_some_and(|t| t < bound_us) {
            self.process_next(hub);
        }
    }

    /// Runs a closure against this shard's effective hub: the scratch hub
    /// (re-wrapped in a transient `Rc` so the thread-local collector can
    /// hold it) in a multi-shard run, the master hub otherwise.
    fn with_hub<R>(&mut self, master: &Hub, f: impl FnOnce(&mut Self, &Hub) -> R) -> R {
        if let Some(scr) = self.scratch.take() {
            let rc = Rc::new(RefCell::new(scr));
            let r = f(self, &rc);
            self.scratch = Some(
                Rc::try_unwrap(rc)
                    .map(RefCell::into_inner)
                    .unwrap_or_else(|_| panic!("scratch hub retained")),
            );
            r
        } else {
            f(self, master)
        }
    }

    /// Processes one window sequentially (hub installed once for the span).
    fn run_window(&mut self, master: &Hub, bound_us: u64) {
        self.with_hub(master, |sh, hub| {
            let _g = obs::collector::install_if_needed(hub);
            sh.drain_window(hub, bound_us);
        });
    }

    /// Processes one window on a worker thread (multi-shard runs only;
    /// never touches the master hub, so the closure is `Send`).
    fn run_window_owned(&mut self, bound_us: u64) {
        let scr = self.scratch.take().expect("parallel run requires scratch hubs");
        let rc = Rc::new(RefCell::new(scr));
        {
            let _g = obs::collector::install_if_needed(&rc);
            self.drain_window(&rc, bound_us);
        }
        self.scratch = Some(
            Rc::try_unwrap(rc)
                .map(RefCell::into_inner)
                .unwrap_or_else(|_| panic!("scratch hub retained")),
        );
    }
}

/// Runs one window on every shard, one after the other.
fn windows_in_turn<N: Node>(shards: &mut [Shard<N>], master: &Hub, bound_us: u64) {
    for sh in shards {
        sh.run_window(master, bound_us);
    }
}

/// Pre-start state: nodes and externally scheduled events (with their
/// `b`-keys) accumulate here until the first run call freezes the shard
/// layout and gives every node its [`Slot`].
struct Staging<N: Node> {
    nodes: Vec<N>,
    events: Vec<(SimTime, u64, EventKind<N::Msg>)>,
}

/// What [`Simulation::disk`] shows before the first run: nothing has run
/// yet to write a disk.
static UNWRITTEN: Disk = Disk::new();

/// A deterministic discrete-event simulation over nodes of type `N`.
///
/// # Examples
///
/// A two-node ping-pong (the single-byte payload carries a hop budget):
///
/// ```
/// use simnet::{Simulation, NetworkModel, Node, NodeId, Context, TimerId, SimDuration};
///
/// struct Ping { peer: NodeId, pings: u32 }
/// impl Node for Ping {
///     type Msg = Vec<u8>;
///     fn on_start(&mut self, ctx: &mut Context<'_, Vec<u8>>) {
///         if ctx.id() == NodeId(0) { ctx.send(self.peer, vec![3]); }
///     }
///     fn on_message(&mut self, ctx: &mut Context<'_, Vec<u8>>, from: NodeId, m: Vec<u8>) {
///         self.pings += 1;
///         if m[0] > 0 { ctx.send(from, vec![m[0] - 1]); }
///     }
///     fn on_timer(&mut self, _: &mut Context<'_, Vec<u8>>, _: TimerId, _: u64) {}
/// }
///
/// let mut sim = Simulation::new(NetworkModel::ideal(SimDuration::from_millis(10)), 42);
/// sim.add_node(Ping { peer: NodeId(1), pings: 0 });
/// sim.add_node(Ping { peer: NodeId(0), pings: 0 });
/// sim.run_until(simnet::SimTime::from_secs(1));
/// assert_eq!(sim.node(NodeId(0)).pings + sim.node(NodeId(1)).pings, 4);
/// ```
pub struct Simulation<N: Node> {
    /// All traffic/fault accounting and trace records live here; the
    /// [`TrafficCounters`]/[`FaultCounters`] accessors are views over it.
    /// Shared (`Rc`) so the thread-local collector can reach it from inside
    /// node callbacks.
    hub: Hub,
    shards: Vec<Shard<N>>,
    staging: Option<Staging<N>>,
    net: NetworkModel,
    now: SimTime,
    seed: u64,
    started: bool,
    shard_target: usize,
    /// How many of the newest unsynced disk writes a crash destroys
    /// (default: all of them).
    crash_unsynced_loss: usize,
    /// Whether sends also tally `BYTES_WIRE` (compressed-wire accounting).
    delta_accounting: bool,
    /// `b`-key counter for externally scheduled events (schedule order).
    ext_seq: u64,
    total: u32,
    per: u32,
    /// Conservative-synchronization lookahead: the network's minimum
    /// latency, in µs (frozen at start).
    lookahead_us: u64,
}

impl<N: Node> std::fmt::Debug for Simulation<N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("nodes", &self.len())
            .field("now", &self.now)
            .field("queued", &self.queued_len())
            .field("shards", &self.shard_count())
            .field("events_processed", &self.events_processed())
            .finish()
    }
}

impl<N: Node> Simulation<N> {
    /// Creates an empty simulation over the given network model, with all
    /// randomness derived from `seed`: one shard, delta accounting off.
    pub fn new(net: NetworkModel, seed: u64) -> Self {
        Simulation {
            hub: Rc::new(RefCell::new(TelemetryHub::new(seed))),
            shards: Vec::new(),
            staging: Some(Staging { nodes: Vec::new(), events: Vec::new() }),
            net,
            now: SimTime::ZERO,
            seed,
            started: false,
            shard_target: 1,
            crash_unsynced_loss: usize::MAX,
            delta_accounting: false,
            ext_seq: 0,
            total: 0,
            per: 1,
            lookahead_us: 0,
        }
    }

    /// Splits the run over `k` execution shards (contiguous node-id ranges)
    /// that advance in lookahead-bounded windows — on one thread each under
    /// [`Simulation::run_until_parallel`]. The shard count never changes a
    /// result: keys and random streams belong to nodes, not shards, so the
    /// same seed yields byte-identical telemetry for every `k`, the default
    /// single shard included. The effective count is clamped to the node
    /// count, and to 1 when the network's minimum latency is zero (no
    /// lookahead, no safe window).
    ///
    /// # Panics
    ///
    /// Panics if called after the simulation has started running.
    pub fn set_shards(&mut self, k: usize) {
        assert!(!self.started, "cannot reconfigure shards after the simulation started");
        self.shard_target = k.max(1);
    }

    /// The number of execution shards: the configured target before start,
    /// the effective (clamped) count after.
    pub fn shard_count(&self) -> usize {
        if self.started {
            self.shards.len()
        } else {
            self.shard_target
        }
    }

    /// The master seed this simulation was built with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// What the fault-injection machinery actually did to this run so far
    /// (a view over the telemetry registry's global metric set).
    pub fn fault_counters(&self) -> FaultCounters {
        let hub = self.hub.borrow();
        let g = hub.global();
        FaultCounters {
            drops_partition: g.ctr(ctr::DROPS_PARTITION),
            drops_link_cut: g.ctr(ctr::DROPS_LINK_CUT),
            drops_loss: g.ctr(ctr::DROPS_LOSS),
            drops_gray_send: g.ctr(ctr::DROPS_GRAY_SEND),
            drops_gray_recv: g.ctr(ctr::DROPS_GRAY_RECV),
            msgs_duplicated: g.ctr(ctr::MSGS_DUPLICATED),
            msgs_jittered: g.ctr(ctr::MSGS_JITTERED),
            crashes: g.ctr(ctr::CRASHES),
            recoveries: g.ctr(ctr::RECOVERIES),
            partitions_started: g.ctr(ctr::PARTITIONS_STARTED),
            partitions_healed: g.ctr(ctr::PARTITIONS_HEALED),
            state_corruptions: g.ctr(ctr::STATE_CORRUPTIONS),
            liar_intercepts: g.ctr(ctr::LIAR_MESSAGES_INTERCEPTED),
            collusion_strikes: g.ctr(ctr::COLLUSION_STRIKES),
            collusion_intercepts: g.ctr(ctr::COLLUSION_INTERCEPTS),
            forged_items_injected: g.ctr(ctr::FORGED_ITEMS_INJECTED),
            key_compromise_strikes: g.ctr(ctr::KEY_COMPROMISE_STRIKES),
            sybil_joins_attempted: g.ctr(ctr::SYBIL_JOINS_ATTEMPTED),
        }
    }

    /// Shared handle to this simulation's telemetry hub (the metrics
    /// registry plus the trace ring). Experiment harnesses read registry
    /// slots through this; protocol code inside callbacks reaches the same
    /// hub through the `obs` thread-local collector. With several shards
    /// the hub reflects merged shard state as of the last completed run
    /// call.
    pub fn telemetry(&self) -> Rc<RefCell<TelemetryHub>> {
        Rc::clone(&self.hub)
    }

    /// A non-destructive telemetry snapshot: every non-zero registry slot
    /// plus the retained trace records, stamped with the current simulated
    /// time. Deterministic — same seed, same schedule ⇒ same snapshot, for
    /// any shard count.
    pub fn snapshot_telemetry(&self) -> Telemetry {
        let mut hub = self.hub.borrow_mut();
        hub.set_now_us(self.now.as_micros());
        hub.snapshot()
    }

    /// Drains the telemetry hub: returns the full timeline and **resets
    /// every registry slot and the trace ring**. Because the traffic and
    /// fault counters are views over the registry, they read zero after a
    /// drain — use [`Simulation::snapshot_telemetry`] for a non-destructive
    /// read, and drain only at window boundaries or end of run.
    pub fn drain_telemetry(&mut self) -> Telemetry {
        // Scratch hubs keep their nodes' gauge levels between merges; a
        // drain forgets those too.
        for sh in &mut self.shards {
            if let Some(scr) = sh.scratch.as_mut() {
                scr.reset_metrics();
            }
        }
        let mut hub = self.hub.borrow_mut();
        hub.set_now_us(self.now.as_micros());
        hub.drain()
    }

    /// Caps the trace ring at `capacity` records (drop-oldest beyond it).
    /// With several shards the cap applies to the *merged* ring, so
    /// retention is identical for every shard count.
    pub fn set_trace_capacity(&mut self, capacity: usize) {
        self.hub.borrow_mut().set_ring_capacity(capacity);
    }

    /// Adds a node, returning its id. Ids are assigned densely from 0 in
    /// insertion order.
    ///
    /// # Panics
    ///
    /// Panics if called after the simulation has started running.
    pub fn add_node(&mut self, node: N) -> NodeId {
        assert!(!self.started, "cannot add nodes after the simulation started");
        let st = self.staging.as_mut().expect("staging present before start");
        let id = NodeId(st.nodes.len() as u32);
        st.nodes.push(node);
        self.hub.borrow_mut().ensure_nodes(st.nodes.len());
        id
    }

    /// Shard index owning a node id (valid post-start).
    fn shard_index_of(&self, id: NodeId) -> usize {
        ((id.0 / self.per) as usize).min(self.shards.len().saturating_sub(1))
    }

    /// A node's simulated stable storage (inspection between runs; empty
    /// before the first).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn disk(&self, id: NodeId) -> &Disk {
        if let Some(st) = &self.staging {
            assert!(id.index() < st.nodes.len(), "node id out of range");
            &UNWRITTEN
        } else {
            let sh = &self.shards[self.shard_index_of(id)];
            &sh.slots[(id.0 - sh.base) as usize].disk
        }
    }

    /// Sets how many of the newest unsynced disk writes a crash destroys.
    /// `usize::MAX` (the default) loses every unsynced write; `0` models a
    /// write-through disk that never loses anything.
    pub fn set_crash_unsynced_loss(&mut self, k: usize) {
        self.crash_unsynced_loss = k;
        for sh in &mut self.shards {
            sh.crash_unsynced_loss = k;
        }
    }

    /// Enables or disables the compressed-wire accounting lane
    /// (`BYTES_WIRE`); off by default. A run on the delta wire protocol
    /// turns it on alongside the protocol's own switches (NewsWire's
    /// `deltas`, Astrolabe's `delta_gossip`).
    pub fn set_delta_accounting(&mut self, on: bool) {
        self.delta_accounting = on;
        for sh in &mut self.shards {
            sh.delta_accounting = on;
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        if let Some(st) = &self.staging {
            st.nodes.len()
        } else {
            self.total as usize
        }
    }

    /// True when the simulation holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events processed so far (for throughput benchmarks).
    pub fn events_processed(&self) -> u64 {
        self.shards.iter().map(|s| s.events_processed).sum()
    }

    fn queued_len(&self) -> usize {
        if let Some(st) = &self.staging {
            st.events.len()
        } else {
            self.shards.iter().map(|s| s.queue.len()).sum()
        }
    }

    /// High-water mark of the event queue length (for capacity benchmarks).
    /// With several shards this is the sum of per-shard high-water marks —
    /// an upper bound on the true global peak.
    pub fn peak_queue_depth(&self) -> usize {
        if let Some(st) = &self.staging {
            st.events.len()
        } else {
            self.shards.iter().map(|s| s.peak_queue).sum()
        }
    }

    /// Immutable access to a node's protocol state.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node(&self, id: NodeId) -> &N {
        if let Some(st) = &self.staging {
            &st.nodes[id.index()]
        } else {
            let sh = &self.shards[self.shard_index_of(id)];
            &sh.nodes[(id.0 - sh.base) as usize]
        }
    }

    /// Mutable access to a node's protocol state (configuration between runs,
    /// or result extraction).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node_mut(&mut self, id: NodeId) -> &mut N {
        if self.staging.is_none() {
            let si = self.shard_index_of(id);
            let sh = &mut self.shards[si];
            return &mut sh.nodes[(id.0 - sh.base) as usize];
        }
        let st = self.staging.as_mut().expect("staging present (checked above)");
        &mut st.nodes[id.index()]
    }

    /// Iterates over `(id, node)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &N)> {
        self.staging
            .as_ref()
            .map(|st| st.nodes.iter())
            .into_iter()
            .flatten()
            .chain(self.shards.iter().flat_map(|sh| sh.nodes.iter()))
            .enumerate()
            .map(|(i, n)| (NodeId(i as u32), n))
    }

    /// Whether `id` is currently crashed.
    pub fn is_down(&self, id: NodeId) -> bool {
        if self.staging.is_some() {
            return false;
        }
        let sh = &self.shards[self.shard_index_of(id)];
        sh.slots[(id.0 - sh.base) as usize].down
    }

    /// Traffic counters for one node (a view over the telemetry registry).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn counters(&self, id: NodeId) -> TrafficCounters {
        let hub = self.hub.borrow();
        let m = hub.node(id.index()).expect("node id out of range");
        TrafficCounters {
            msgs_sent: m.ctr(ctr::MSGS_SENT),
            bytes_sent: m.ctr(ctr::BYTES_SENT),
            msgs_recv: m.ctr(ctr::MSGS_RECV),
            bytes_recv: m.ctr(ctr::BYTES_RECV),
            msgs_lost: m.ctr(ctr::MSGS_LOST),
            timers_fired: m.ctr(ctr::TIMERS_FIRED),
        }
    }

    /// Sum of all nodes' traffic counters.
    pub fn total_counters(&self) -> TrafficCounters {
        let hub = self.hub.borrow();
        TrafficCounters {
            msgs_sent: hub.counter_total(ctr::MSGS_SENT),
            bytes_sent: hub.counter_total(ctr::BYTES_SENT),
            msgs_recv: hub.counter_total(ctr::MSGS_RECV),
            bytes_recv: hub.counter_total(ctr::BYTES_RECV),
            msgs_lost: hub.counter_total(ctr::MSGS_LOST),
            timers_fired: hub.counter_total(ctr::TIMERS_FIRED),
        }
    }

    /// Queues an externally scheduled event, keyed in schedule order
    /// (staged pre-start).
    fn push(&mut self, time: SimTime, kind: EventKind<N::Msg>) {
        self.ext_seq += 1;
        let b = self.ext_seq;
        match self.staging.as_mut() {
            Some(st) => st.events.push((time, b, kind)),
            None => self.route_external(time, b, kind),
        }
    }

    /// Queues an external event on its owner shard, or on every shard when
    /// it is a network-global control event.
    fn route_external(&mut self, time: SimTime, b: u64, kind: EventKind<N::Msg>) {
        match event_target(&kind) {
            Some(nid) => {
                let si = self.shard_index_of(nid);
                self.shards[si].push_keyed(time, key_external(nid.0), b, kind);
            }
            None => {
                let (last, rest) = self.shards.split_last_mut().expect("a started run has shards");
                for sh in rest {
                    sh.push_keyed(time, KEY_CONTROL, b, kind.clone());
                }
                last.push_keyed(time, KEY_CONTROL, b, kind);
            }
        }
    }

    /// Delivers `msg` to `to` at exactly `at`, as if from
    /// [`NodeId::EXTERNAL`]. Used by experiment harnesses to inject inputs.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the simulated past.
    pub fn schedule_external(&mut self, at: SimTime, to: NodeId, msg: N::Msg) {
        assert!(at >= self.now, "cannot schedule in the past");
        let size = msg.wire_size();
        self.push(at, EventKind::Deliver { from: NodeId::EXTERNAL, to, msg, size });
    }

    /// Schedules a crash of `node` at `at`.
    pub fn schedule_crash(&mut self, at: SimTime, node: NodeId) {
        assert!(at >= self.now, "cannot schedule in the past");
        debug_assert!(
            node.index() < self.len(),
            "schedule_crash: node {node} out of range (have {})",
            self.len()
        );
        self.push(at, EventKind::Crash(node));
    }

    /// Schedules a recovery of `node` at `at` under the legacy
    /// "process freeze" model (equivalent to
    /// [`Simulation::schedule_restart`] with [`RestartMode::Freeze`]).
    pub fn schedule_recover(&mut self, at: SimTime, node: NodeId) {
        self.schedule_restart(at, node, RestartMode::Freeze);
    }

    /// Schedules a recovery of `node` at `at` under the given restart mode.
    /// `ColdAmnesia` wipes the node's disk before the
    /// [`Node::on_restart`] hook runs.
    pub fn schedule_restart(&mut self, at: SimTime, node: NodeId, mode: RestartMode) {
        assert!(at >= self.now, "cannot schedule in the past");
        debug_assert!(
            node.index() < self.len(),
            "schedule_restart: node {node} out of range (have {})",
            self.len()
        );
        self.push(at, EventKind::Recover(node, mode));
    }

    /// Schedules a gray-degradation change of `node` at `at` (`None` heals).
    pub fn schedule_gray(&mut self, at: SimTime, node: NodeId, profile: Option<GrayProfile>) {
        assert!(at >= self.now, "cannot schedule in the past");
        debug_assert!(
            node.index() < self.len(),
            "schedule_gray: node {node} out of range (have {})",
            self.len()
        );
        self.push(at, EventKind::SetGray(node, profile));
    }

    /// Schedules a directed link cut from `from` to `to` at `at`. The reverse
    /// direction is unaffected (asymmetric by design).
    pub fn schedule_link_cut(&mut self, at: SimTime, from: NodeId, to: NodeId) {
        assert!(at >= self.now, "cannot schedule in the past");
        self.push(at, EventKind::SetLink { from, to, cut: true });
    }

    /// Schedules the heal of a directed link cut at `at`.
    pub fn schedule_link_heal(&mut self, at: SimTime, from: NodeId, to: NodeId) {
        assert!(at >= self.now, "cannot schedule in the past");
        self.push(at, EventKind::SetLink { from, to, cut: false });
    }

    /// Schedules a change of the message duplication probability at `at`.
    pub fn schedule_dup_prob(&mut self, at: SimTime, p: f64) {
        assert!(at >= self.now, "cannot schedule in the past");
        assert!((0.0..1.0).contains(&p), "duplication probability out of range");
        self.push(at, EventKind::SetDupProb(p));
    }

    /// Schedules a change of the reordering-jitter knobs at `at`.
    pub fn schedule_reorder(&mut self, at: SimTime, prob: f64, jitter: SimDuration) {
        assert!(at >= self.now, "cannot schedule in the past");
        assert!((0.0..1.0).contains(&prob), "reorder probability out of range");
        self.push(at, EventKind::SetReorder { prob, jitter });
    }

    /// Schedules a partition change at `at` (`None` heals the network).
    pub fn schedule_partition(&mut self, at: SimTime, partition: Option<Partition>) {
        assert!(at >= self.now, "cannot schedule in the past");
        self.push(at, EventKind::SetPartition(partition));
    }

    /// Schedules a change of the per-message drop probability at `at`.
    pub fn schedule_drop_prob(&mut self, at: SimTime, p: f64) {
        assert!(at >= self.now, "cannot schedule in the past");
        assert!((0.0..1.0).contains(&p), "drop probability out of range");
        self.push(at, EventKind::SetDropProb(p));
    }

    /// Schedules an adversarial state-corruption strike against `node` at
    /// `at`. `seed` feeds the strike's private RNG stream (forked with the
    /// node id at dispatch), so a schedule of strikes replays bit-for-bit
    /// and never perturbs protocol randomness. Strikes against a crashed
    /// node are silently skipped — there is no state to corrupt.
    pub fn schedule_corruption(&mut self, at: SimTime, node: NodeId, op: CorruptionOp, seed: u64) {
        assert!(at >= self.now, "cannot schedule in the past");
        debug_assert!(
            node.index() < self.len(),
            "schedule_corruption: node {node} out of range (have {})",
            self.len()
        );
        self.push(at, EventKind::Corrupt { node, op, seed });
    }

    /// Schedules the installation (`Some`) or removal (`None`) of a liar
    /// behavior on `node` at `at`. While installed, the node's outbound
    /// messages are run through [`Node::tamper_outbound`] with the given
    /// per-message probability.
    pub fn schedule_liar(&mut self, at: SimTime, node: NodeId, behavior: Option<LiarBehavior>) {
        assert!(at >= self.now, "cannot schedule in the past");
        debug_assert!(
            node.index() < self.len(),
            "schedule_liar: node {node} out of range (have {})",
            self.len()
        );
        self.push(at, EventKind::SetLiar(node, behavior));
    }

    /// Schedules `node` joining (`true`) or leaving (`false`) the collusion
    /// set at `at`. Membership changes attribution only: corruption strikes
    /// and liar intercepts by a member tally into the `collusion_*` counters
    /// instead of (intercepts) or in addition to (strikes) the solo ones.
    pub fn schedule_colluder(&mut self, at: SimTime, node: NodeId, on: bool) {
        assert!(at >= self.now, "cannot schedule in the past");
        debug_assert!(
            node.index() < self.len(),
            "schedule_colluder: node {node} out of range (have {})",
            self.len()
        );
        self.push(at, EventKind::SetColluder(node, on));
    }

    /// Freezes the shard layout, distributes staged state and dispatches
    /// every node's `on_start` in global id order.
    fn start_if_needed(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        let st = self.staging.take().expect("staging present before start");
        let n = st.nodes.len();
        self.total = n as u32;
        self.lookahead_us = self.net.min_latency().as_micros();
        // Zero lookahead admits no safe window: such a network runs on one
        // shard (same keys, so the same telemetry).
        let k = if self.lookahead_us == 0 { 1 } else { self.shard_target.clamp(1, n.max(1)) };
        let per = n.max(1).div_ceil(k);
        self.per = per as u32;

        let mut nodes = st.nodes.into_iter();
        for si in 0..k {
            let base = si * per;
            let count = per.min(n - base);
            self.shards.push(Shard {
                index: si,
                base: base as u32,
                nodes: nodes.by_ref().take(count).collect(),
                slots: (base..base + count).map(|g| Slot::new(self.seed, g as u64)).collect(),
                crash_unsynced_loss: self.crash_unsynced_loss,
                delta_accounting: self.delta_accounting,
                net: self.net.clone(),
                liar_rngs: HashMap::new(),
                queue: EventQueue::new(),
                now: SimTime::ZERO,
                pending_timers: HashMap::new(),
                cancelled: HashMap::new(),
                liars: HashMap::new(),
                colluders: HashSet::new(),
                events_processed: 0,
                peak_queue: 0,
                seed: self.seed,
                per: per as u32,
                nshards: k,
                scratch: (k > 1).then(|| {
                    let mut h = TelemetryHub::new(self.seed);
                    h.ensure_nodes(n);
                    h.configure_as_scratch();
                    h
                }),
                outboxes: (0..k).map(|_| Vec::new()).collect(),
                effects: Vec::new(),
            });
        }
        for (time, b, kind) in st.events {
            self.route_external(time, b, kind);
        }

        // Start callbacks in global id order (shard ranges are contiguous,
        // so per-shard iteration preserves the global order).
        let master = Rc::clone(&self.hub);
        for sh in &mut self.shards {
            sh.with_hub(&master, |sh, hub| {
                let _g = obs::collector::install_if_needed(hub);
                for li in 0..sh.nodes.len() {
                    let gid = sh.base + li as u32;
                    if sh.keyed() {
                        hub.borrow_mut().set_event_key(key_local(gid, gid), 0);
                    }
                    sh.dispatch_callback(hub, NodeId(gid), Callback::Start);
                }
            });
        }
        self.sync_window();
    }

    /// The window barrier: moves every parked cross-shard event into its
    /// owner shard's queue, then drains every shard's scratch trace ring
    /// into the master ring in global `(time, key)` order. The sort is
    /// stable and keys are unique per event, so records emitted while
    /// processing one event stay in emission order — the merged stream is
    /// what one queue would have recorded. A no-op with one shard.
    fn sync_window(&mut self) {
        let k = self.shards.len();
        if k == 1 {
            return;
        }
        for src in 0..k {
            for dst in 0..k {
                if src == dst || self.shards[src].outboxes[dst].is_empty() {
                    continue;
                }
                let moved = std::mem::take(&mut self.shards[src].outboxes[dst]);
                for (t, a, b, kind_ev) in moved {
                    // Conservative sync: a cross-shard arrival is always at
                    // or beyond the window barrier, so it can never land in
                    // the owner's past.
                    debug_assert!(
                        t >= self.shards[dst].now.as_micros(),
                        "outbox flush into the past: shard {src} -> {dst}, \
                         event t={t} but dst now={} (key a={a:#x} b={b})",
                        self.shards[dst].now.as_micros()
                    );
                    self.shards[dst].push_keyed(SimTime::from_micros(t), a, b, kind_ev);
                }
            }
        }
        let mut all: Vec<(TraceEvent, (u64, u64))> = Vec::new();
        for sh in &mut self.shards {
            if let Some(scr) = sh.scratch.as_mut() {
                all.extend(scr.drain_trace_keyed());
            }
        }
        all.sort_by_key(|(ev, key)| (ev.t_us, key.0, key.1));
        let mut hub = self.hub.borrow_mut();
        for (ev, _) in all {
            hub.push_record(ev);
        }
    }

    /// Folds every shard's scratch metric sets into the master hub (see
    /// [`TelemetryHub::merge_sets_from`]: the result is what the shards
    /// would have written into one hub).
    fn merge_shard_sets(&mut self) {
        let mut hub = self.hub.borrow_mut();
        for sh in &mut self.shards {
            let owned = sh.base as usize..sh.base as usize + sh.nodes.len();
            if let Some(scr) = sh.scratch.as_mut() {
                hub.merge_sets_from(scr, owned);
            }
        }
    }

    /// Earliest queued event time across all shards.
    fn earliest_time(&mut self) -> Option<u64> {
        self.shards.iter_mut().filter_map(|sh| sh.queue.peek_time()).min()
    }

    /// Moves the clock up to the latest instant any shard processed.
    fn advance_clock(&mut self) {
        let latest = self.shards.iter().map(|s| s.now).max().unwrap_or(SimTime::ZERO);
        self.now = self.now.max(latest);
    }

    /// Purges dead cancelled-timer entries once the set outgrows the live
    /// queue (a cancelled timer whose fire time has passed can never pop
    /// again, so its entry is pure dead weight).
    fn compact_cancelled(&mut self) {
        let now = self.now;
        for sh in &mut self.shards {
            if sh.cancelled.len() > 64 || sh.cancelled.len() > sh.queue.len() {
                sh.cancelled.retain(|_, &mut fire| fire > now);
            }
        }
    }

    /// Runs lookahead-bounded windows of a multi-shard run until every
    /// queue is past `deadline_us` or at least `max_events` events were
    /// processed (checked per window); `run` executes one window on every
    /// shard.
    fn run_windows(
        &mut self,
        deadline_us: u64,
        max_events: u64,
        mut run: impl FnMut(&mut [Shard<N>], &Hub, u64),
    ) {
        let master = Rc::clone(&self.hub);
        let before = self.events_processed();
        while let Some(w) = self.earliest_time() {
            if w > deadline_us || self.events_processed() - before >= max_events {
                break;
            }
            let bound = w.saturating_add(self.lookahead_us).min(deadline_us.saturating_add(1));
            run(&mut self.shards, &master, bound);
            self.sync_window();
        }
        self.merge_shard_sets();
        self.advance_clock();
    }

    /// Leaves the clock at `deadline` after a run call.
    fn finish_at(&mut self, deadline: SimTime) {
        if self.now < deadline {
            self.now = deadline;
        }
        self.compact_cancelled();
    }

    /// Processes the single earliest event. Returns `false` when the queues
    /// are empty.
    pub fn step(&mut self) -> bool {
        self.start_if_needed();
        // Process just the globally earliest event, then synchronize
        // (arrivals are at least one lookahead ahead, so the flush is
        // always safe).
        let Some((_, si)) = (self.shards.iter_mut().enumerate())
            .filter_map(|(i, sh)| sh.queue.peek_key().map(|key| (key, i)))
            .min()
        else {
            return false;
        };
        let master = Rc::clone(&self.hub);
        self.shards[si].with_hub(&master, |sh, hub| {
            let _g = obs::collector::install_if_needed(hub);
            sh.process_next(hub);
        });
        self.sync_window();
        self.merge_shard_sets();
        self.advance_clock();
        true
    }

    /// Runs until the simulated clock reaches `deadline` (events at exactly
    /// `deadline` are processed) or the queue drains. The clock is left at
    /// `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        self.start_if_needed();
        let deadline_us = deadline.as_micros();
        if self.shards.len() == 1 {
            // One shard needs no windows: drain straight to the deadline.
            self.shards[0].run_window(&self.hub, deadline_us.saturating_add(1));
            self.advance_clock();
        } else {
            self.run_windows(deadline_us, u64::MAX, windows_in_turn);
        }
        self.finish_at(deadline);
    }

    /// Runs for `d` of simulated time from the current instant.
    pub fn run_for(&mut self, d: SimDuration) {
        let deadline = self.now + d;
        self.run_until(deadline);
    }

    /// Runs until the event queue is empty or at least `max_events` have
    /// been processed, returning the number of events processed. With
    /// several shards the budget is checked at synchronization-window
    /// granularity, so the count may overshoot `max_events` by up to one
    /// window.
    pub fn run_to_quiescence(&mut self, max_events: u64) -> u64 {
        self.start_if_needed();
        let before = self.events_processed();
        if self.shards.len() == 1 {
            let _g = obs::collector::install_if_needed(&self.hub);
            let sh = &mut self.shards[0];
            while sh.events_processed - before < max_events && sh.process_next(&self.hub) {}
            self.advance_clock();
        } else {
            self.run_windows(u64::MAX, max_events, windows_in_turn);
        }
        self.events_processed() - before
    }
}

impl<N> Simulation<N>
where
    N: Node + Send,
    N::Msg: Send,
{
    /// Like [`Simulation::run_until`], but executes each synchronization
    /// window with one thread per shard. Byte-identical to the sequential
    /// path by construction: the window plan is the same, shards share no
    /// mutable state within a window, and the cross-shard merge orders
    /// records by their keys. Falls back to [`Simulation::run_until`] when
    /// there is only one shard.
    pub fn run_until_parallel(&mut self, deadline: SimTime) {
        self.start_if_needed();
        if self.shards.len() == 1 {
            self.run_until(deadline);
            return;
        }
        self.run_windows(deadline.as_micros(), u64::MAX, |shards, _, bound| {
            std::thread::scope(|scope| {
                for sh in shards.iter_mut() {
                    scope.spawn(move || sh.run_window_owned(bound));
                }
            });
        });
        self.finish_at(deadline);
    }

    /// Like [`Simulation::run_for`], but parallel across shards.
    pub fn run_for_parallel(&mut self, d: SimDuration) {
        let deadline = self.now + d;
        self.run_until_parallel(deadline);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::Payload;

    #[derive(Debug, Clone)]
    enum Msg {
        Ping(u32),
    }
    impl Payload for Msg {
        fn wire_size(&self) -> usize {
            8
        }
    }

    /// Forwards externally injected pings to `peer`, then echoes with a
    /// decrementing TTL; counts deliveries and timers.
    #[derive(Default)]
    struct Echo {
        peer: Option<NodeId>,
        got: Vec<(NodeId, u32)>,
        timer_tags: Vec<u64>,
        start_timer: Option<SimDuration>,
        recovered: u32,
    }

    impl Node for Echo {
        type Msg = Msg;
        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            if let Some(d) = self.start_timer {
                ctx.set_timer(d, 7);
            }
        }
        fn on_message(&mut self, ctx: &mut Context<'_, Msg>, from: NodeId, Msg::Ping(n): Msg) {
            self.got.push((from, n));
            if from == NodeId::EXTERNAL {
                if let Some(peer) = self.peer {
                    ctx.send(peer, Msg::Ping(n));
                }
            } else if n > 0 {
                ctx.send(from, Msg::Ping(n - 1));
            }
        }
        fn on_timer(&mut self, _ctx: &mut Context<'_, Msg>, _t: TimerId, tag: u64) {
            self.timer_tags.push(tag);
        }
        fn on_recover(&mut self, _ctx: &mut Context<'_, Msg>) {
            self.recovered += 1;
        }
    }

    fn two_node_sim() -> Simulation<Echo> {
        let mut sim = Simulation::new(NetworkModel::ideal(SimDuration::from_millis(10)), 1);
        sim.add_node(Echo { peer: Some(NodeId(1)), ..Default::default() });
        sim.add_node(Echo { peer: Some(NodeId(0)), ..Default::default() });
        sim
    }

    #[test]
    fn external_injection_and_echo() {
        let mut sim = two_node_sim();
        sim.schedule_external(SimTime::from_secs(1), NodeId(0), Msg::Ping(0));
        sim.run_until(SimTime::from_secs(2));
        assert_eq!(sim.node(NodeId(0)).got, vec![(NodeId::EXTERNAL, 0)]);
        assert_eq!(sim.now(), SimTime::from_secs(2));
    }

    #[test]
    fn ping_pong_latency_accumulates() {
        let mut sim = two_node_sim();
        // n0 gets Ping(3) from outside, forwards to n1; it bounces back down
        // to TTL 0: n0 -> n1 (3), n1 -> n0 (2), n0 -> n1 (1), n1 -> n0 (0).
        sim.schedule_external(SimTime::ZERO, NodeId(0), Msg::Ping(3));
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(
            sim.node(NodeId(0)).got,
            vec![(NodeId::EXTERNAL, 3), (NodeId(1), 2), (NodeId(1), 0)]
        );
        assert_eq!(sim.node(NodeId(1)).got, vec![(NodeId(0), 3), (NodeId(0), 1)]);
        let c0 = sim.counters(NodeId(0));
        assert_eq!(c0.msgs_sent, 2);
        assert_eq!(c0.bytes_sent, 16);
        assert_eq!(c0.msgs_recv, 3);
    }

    #[test]
    fn timers_fire_and_cancel() {
        struct T {
            fired: Vec<u64>,
        }
        impl Node for T {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
                ctx.set_timer(SimDuration::from_millis(5), 1);
                let cancel_me = ctx.set_timer(SimDuration::from_millis(6), 2);
                ctx.set_timer(SimDuration::from_millis(7), 3);
                ctx.cancel_timer(cancel_me);
            }
            fn on_message(&mut self, _: &mut Context<'_, ()>, _: NodeId, _: ()) {}
            fn on_timer(&mut self, _: &mut Context<'_, ()>, _: TimerId, tag: u64) {
                self.fired.push(tag);
            }
        }
        let mut sim = Simulation::new(NetworkModel::default(), 3);
        let id = sim.add_node(T { fired: vec![] });
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.node(id).fired, vec![1, 3]);
    }

    #[test]
    fn cancelled_timer_set_stays_bounded() {
        // A node that cancels every timer *after* it fired: the old
        // HashSet grew one entry per cancellation, forever.
        struct LateCancel {
            last: Option<TimerId>,
        }
        impl Node for LateCancel {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
                self.last = Some(ctx.set_timer(SimDuration::from_millis(1), 0));
            }
            fn on_message(&mut self, _: &mut Context<'_, ()>, _: NodeId, _: ()) {}
            fn on_timer(&mut self, ctx: &mut Context<'_, ()>, fired: TimerId, _: u64) {
                // `fired` has already popped: cancelling it must be a no-op
                // that leaves no residue.
                ctx.cancel_timer(fired);
                if let Some(prev) = self.last {
                    ctx.cancel_timer(prev);
                }
                self.last = Some(ctx.set_timer(SimDuration::from_millis(1), 0));
            }
        }
        let mut sim = Simulation::new(NetworkModel::default(), 5);
        sim.add_node(LateCancel { last: None });
        for t in 1..=200u64 {
            sim.run_until(SimTime::from_micros(t * 10_000));
        }
        let sh = &sim.shards[0];
        assert!(sh.cancelled.len() <= 1, "cancelled set leaked: {} entries", sh.cancelled.len());
        assert!(sh.pending_timers.len() <= 1, "pending map leaked");
    }

    #[test]
    fn cancelled_set_compacts_against_live_queue() {
        // Cancel a burst of still-pending far-future timers: each entry must
        // vanish when its timer event pops, and the set never outlives the
        // live queue.
        struct Burst {
            pending: Vec<TimerId>,
            fired: Vec<u64>,
        }
        impl Node for Burst {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
                for i in 0..200u64 {
                    self.pending.push(ctx.set_timer(SimDuration::from_secs(10), i));
                }
                ctx.set_timer(SimDuration::from_millis(1), 999);
            }
            fn on_message(&mut self, _: &mut Context<'_, ()>, _: NodeId, _: ()) {}
            fn on_timer(&mut self, ctx: &mut Context<'_, ()>, _t: TimerId, tag: u64) {
                self.fired.push(tag);
                if tag == 999 {
                    for id in self.pending.drain(..) {
                        ctx.cancel_timer(id);
                    }
                }
            }
        }
        let mut sim = Simulation::new(NetworkModel::default(), 11);
        let id = sim.add_node(Burst { pending: Vec::new(), fired: Vec::new() });
        sim.run_until(SimTime::from_secs(1));
        {
            let sh = &sim.shards[0];
            assert_eq!(sh.cancelled.len(), 200, "cancellations of pending timers are recorded");
            assert!(sh.cancelled.len() <= sh.queue.len(), "cancelled set outgrew the live queue");
        }
        sim.run_until(SimTime::from_secs(20));
        let sh = &sim.shards[0];
        assert_eq!(sh.cancelled.len(), 0, "popped timer events must clear their entries");
        assert_eq!(sim.node(id).fired, vec![999], "cancelled timers must not fire");
    }

    #[test]
    fn peak_queue_depth_tracks_high_water() {
        // Ten staged externals at distinct times, each forwarded once on
        // delivery: the queue refills to exactly 10 after each pop until the
        // injections drain, so the high-water mark is exactly 10 — staged
        // events and batch-scheduled deliveries both counted.
        let mut sim = two_node_sim();
        for i in 0..10u64 {
            sim.schedule_external(SimTime::from_micros(i * 1000 + 1), NodeId(0), Msg::Ping(0));
        }
        assert_eq!(sim.peak_queue_depth(), 10, "staged events count toward the peak");
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.peak_queue_depth(), 10);
        assert_eq!(sim.node(NodeId(1)).got.len(), 10);
    }

    #[test]
    fn crash_drops_messages_then_recover_delivers() {
        let mut sim = two_node_sim();
        sim.schedule_crash(SimTime::from_secs(1), NodeId(0));
        sim.schedule_external(SimTime::from_secs(2), NodeId(0), Msg::Ping(0));
        sim.schedule_recover(SimTime::from_secs(3), NodeId(0));
        sim.schedule_external(SimTime::from_secs(4), NodeId(0), Msg::Ping(0));
        sim.run_until(SimTime::from_secs(5));
        let n0 = sim.node(NodeId(0));
        assert_eq!(n0.got.len(), 1, "message during downtime must be lost");
        assert_eq!(n0.recovered, 1);
        assert_eq!(sim.counters(NodeId(0)).msgs_lost, 1);
    }

    #[test]
    fn timers_expiring_while_down_are_lost() {
        let mut sim = Simulation::new(NetworkModel::default(), 9);
        let id = sim
            .add_node(Echo { start_timer: Some(SimDuration::from_secs(2)), ..Default::default() });
        sim.schedule_crash(SimTime::from_secs(1), id);
        sim.schedule_recover(SimTime::from_secs(3), id);
        sim.run_until(SimTime::from_secs(5));
        assert!(sim.node(id).timer_tags.is_empty());
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let run = |seed: u64| {
            let mut sim = Simulation::new(
                NetworkModel {
                    latency: crate::topology::LatencyModel::Uniform {
                        min: SimDuration::from_millis(1),
                        max: SimDuration::from_millis(50),
                    },
                    drop_prob: 0.1,
                    ..NetworkModel::default()
                },
                seed,
            );
            for i in 0..4u32 {
                sim.add_node(Echo { peer: Some(NodeId((i + 1) % 4)), ..Default::default() });
            }
            for i in 0..20u32 {
                sim.schedule_external(
                    SimTime::from_micros(u64::from(i) * 1000),
                    NodeId(i % 4),
                    Msg::Ping(3),
                );
            }
            sim.run_until(SimTime::from_secs(10));
            (0..4).map(|i| sim.node(NodeId(i)).got.clone()).collect::<Vec<_>>()
        };
        assert_eq!(run(77), run(77));
        assert_ne!(run(77), run(78));
    }

    /// A fault-heavy scenario (chaos + partition + crash/recover + liar +
    /// colluder + corruption) whose telemetry must be byte-identical for
    /// every shard count; `None` keeps the default engine.
    fn chaos_scenario(shards: Option<usize>, parallel: bool) -> (String, Vec<Vec<(NodeId, u32)>>) {
        let mut sim = Simulation::new(
            NetworkModel {
                latency: crate::topology::LatencyModel::Uniform {
                    min: SimDuration::from_millis(2),
                    max: SimDuration::from_millis(20),
                },
                drop_prob: 0.05,
                ..NetworkModel::default()
            },
            4242,
        );
        if let Some(k) = shards {
            sim.set_shards(k);
        }
        let n = 8u32;
        for i in 0..n {
            sim.add_node(Echo { peer: Some(NodeId((i + 1) % n)), ..Default::default() });
        }
        for i in 0..48u32 {
            sim.schedule_external(
                SimTime::from_micros(u64::from(i) * 700),
                NodeId(i % n),
                Msg::Ping(4),
            );
        }
        sim.schedule_crash(SimTime::from_millis_t(30), NodeId(2));
        sim.schedule_restart(SimTime::from_millis_t(200), NodeId(2), RestartMode::ColdDurable);
        sim.schedule_partition(
            SimTime::from_millis_t(50),
            Some(Partition::split_at(n as usize, (n / 2) as usize)),
        );
        sim.schedule_partition(SimTime::from_millis_t(300), None);
        sim.schedule_liar(
            SimTime::from_millis_t(10),
            NodeId(5),
            Some(LiarBehavior { mode: crate::node::LiarMode::MisSummarize, prob: 0.5 }),
        );
        sim.schedule_colluder(SimTime::from_millis_t(10), NodeId(5), true);
        sim.schedule_corruption(
            SimTime::from_millis_t(120),
            NodeId(1),
            CorruptionOp::DiskBytes { flips: 4 },
            77,
        );
        sim.schedule_dup_prob(SimTime::from_millis_t(40), 0.1);
        sim.schedule_reorder(SimTime::from_millis_t(40), 0.2, SimDuration::from_millis(5));
        if parallel {
            sim.run_until_parallel(SimTime::from_secs(2));
        } else {
            sim.run_until(SimTime::from_secs(2));
        }
        let t = sim.drain_telemetry();
        let states = (0..n).map(|i| sim.node(NodeId(i)).got.clone()).collect();
        (t.to_json(), states)
    }

    #[test]
    fn default_engine_matches_every_shard_count() {
        let default = chaos_scenario(None, false);
        for k in [1, 4] {
            let sharded = chaos_scenario(Some(k), false);
            assert_eq!(default.1, sharded.1, "node states diverged at {k} shards");
            assert_eq!(default.0, sharded.0, "telemetry diverged at {k} shards");
        }
    }

    #[test]
    fn parallel_execution_is_byte_identical_to_sequential() {
        let seq = chaos_scenario(Some(4), false);
        let par = chaos_scenario(Some(4), true);
        assert_eq!(seq.1, par.1, "node states diverged under parallel execution");
        assert_eq!(seq.0, par.0, "telemetry diverged under parallel execution");
    }

    #[test]
    fn run_to_quiescence_counts_events() {
        let mut sim = two_node_sim();
        sim.schedule_external(SimTime::ZERO, NodeId(0), Msg::Ping(3));
        let n = sim.run_to_quiescence(1000);
        assert_eq!(n, 5); // one injection + 4 inter-node deliveries
        assert_eq!(sim.events_processed(), 5);
    }

    #[test]
    #[should_panic(expected = "after the simulation started")]
    fn adding_nodes_after_start_panics() {
        let mut sim = two_node_sim();
        sim.run_until(SimTime::from_secs(1));
        sim.add_node(Echo::default());
    }

    #[test]
    fn partition_schedule_applies() {
        let mut sim = two_node_sim();
        sim.schedule_partition(SimTime::ZERO, Some(Partition::split_at(2, 1)));
        sim.schedule_external(SimTime::from_millis_t(1), NodeId(0), Msg::Ping(3));
        sim.run_until(SimTime::from_secs(1));
        // n0 forwards the ping to n1, but the partition cuts the link.
        assert_eq!(sim.node(NodeId(1)).got.len(), 0);
        assert_eq!(sim.counters(NodeId(1)).msgs_lost, 1);
    }

    impl SimTime {
        fn from_millis_t(ms: u64) -> SimTime {
            SimTime::from_micros(ms * 1000)
        }
    }
}
