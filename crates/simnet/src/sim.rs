//! The discrete-event engine.
//!
//! [`Simulation`] owns the nodes, one calendar-queue scheduler (see
//! [`crate::sched`]), the network model and all randomness, and every run
//! call drains that queue straight to its deadline.
//!
//! # One ordering
//!
//! Events are totally ordered by a `(time, a, b)` key that names only nodes
//! and the schedule: a node-emitted event is keyed `(arrival,
//! destination‖source, per-source sequence)`, an externally scheduled one
//! `(time, destination‖EXT, schedule order)`, a network-wide control event
//! `(time, MAX, schedule order)`. Every draw — protocol, network, liar —
//! comes from a stream of its own node, forked from the master seed by the
//! node's id. So a node's draws and a run's order depend on nothing but the
//! seed and the schedule of external inputs: the same seed replays
//! byte-identical telemetry, however the run is split into run calls — the
//! determinism every experiment in this reproduction relies on. A timer
//! never fires at the instant it was set (its delay is floored at 1 µs), so
//! whatever a callback schedules for itself sorts after the event that
//! caused it.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::rc::Rc;

use obs::{ctr, kind, Layer, Telemetry, TelemetryHub};
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
/// at the same instant.
const KEY_CONTROL: u64 = u64::MAX;

/// Lane marker distinguishing externally injected events from node-emitted
/// ones in the `a`-key (no real node id equals it).
const EXT_LANE: u64 = 0xFFFF_FFFF;

/// `a`-key of a node-emitted event: destination-major so all of one node's
/// inbound traffic shares a lane, sub-ordered by source.
fn key_local(dest: u32, src: u32) -> u64 {
    (u64::from(dest) << 32) | u64::from(src)
}

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

/// `a`-key of an externally scheduled event: its node's external lane for a
/// per-node event, the control lane for a network-global one.
fn external_key<M>(kind: &EventKind<M>) -> u64 {
    let node = match kind {
        EventKind::Deliver { to: n, .. }
        | EventKind::Timer { node: n, .. }
        | EventKind::Crash(n)
        | EventKind::Recover(n, _)
        | EventKind::Corrupt { node: n, .. }
        | EventKind::SetLiar(n, _)
        | EventKind::SetColluder(n, _) => n,
        EventKind::SetPartition(_)
        | EventKind::SetDropProb(_)
        | EventKind::SetGray(..)
        | EventKind::SetLink { .. }
        | EventKind::SetDupProb(_)
        | EventKind::SetReorder { .. } => return KEY_CONTROL,
    };
    (u64::from(node.0) << 32) | EXT_LANE
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

/// The telemetry hub, shared with the thread-local collector.
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
    nodes: Vec<N>,
    /// Engine state of each node (indexed by id), built by the first run
    /// call so that adding a node stages nothing but the node.
    slots: Vec<Slot>,
    /// The network model, as scheduled control events have changed it.
    net: NetworkModel,
    /// Per-node liar streams, created on a liar's first draw.
    liar_rngs: HashMap<u32, SmallRng>,
    liars: HashMap<u32, LiarBehavior>,
    colluders: HashSet<u32>,
    queue: EventQueue<EventKind<N::Msg>>,
    /// Externally scheduled events (with their `b`-keys) that wait for the
    /// first run call to be queued, so that building a run costs a `Vec`
    /// push per input.
    staged: Vec<(SimTime, u64, EventKind<N::Msg>)>,
    now: SimTime,
    /// Timers still queued and not cancelled: a popped timer fires only if
    /// its id is here (entries leave when the timer pops or is cancelled).
    live_timers: HashSet<TimerId>,
    events_processed: u64,
    peak_queue: usize,
    seed: u64,
    started: bool,
    /// How many of the newest unsynced disk writes a crash destroys
    /// (default: all of them).
    crash_unsynced_loss: usize,
    /// Whether sends also tally `BYTES_WIRE` (compressed-wire accounting).
    delta_accounting: bool,
    /// `b`-key counter for externally scheduled events (schedule order).
    ext_seq: u64,
    /// The effects buffer `dispatch_callback` lends each callback; empty
    /// between callbacks, its capacity kept.
    effects: Vec<Effect<N::Msg>>,
}

impl<N: Node> std::fmt::Debug for Simulation<N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("nodes", &self.len())
            .field("now", &self.now)
            .field("queued", &(self.queue.len() + self.staged.len()))
            .field("events_processed", &self.events_processed())
            .finish()
    }
}

impl<N: Node> Simulation<N> {
    /// Queues an event and tracks the queue's high-water mark.
    fn enqueue(&mut self, at: SimTime, a: u64, b: u64, kind: EventKind<N::Msg>) {
        self.queue.push(at.as_micros(), a, b, kind);
        self.peak_queue = self.peak_queue.max(self.queue.len());
    }

    /// Allocates the ordering key for an event emitted by `src` toward
    /// `dest` (timers use `dest == src`).
    fn key_for_emit(&mut self, src: NodeId, dest: NodeId) -> (u64, u64) {
        let slot = &mut self.slots[src.index()];
        slot.seq += 1;
        (key_local(dest.0, src.0), slot.seq)
    }

    /// Queues a delivery from `from` to `to` at `at`.
    fn emit_deliver(&mut self, from: NodeId, to: NodeId, msg: N::Msg, size: usize, at: SimTime) {
        let (a, b) = self.key_for_emit(from, to);
        self.enqueue(at, a, b, EventKind::Deliver { from, to, msg, size });
    }

    /// Runs the node callback and then applies the effects it requested.
    fn dispatch_callback(&mut self, hub: &Hub, id: NodeId, cb: Callback<N::Msg>) {
        let li = id.index();
        // One buffer per simulation, drained below and handed back: a callback
        // that requests nothing costs the engine no allocation.
        let mut effects = std::mem::take(&mut self.effects);
        {
            // Expose the hub to protocol code for the span of the callback
            // (callbacks are instantaneous in sim time, so stamping the
            // clock once here is exact).
            hub.borrow_mut().set_now_us(self.now.as_micros());
            // Usually a no-op pointer check: the run calls install the hub
            // once for their whole drain.
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
                    self.live_timers.insert(tid);
                    let (a, b) = self.key_for_emit(id, id);
                    self.enqueue(at, a, b, EventKind::Timer { node: id, id: tid, tag });
                }
                Effect::CancelTimer { id: tid } => {
                    // Only queued timers are live, so cancelling a fired or
                    // never-set one leaves nothing behind.
                    self.live_timers.remove(&tid);
                }
            }
        }
        self.effects = effects;
    }

    /// Applies one popped event.
    fn process_event(&mut self, hub: &Hub, t: SimTime, kind_ev: EventKind<N::Msg>) {
        debug_assert!(t >= self.now, "event queue went backwards");
        self.now = t;
        self.events_processed += 1;
        match kind_ev {
            EventKind::Deliver { from, to, msg, size } => {
                if self.slots.get(to.index()).is_none_or(|s| s.down) {
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
                if !self.live_timers.remove(&id) {
                    return; // cancelled while queued
                }
                if self.slots[node.index()].down {
                    return; // timers expiring while down are lost
                }
                if let Some(c) = hub.borrow_mut().node_mut(node.index()) {
                    c.ctr_add(ctr::TIMERS_FIRED, 1);
                }
                self.dispatch_callback(hub, node, Callback::Timer { timer: id, tag });
            }
            EventKind::Crash(node) => {
                let li = node.index();
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
                let li = node.index();
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
                if p.is_some() || healed {
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
                let li = node.index();
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
        let Some((t, _, _, kind_ev)) = self.queue.pop() else { return false };
        self.process_event(hub, SimTime::from_micros(t), kind_ev);
        true
    }
}

impl<N: Node> Simulation<N> {
    /// Creates an empty simulation over the given network model, with all
    /// randomness derived from `seed`; delta accounting off.
    pub fn new(net: NetworkModel, seed: u64) -> Self {
        Simulation {
            hub: Rc::new(RefCell::new(TelemetryHub::new(seed))),
            nodes: Vec::new(),
            slots: Vec::new(),
            net,
            liar_rngs: HashMap::new(),
            liars: HashMap::new(),
            colluders: HashSet::new(),
            queue: EventQueue::new(),
            staged: Vec::new(),
            now: SimTime::ZERO,
            live_timers: HashSet::new(),
            events_processed: 0,
            peak_queue: 0,
            seed,
            started: false,
            crash_unsynced_loss: usize::MAX,
            delta_accounting: false,
            ext_seq: 0,
            effects: Vec::new(),
        }
    }

    /// The master seed this simulation was built with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The network model as it stands now: the one the simulation was
    /// built with, as far as scheduled fault events have changed it.
    pub fn network(&self) -> &NetworkModel {
        &self.net
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
    /// hub through the `obs` thread-local collector.
    pub fn telemetry(&self) -> Rc<RefCell<TelemetryHub>> {
        Rc::clone(&self.hub)
    }

    /// A non-destructive telemetry snapshot: every non-zero registry slot
    /// plus the retained trace records, stamped with the current simulated
    /// time. Deterministic — same seed, same schedule ⇒ same snapshot.
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
        let mut hub = self.hub.borrow_mut();
        hub.set_now_us(self.now.as_micros());
        hub.drain()
    }

    /// Caps the trace ring at `capacity` records (drop-oldest beyond it).
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
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(node);
        self.hub.borrow_mut().ensure_nodes(self.nodes.len());
        id
    }

    /// A node's simulated stable storage (inspection between runs; empty
    /// before the first).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn disk(&self, id: NodeId) -> &Disk {
        assert!(id.index() < self.nodes.len(), "node id out of range");
        self.slots.get(id.index()).map_or(&UNWRITTEN, |s| &s.disk)
    }

    /// Sets how many of the newest unsynced disk writes a crash destroys.
    /// `usize::MAX` (the default) loses every unsynced write; `0` models a
    /// write-through disk that never loses anything.
    pub fn set_crash_unsynced_loss(&mut self, k: usize) {
        self.crash_unsynced_loss = k;
    }

    /// Enables or disables the compressed-wire accounting lane
    /// (`BYTES_WIRE`); off by default. A run on the delta wire protocol
    /// turns it on alongside the protocol's own switches (NewsWire's
    /// `deltas`, Astrolabe's `delta_gossip`).
    pub fn set_delta_accounting(&mut self, on: bool) {
        self.delta_accounting = on;
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the simulation holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events processed so far: every popped event, network-wide
    /// control events and skipped timers included (for throughput
    /// benchmarks).
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// High-water mark of the event queue length (for capacity benchmarks),
    /// events scheduled before the first run included.
    pub fn peak_queue_depth(&self) -> usize {
        self.peak_queue.max(self.staged.len())
    }

    /// Immutable access to a node's protocol state.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node(&self, id: NodeId) -> &N {
        &self.nodes[id.index()]
    }

    /// Mutable access to a node's protocol state (configuration between runs,
    /// or result extraction).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node_mut(&mut self, id: NodeId) -> &mut N {
        &mut self.nodes[id.index()]
    }

    /// Iterates over `(id, node)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &N)> {
        self.nodes.iter().enumerate().map(|(i, n)| (NodeId(i as u32), n))
    }

    /// Whether `id` is currently crashed.
    pub fn is_down(&self, id: NodeId) -> bool {
        self.slots.get(id.index()).is_some_and(|s| s.down)
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
    /// (staged before the first run call).
    fn push(&mut self, time: SimTime, kind: EventKind<N::Msg>) {
        self.ext_seq += 1;
        if self.started {
            self.enqueue(time, external_key(&kind), self.ext_seq, kind);
        } else {
            self.staged.push((time, self.ext_seq, kind));
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

    /// Gives every node its [`Slot`], queues the staged events and
    /// dispatches every node's `on_start` in id order.
    fn start_if_needed(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        let seed = self.seed;
        self.slots = (0..self.nodes.len() as u64).map(|g| Slot::new(seed, g)).collect();
        for (time, b, kind) in std::mem::take(&mut self.staged) {
            self.enqueue(time, external_key(&kind), b, kind);
        }
        let hub = Rc::clone(&self.hub);
        let _g = obs::collector::install_if_needed(&hub);
        for gid in 0..self.nodes.len() as u32 {
            self.dispatch_callback(&hub, NodeId(gid), Callback::Start);
        }
    }

    /// Processes the single earliest event. Returns `false` when the queue
    /// is empty.
    pub fn step(&mut self) -> bool {
        self.start_if_needed();
        let hub = Rc::clone(&self.hub);
        let _g = obs::collector::install_if_needed(&hub);
        self.process_next(&hub)
    }

    /// Runs until the simulated clock reaches `deadline` (events at exactly
    /// `deadline` are processed) or the queue drains. The clock is left at
    /// `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        self.start_if_needed();
        let hub = Rc::clone(&self.hub);
        // Installed once for the whole drain, so each callback's install is
        // a pointer check.
        let _g = obs::collector::install_if_needed(&hub);
        let deadline_us = deadline.as_micros();
        while self.queue.peek_time().is_some_and(|t| t <= deadline_us) {
            self.process_next(&hub);
        }
        if self.now < deadline {
            self.now = deadline;
        }
    }

    /// Runs for `d` of simulated time from the current instant.
    pub fn run_for(&mut self, d: SimDuration) {
        let deadline = self.now + d;
        self.run_until(deadline);
    }

    /// Runs until the event queue is empty or exactly `max_events` have
    /// been processed, returning the number of events processed.
    pub fn run_to_quiescence(&mut self, max_events: u64) -> u64 {
        self.start_if_needed();
        let hub = Rc::clone(&self.hub);
        let _g = obs::collector::install_if_needed(&hub);
        let before = self.events_processed;
        while self.events_processed - before < max_events && self.process_next(&hub) {}
        self.events_processed - before
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
        // A node that cancels every timer *after* it fired: a set that
        // recorded every cancellation would grow one entry per call, forever.
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
        let live = sim.live_timers.len();
        assert!(live <= 1, "live timer set leaked: {live} entries");
    }

    #[test]
    fn cancelled_timers_leave_the_live_set() {
        // Cancel a burst of still-pending far-future timers: each leaves the
        // live set at once, the set never outgrows the queue, and none of
        // them fires when its event pops.
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
        assert_eq!(sim.live_timers.len(), 0, "cancellations of queued timers are recorded");
        assert_eq!(sim.queue.len(), 200, "the cancelled timers' events are still queued");
        sim.run_until(SimTime::from_secs(20));
        assert!(sim.live_timers.is_empty() && sim.queue.is_empty());
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
    /// colluder + corruption) run to 2 s in one call, or in 200 calls of
    /// 10 ms when `split`; returns the drained telemetry JSON, the node
    /// states and the event count.
    fn chaos_scenario(split: bool) -> (String, Vec<Vec<(NodeId, u32)>>, u64) {
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
        if split {
            for _ in 0..200 {
                sim.run_for(SimDuration::from_millis(10));
            }
        } else {
            sim.run_until(SimTime::from_secs(2));
        }
        assert_eq!(sim.now(), SimTime::from_secs(2));
        let t = sim.drain_telemetry();
        let states = (0..n).map(|i| sim.node(NodeId(i)).got.clone()).collect();
        (t.to_json(), states, sim.events_processed())
    }

    #[test]
    fn same_seed_chaos_replays_byte_identical() {
        let (a, b) = (chaos_scenario(false), chaos_scenario(false));
        assert!(a.2 > 100, "the scenario does work: {} events", a.2);
        assert_eq!(a, b, "a same-seed rerun diverged");
    }

    #[test]
    fn split_run_calls_match_one_run_call() {
        let one = chaos_scenario(false);
        let split = chaos_scenario(true);
        assert_eq!(one.1, split.1, "node states diverged when the run was split");
        assert_eq!(one.2, split.2, "event counts diverged when the run was split");
        assert_eq!(one.0, split.0, "telemetry diverged when the run was split");
    }

    #[test]
    fn run_to_quiescence_counts_events() {
        let mut sim = two_node_sim();
        sim.schedule_external(SimTime::ZERO, NodeId(0), Msg::Ping(3));
        // One injection + 4 inter-node deliveries are coming; a budget of 3
        // stops at exactly 3.
        assert_eq!(sim.run_to_quiescence(3), 3);
        assert_eq!(sim.events_processed(), 3);
        assert_eq!(sim.run_to_quiescence(1000), 2);
        assert_eq!(sim.events_processed(), 5);
        assert_eq!(sim.run_to_quiescence(1000), 0, "the queue is empty");
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
