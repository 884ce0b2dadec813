//! The multicast forwarding component, composed with an Astrolabe agent
//! into one simulated node.

use astrolabe::{Agent, GossipMsg, ZoneId};
use obs::{ctr, gauge, kind, Layer};
use rand::Rng;
use simnet::{Context, Node, NodeId, Payload, SimDuration, SimTime, TimerId};

use crate::dedup::{CoverageWindow, DedupWindow};
use crate::log::{ForwardEvent, ForwardLog, LogRecord};
use crate::mcast::{route, Action, McastData};
use crate::queues::{ForwardingQueues, Strategy};

/// Messages exchanged by multicast nodes.
#[derive(Debug, Clone)]
pub enum McastMsg {
    /// Astrolabe gossip piggybacking on the same node.
    Gossip(GossipMsg),
    /// Injected at the origin: start disseminating within `scope`.
    Publish {
        /// The item.
        data: McastData,
        /// The zone to disseminate in (root for global delivery).
        scope: ZoneId,
    },
    /// Cover `zone` with `data` (representative-to-representative hop).
    Forward {
        /// The item.
        data: McastData,
        /// The zone the receiver must cover.
        zone: ZoneId,
    },
    /// Final hop to a leaf-zone member.
    Deliver {
        /// The item.
        data: McastData,
    },
}

impl Payload for McastMsg {
    fn wire_size(&self) -> usize {
        match self {
            McastMsg::Gossip(g) => g.wire_size(),
            McastMsg::Publish { data, scope } | McastMsg::Forward { data, zone: scope } => {
                data.wire_size() + 2 + scope.depth() * 2
            }
            McastMsg::Deliver { data } => data.wire_size(),
        }
    }
}

/// Queue discipline of every forwarding component — this crate's
/// [`McastNode`] and a NewsWire node alike.
pub const FORWARD_STRATEGY: Strategy = Strategy::WeightedRoundRobin;

/// Service time per forwarded message, shared like [`FORWARD_STRATEGY`]
/// (models forwarding bandwidth; queues build up when the offered load
/// exceeds it).
pub const SERVICE_INTERVAL: SimDuration = SimDuration::from_micros(500);

/// Duplicate-suppression window size.
const DEDUP_CAPACITY: usize = 4096;

const GOSSIP_TIMER: u64 = 1;
const DRAIN_TIMER: u64 = 2;

/// One simulated node: Astrolabe agent + forwarding component.
#[derive(Debug)]
pub struct McastNode {
    /// The embedded Astrolabe agent.
    pub agent: Agent,
    /// Representatives used per interested child (`k` of paper §9).
    redundancy: usize,
    coverage: CoverageWindow,
    seen: DedupWindow,
    /// Local deliveries: `(message id, delivery time)`.
    pub deliveries: Vec<(u64, SimTime)>,
    /// The §9 forwarding log.
    pub log: ForwardLog,
    queues: ForwardingQueues<(NodeId, McastMsg)>,
    draining: bool,
}

impl McastNode {
    /// Builds the node around an agent, forwarding each item to
    /// `redundancy` representatives per interested child (`k` of paper §9).
    pub fn new(agent: Agent, redundancy: usize) -> Self {
        McastNode {
            agent,
            redundancy,
            coverage: CoverageWindow::new(DEDUP_CAPACITY),
            seen: DedupWindow::new(DEDUP_CAPACITY),
            deliveries: Vec::new(),
            log: ForwardLog::default(),
            queues: ForwardingQueues::new(FORWARD_STRATEGY),
            draining: false,
        }
    }

    /// Declares a child queue weight (used by the queue-strategy
    /// experiment; by default children weight equally).
    pub fn set_child_weight(&mut self, child: u16, weight: u32) {
        self.queues.declare_child(child, weight);
    }

    /// True when this node has delivered message `id` locally.
    pub fn has_delivered(&self, id: u64) -> bool {
        self.deliveries.iter().any(|&(d, _)| d == id)
    }

    fn flush_gossip(&self, ctx: &mut Context<'_, McastMsg>, out: Vec<(u32, GossipMsg)>) {
        for (to, g) in out {
            ctx.send(NodeId(to), McastMsg::Gossip(g));
        }
    }

    fn deliver_local(&mut self, now: SimTime, data: &McastData) {
        let event = if self.seen.insert(data.id) {
            self.deliveries.push((data.id, now));
            obs::metric_add!(self.agent.id(), ctr::MCAST_LOCAL_DELIVERIES, 1);
            obs::trace_event!(self.agent.id(), Layer::Amcast, kind::MCAST_DELIVER_LOCAL, data.id);
            ForwardEvent::Delivered
        } else {
            obs::metric_add!(self.agent.id(), ctr::MCAST_DUPES_DROPPED, 1);
            ForwardEvent::Duplicate
        };
        self.log.record(LogRecord {
            at_us: now.as_micros(),
            msg_id: data.id,
            zone: ZoneId::root(),
            peer: None,
            event,
        });
    }

    fn enqueue(&mut self, ctx: &mut Context<'_, McastMsg>, dst: NodeId, msg: McastMsg) {
        let (child, priority) = match &msg {
            McastMsg::Forward { zone, data } => (zone.label().unwrap_or(0), data.priority),
            McastMsg::Deliver { data } => ((dst.0 % 64) as u16, data.priority),
            _ => (0, 5),
        };
        self.queues.push(child, ctx.now().as_micros(), priority, (dst, msg));
        obs::gauge_max!(self.agent.id(), gauge::MCAST_PEAK_QUEUE, self.queues.len());
        if !self.draining {
            self.draining = true;
            ctx.set_timer(SERVICE_INTERVAL, DRAIN_TIMER);
        }
    }

    /// Executes forwarding duty for `zone`.
    fn process_duty(&mut self, ctx: &mut Context<'_, McastMsg>, data: McastData, zone: ZoneId) {
        let actions = route(&self.agent, &data.filter, &zone, self.redundancy, ctx.rng());
        let now = ctx.now();
        if actions.is_empty() && self.agent.level_of(&zone).is_none() {
            obs::metric_add!(self.agent.id(), ctr::MCAST_ROUTE_FAILURES, 1);
            self.log.record(LogRecord {
                at_us: now.as_micros(),
                msg_id: data.id,
                zone,
                peer: None,
                event: ForwardEvent::Unroutable,
            });
            return;
        }
        self.log.record(LogRecord {
            at_us: now.as_micros(),
            msg_id: data.id,
            zone: zone.clone(),
            peer: None,
            event: ForwardEvent::AcceptedDuty,
        });
        for action in actions {
            match action {
                Action::DeliverLocal => self.deliver_local(now, &data),
                Action::Deliver { member } => {
                    self.enqueue(ctx, NodeId(member), McastMsg::Deliver { data: data.clone() });
                }
                Action::Forward { rep, zone } => {
                    obs::trace_event!(
                        self.agent.id(),
                        Layer::Amcast,
                        kind::MCAST_HOP,
                        data.id,
                        rep
                    );
                    self.log.record(LogRecord {
                        at_us: now.as_micros(),
                        msg_id: data.id,
                        zone: zone.clone(),
                        peer: Some(rep),
                        event: ForwardEvent::Forwarded,
                    });
                    self.enqueue(ctx, NodeId(rep), McastMsg::Forward { data: data.clone(), zone });
                }
            }
        }
    }
}

impl Node for McastNode {
    type Msg = McastMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, McastMsg>) {
        let interval = self.agent.config().gossip_interval;
        let first = SimDuration::from_micros(ctx.rng().gen_range(0..interval.as_micros().max(1)));
        ctx.set_timer(first, GOSSIP_TIMER);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, McastMsg>, from: NodeId, msg: McastMsg) {
        match msg {
            McastMsg::Gossip(g) => {
                let now = ctx.now();
                let out = self.agent.on_message(now, from.0, g, ctx.rng());
                self.flush_gossip(ctx, out);
            }
            McastMsg::Publish { data, scope } => {
                // The origin always processes its duty, fresh or not.
                self.coverage.admit(data.id, scope.depth());
                self.process_duty(ctx, data, scope);
            }
            McastMsg::Forward { data, zone } => {
                if self.coverage.admit(data.id, zone.depth()) {
                    self.process_duty(ctx, data, zone);
                } else {
                    obs::metric_add!(self.agent.id(), ctr::MCAST_DUPES_DROPPED, 1);
                }
            }
            McastMsg::Deliver { data } => {
                let now = ctx.now();
                self.deliver_local(now, &data);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, McastMsg>, _timer: TimerId, tag: u64) {
        match tag {
            GOSSIP_TIMER => {
                let now = ctx.now();
                let out = self.agent.on_tick(now, ctx.rng());
                self.flush_gossip(ctx, out);
                let interval = self.agent.config().gossip_interval;
                ctx.set_timer(interval, GOSSIP_TIMER);
            }
            DRAIN_TIMER => {
                if let Some(q) = self.queues.pop() {
                    let (dst, msg) = q.item;
                    ctx.send(dst, msg);
                    obs::metric_add!(self.agent.id(), ctr::MCAST_FORWARDS, 1);
                }
                if self.queues.is_empty() {
                    self.draining = false;
                } else {
                    ctx.set_timer(SERVICE_INTERVAL, DRAIN_TIMER);
                }
            }
            _ => {}
        }
    }

    fn on_recover(&mut self, ctx: &mut Context<'_, McastMsg>) {
        self.agent.reset();
        self.draining = false;
        ctx.set_timer(self.agent.config().gossip_interval, GOSSIP_TIMER);
    }
}
