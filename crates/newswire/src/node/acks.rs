//! The acknowledgement table (DESIGN §6, §7) and every timing decision
//! about a copy on the wire: its deadline, the sweeps, round-trip bounds,
//! the per-peer back-off and suspicion, and the clean runs of the final hop
//! and of the hand-offs.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::mem::size_of;
use std::sync::Arc;

use astrolabe::{ZoneId, ZoneLayout};
use newsml::ItemId;
use simnet::heap::btree_map_bytes;
use simnet::{SimDuration, SimTime};

use super::{Hop, BACKOFF};
use crate::wire::{Cover, Envelope, NewsWireMsg};

/// Base timeout of an acknowledged tree hand-off, and the ceiling of every
/// measured round-trip bound — also the answer before a peer's first round
/// trip has been timed.
pub(super) const ACK_TIMEOUT: SimDuration = SimDuration::from_secs(2);

/// Hand-offs to one peer timed out in a row, no round trip to it timed
/// between, after which it is suspect: passed over as a candidate while
/// another is left, and failed over from at once. One timeout is a lost
/// message; two in a row, the second backed off, a peer that stopped.
pub(super) const SUSPECT_TIMEOUTS: u8 = 2;

/// Most `Deliver`s a node awaits acks for at once; one sent beyond that is
/// not re-sent, and reconcile owns its loss.
pub(super) const MAX_PENDING_DELIVERS: usize = 256;

/// First-transmission payloads acknowledged in a row, with no `Deliver` or
/// announce re-sent, before a node announces in place of a second payload
/// (DESIGN §6). A 1 %-loss hop's round trips all answer 256 times in a row
/// with odds of 0.98^256 ≈ 0.6 %.
pub(super) const SPLIT_STREAK: u32 = 256;

/// First-transmission hand-offs acknowledged in a row, with none retried,
/// failed over or announced in vain, before a node hands a leaf zone one
/// payload (DESIGN §6). Counted apart from the final hop's run: a hand-off
/// crosses more links, and its acks would turn the final-hop split on
/// sooner than [`SPLIT_STREAK`]'s odds allow.
pub(super) const HANDOFF_STREAK: u32 = 256;

/// Most representatives a node remembers it still awaits the ack of, whose
/// hand-off another representative's ack settled: each one that answers
/// extends the hand-off record.
pub(super) const MAX_AWAITED: usize = 16;

/// Most announces a member remembers while it waits for their article; past
/// that, the oldest is forgotten and its announcer sends the payload.
pub(super) const MAX_HELD_ANNOUNCES: usize = 256;

/// Samples after which a zone's bound drops to 1.25 times the slowest round
/// trip timed. Over fewer, the peak likely sits well under the path's
/// slowest, and a quarter on top would make live hand-offs look lost.
const SETTLED_SAMPLES: u16 = 40;

/// One copy of an article on the wire awaiting its `ForwardAck`: a tree
/// hand-off to a representative of `zone`, or — with no zone — a final-hop
/// `Deliver` to a member of this node's leaf zone.
#[derive(Debug)]
pub(super) struct Ack {
    pub(super) env: Arc<Envelope>,
    /// The representative or member the copy went to.
    pub(super) peer: u32,
    /// The zone a hand-off covers. `None` for a `Deliver`.
    pub(super) zone: Option<ZoneId>,
    /// How a hand-off asks its peer to cover the zone; `Shared` for a
    /// `Deliver`.
    pub(super) cover: Cover,
    /// Re-sends to `peer` so far.
    pub(super) attempt: u32,
    /// Representatives a hand-off failed over from.
    pub(super) tried: Vec<u32>,
    /// When the first transmission hit the wire.
    armed_at: SimTime,
    /// For a `Deliver` announce, the node that handed this one the duty:
    /// the wait covers its hand-off to the co-representative sending the
    /// payload.
    pub(super) announce: Option<u32>,
}

impl Ack {
    /// The first transmission of `hop` to `peer`, at `now`; a hand-off
    /// covering its zone as `cover` says.
    pub(super) fn new(hop: Hop, cover: Cover, peer: u32, now: SimTime) -> Self {
        let (env, zone, cover, announce) = match hop {
            Hop::Forward { env, zone } => (env, Some(zone), cover, None),
            Hop::Deliver { env, announce } => (env, None, Cover::Shared, announce),
        };
        Ack { env, peer, zone, cover, attempt: 0, tried: Vec::new(), armed_at: now, announce }
    }

    /// True for an id-only copy, a `Deliver` or a hand-off announce.
    pub(super) fn announces(&self) -> bool {
        self.announce.is_some() || self.cover == Cover::Announce
    }

    /// Karn's rule: only the ack of a copy sent once, to the peer now
    /// answering, times a round trip — after a retry or a failover the ack
    /// could belong to either transmission. An announce's ack times
    /// nothing: it waits on the other representative's copy.
    fn times_round_trip(&self, acked_by: u32) -> bool {
        self.peer == acked_by && self.attempt == 0 && self.tried.is_empty() && !self.announces()
    }

    /// The copy, to send again.
    pub(super) fn message(&self) -> NewsWireMsg {
        let env = Arc::clone(&self.env);
        match &self.zone {
            Some(zone) => NewsWireMsg::Forward { env, zone: zone.clone(), cover: self.cover },
            None => NewsWireMsg::Deliver { env, announce: self.announce.is_some() },
        }
    }
}

/// The acknowledgement table: every copy on the wire awaiting its ack, the
/// round-trip evidence its deadline is drawn from, and the announces a
/// member holds. One sweep timer is set for the earliest deadline; none is
/// cancelled: a sweep that finds nothing due re-arms or goes idle.
#[derive(Debug)]
pub(super) struct Acks {
    /// By deadline, then in the order armed.
    entries: BTreeMap<(SimTime, u64), Ack>,
    /// Entries armed so far: the order among equal deadlines.
    armed: u64,
    /// When the sweep timers set and not yet fired go off.
    sweeps: BTreeSet<SimTime>,
    /// This node and its layout, which [`Acks::zone_key`] places peers by.
    me: u32,
    layout: ZoneLayout,
    /// Round-trip evidence per sibling zone, indexed by [`Acks::zone_key`].
    rtt: Vec<RttPeak>,
    /// Hand-offs timed out per peer since a round trip to it was last
    /// timed, sorted by peer; a peer with none has no entry.
    timeouts: Vec<(u32, u8)>,
    /// Final-hop entries held: `Deliver`s and announces.
    delivers: usize,
    /// First-transmission payload `Deliver`s acknowledged since this node
    /// last re-sent a `Deliver` or an announce.
    streak: u32,
    /// The hand-off record: first-transmission hand-offs acknowledged since
    /// this node last retried, failed over or abandoned one, or a hand-off
    /// announce ran out.
    handoff_run: u32,
    /// First-transmission hand-offs settled by another representative's
    /// ack, `(msg_id, peer)`, oldest first: the peer's own ack, when it
    /// comes, extends the record too. At most [`MAX_AWAITED`].
    awaited: VecDeque<(u64, u32)>,
    /// Announces of articles this node does not hold yet, `(msg_id,
    /// announcer)`, oldest first: each is acknowledged once a tree copy of
    /// its article is admitted. At most [`MAX_HELD_ANNOUNCES`].
    held_announces: VecDeque<(u64, u32)>,
}

impl Acks {
    /// An empty table for node `me`, with one round-trip estimate per key
    /// [`Acks::zone_key`] can return: `(levels + 1) × branching`.
    pub(super) fn new(me: u32, layout: &ZoneLayout) -> Self {
        let keys = (layout.levels() + 1) * usize::from(layout.branching());
        Acks {
            entries: BTreeMap::new(),
            armed: 0,
            sweeps: BTreeSet::new(),
            me,
            layout: layout.clone(),
            rtt: vec![RttPeak::default(); keys],
            timeouts: Vec::new(),
            delivers: 0,
            streak: 0,
            handoff_run: 0,
            awaited: VecDeque::new(),
            held_announces: VecDeque::new(),
        }
    }

    /// Which estimate a round trip to `peer` feeds and is bounded by: its
    /// zone that is a sibling of one of this node's own — key
    /// `level × branching + label` where the leaf-zone paths first differ,
    /// its members behind one path — or a leaf mate's own, by member slot.
    /// `None` for an id outside the layout: it gets the ceiling.
    pub(super) fn zone_key(&self, peer: u32) -> Option<usize> {
        if peer >= self.layout.agents() {
            return None;
        }
        let b = usize::from(self.layout.branching());
        let levels = self.layout.levels();
        // Leaf-zone indices, whose base-b digits are the paths: walking up
        // from the leaf level, the last level where the prefixes still
        // differ is the first where the paths do.
        let (mut mine, mut theirs) = (self.me as usize / b, peer as usize / b);
        let mut key = levels * b + peer as usize % b;
        for level in (0..levels).rev() {
            if mine != theirs {
                key = level * b + theirs % b;
            }
            mine /= b;
            theirs /= b;
        }
        Some(key)
    }

    /// Enters `ack`, sent or re-sent at `now`, due one round-trip bound to
    /// its peer later. A hand-off's timeouts back that bound off, once each
    /// (RFC 6298 §5.5); a `Deliver` feeds no per-peer count, so its re-send
    /// waits [`BACKOFF`] bounds. A `Deliver` announce waits a bound to the
    /// node that handed the duty in on top, as the co-representative's copy
    /// came by way of it; a hand-off announce a second bound into the
    /// zone, which the holder's payload crossed before its copy left. A
    /// `Deliver` past [`MAX_PENDING_DELIVERS`] is not entered.
    pub(super) fn arm(&mut self, now: SimTime, ack: Ack) -> bool {
        if ack.zone.is_none() && self.delivers >= MAX_PENDING_DELIVERS {
            return false;
        }
        let lag = match (ack.announce, ack.cover) {
            (Some(up), _) => self.round_trip_bound(up),
            (None, Cover::Announce) => self.round_trip_bound(ack.peer),
            (None, Cover::Shared | Cover::Alone { .. }) => SimDuration::ZERO,
        };
        let backoff = if ack.zone.is_some() { 1 } else { BACKOFF.pow(ack.attempt) };
        let due = now + self.round_trip_bound(ack.peer) * backoff + lag;
        self.insert(due, ack);
        true
    }

    fn insert(&mut self, due: SimTime, ack: Ack) {
        self.armed += 1;
        self.delivers += usize::from(ack.zone.is_none());
        self.entries.insert((due, self.armed), ack);
    }

    /// Copies on the wire still awaiting their ack.
    pub(super) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Final-hop entries held.
    #[cfg(test)]
    pub(super) fn delivers(&self) -> usize {
        self.delivers
    }

    /// True while the final hop is measured clean: [`SPLIT_STREAK`]
    /// first-transmission payloads acknowledged in a row.
    pub(super) fn split_on(&self) -> bool {
        self.streak >= SPLIT_STREAK
    }

    /// A `Deliver` or an announce went unacknowledged and is sent again:
    /// the final hop is no longer measured clean.
    pub(super) fn note_resend(&mut self) {
        self.streak = 0;
    }

    /// True while the hand-offs are measured clean: [`HANDOFF_STREAK`]
    /// first-transmission hand-offs acknowledged in a row.
    pub(super) fn handoff_clean(&self) -> bool {
        self.handoff_run >= HANDOFF_STREAK
    }

    /// A hand-off or a hand-off announce went unacknowledged: whatever
    /// follows — a retry, a failover, the payload, or nothing — the
    /// hand-offs are no longer measured clean.
    pub(super) fn note_handoff_timeout(&mut self) {
        self.handoff_run = 0;
    }

    /// The earliest deadline, when no sweep is set to go off by then: the
    /// caller sets a sweep timer for it, and the table counts it as set.
    pub(super) fn schedule_sweep(&mut self) -> Option<SimTime> {
        let &(due, _) = self.entries.keys().next()?;
        let needed = self.sweeps.first().is_none_or(|&at| at > due);
        (needed && self.sweeps.insert(due)).then_some(due)
    }

    /// True while a sweep timer is set and has not gone off.
    pub(super) fn sweep_armed(&self) -> bool {
        !self.sweeps.is_empty()
    }

    /// A sweep went off at `now`: takes out the first entry, when it is due
    /// by then. Sweeps set for `now` or earlier have gone off.
    pub(super) fn pop_due(&mut self, now: SimTime) -> Option<Ack> {
        while self.sweeps.first().is_some_and(|&at| at <= now) {
            self.sweeps.pop_first();
        }
        let ack = self.entries.first_entry().filter(|entry| entry.key().0 <= now)?.remove();
        self.delivers -= usize::from(ack.zone.is_none());
        Some(ack)
    }

    /// Removes what the ack `from` sent for article `id`, naming `zone`,
    /// settles at `t`: the article of the hand-offs it settled, if any, and
    /// whether it settled a `Deliver` or an announce. A member's ack settles its own `Deliver` (the one sent
    /// first) and nothing else — a hand-off of the leaf zone to the same
    /// member awaits its own. Otherwise any ack naming a hand-off's zone
    /// settles it: to both representatives at once, and one that failed
    /// over by a late ack from the one it left — but a hand-off announce
    /// only by its own peer's, which holding the article is what it says.
    /// Either kind times the round trip where Karn's rule allows; a copy
    /// that does extends its hop's clean run.
    pub(super) fn settle(
        &mut self,
        id: u64,
        zone: &ZoneId,
        from: u32,
        t: SimTime,
    ) -> (Option<ItemId>, bool) {
        let deliver = self
            .entries
            .iter()
            .filter(|(_, ack)| ack.zone.is_none() && ack.env.msg_id == id && ack.peer == from)
            .min_by_key(|(_, ack)| ack.armed_at);
        if let Some(&key) = deliver.map(|(key, _)| key) {
            let ack = self.entries.remove(&key).expect("the entry just found");
            self.delivers -= 1;
            if ack.times_round_trip(from) {
                self.streak = self.streak.saturating_add(1);
                self.note_rtt(from, t.saturating_since(ack.armed_at));
            }
            return (None, true);
        }
        let mut settled = None;
        let mut timed = None;
        let awaited = &mut self.awaited;
        self.entries.retain(|_, ack| {
            if ack.env.msg_id != id || ack.zone.as_ref() != Some(zone) {
                return true;
            }
            if ack.cover == Cover::Announce && ack.peer != from {
                return true;
            }
            settled = Some(ack.env.item.id);
            if ack.times_round_trip(from) {
                timed = Some(t.saturating_since(ack.armed_at));
            } else if ack.times_round_trip(ack.peer) {
                if awaited.len() >= MAX_AWAITED {
                    awaited.pop_front();
                }
                awaited.push_back((id, ack.peer));
            }
            false
        });
        if let Some(rtt) = timed {
            self.handoff_run = self.handoff_run.saturating_add(1);
            self.note_rtt(from, rtt);
        }
        if settled.is_none() {
            if let Some(at) = self.awaited.iter().position(|&w| w == (id, from)) {
                self.awaited.remove(at);
                self.handoff_run = self.handoff_run.saturating_add(1);
            }
        }
        (settled, false)
    }

    /// `peer` answered in `rtt`: its back-off is over, and the round trip
    /// feeds its zone's estimate unless it passed the ceiling — that is one
    /// gray member's, not the path's, and would stretch its mates' for good.
    pub(super) fn note_rtt(&mut self, peer: u32, rtt: SimDuration) {
        self.forget_timeouts(peer);
        if let Some(key) = self.zone_key(peer).filter(|_| rtt <= ACK_TIMEOUT) {
            self.rtt[key].note(rtt);
        }
    }

    /// A hand-off to `peer` went unacknowledged: its bound stays backed off
    /// until a round trip to it is timed again (Karn's algorithm), so a
    /// peer that stopped answering is not hammered at its zone's pace, and
    /// its live zone-mates are not slowed by it.
    pub(super) fn note_timeout(&mut self, peer: u32) {
        match self.timeouts.binary_search_by_key(&peer, |&(p, _)| p) {
            Ok(at) => self.timeouts[at].1 = self.timeouts[at].1.saturating_add(1),
            Err(at) => self.timeouts.insert(at, (peer, 1)),
        }
    }

    /// What a round trip to `peer` is bounded by: measured over its zone
    /// ([`RttPeak::bound`]; [`ACK_TIMEOUT`] before any), doubled per
    /// hand-off to `peer` timed out since it last answered, capped once.
    pub(super) fn round_trip_bound(&self, peer: u32) -> SimDuration {
        let Some(bound) = self.zone_key(peer).and_then(|key| self.rtt[key].bound()) else {
            return ACK_TIMEOUT;
        };
        let backed_off = 1u64.checked_shl(u32::from(self.timeouts(peer))).unwrap_or(u64::MAX);
        SimDuration::from_micros(bound.as_micros().saturating_mul(backed_off)).min(ACK_TIMEOUT)
    }

    /// Hand-offs to `peer` timed out since it last answered.
    fn timeouts(&self, peer: u32) -> u8 {
        self.timeouts.binary_search_by_key(&peer, |&(p, _)| p).map_or(0, |at| self.timeouts[at].1)
    }

    /// True when [`SUSPECT_TIMEOUTS`] hand-offs to `peer` in a row went
    /// unacknowledged, with no round trip timed since nor new incarnation.
    pub(super) fn suspect(&self, peer: u32) -> bool {
        self.timeouts(peer) >= SUSPECT_TIMEOUTS
    }

    /// A new incarnation of `peer` starts without a back-off; what round
    /// trips into its zone measured stays, being the path's.
    pub(super) fn forget_timeouts(&mut self, peer: u32) {
        if let Ok(at) = self.timeouts.binary_search_by_key(&peer, |&(p, _)| p) {
            self.timeouts.remove(at);
        }
    }

    /// Holds `announcer`'s announce of `msg_id` until a tree copy of its
    /// article is admitted, forgetting the oldest past the cap.
    pub(super) fn hold_announce(&mut self, msg_id: u64, announcer: u32) {
        if self.held_announces.len() >= MAX_HELD_ANNOUNCES {
            self.held_announces.pop_front();
        }
        self.held_announces.push_back((msg_id, announcer));
    }

    /// A tree copy of `msg_id` was admitted: `ack` each announcer of it.
    pub(super) fn release_announces(&mut self, msg_id: u64, mut ack: impl FnMut(u32)) {
        self.held_announces.retain(|&(held, announcer)| {
            if held == msg_id {
                ack(announcer);
            }
            held != msg_id
        });
    }

    /// Announces held until their article arrives.
    pub(super) fn held_announces(&self) -> usize {
        self.held_announces.len()
    }

    pub(super) fn clear(&mut self) {
        self.entries.clear();
        self.armed = 0;
        self.sweeps.clear();
        self.rtt.fill(RttPeak::default());
        self.timeouts.clear();
        self.delivers = 0;
        self.streak = 0;
        self.handoff_run = 0;
        self.awaited.clear();
        self.held_announces.clear();
    }

    /// Heap bytes, from lengths and capacities (see `node::footprint`).
    pub(super) fn heap_bytes(&self) -> usize {
        // An emptied map keeps its root: one armed into since the last clear.
        let rooted = self.armed > 0;
        btree_map_bytes::<(SimTime, u64), Ack>(self.entries.len(), rooted)
            + self.entries.values().map(|a| a.tried.capacity() * size_of::<u32>()).sum::<usize>()
            + btree_map_bytes::<SimTime, ()>(self.sweeps.len(), rooted)
            + self.rtt.capacity() * size_of::<RttPeak>()
            + self.timeouts.capacity() * size_of::<(u32, u8)>()
            + self.awaited.capacity() * size_of::<(u64, u32)>()
            + self.held_announces.capacity() * size_of::<(u64, u32)>()
    }
}

/// Round-trip evidence about one zone: the slowest exchange timed, and how
/// many were.
#[derive(Debug, Clone, Copy, Default)]
struct RttPeak {
    peak_us: u32,
    samples: u16,
}

impl RttPeak {
    fn note(&mut self, rtt: SimDuration) {
        let us = u32::try_from(rtt.as_micros()).unwrap_or(u32::MAX);
        self.peak_us = self.peak_us.max(us);
        self.samples = self.samples.saturating_add(1);
    }

    /// A bound the next round trip should not exceed: the peak (which never
    /// decays) times a factor that starts at 5 — a lone sample may be the
    /// path's fastest — tightens by one per four samples to 2, and drops to
    /// 1.25 at [`SETTLED_SAMPLES`]. `None` before any sample.
    fn bound(self) -> Option<SimDuration> {
        if self.samples == 0 {
            return None;
        }
        let quarters = if self.samples >= SETTLED_SAMPLES {
            5
        } else {
            4 * 5u64.saturating_sub(u64::from(self.samples / 4)).max(2)
        };
        Some(SimDuration::from_micros(u64::from(self.peak_us) * quarters / 4))
    }
}

#[cfg(test)]
impl Acks {
    /// Round trips timed into `peer`'s zone.
    pub(super) fn samples(&self, peer: u32) -> u16 {
        self.zone_key(peer).map_or(0, |key| self.rtt[key].samples)
    }

    /// What round trips into `peer`'s zone measured, without the back-off.
    pub(super) fn measured(&self, peer: u32) -> Option<SimDuration> {
        self.rtt[self.zone_key(peer)?].bound()
    }

    /// Forgets what round trips into `peer`'s zone measured.
    pub(super) fn forget_rtt(&mut self, peer: u32) {
        if let Some(key) = self.zone_key(peer) {
            self.rtt[key] = RttPeak::default();
        }
    }

    /// Takes the final hop as measured clean.
    pub(super) fn force_split(&mut self) {
        self.streak = SPLIT_STREAK;
    }

    /// Takes the hand-offs as measured clean.
    pub(super) fn force_handoff_clean(&mut self) {
        self.handoff_run = HANDOFF_STREAK;
    }

    /// The hand-offs awaiting their ack: zone, peer and cover, in deadline
    /// order.
    pub(super) fn handoffs(&self) -> Vec<(ZoneId, u32, Cover)> {
        let entries = self.entries.values();
        entries.filter_map(|a| Some((a.zone.clone()?, a.peer, a.cover))).collect()
    }

    /// The peers backed off, with their timeout counts, by peer.
    pub(super) fn backed_off(&self) -> &[(u32, u8)] {
        &self.timeouts
    }

    /// The oldest announce held, by message id.
    pub(super) fn oldest_held(&self) -> Option<u64> {
        self.held_announces.front().map(|&(msg_id, _)| msg_id)
    }
}

#[cfg(test)]
mod tests {
    use amcast::FilterSpec;
    use astrolabe::TrustRegistry;
    use newsml::PublisherId;
    use simnet::NodeId;

    use super::super::tests::tech_item;
    use super::super::SYBIL_ID_BASE;
    use super::*;
    use crate::wire::msg_id_of;

    fn ms(at: u64) -> SimTime {
        SimTime::from_micros(at * 1_000)
    }

    /// An envelope of `tech_item(seq)` under a throwaway credential: what the
    /// acknowledgement table holds, with nobody verifying it.
    fn envelope(seq: u64) -> Arc<Envelope> {
        let mut registry = TrustRegistry::new(1);
        let cred =
            crate::auth::issue_publisher(&mut registry, PublisherId(0), "p", &ZoneId::root(), 60);
        let item = tech_item(seq);
        Arc::new(Envelope {
            msg_id: msg_id_of(item.id),
            filter: FilterSpec::All,
            scope: ZoneId::root(),
            certificate: cred.certificate.clone(),
            key: cred.key_id(),
            signature: cred.sign(&item),
            attest: cred.attest_epoch(0),
            basis: None,
            item: item.into(),
        })
    }

    /// An announce's ack waits on the other representative's copy: it times
    /// no round trip and does not extend the final hop's clean run. A
    /// first-transmission payload's ack does both, [`SPLIT_STREAK`] of them in a
    /// row turn the split on, and any re-send turns it off again.
    #[test]
    fn an_announce_ack_times_nothing_and_a_resend_ends_the_clean_run() {
        let env = envelope(5);
        let leaf = ZoneId::root().child(0);
        let armed_at = SimTime::from_secs(1);
        let now = armed_at + SimDuration::from_millis(20);
        let entry = |announce| Ack {
            env: Arc::clone(&env),
            peer: 1,
            zone: None,
            cover: Cover::Shared,
            attempt: 0,
            tried: Vec::new(),
            armed_at,
            announce,
        };
        let mut acks = table();
        let samples = |acks: &Acks| acks.rtt[acks.zone_key(1).expect("a leaf mate")].samples;
        acks.insert(now + ACK_TIMEOUT, entry(Some(4)));
        assert_eq!(acks.settle(env.msg_id, &leaf, 1, now), (None, true), "the announce settles");
        assert_eq!((samples(&acks), acks.streak), (0, 0), "and times nothing");
        for n in 1..=SPLIT_STREAK {
            assert!(!acks.split_on(), "{n}");
            acks.insert(now + ACK_TIMEOUT, entry(None));
            acks.settle(env.msg_id, &leaf, 1, now);
        }
        assert!(acks.split_on(), "{SPLIT_STREAK} clean first transmissions");
        assert_eq!(u32::from(samples(&acks)), SPLIT_STREAK, "each one timed");
        acks.insert(now + ACK_TIMEOUT, entry(Some(4)));
        acks.settle(env.msg_id, &leaf, 1, now);
        assert_eq!(acks.streak, SPLIT_STREAK, "an announce's ack leaves the run as it was");
        acks.note_resend();
        assert!(!acks.split_on(), "a re-send ends the run");
    }

    /// The hand-off record counts first-transmission hand-off acks — a
    /// twin's too, whose hand-off the other representative's ack settled —
    /// turns on at [`HANDOFF_STREAK`], ignores a hand-off announce's ack and
    /// a retried copy's, and any hand-off timeout ends it. It is apart from
    /// the final hop's run.
    #[test]
    fn the_hand_off_record_counts_first_transmission_acks_and_a_timeout_ends_it() {
        let env = envelope(6);
        let zone = ZoneId::root().child(1);
        let now = SimTime::from_secs(1);
        let hand_off = |peer, cover, attempt| Ack {
            env: Arc::clone(&env),
            peer,
            zone: Some(zone.clone()),
            cover,
            attempt,
            tried: Vec::new(),
            armed_at: now,
            announce: None,
        };
        let mut acks = table();
        // Both representatives handed the payload; 4's ack settles both, and
        // 5's, when it comes, counts too.
        acks.insert(now + ACK_TIMEOUT, hand_off(4, Cover::Shared, 0));
        acks.insert(now + ACK_TIMEOUT, hand_off(5, Cover::Shared, 0));
        assert_eq!(acks.settle(env.msg_id, &zone, 4, now).0, Some(env.item.id));
        assert_eq!((acks.handoff_run, acks.len()), (1, 0));
        assert_eq!(acks.settle(env.msg_id, &zone, 5, now), (None, false));
        assert_eq!(acks.handoff_run, 2, "the twin's ack");
        assert_eq!(acks.settle(env.msg_id, &zone, 5, now).0, None);
        assert_eq!(acks.handoff_run, 2, "once");
        // The holder's ack leaves the announce to its co-representative
        // waiting; the co-representative's settles it and counts nothing.
        acks.insert(now + ACK_TIMEOUT, hand_off(4, Cover::Alone { co_rep: 5 }, 0));
        acks.insert(now + ACK_TIMEOUT, hand_off(5, Cover::Announce, 0));
        acks.settle(env.msg_id, &zone, 4, now);
        assert_eq!((acks.handoff_run, acks.len()), (3, 1), "the announce waits for 5");
        acks.settle(env.msg_id, &zone, 5, now);
        assert_eq!((acks.handoff_run, acks.len()), (3, 0));
        acks.insert(now + ACK_TIMEOUT, hand_off(4, Cover::Shared, 1));
        acks.settle(env.msg_id, &zone, 4, now);
        assert_eq!(acks.handoff_run, 3, "a retried copy's ack times nothing");
        for n in 3..HANDOFF_STREAK {
            assert!(!acks.handoff_clean(), "{n}");
            acks.insert(now + ACK_TIMEOUT, hand_off(4, Cover::Shared, 0));
            acks.settle(env.msg_id, &zone, 4, now);
        }
        assert!(acks.handoff_clean());
        assert!(!acks.split_on(), "the final hop's run is its own");
        acks.note_handoff_timeout();
        assert!(!acks.handoff_clean(), "a timeout ends the record");
    }

    /// An acknowledgement table of node 0 in four leaf zones of four: leaf
    /// mates 1–3 in /0, then /1 (4–7), /2 (8–11) and /3 (12–15).
    fn table() -> Acks {
        Acks::new(0, &astrolabe::ZoneLayout::new(16, 4))
    }

    /// Evidence is pooled per sibling zone: one representative's round trip
    /// bounds a hand-off to its zone-mate, and no other zone's.
    #[test]
    fn a_sample_from_one_representative_tightens_its_zone_mates_bound() {
        let mut acks = table();
        acks.note_rtt(4, SimDuration::from_millis(100));
        assert!(acks.round_trip_bound(5) < ACK_TIMEOUT, "5 shares /1 with 4");
        assert_eq!(acks.round_trip_bound(5), acks.round_trip_bound(4));
        assert_eq!(acks.round_trip_bound(8), ACK_TIMEOUT, "/2 was never timed");
        assert_eq!(acks.round_trip_bound(1), ACK_TIMEOUT, "nor was a leaf mate");

        // Three levels of zones of two: node 0's path is /0/0; 2 and 3 share
        // /0/1, 4–7 share /1, and every key is in range.
        let deep = Acks::new(0, &astrolabe::ZoneLayout::new(8, 2));
        assert_eq!(deep.zone_key(2), deep.zone_key(3));
        assert_eq!(deep.zone_key(4), deep.zone_key(7));
        assert_ne!(deep.zone_key(2), deep.zone_key(4));
        assert!((1..8).all(|peer| deep.zone_key(peer).is_some_and(|key| key < deep.rtt.len())));
    }

    /// One gray member of a zone — 2 s more each way than its mates — neither
    /// stretches nor backs off its mates' bound: a round trip past the ceiling
    /// stays out of the zone's estimate, and a hand-off timed out on it backs
    /// off that member alone.
    #[test]
    fn a_gray_zone_mate_leaves_its_mates_bound_measured() {
        let mut acks = table();
        for rtt in [100, 140, 120, 160, 110] {
            acks.note_rtt(4, SimDuration::from_millis(rtt));
        }
        let measured = acks.round_trip_bound(5);
        assert!(measured < SimDuration::from_millis(800), "{measured:?}");
        acks.note_rtt(6, SimDuration::from_millis(4_130));
        assert_eq!(acks.round_trip_bound(5), measured, "the gray round trip is not the path's");
        assert_eq!(acks.round_trip_bound(6), measured, "nor its own leash");
        acks.note_timeout(6);
        assert_eq!(acks.round_trip_bound(6), measured * 2);
        assert_eq!(acks.round_trip_bound(5), measured, "the back-off is the peer's");
        acks.note_rtt(6, SimDuration::from_millis(4_090));
        assert_eq!(acks.round_trip_bound(6), measured, "it answered, late: the back-off is over");
    }

    /// Leaf mates are one hop apart each, not one path: each keeps its own
    /// estimate, by member slot.
    #[test]
    fn leaf_mates_stay_apart() {
        let mut acks = table();
        acks.note_rtt(1, SimDuration::from_millis(20));
        assert!(acks.round_trip_bound(1) < ACK_TIMEOUT);
        assert_eq!(acks.round_trip_bound(2), ACK_TIMEOUT, "2's round trip was never timed");
        assert_ne!(acks.zone_key(1), acks.zone_key(2));
        assert_ne!(acks.zone_key(1), acks.zone_key(4), "and no leaf mate shares a sibling's entry");
    }

    /// Karn's rule on the final hop: the ack of a `Deliver` sent once times a
    /// round trip to its member; the ack of a re-sent one times nothing.
    #[test]
    fn a_first_transmission_deliver_ack_adds_a_sample_and_a_resent_ones_none() {
        let env = envelope(3);
        let leaf = ZoneId::root().child(0);
        let armed_at = SimTime::from_secs(1);
        let now = armed_at + SimDuration::from_millis(20);
        let deliver = |attempt| Ack {
            env: Arc::clone(&env),
            peer: 1,
            zone: None,
            cover: Cover::Shared,
            attempt,
            tried: Vec::new(),
            armed_at,
            announce: None,
        };
        let mut acks = table();
        let samples = |acks: &Acks| acks.rtt[acks.zone_key(1).expect("a leaf mate")].samples;
        acks.insert(now + ACK_TIMEOUT, deliver(0));
        assert_eq!(acks.settle(env.msg_id, &leaf, 1, now), (None, true));
        assert_eq!(samples(&acks), 1, "the first transmission's ack is timed");
        acks.insert(now + ACK_TIMEOUT, deliver(1));
        assert_eq!(acks.settle(env.msg_id, &leaf, 1, now), (None, true));
        assert_eq!(samples(&acks), 1, "a re-send's ack could be either copy's");
    }

    /// On a link whose delay never varies, a settled bound keeps a quarter of
    /// the round trip as its margin: a live ack is never outrun by its own
    /// bound.
    #[test]
    fn a_constant_links_bound_stays_above_its_round_trip() {
        let mut acks = table();
        let rtt = SimDuration::from_millis(20);
        for _ in 0..100 {
            acks.note_rtt(1, rtt);
        }
        let bound = acks.round_trip_bound(1);
        assert_eq!(bound, rtt + rtt / 4, "1.25 × the round trip, once settled");
        assert!(bound > rtt);
    }

    /// The zone key is total: an id outside the layout — an external client, a
    /// fabricated Sybil identity — has no entry, gets the ceiling, and its acks
    /// and replies settle what they settle without panicking or timing a round
    /// trip.
    #[test]
    fn an_id_outside_the_layout_has_no_entry_and_gets_the_ceiling() {
        let env = envelope(4);
        let zone = ZoneId::root().child(1);
        let now = SimTime::from_secs(2);
        let mut acks = table();
        for stranger in [SYBIL_ID_BASE + 1, NodeId::EXTERNAL.0] {
            assert_eq!(acks.zone_key(stranger), None);
            acks.note_rtt(stranger, SimDuration::from_millis(50));
            acks.note_timeout(stranger);
            assert_eq!(acks.round_trip_bound(stranger), ACK_TIMEOUT);
            for hop in [Some(zone.clone()), None] {
                let ack = Ack {
                    env: Arc::clone(&env),
                    peer: stranger,
                    zone: hop.clone(),
                    cover: Cover::Shared,
                    attempt: 0,
                    tried: Vec::new(),
                    armed_at: now,
                    announce: None,
                };
                acks.insert(now + ACK_TIMEOUT, ack);
                let settled = acks.settle(env.msg_id, &zone, stranger, now + ACK_TIMEOUT);
                assert_eq!(settled, (hop.is_some().then_some(env.item.id), hop.is_none()));
            }
        }
        assert!(acks.entries.is_empty());
        assert!(acks.rtt.iter().all(|rtt| rtt.samples == 0), "nothing was timed");
    }

    /// After one timeout, a hand-off's retry is due twice its zone's
    /// settled bound after the re-send: the timeout backed the bound off,
    /// and nothing backs it off again.
    #[test]
    fn a_retried_hand_off_waits_twice_its_zones_bound() {
        let mut acks = table();
        for _ in 0..SETTLED_SAMPLES {
            acks.note_rtt(4, SimDuration::from_millis(120));
        }
        let bound = acks.round_trip_bound(5);
        assert_eq!(bound, SimDuration::from_millis(150), "settled: 1.25 × the peak");
        let hop = Hop::Forward { env: envelope(1), zone: ZoneId::root().child(1) };
        assert!(acks.arm(ms(1_000), Ack::new(hop, Cover::Shared, 5, ms(1_000))));
        let resent = ms(1_000) + bound;
        let mut ack = acks.pop_due(resent).expect("due one bound after it was sent");
        acks.note_timeout(5);
        ack.attempt += 1;
        assert!(acks.arm(resent, ack));
        let (&(due, _), _) = acks.entries.first_key_value().expect("re-entered");
        assert_eq!(due, resent + bound * 2, "twice the bound, not four times");
    }

    /// Once its peer has timed out three times or more, a hand-off — sent,
    /// retried, or failed over to that peer — is never due more than
    /// [`ACK_TIMEOUT`] after it went out, whatever the zone measured. (A
    /// `Deliver`'s one re-send keeps its [`BACKOFF`]: it feeds no per-peer
    /// count.)
    #[test]
    fn a_backed_off_hand_off_never_waits_past_the_ceiling() {
        for rtt_ms in [20, 120, 400, 1_900] {
            let mut acks = table();
            acks.note_rtt(5, SimDuration::from_millis(rtt_ms));
            for timeouts in 1..=8 {
                acks.note_timeout(5);
                for (attempt, tried) in [(0, vec![]), (1, vec![]), (0, vec![6]), (1, vec![6])] {
                    let now = ms(10_000);
                    let hop = Hop::Forward { env: envelope(1), zone: ZoneId::root().child(1) };
                    let mut ack = Ack::new(hop, Cover::Shared, 5, ms(9_000));
                    (ack.attempt, ack.tried) = (attempt, tried);
                    assert!(acks.arm(now, ack));
                    let ((due, _), _) = acks.entries.pop_first().expect("entered");
                    let wait = due.saturating_since(now);
                    assert!(
                        timeouts < 3 || wait <= ACK_TIMEOUT,
                        "{rtt_ms} ms zone, {timeouts} timeouts, attempt {attempt}: {wait:?}"
                    );
                }
            }
        }
    }

    /// One copy in the model table, flat: the article and zone by index.
    #[derive(Debug, Clone, PartialEq)]
    struct Entry {
        due: SimTime,
        seq: u64,
        msg: usize,
        peer: u32,
        zone: Option<usize>,
        cover: Cover,
        attempt: u32,
        tried: Vec<u32>,
        armed_at: SimTime,
        announce: Option<u32>,
    }

    impl Entry {
        fn times_round_trip(&self, from: u32) -> bool {
            self.peer == from
                && self.attempt == 0
                && self.tried.is_empty()
                && self.announce.is_none()
                && self.cover != Cover::Announce
        }
    }

    /// The acknowledgement table as plain vectors scanned linearly, from
    /// the rules DESIGN §6 and §7 state. `keys` is an empty table, asked
    /// only where a peer's zone estimate sits.
    struct Model {
        keys: Acks,
        entries: Vec<Entry>,
        armed: u64,
        sweeps: Vec<SimTime>,
        /// `(zone key, peak µs, samples)`.
        peaks: Vec<(usize, u32, u16)>,
        timeouts: Vec<(u32, u8)>,
        streak: u32,
        /// The hand-off record, and the twins' acks it still counts:
        /// `(article, peer)`.
        run: u32,
        awaited: Vec<(usize, u32)>,
        held: Vec<(u64, u32)>,
    }

    impl Model {
        fn new() -> Self {
            let (entries, sweeps, peaks, timeouts, held) = (vec![], vec![], vec![], vec![], vec![]);
            let (armed, streak, run, awaited) = (0, 0, 0, vec![]);
            let keys = table();
            Model { keys, entries, armed, sweeps, peaks, timeouts, streak, run, awaited, held }
        }

        fn timeouts(&self, peer: u32) -> u8 {
            self.timeouts.iter().find(|t| t.0 == peer).map_or(0, |t| t.1)
        }

        /// The zone's peak times 5, tightening by one per four samples to 2,
        /// then 1.25 from 40 samples; doubled per timeout; at most 2 s.
        fn bound(&self, peer: u32) -> SimDuration {
            let key = self.keys.zone_key(peer);
            let Some(&(_, peak, n)) = self.peaks.iter().find(|p| Some(p.0) == key) else {
                return ACK_TIMEOUT;
            };
            let quarters = if n >= 40 { 5 } else { 4 * (5 - u64::from(n / 4).min(3)) };
            let backed_off = 2u64.saturating_pow(u32::from(self.timeouts(peer)));
            let us = (u64::from(peak) * quarters / 4).saturating_mul(backed_off);
            SimDuration::from_micros(us).min(ACK_TIMEOUT)
        }

        fn delivers(&self) -> usize {
            self.entries.iter().filter(|e| e.zone.is_none()).count()
        }

        /// Indices of the entries by deadline, then arming order.
        fn order(&self) -> Vec<usize> {
            let mut order: Vec<usize> = (0..self.entries.len()).collect();
            order.sort_by_key(|&i| (self.entries[i].due, self.entries[i].seq));
            order
        }

        fn arm(&mut self, now: SimTime, mut e: Entry) -> bool {
            if e.zone.is_none() && self.delivers() >= MAX_PENDING_DELIVERS {
                return false;
            }
            let resends = if e.zone.is_some() { 1 } else { 2u64.pow(e.attempt) };
            // A `Deliver` announce waits a bound to its upstream more, a
            // hand-off announce a second bound into its zone.
            let lag = match (e.announce, e.cover) {
                (Some(up), _) => self.bound(up),
                (None, Cover::Announce) => self.bound(e.peer),
                _ => SimDuration::ZERO,
            };
            self.armed += 1;
            (e.due, e.seq) = (now + self.bound(e.peer) * resends + lag, self.armed);
            self.entries.push(e);
            true
        }

        fn schedule_sweep(&mut self) -> Option<SimTime> {
            let due = self.entries.iter().map(|e| e.due).min()?;
            let needed = self.sweeps.iter().all(|&at| at > due);
            needed.then(|| {
                self.sweeps.push(due);
                due
            })
        }

        fn pop_due(&mut self, now: SimTime) -> Option<Entry> {
            self.sweeps.retain(|&at| at > now);
            let first = *self.order().first()?;
            (self.entries[first].due <= now).then(|| self.entries.remove(first))
        }

        fn settle(&mut self, msg: usize, zone: usize, from: u32, now: SimTime) -> (bool, bool) {
            let order = self.order();
            let delivers = order.iter().map(|&i| (i, &self.entries[i]));
            let mine = delivers.filter(|(_, e)| e.zone.is_none() && e.msg == msg && e.peer == from);
            // The oldest; the first in deadline order among equals.
            let mut oldest: Option<(usize, SimTime)> = None;
            for (i, e) in mine {
                if oldest.is_none_or(|(_, at)| e.armed_at < at) {
                    oldest = Some((i, e.armed_at));
                }
            }
            if let Some((i, _)) = oldest {
                let e = self.entries.remove(i);
                if e.times_round_trip(from) {
                    self.streak = self.streak.saturating_add(1);
                    self.note_rtt(from, now.saturating_since(e.armed_at));
                }
                return (false, true);
            }
            // A hand-off announce is settled by its own peer's ack alone.
            let covered = |e: &Entry| {
                e.msg == msg
                    && e.zone == Some(zone)
                    && (e.cover != Cover::Announce || e.peer == from)
            };
            let timed = order
                .iter()
                .rev()
                .map(|&i| &self.entries[i])
                .find(|e| covered(e) && e.times_round_trip(from))
                .map(|e| now.saturating_since(e.armed_at));
            // The other first transmissions settled along: their own acks
            // are awaited, in table order.
            let twins: Vec<u32> = order
                .iter()
                .map(|&i| &self.entries[i])
                .filter(|e| covered(e) && !e.times_round_trip(from) && e.times_round_trip(e.peer))
                .map(|e| e.peer)
                .collect();
            let before = self.entries.len();
            self.entries.retain(|e| !covered(e));
            if let Some(rtt) = timed {
                self.run = self.run.saturating_add(1);
                self.note_rtt(from, rtt);
            }
            let settled = self.entries.len() < before;
            if !settled {
                if let Some(at) = self.awaited.iter().position(|&w| w == (msg, from)) {
                    self.awaited.remove(at);
                    self.run = self.run.saturating_add(1);
                }
            }
            for peer in twins {
                if self.awaited.len() >= MAX_AWAITED {
                    self.awaited.remove(0);
                }
                self.awaited.push((msg, peer));
            }
            (settled, false)
        }

        fn note_rtt(&mut self, peer: u32, rtt: SimDuration) {
            self.timeouts.retain(|t| t.0 != peer);
            let Some(key) = self.keys.zone_key(peer).filter(|_| rtt <= ACK_TIMEOUT) else {
                return;
            };
            if !self.peaks.iter().any(|p| p.0 == key) {
                self.peaks.push((key, 0, 0));
            }
            let p = self.peaks.iter_mut().find(|p| p.0 == key).expect("just pushed");
            p.1 = p.1.max(u32::try_from(rtt.as_micros()).unwrap_or(u32::MAX));
            p.2 = p.2.saturating_add(1);
        }

        fn note_timeout(&mut self, peer: u32) {
            match self.timeouts.iter_mut().find(|t| t.0 == peer) {
                Some(t) => t.1 = t.1.saturating_add(1),
                None => self.timeouts.push((peer, 1)),
            }
        }

        fn hold(&mut self, msg_id: u64, from: u32) {
            if self.held.len() >= MAX_HELD_ANNOUNCES {
                self.held.remove(0);
            }
            self.held.push((msg_id, from));
        }

        fn release(&mut self, msg_id: u64) -> Vec<u32> {
            let out = self.held.iter().filter(|h| h.0 == msg_id).map(|h| h.1).collect();
            self.held.retain(|h| h.0 != msg_id);
            out
        }

        fn clear(&mut self) {
            *self = Model::new();
        }
    }

    /// What the model's seeded runs must have done at least once, or the
    /// settle rules the model checks were never exercised.
    #[derive(Debug, Default)]
    struct Seen {
        failed_over_settled_by_the_peer_left: u32,
        both_representatives_settled_at_once: u32,
        deliver_settled_before_a_hand_off_to_the_same_member: u32,
        deliver_settled_with_a_second_copy_waiting: u32,
        sweep_took_two_due_at_one_instant: u32,
        deliver_cap_refused: u32,
        held_cap_dropped: u32,
        announce_left_for_its_own_peer: u32,
        twin_ack_extended_the_record: u32,
        announce_ran_out_into_the_payload: u32,
    }

    /// Node 0's peers in the 16-node layout: leaf mates, members of the
    /// three sibling zones, and an id outside the layout.
    const PEERS: [u32; 10] = [1, 2, 3, 4, 5, 6, 8, 9, 12, SYBIL_ID_BASE + 1];

    /// Drives the table and the model through `ops` in lockstep, a sweep
    /// retrying what it takes as `NewsWireNode::retry_ack` does (the next
    /// representative picked in `PEERS` order), and compares them after
    /// every step.
    fn lockstep(ops: &[(u8, u8, u8, u16)], seen: &mut Seen) {
        let envs: Vec<Arc<Envelope>> = (0..3).map(envelope).collect();
        let msg_ids = [envs[0].msg_id, envs[1].msg_id, envs[2].msg_id, u64::MAX];
        let zones = [ZoneId::root().child(0), ZoneId::root().child(1), ZoneId::root().child(2)];
        let ack_of = |e: &Entry| Ack {
            env: Arc::clone(&envs[e.msg]),
            peer: e.peer,
            zone: e.zone.map(|z| zones[z].clone()),
            cover: e.cover,
            attempt: e.attempt,
            tried: e.tried.clone(),
            armed_at: e.armed_at,
            announce: e.announce,
        };
        let (mut acks, mut model) = (table(), Model::new());
        let mut now = ms(1_000);
        for (step, &(op, a, b, c)) in ops.iter().enumerate() {
            if c % 4 != 0 {
                now += SimDuration::from_millis(u64::from(c));
            }
            let peer = PEERS[usize::from(b) % PEERS.len()];
            let msg = usize::from(a) % 3;
            let zone = usize::from(a / 3) % 3;
            // Kinds: 0 a shared hand-off, 1 a `Deliver`, 2 a `Deliver`
            // announce, 3 a hand-off announce, 4 a holder's hand-off.
            let first = |peer, kind: u8| Entry {
                due: now,
                seq: 0,
                msg,
                peer,
                zone: [0, 3, 4].contains(&kind).then_some(zone),
                cover: match kind {
                    3 => Cover::Announce,
                    4 => Cover::Alone { co_rep: PEERS[usize::from(c) % PEERS.len()] },
                    _ => Cover::Shared,
                },
                attempt: 0,
                tried: vec![],
                armed_at: now,
                announce: (kind == 2).then_some(PEERS[usize::from(c) % PEERS.len()]),
            };
            match op {
                0..=2 => {
                    let e = first(peer, a % 5);
                    let armed = acks.arm(now, ack_of(&e));
                    assert_eq!(armed, model.arm(now, e), "step {step}: arm");
                    assert_eq!(acks.schedule_sweep(), model.schedule_sweep(), "step {step}");
                }
                3..=5 => {
                    let msg = usize::from(c) % 4;
                    let waiting = |m: &Model, hand_off: bool| {
                        m.entries
                            .iter()
                            .filter(|e| e.msg == msg && e.peer == peer)
                            .filter(|e| e.zone.is_some() == hand_off)
                            .count()
                    };
                    let (delivers, hand_offs) = (waiting(&model, false), waiting(&model, true));
                    let old = model
                        .entries
                        .iter()
                        .any(|e| e.msg == msg && e.zone == Some(zone) && e.tried.contains(&peer));
                    let mates =
                        model.entries.iter().filter(|e| e.msg == msg && e.zone == Some(zone));
                    let mates = mates.map(|e| e.peer).collect::<BTreeSet<_>>().len();
                    let others_announce = model.entries.iter().any(|e| {
                        e.msg == msg && e.zone == Some(zone) && e.cover == Cover::Announce
                    });
                    let run = model.run;
                    let settled = model.settle(msg, zone, peer, now);
                    let still = model.entries.iter().any(|e| {
                        e.msg == msg && e.zone == Some(zone) && e.cover == Cover::Announce
                    });
                    seen.announce_left_for_its_own_peer += u32::from(others_announce && still);
                    seen.twin_ack_extended_the_record += u32::from(!settled.0 && model.run > run);
                    let (handoffs, deliver) = acks.settle(msg_ids[msg], &zones[zone], peer, now);
                    assert_eq!((handoffs.is_some(), deliver), settled, "step {step}: settle");
                    seen.deliver_settled_with_a_second_copy_waiting +=
                        u32::from(settled.1 && delivers > 1);
                    seen.deliver_settled_before_a_hand_off_to_the_same_member +=
                        u32::from(settled.1 && hand_offs > 0);
                    seen.failed_over_settled_by_the_peer_left += u32::from(settled.0 && old);
                    seen.both_representatives_settled_at_once += u32::from(settled.0 && mates > 1);
                }
                6 => {
                    let mut taken = 0;
                    while let Some(e) = model.pop_due(now) {
                        let ack = acks.pop_due(now).expect("the model took one");
                        assert_eq!(ack.env.msg_id, msg_ids[e.msg], "step {step}");
                        let same = (ack.peer, ack.zone.clone(), ack.attempt, &ack.tried);
                        let zone = e.zone.map(|z| zones[z].clone());
                        assert_eq!(same, (e.peer, zone, e.attempt, &e.tried), "step {step}");
                        assert_eq!((ack.armed_at, ack.announce), (e.armed_at, e.announce));
                        assert_eq!(ack.cover, e.cover, "step {step}");
                        seen.announce_ran_out_into_the_payload +=
                            u32::from(e.cover == Cover::Announce);
                        taken += 1;
                        seen.sweep_took_two_due_at_one_instant += u32::from(taken == 2);
                        let Some(e) = retry(e, &mut acks, &mut model) else { continue };
                        assert_eq!(acks.arm(now, ack_of(&e)), model.arm(now, e), "step {step}");
                    }
                    assert!(acks.pop_due(now).is_none(), "step {step}: the table took more");
                    assert_eq!(acks.schedule_sweep(), model.schedule_sweep(), "step {step}");
                }
                7 => {
                    let rtt = SimDuration::from_millis(4 * u64::from(c) + 1);
                    acks.note_rtt(peer, rtt);
                    model.note_rtt(peer, rtt);
                }
                8 if c % 2 == 0 => {
                    acks.note_timeout(peer);
                    model.note_timeout(peer);
                }
                8 => {
                    acks.forget_timeouts(peer);
                    model.timeouts.retain(|t| t.0 != peer);
                }
                9 if c % 2 == 0 => {
                    seen.held_cap_dropped += u32::from(model.held.len() >= MAX_HELD_ANNOUNCES);
                    acks.hold_announce(msg_ids[usize::from(a) % 4], peer);
                    model.hold(msg_ids[usize::from(a) % 4], peer);
                }
                9 => {
                    let mut released = vec![];
                    acks.release_announces(msg_ids[usize::from(a) % 4], |p| released.push(p));
                    assert_eq!(released, model.release(msg_ids[usize::from(a) % 4]));
                }
                10 => {
                    for k in 0..64u32 {
                        let e = first(PEERS[(usize::from(b) + k as usize) % 3], 1);
                        let armed = model.arm(now, e.clone());
                        seen.deliver_cap_refused += u32::from(!armed);
                        assert_eq!(acks.arm(now, ack_of(&e)), armed, "step {step}: burst");
                    }
                    assert_eq!(acks.schedule_sweep(), model.schedule_sweep(), "step {step}");
                }
                11 => {
                    for k in 0..64u64 {
                        seen.held_cap_dropped += u32::from(model.held.len() >= MAX_HELD_ANNOUNCES);
                        acks.hold_announce(k, peer);
                        model.hold(k, peer);
                    }
                }
                _ if c % 8 == 0 => {
                    acks.clear();
                    model.clear();
                }
                _ => {}
            }
            agree(&acks, &model, &ack_of, &msg_ids, step);
        }
    }

    /// What `NewsWireNode::retry_ack` does with an entry whose wait ran
    /// out, applied to both tables: the entry to re-arm, if any.
    fn retry(mut e: Entry, acks: &mut Acks, model: &mut Model) -> Option<Entry> {
        if e.zone.is_some() {
            acks.note_handoff_timeout();
            model.run = 0;
        }
        if e.cover == Cover::Announce {
            (e.cover, e.attempt) = (Cover::Alone { co_rep: e.peer }, e.attempt + 1);
            return Some(e);
        }
        let mut suspect = false;
        if e.zone.is_some() {
            acks.note_timeout(e.peer);
            model.note_timeout(e.peer);
            suspect = model.timeouts(e.peer) >= SUSPECT_TIMEOUTS;
            assert_eq!(acks.suspect(e.peer), suspect);
        }
        if !suspect && e.attempt < super::super::ACK_RETRIES {
            e.attempt += 1;
            if e.zone.is_none() {
                acks.note_resend();
                model.streak = 0;
                e.announce = None;
            }
            return Some(e);
        }
        e.zone?;
        let next = PEERS.iter().find(|&&p| p != e.peer && !e.tried.contains(&p))?;
        if e.tried.len() >= super::super::MAX_FAILOVERS as usize {
            return None;
        }
        e.tried.push(e.peer);
        (e.peer, e.attempt) = (*next, 0);
        Some(e)
    }

    /// The table holds what the model holds, in the same order, and answers
    /// every question the node asks of it the same way.
    fn agree(
        acks: &Acks,
        model: &Model,
        ack_of: &dyn Fn(&Entry) -> Ack,
        msg_ids: &[u64; 4],
        step: usize,
    ) {
        let table: Vec<_> = acks.entries.iter().collect();
        let order = model.order();
        assert_eq!(table.len(), order.len(), "step {step}: entries");
        for (&(&(due, seq), ack), &i) in table.iter().zip(&order) {
            let e = &model.entries[i];
            assert_eq!((due, seq), (e.due, e.seq), "step {step}: deadline of {e:?}");
            let want = ack_of(e);
            let got = (ack.env.msg_id, ack.peer, &ack.zone, ack.cover, ack.attempt, &ack.tried);
            let want =
                (want.env.msg_id, want.peer, &want.zone, want.cover, want.attempt, &want.tried);
            assert_eq!(got, want, "step {step}");
            assert_eq!((ack.armed_at, ack.announce), (e.armed_at, e.announce), "step {step}");
        }
        assert_eq!((acks.len(), acks.delivers()), (order.len(), model.delivers()), "step {step}");
        assert_eq!((acks.streak, acks.split_on()), (model.streak, model.streak >= SPLIT_STREAK));
        let clean = model.run >= HANDOFF_STREAK;
        assert_eq!((acks.handoff_run, acks.handoff_clean()), (model.run, clean), "step {step}");
        let awaited: Vec<(u64, u32)> =
            model.awaited.iter().map(|&(m, p)| (msg_ids[m], p)).collect();
        assert!(acks.awaited.iter().eq(&awaited), "step {step}: awaited twins");
        let mut sweeps = model.sweeps.clone();
        sweeps.sort();
        assert!(acks.sweeps.iter().eq(&sweeps), "step {step}: sweeps");
        assert_eq!(acks.sweep_armed(), !sweeps.is_empty());
        let mut timeouts = model.timeouts.clone();
        timeouts.sort();
        assert_eq!(acks.timeouts, timeouts, "step {step}: back-off");
        for peer in PEERS {
            let (bound, suspect) = (model.bound(peer), model.timeouts(peer) >= SUSPECT_TIMEOUTS);
            assert_eq!(acks.round_trip_bound(peer), bound, "step {step}: bound to {peer}");
            assert_eq!(acks.suspect(peer), suspect, "step {step}: {peer} suspect");
            let samples = model
                .keys
                .zone_key(peer)
                .and_then(|k| model.peaks.iter().find(|p| p.0 == k).map(|p| p.2));
            assert_eq!(acks.samples(peer), samples.unwrap_or(0), "step {step}: samples");
        }
        assert!(acks.held_announces.iter().eq(&model.held), "step {step}: held announces");
        assert_eq!(acks.held_announces(), model.held.len());
    }

    /// The table agrees with the linear model after every step of the
    /// shim's seeded operation sequences — arms, acks, sweeps with retries
    /// and failovers, timed round trips, timeouts, held announces, bursts
    /// past both caps, and restarts — and every settle and sweep rule the
    /// model states came up in them.
    #[test]
    fn the_table_matches_a_linear_model() {
        use proptest::strategy::Strategy;
        let ops = proptest::collection::vec((0u8..13, 0u8..16, 0u8..16, 0u16..600), 1..300);
        let mut seen = Seen::default();
        for case in 0..proptest::CASES {
            let mut rng = proptest::test_rng("node::acks::lockstep", case);
            lockstep(&ops.generate(&mut rng), &mut seen);
        }
        let counts = [
            seen.failed_over_settled_by_the_peer_left,
            seen.both_representatives_settled_at_once,
            seen.deliver_settled_before_a_hand_off_to_the_same_member,
            seen.deliver_settled_with_a_second_copy_waiting,
            seen.sweep_took_two_due_at_one_instant,
            seen.deliver_cap_refused,
            seen.held_cap_dropped,
            seen.announce_left_for_its_own_peer,
            seen.twin_ack_extended_the_record,
            seen.announce_ran_out_into_the_payload,
        ];
        assert!(counts.iter().all(|&n| n > 0), "{seen:?}");
    }
}
